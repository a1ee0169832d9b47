(** Hand-written recursive-descent parser for the SQL subset.

    Grammar (case-insensitive keywords):
    {v
    query    ::= [EXPLAIN] SELECT items FROM tables [WHERE conds]
                 [GROUP BY columns] [SAMPLE int [USING ident]] [LIMIT int]
    items    ::= '*' | item (',' item)*
    item     ::= column [AS ident]
               | (COUNT|SUM|AVG|MIN|MAX) '(' (column | '*') ')' [AS ident]
    tables   ::= table (',' table)*     -- list order = join order
    table    ::= ident [ident]          -- optional alias
    conds    ::= cond (AND cond)*
    cond     ::= column op (column | literal)
    op       ::= '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
    column   ::= ident ['.' ident]
    literal  ::= integer | float | string in single quotes
    v} *)

val parse : string -> (Ast.query, string) result
(** Parse one query; error messages carry a character position. *)
