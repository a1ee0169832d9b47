(** Minimal CSV import/export so examples and the CLI can exchange data
    with other tools.

    The dialect is deliberately simple: comma separator, double-quote
    quoting with doubled quotes inside quoted fields, one header row with
    column names. Values are parsed according to the target schema;
    the literal empty unquoted field denotes NULL. *)

val save : path:string -> Relation.t -> unit
(** Write the relation with a header row. Overwrites [path]. A string
    cell that holds a comma, quote or line break is written quoted, and
    the empty string as [""]. *)

val load : ?name:string -> path:string -> Schema.t -> Relation.t
(** Read a CSV produced by {!save} (or compatible) into a relation
    called [name] (default: the file's basename). The header row is
    checked against the schema's column names. An int cell is accepted
    exactly when [int_of_string_opt] accepts it. Raises [Failure] with a
    line-numbered message on malformed input. *)
