(** Minimal CSV import/export so examples and the CLI can exchange data
    with other tools.

    The dialect is deliberately simple: comma separator, double-quote
    quoting with doubled quotes inside quoted fields, one header row with
    column names. Values are parsed according to the target schema;
    the literal empty unquoted field denotes NULL. *)

val save : path:string -> Relation.t -> unit
(** Write the relation with a header row. Overwrites [path]. *)

val load : ?name:string -> path:string -> Schema.t -> Relation.t
(** Read a CSV produced by {!save} (or compatible) into a relation
    called [name] (default: the file's basename). The header row is
    checked against the schema's column names. Raises [Failure] with a
    line-numbered message on malformed input. *)

val parse_line : string -> string list
(** Exposed for tests: split one CSV record into raw fields. *)

val parse_int : string -> int option
(** Exception-free int parse. A manual digit loop accepts the plain
    decimal shape [[+-]?[0-9]+] when it fits in an [int]; everything
    else (overflow, ['_'] separators, radix prefixes, junk) defers to
    [int_of_string_opt], so the accepted language is exactly
    [int_of_string_opt]'s. *)

val escape_field : string -> string
(** Exposed for tests: quote a field if it needs quoting. *)
