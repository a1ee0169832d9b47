(** Relation schemas: ordered, named, typed columns.

    Schemas resolve attribute names to positions (so strategies can be
    written against positions, as in the paper's operator-level
    implementation) and validate tuples on insert. *)

type column = { name : string; ty : Value.ty }

type t

val create : column list -> t
(** Raises [Invalid_argument] on duplicate column names or an empty
    column list. *)

val of_list : (string * Value.ty) list -> t
(** Convenience constructor. *)

val columns : t -> column array
val arity : t -> int

val column_index : t -> string -> int
(** [column_index t name] resolves [name]; raises [Not_found] if the
    schema has no such column. *)

val column_index_opt : t -> string -> int option
val column_name : t -> int -> string
val column_ty : t -> int -> Value.ty

val concat : ?left_prefix:string -> ?right_prefix:string -> t -> t -> t
(** [concat a b] is the schema of a join output: [a]'s columns followed by
    [b]'s. Name collisions are resolved by the optional prefixes (default
    ["l."] / ["r."]) applied only to colliding names. *)

val project : t -> int list -> t
(** [project t idxs] keeps columns [idxs] in the given order. Raises
    [Invalid_argument] on an out-of-range index. *)

val validate : t -> Value.t array -> (unit, string) result
(** [validate t row] checks arity and per-column type conformance. *)
