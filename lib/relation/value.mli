(** Typed attribute values.

    The engine is dynamically typed at the tuple level (like the paper's
    SQL Server substrate at the operator interface): every cell carries a
    {!t}. Join attributes in the paper's experiments are integers, but
    strings and floats are supported so the examples can model realistic
    star-schema columns (product names, sale amounts, dates). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

type ty = T_int | T_float | T_str
(** Column types for schema declarations. [Null] inhabits every type. *)

val conforms : t -> ty -> bool
(** [conforms v ty] holds when [v] may appear in a column of type [ty]
    ([Null] conforms to every type). *)

val equal : t -> t -> bool
(** Structural equality. [Null] is equal only to [Null] (the engine's
    joins treat [Null] as non-matching separately; see
    {!Rsj_exec.Join_hash}). *)

val compare : t -> t -> int
(** Total order: [Null] < [Int] < [Float] < [Str]; within a numeric kind,
    numeric order; strings lexicographic. Cross-kind numeric comparison
    ([Int] vs [Float]) compares by numeric value. *)

val hash : t -> int
(** Hash consistent with {!equal}. *)

val int : int -> t
val float : float -> t
val str : string -> t

val to_int_exn : t -> int
(** Raises [Invalid_argument] unless the value is [Int]. *)

val to_float_exn : t -> float
(** Accepts [Int] (widened) and [Float]; raises otherwise. *)

val is_null : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val ty_to_string : ty -> string
