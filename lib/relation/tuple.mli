(** Tuples (rows) as immutable-by-convention value arrays.

    A tuple is a bare [Value.t array] for speed; helpers here cover the
    access patterns of the sampling strategies: reading the join
    attribute, concatenating two tuples to form a join output row, and
    projecting. Callers must not mutate tuples that have been handed to a
    relation or an operator. *)

type t = Value.t array

val create : Value.t list -> t

val get : t -> int -> Value.t
(** [get t i] with bounds checking; raises [Invalid_argument]. *)

val attr : t -> int -> Value.t
(** Alias of {!get}: [attr t key] reads the join attribute at position
    [key] — the paper's [t.A]. *)

val join : t -> t -> t
(** [join t1 t2] is the concatenated join output row [t1 ⋈ t2]. *)

val project : t -> int list -> t
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
