(** The one int key encoding behind every column and every int plane
    (documented in {!Column}, which exports it): an [Int] outside the
    reserved band is its own key, [Null] is {!null_key}, and every
    other value gets a code inside the band from one process-wide
    dictionary that only grows. *)

val null_key : int

val of_int : int -> int
(** [of_int x] is the key of [Int x]. *)

val key : Value.t -> int
val find_key : Value.t -> int
val value_of_key : int -> Value.t
