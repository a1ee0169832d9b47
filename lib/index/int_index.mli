(** Int-specialised hash structures over flat key columns — the
    storage of {!Hash_index} and of the chunked runners' join tables.

    Keys are raw ints from a {!Column.int_view} extraction; the [Null]
    sentinel ([min_int]) matches nothing. Buckets are CSR
    ([starts]/[rows]) with row ids in storage order. Value-free by
    construction (pinned by the [@box-hygiene] alias). *)

(** Growable open-addressing int→int accumulator (counts, or any small
    int payload). [get] of an absent or sentinel key is 0. *)
module Counter : sig
  type t

  val create : ?capacity:int -> unit -> t
  val add : t -> int -> int -> unit
  (** [add t k d] adds [d] to [k]'s value (insert at [d] when absent).
      Raises [Invalid_argument] on the sentinel key. *)

  val get : t -> int -> int
  val cardinal : t -> int
  val iter : (int -> int -> unit) -> t -> unit
  val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
end

val null_key : int
(** The sentinel ([min_int] = [Column.null_key]): matches nothing. *)

type t

val build : ?keep:(int -> bool) -> keys:int array -> unit -> t
(** [build ~keys ()] indexes row ids [0 .. n)] by their key. Sentinel
    keys and rows whose key fails [keep] are excluded. O(n), two
    passes. *)

val find_gid : t -> int -> int
(** Dense group id of a key, or -1 (misses and the sentinel). *)

val gid_start : t -> int -> int
val gid_multiplicity : t -> int -> int
val row : t -> int -> int
(** CSR accessors: group [g]'s rows are [row t j] for
    [j ∈ \[gid_start t g, gid_start t g + gid_multiplicity t g)]. *)

val multiplicity : t -> int -> int
(** Bucket size by key; 0 on a miss. *)

val random_row : t -> Rsj_util.Prng.t -> int -> int
(** Uniform row id among the key's matches, or -1 on a miss: nothing
    drawn on a miss, one [Prng.int] on a hit. *)

val group_count : t -> int
val size : t -> int
(** Indexed (kept) row count. *)

val max_multiplicity : t -> int
