(** Hash index from join-attribute value to row ids.

    This is the access structure Olken-Sample and Stream-Sample need on
    R2: given a value [v], enumerate or randomly pick one of the [m2(v)]
    matching tuples (paper §5.3, §6.1). NULL join values are excluded at
    build time, matching equi-join semantics.

    One structure serves both planes: an {!Int_index} over the key
    column's {!Column.int_view}. The boxed API below encodes its probe
    value with {!Column.key}, which joins exactly as {!Value.equal}. *)

open Rsj_relation

type t

val build : Relation.t -> key:int -> t
(** [build r ~key] indexes column [key] of [r] in one scan. *)

val relation : t -> Relation.t
val key : t -> int

val multiplicity : t -> Value.t -> int
(** [multiplicity t v] is m(v), the number of matching tuples. *)

val matching_tuples : t -> Value.t -> Tuple.t array
(** The tuples whose key equals the probe value, in storage order, as
    a freshly allocated array — the paper's [Jt(R2)]. Empty for misses
    and for [Null]. *)

val random_match : t -> Rsj_util.Prng.t -> Value.t -> Tuple.t option
(** [random_match t rng v] is a uniform random tuple among those with key
    [v] (one index probe plus one O(1) pick), or [None] when m(v) = 0.
    This is the Step 2(b) primitive of Stream-Sample and Olken-Sample. *)

val max_multiplicity : t -> int
(** Largest m(v) over the domain — the upper bound M of Olken-Sample. *)

val int_plane : t -> Int_index.t
(** The index itself, keyed by {!Column.key}. In-bucket row order is
    storage order. *)

val multiplicity_key : t -> int -> int
(** {!multiplicity} of an int key. *)

val random_match_row : t -> Rsj_util.Prng.t -> int -> int
(** {!random_match} of an int key: a uniform matching row id, or -1
    when m(v) = 0 — drawing from the generator exactly as
    {!random_match} does. *)
