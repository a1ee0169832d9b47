(** Exact WR sampling over a whole join chain without computing any
    join — the full push-down the paper poses as future work in §7.2
    ("we will have to sample from R1 using statistics for both R2 and
    R3. In principle, this can be done, since the operand relations are
    all base relations and their statistics can be precomputed").

    For a chain R1 ⋈ R2 ⋈ ... ⋈ Rk (each join on its own attribute
    pair), propagate weights right to left:

    - w_k(t) = 1 for t in Rk;
    - w_i(t) = Σ over matching t' in R(i+1) of w_(i+1)(t'), aggregated
      per join value so each pass is one scan;
    - |J| = Σ over t in R1 of w_1(t).

    One output tuple is drawn by walking left to right, choosing the
    next tuple with probability proportional to its weight among the
    matches — a weighted random walk whose acceptance probability is 1
    (the same idea later published as Wander Join with exact weights).
    Every draw is an independent uniform tuple of the chain join, so r
    draws form a WR sample. Preparation costs one scan of every
    relation; each sample costs k categorical draws. *)

open Rsj_relation
open Rsj_exec

type spec = {
  relations : Relation.t array;  (** R1 ... Rk, k >= 1. *)
  join_keys : (int * int) array;
      (** [join_keys.(i) = (a, b)]: R(i+1).a = R(i+2).b in 0-based
          array terms — column [a] of [relations.(i)] equals column [b]
          of [relations.(i+1)]. Length k-1. *)
}

type t
(** Prepared sampler: R1's {!Root_table} over its w_1 weights (the
    same builder as the two-way S1 table); per later level, the
    positive-weight rows grouped by their join key over the
    {!Rsj_relation.Column.int_view} plane ({!Rsj_index.Int_index}), one
    Vose alias table ({!Rsj_util.Dist.Alias_table}) per group for O(1)
    picks; and each row's successor group resolved in advance. *)

val prepare : ?metrics:Metrics.t -> spec -> t
(** Validates the spec and builds the weight tables. Raises
    [Invalid_argument] on shape errors. An r-draw from the prepared
    k-chain then costs O(k·r). *)

val join_size : t -> float
(** Exact |J| as the total root weight (float: chains can overflow
    int range; exact up to float precision). *)

val bytes : t -> int
(** Heap bytes the walker owns (root table, levels, alias tables), not
    counting the spec's relations, which it only references. *)

val sample_rows : t -> Rsj_util.Prng.t -> ?metrics:Metrics.t -> r:int -> unit -> int array
(** The one walk kernel: [r] independent WR draws returned as join
    positions — row-id paths, [r] consecutive groups of [k] row ids
    (group [j] holds the R1..Rk row ids of draw [j]) — with no tuple
    materialization. All [r] root picks are drawn first, then the [r]
    walks, each pick one allocation-free [Dist.Alias_table.draw] on
    [rng]. [[||]] when the join is empty. *)

val sample : t -> Rsj_util.Prng.t -> ?metrics:Metrics.t -> r:int -> unit -> Tuple.t array
(** {!sample_rows} rehydrated through {!Rsj_relation.Relation.rehydrate}:
    [r] independent uniform tuples of the chain join (concatenated
    rows), WR. [[||]] when the join is empty. *)

val draw : t -> Rsj_util.Prng.t -> ?metrics:Metrics.t -> unit -> Tuple.t option
(** [sample ~r:1]: one uniform random tuple of the chain join, or
    [None] when the join is empty. *)
