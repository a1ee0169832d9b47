(** The root table of a join walk: one Vose alias table over R1's rows,
    each weighted by the number of join results it heads — m2(t.A) for
    a two-way join, the propagated chain weight w_1 for a chain
    ({!Chain_sample}, whose prepare is the one builder: the two-way
    table is its k = 2 root). It is the first step of Stream-, Group- and
    Count-Sample (§5, Thm 6: S1 drawn from R1 with weights m2(t.A)) as
    a precomputed structure: built once in O(n1), it serves every later
    S1 draw in O(1), where a streaming pass pays O(n1) per request.

    Only rows of positive weight enter the table, in storage order, so
    a row whose key is [Null] or misses R2 is never drawn. The table is
    a pure function of its weights: two builds over the same weights
    draw the same rows from the same generator. Immutable, and safe to
    share across domains. *)

type t

val of_weights : float array -> t
(** [of_weights w] draws row [i] with probability [w.(i) / Σ w] over
    the rows with [w.(i) > 0] (NaN and non-positive weights are left
    out). An all-zero or empty [w] gives the empty table. *)

val draw : t -> Rsj_util.Prng.t -> int
(** A row id, drawn in O(1) with one {!Rsj_util.Dist.Alias_table.draw}
    and no allocation. Raises [Invalid_argument] on the empty table. *)

val size : t -> int
(** Rows of positive weight. *)

val total : t -> float
(** Σ of the kept weights, summed in storage order: |J| for a two-way
    table (exact below 2^53). *)
