(** Allocation-free Walker/Vose alias table over flat arrays — the
    kernel under [Dist.Alias_table].

    Construction is O(k) (Vose's worklist pairing over a scaled weight
    vector); a draw is one uniform cell pick plus one threshold
    compare, independent of [k] — against O(log k) per draw for the
    CDF binary search. The table is immutable and safe to share across
    domains.

    [draw] and [draw_many] consume the generator identically: a
    fixed-seed batch equals the same-length sequence of single draws
    element for element (pinned by test/test_alias.ml). *)

type t

val of_weights : ?total:float -> float array -> t
(** Build from non-negative weights with positive sum. [total], when
    given, must be their exact sum (callers that already validated —
    [Dist.validate_weights] — pass it to skip the defensive pass).
    Raises [Invalid_argument] on an empty array, a negative or NaN
    weight, or a non-positive sum. *)

val support : t -> int
(** Number of categories. *)

val draw : t -> Prng.t -> int
(** Draw an index with probability proportional to its weight. O(1). *)

val draw_packed : t -> Bytes.t -> int
(** {!draw} against a packed state buffer ([Prng.dump_state], >= 40
    bytes), stream-identical to {!draw}. For kernels that keep the
    state packed across many picks — nothing boxes per draw. *)

val draw_many : t -> Prng.t -> into:int array -> n:int -> unit
(** [draw_many t rng ~into ~n] fills [into.(0 .. n-1)] with [n]
    independent draws, stepping a packed copy of [rng]'s state for the
    whole batch (Wr_int's kernel discipline: nothing boxes in the
    loop; the only allocation is the 40-byte state buffer). [rng] is
    advanced exactly as [n] single {!draw}s would advance it. Raises
    [Invalid_argument] when [n < 0] or [into] is shorter than [n]. *)
