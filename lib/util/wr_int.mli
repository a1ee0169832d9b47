(** Allocation-free weighted-WR reservoir over int elements.

    The push-style twin of [Reservoir.Wr] specialised to int elements
    and int weights — the inner loop of the compact data plane. The
    draw sequence is bit-for-bit the one [Reservoir.Wr.feed] performs
    from the same generator: the small-mean binomial inversion and
    Floyd's distinct sampling are inlined over unboxed storage
    (loop-carried floats in a float array, the generator stepped
    through [Prng]'s int-returning draws), and the rare regimes defer
    to [Dist.binomial]. Feeding n elements allocates nothing beyond
    the [create]-time buffers.

    The kernel draws from the [Prng.t] handed to [create], in place:
    after any feed that generator continues the stream exactly where a
    [Reservoir.Wr]-fed one would be, and several kernels created on one
    generator interleave like several [Reservoir.Wr.feed] call sites
    sharing it. *)

type t

val create : ?on_displace:(int -> unit) -> Prng.t -> r:int -> t
(** [create rng ~r] allocates the fixed buffers; feeds draw from
    [rng]. [on_displace] mirrors the reservoir displacement telemetry
    hook (called with the flip count whenever occupied slots are
    overwritten). Raises [Invalid_argument] when [r < 0]. *)

val feed : t -> weight:int -> int -> unit
(** [feed t ~weight row]: weight 0 is ignored, negative raises
    [Invalid_argument] — exactly [Reservoir.Wr.feed] with
    [~weight:(float_of_int weight)]. *)

val fed_count : t -> int
val total_weight : t -> float
val size : t -> int

val contents : t -> int array
(** The r draws; [[||]] when nothing with positive weight was fed.
    Fresh array. *)
