(** Deterministic, splittable pseudo-random number generation.

    All randomized components of the library draw their randomness from a
    {!t} value so that every experiment is reproducible from a single seed.
    The generator is xoshiro256** seeded through splitmix64, which is fast,
    has a 256-bit state, and passes BigCrush; splitmix64 is also used to
    derive independent child generators ({!split}) so that parallel
    pipelines do not share streams.

    There is one state representation: a 40-byte buffer stepped in
    place, so {!int}, {!bits53}, {!bernoulli} and {!bool} allocate
    nothing, and every kernel — the reservoirs, [Wr_int], the alias
    draws — steps the same [t] directly. *)

type t
(** Mutable generator state. Not thread-safe; use {!split} to hand a
    private generator to each concurrent consumer. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from [seed] (default [0x5EED]).
    Two generators built from equal seeds produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator duplicating [t]'s current state:
    it will produce exactly the stream [t] would have produced. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val split_n : t -> int -> t array
(** [split_n t n] advances [t] once and returns [n] fresh generators,
    mutually independent and independent of [t]'s subsequent output —
    the per-shard streams of the parallel runtime. Children are derived
    through a splitmix64 chain, so the result is a deterministic
    function of [t]'s state at the call: equal states give equal child
    arrays for every [n]. Raises [Invalid_argument] if [n < 0]. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output word. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. Uses rejection to avoid modulo bias. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)], with 53 bits of
    precision. *)

val bits53 : t -> int
(** [bits53 t] is the top 53 bits of the next output word, uniform on
    [\[0, 2^53)]; [float_of_int (bits53 t) *. 0x1.0p-53] is exactly
    [unit_float t]. *)
(* An int, not a float: under -opaque a float returned across modules boxes. *)

val unit_float : t -> float
(** [unit_float t] is uniform on [\[0, 1)]: {!bits53} scaled by 2^-53. *)

val unit_float_pos : t -> float
(** [unit_float_pos t] is uniform on [(0, 1)] — never returns [0.],
    convenient for logarithms. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to
    [\[0, 1\]]). *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element of [a]. Raises
    [Invalid_argument] on an empty array. *)

val sample_distinct : t -> k:int -> n:int -> int array
(** [sample_distinct t ~k ~n] draws [k] distinct integers from
    [\[0, n)] uniformly (Floyd's algorithm), in random order. Raises
    [Invalid_argument] if [k > n] or [k < 0]. *)
