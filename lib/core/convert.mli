(** Conversions between sampling semantics (paper §3, observations 1–3).

    Observation 4 — that no WR/WoR sample can be turned into a CF sample
    — is a non-theorem-prover's impossibility: there is deliberately no
    [*_to_cf] function here; {!Semantics.convertible} documents it. *)

open Rsj_util

val wr_to_wor :
  Prng.t -> ?equal:('a -> 'a -> bool) -> ?hash:('a -> int) -> r:int -> 'a array -> 'a array
(** Observation 1: filter a WR sample down to distinct elements by
    rejecting repeats, keeping the first occurrence of each (scanning in
    random order so no position is favoured), then truncate to at most
    [r]. Distinctness is by [equal] (default structural equality);
    [hash] (default [Hashtbl.hash]) must agree with it. Elements whose
    hashes collide stay distinct. The result may be shorter than [r] when the WR
    sample does not contain [r] distinct elements — callers top up by
    drawing more WR samples, as the paper's "minor loss in efficiency"
    remark implies. *)

val cf_to_wor : Prng.t -> r:int -> 'a array -> 'a array option
(** Observation 2: a CF sample taken at an inflated fraction f' > f is
    cut down to exactly [r] elements by uniform WoR subsampling. [None]
    when the CF sample has fewer than [r] elements (the Chernoff-bound
    failure case: the caller must resample at a larger f'). *)

val cf_oversample_fraction : f:float -> n:int -> ?failure_prob:float -> unit -> float
(** The inflated fraction f' the paper's Chernoff argument prescribes so
    that a CF pass of fraction f' yields at least f·n elements except
    with probability [failure_prob] (default 1e-6): solves
    f' = f + delta with delta from the multiplicative Chernoff lower
    tail. Clamped to 1. *)

val wor_to_wr : Prng.t -> r:int -> 'a array -> 'a array
(** Observation 3: draw [r] elements uniformly {e with} replacement
    from a WoR sample. When the WoR sample is a full f-fraction of R,
    each output position is marginally uniform over R; the caveat that
    draws are only exchangeable (not independent) across positions is
    inherent to the construction and documented in the test-suite. *)
