(** Conformance matrix runner.

    Sweeps every sampling strategy × semantics × workload skew ×
    parallel-domain count and holds each cell to the exact law derived
    by {!Oracle}, under the single statistical policy of {!Kernel}
    (Bonferroni across the whole matrix, seeded retries against
    flakes). Three kinds of rows:

    - {b Cells}: per-tuple goodness of fit. WR cells chi-square the
      pooled draws against uniform; WoR cells test the hypergeometric
      marginal inclusion counts; CF cells conjoin conditional
      uniformity with a z-test of the Binomial(|J|, f) total size.
      String-keyed WR/WoR cells run the same chunked runners over
      dictionary-coded keys; bag-join cells run them on a join with
      duplicate output tuples against the multiplicity-weighted
      oracle. Every WoR trial must return exactly [min r |J|] tuples,
      none more often than its multiplicity.
    - {b Aggregates}: per strategy × estimator × domain count, a KS
      test of standardized estimates against the normal CDF — gating
      the paper's §1 use case (approximate aggregates over the
      sample), not just membership frequencies, over the pooled
      parallel path at every matrix width. Three estimators per
      strategy: the Horvitz–Thompson SUM, the Horvitz–Thompson COUNT
      of a selection predicate, and the sample-mean AVG.
    - {b Chains}: the 3-relation chain walker
      ({!Rsj_core.Chain_sample}) chi-squared against the uniform law
      over the exactly enumerated chain join, one row per chain skew.
    - {b Negative control}: a deliberately biased WR sampler
      ({!Rsj_core.Negative.biased_wr_draw}) run through the same
      kernel; the run only passes when the control is {e rejected},
      proving the tests have power at the configured sample sizes. *)

open Rsj_relation
module Strategy := Rsj_core.Strategy
module Semantics := Rsj_core.Semantics

type skew = { label : string; z1 : float; z2 : float }

type config = {
  trials : int;  (** Independent samples pooled per cell attempt. *)
  r : int;  (** Requested sample size per trial. *)
  n1 : int;  (** Outer-table rows. *)
  n2 : int;  (** Inner-table rows. *)
  domain : int;  (** Join-attribute domain size. *)
  seed : int;  (** Root of every derived deterministic stream. *)
  significance : float;  (** Family-wise error budget. *)
  retries : int;  (** Kernel retries per outcome. *)
}

val default_config : unit -> config
(** Fast-tier defaults (trials=60, r=16, 40×80 tables, domain 6,
    alpha=0.01, 2 retries). [RSJ_CONF_TRIALS] overrides [trials]
    (read through {!Rsj_obs.Config}, which raises [Invalid_argument]
    when it is set but not a positive integer). *)

(** The input a cell samples from, built off the skew's pair. *)
type input =
  | Int_keys  (** The pair itself. *)
  | Str_keys
      (** {!Rsj_workload.Zipf_tables.string_keyed}: the chunked runners
          scan dictionary-coded keys instead of the ints. *)
  | Bag
      (** {!Rsj_workload.Zipf_tables.bag}: a bag join, many positions
          per distinct tuple. *)

type cell = {
  strategy : Strategy.t;
  semantics : Semantics.t;
  skew : skew;
  domains : int;
  input : input;
}

type cell_result = {
  cell : cell;
  join_size : int;
  draws : int;  (** Total tuples drawn in the last attempt. *)
  outcome : Kernel.outcome;
}

type picker_profile = {
  plabel : string;  (** Row label, e.g. ["histogram-only"]. *)
  availability : Strategy.availability;
}
(** A declared catalog state handed to the cost-based picker
    ({!Rsj_optimizer.Picker}): the picker chooses a strategy under this
    profile and the chosen strategy's WR law is gated like any cell. *)

type summary = {
  config : config;
  results : cell_result list;
  aggregates : (string * int * Kernel.outcome) list;
      (** Strategy × estimator × domain count → (label, domains, KS
          row): the estimator laws are gated over the parallel path at
          every domain count in the matrix, not just d = 1. *)
  chains : (string * Kernel.outcome) list;  (** Chain skew → chi-square row. *)
  pickers : (string * int * Kernel.outcome) list;
      (** Picker profile × domain count → (["picker[profile->chosen]"],
          domains, chi-square row): the strategy the picker chose under
          that catalog profile, held to the WR uniform law over the
          parallel path. *)
  control : Kernel.outcome;
  comparisons : int;  (** Bonferroni divisor actually applied. *)
  all_pass : bool;
      (** Every cell, aggregate, chain and picker row passed AND the
          control was rejected. *)
}

val run :
  ?config:config ->
  ?cells:cell list ->
  ?with_aggregates:bool ->
  ?with_chains:bool ->
  ?with_control:bool ->
  ?with_pickers:bool ->
  ?picker_profiles:picker_profile list ->
  unit ->
  summary
(** Execute the sweep. [cells] defaults to the full cross product —
    every strategy × {WR, WoR, CF} × the uniform and zipf(1,2) skews ×
    domains 1, 2 and 4, 144 cells — plus 32 string-keyed cells (every
    strategy × {WR, WoR} on the uniform skew at domains 1 and 2) and 32
    bag-join cells (every strategy × {WR, WoR} on the zipf(1,2) skew at
    domains 1 and 4). The aggregate rows KS-gate Horvitz–Thompson SUM,
    Horvitz–Thompson COUNT of a selection predicate (even outer row
    id) and the sample-mean AVG; the chain rows walk chains at zipf
    0.5 and 2.0; [picker_profiles] defaults to four catalog states
    spanning Table 1's columns: ["full"], ["no-index"] (statistics +
    histogram), ["histogram-only"] and ["none"] (Naive territory). Workload
    pairs and oracles are built once per skew (and once more for its
    string-keyed or bag copy when a cell asks for it); every cell attempt re-derives its own seed from
    [config.seed], the cell index and the attempt number, so the whole
    run is reproducible and retries are independent. *)

val wr_uniformity :
  ?config:Kernel.config ->
  trials:int ->
  universe:Tuple.t array ->
  draw:(attempt:int -> unit -> Tuple.t array) ->
  unit ->
  Kernel.outcome
(** Reusable WR-uniformity check over an explicit universe: pools
    [trials] batches from [draw ~attempt ()] and chi-squares them
    against the uniform law, with the kernel's bucketing and retry
    policy. [draw ~attempt] must return a fresh deterministic sampler
    for that attempt. This is what {!run}'s WR cells use, exposed so
    tests (e.g. the parallel runtime's and the chain walker's) share
    the exact policy instead of hand-rolling thresholds. *)

val report : summary -> Rsj_harness.Report.t
(** Machine-readable table: one row per cell, per aggregate KS row,
    and the negative control last ([REJECTED (expected)] when the
    biased sampler was caught). Render with
    {!Rsj_harness.Report.print} or {!Rsj_harness.Report.to_csv}. *)
