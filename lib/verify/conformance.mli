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
      dictionary-coded keys.
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

val default_skews : skew list
(** Uniform (z=0) and the paper's skewed z1=1, z2=2 cell. *)

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

type cell = {
  strategy : Strategy.t;
  semantics : Semantics.t;
  skew : skew;
  domains : int;
  str_keys : bool;
      (** Run on {!Rsj_workload.Zipf_tables.string_keyed} copies of the
          skew's pair: the chunked runners scan dictionary-coded
          keys instead of the ints. *)
}

type cell_result = {
  cell : cell;
  join_size : int;
  draws : int;  (** Total tuples drawn in the last attempt. *)
  outcome : Kernel.outcome;
}

val default_domain_counts : int list
(** [\[1; 2; 4\]] per the acceptance matrix. *)

val matrix :
  ?strategies:Strategy.t list ->
  ?semantics:Semantics.t list ->
  ?skews:skew list ->
  ?domain_counts:int list ->
  ?str_keys:bool ->
  unit ->
  cell list
(** The full cross product (default: every strategy × {WR, WoR, CF} ×
    {!default_skews} × {!default_domain_counts} = 144 cells), on
    int keys unless [str_keys]. *)

val default_cells : unit -> cell list
(** What {!run} sweeps when given no [cells]: {!matrix} plus 32
    string-keyed cells — every strategy × {WR, WoR} on the uniform
    skew at domains 1 and 2 — which cover dictionary-coded join
    keys. *)

type estimator = Sum | Count | Avg
(** Aggregate estimators KS-gated per strategy: Horvitz–Thompson SUM,
    Horvitz–Thompson COUNT of a selection predicate (even outer row
    id), and the sample-mean AVG. *)

val all_estimators : estimator list
val estimator_label : estimator -> string

val default_chain_skews : float list
(** Zipf parameters of the chain rows ([\[0.5; 2.0\]]). *)

type picker_profile = {
  plabel : string;  (** Row label, e.g. ["histogram-only"]. *)
  availability : Strategy.availability;
}
(** A declared catalog state handed to the cost-based picker
    ({!Rsj_optimizer.Picker}): the picker chooses a strategy under this
    profile and the chosen strategy's WR law is gated like any cell. *)

val default_picker_profiles : picker_profile list
(** Four states spanning Table 1's columns: ["full"] (everything),
    ["no-index"] (statistics + histogram), ["histogram-only"], and
    ["none"] (Naive territory). *)

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
(** Execute the sweep ([cells] defaults to {!default_cells}). Workload
    pairs and oracles are built once per skew (and once more for its
    string-keyed copy when a cell asks for it); every cell attempt re-derives its own seed from
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
