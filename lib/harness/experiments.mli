(** The paper's experimental evaluation (§8), re-run on the OCaml
    substrate.

    Every figure/table of the paper has one function here that sweeps
    the same parameters and prints the same series. Because absolute
    times do not transfer across substrates, each figure is reported
    twice per strategy: wall-clock running time as % of Naive-Sample
    (the paper's metric) and work-model cost as % of Naive-Sample
    (scale-independent; see {!Rsj_exec.Metrics.total_work}). Scale is
    read from {!Rsj_workload.Zipf_tables.Scale.from_env}. *)

type config = {
  scale : Rsj_workload.Zipf_tables.Scale.t;
  repetitions : int;  (** Median-of-k wall-clock timing (default 3, env RSJ_REPS). *)
}

val config_from_env : unit -> config

(** One measurement at one sweep point. [label] is the series name — a
    strategy for Figures A–D, a (strategy, outer-skew) pair for Figure
    E, a Z-pair for Figure F. *)
type cell = {
  label : string;
  runtime_pct : float;  (** Wall-clock relative to Naive-Sample, in %. *)
  work_pct : float;  (** total_work relative to Naive-Sample, in %. *)
  sample_size : int;
}

type sweep_point = { x_label : string; naive_seconds : float; naive_work : int; cells : cell list }

type figure = {
  id : string;  (** "A" ... "F". *)
  caption : string;
  x_axis : string;
  points : sweep_point list;
}

val table1 : unit -> Report.t
(** The paper's Table 1 (information requirements), extended with the
    §6.4 variants. *)

val figure_a : config -> figure
(** Effect of sampling fraction, z = (0, 0); fractions 100 tuples,
    sqrt n, 1%, 5%, 10%; Olken / Stream / Frequency-Partition vs
    Naive. Index on the inner relation; FPS threshold 5%. *)

val figure_b : config -> figure
(** Same sweep at z = (2, 3). *)

val figure_c : config -> figure
(** Effect of inner skew (z2 in 0..3), outer z = 0, fraction 1%. *)

val figure_d : config -> figure
(** Effect of inner skew, outer z = 3, fraction 1%. *)

val figure_e : config -> figure
(** Frequency-Partition-Sample with no index on the inner relation,
    varying inner skew, for outer z = 0 and z = 3 (the two series are
    rendered as two sweep points groups; FPS is the only strategy). *)

val figure_f : config -> figure
(** Effect of the statistics threshold k in {0.1, 0.5, 1, 2, 5, 10,
    20}% on Frequency-Partition-Sample, for z = (2,3), (1,2), (1,1). *)

val render_figure : Format.formatter -> figure -> unit
(** Two tables per figure: runtime % and work %. *)

val validate_alphas : config -> Report.t
(** V1: predicted intermediate-join fractions (Theorems 7, 8, 9)
    against measured join_output_tuples / |J| for Group-Sample,
    Frequency-Partition-Sample and Index-Sample across skews. *)

val validate_uniformity : ?trials:int -> unit -> Report.t
(** V2: chi-square p-value of every strategy's sample against the
    uniform distribution over a small fully-enumerated join. *)

val negative_demo : unit -> Report.t
(** V3: Theorem 10 Monte-Carlo (empty sample-join rate on Example 1 vs
    the analytic prediction) and Theorem 12 feasibility rows. *)

val run_all : Format.formatter -> unit
(** Everything above, in paper order, then three reports of its own:
    V4, the Figure A sweep re-scored under {!Rsj_exec.Io_model}'s disk
    cost model; V5, every strategy (the §6.4 variants included) on one
    skewed cell; V6, the {!Rsj_parallel} runtime against the
    sequential runner at 1, 2 and 4 domains. The payload of
    [dune exec bench/main.exe]. *)
