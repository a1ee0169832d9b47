(** Cost-based strategy selection with an explainable decision trace.

    Given a {!Catalog.t} snapshot and a query shape, pick the feasible
    strategy with the lowest expected cost ({!Cost_model.cost}),
    breaking exact ties by a fixed preference order (Stream, Count,
    Hybrid, Index, Frequency-Partition, Group, Olken, Naive). Every
    decision carries the full candidate table so callers can render
    [EXPLAIN SAMPLE] output without recomputation. *)

type reason =
  | Cheapest  (** Won the cost comparison among ≥ 2 feasible strategies. *)
  | Only_feasible  (** No other strategy's requirements were met. *)

val reason_to_string : reason -> string
(** ["cheapest"] / ["only-feasible"] — the metric label values. *)

type decision = {
  chosen : Rsj_core.Strategy.t;
  reason : reason;
  shape : Cost_model.query_shape;
  candidates : Cost_model.costing list;
      (** All strategies in {!Rsj_core.Strategy.all} order, feasible or
          not, with rendered formulas. *)
  catalog_summary : string;  (** {!Catalog.describe} of the input. *)
}

val choose : Catalog.t -> Cost_model.query_shape -> Rsj_core.Strategy.t * decision
(** Pure: no metrics side effects (for tests and batch sweeps). Always
    succeeds — Naive requires nothing, so at least one candidate is
    feasible. *)

val choose_counted : Catalog.t -> Cost_model.query_shape -> Rsj_core.Strategy.t * decision
(** {!choose}, then bump
    [rsj_picker_choice_total{strategy,reason}] in {!Rsj_obs.Registry}. *)

val decide :
  Rsj_core.Strategy.env ->
  r:int ->
  Rsj_core.Strategy.t option ->
  Rsj_core.Strategy.t * decision option
(** The one named-or-picked decision every front door (the SQL engine,
    [rsj sample], the daemon's [sample] request) makes: a named
    strategy runs as given, with no decision; [None] runs
    {!choose_counted} over {!Catalog.of_env} with every structure
    available (a materialized env can build any of Table 1) at
    [Cost_model.shape ~r]. *)

val to_string : decision -> string
(** Multi-line trace: header with choice and reason, catalog summary,
    then one row per candidate ([*] marks the winner). *)
