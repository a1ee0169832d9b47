(** Planner and executor for the SQL subset.

    Turns a parsed {!Ast.query} into an {!Rsj_exec.Plan} over a catalog
    of named relations, then runs it. The [SAMPLE n] clause implements
    the paper's proposal of sampling as a language primitive:

    - [SAMPLE n] on a linear chain — k >= 2 tables, k-1 equi-joins each
      joining two consecutive FROM tables, no cross-table filters —
      samples inside the join through {!Sampler}, the sampler a daemon
      [sample] request runs too: same seed, same rows. Each table's
      constant filters are pushed below the sampling first (selection
      commutes with sampling, §1). Two tables run the strategy [USING]
      names or the picker's choice (recorded in the result); more run
      the chain walker. Unfiltered inputs use the shared structure
      cache, and their two-table samples feed [monitor].
    - [USING] requires the two-table shape (the setting of §5–6).
      Any other plain [SAMPLE n] places a WR reservoir (Black-Box U2)
      at the root of the query tree — the Naive-Sample construction,
      valid for any query shape.
    - Planning prepares the structures and makes the picker decision;
      the draw runs when the plan executes, once however often the
      plan is run. So [EXPLAIN SELECT ...] decides but draws nothing:
      the result carries the plan and decision with no rows.

    Aggregation over a sample estimates the aggregate over the full
    result scaled via {!Rsj_core.Aqp} only in the examples; the engine
    itself evaluates aggregates over whatever rows reach them, exactly
    as a real engine running on a sample operator would. *)

open Rsj_relation

type catalog = (string * Relation.t) list
(** Name → relation bindings visible to FROM. *)

type query_result = {
  schema : Schema.t;
  rows : Tuple.t list;  (** Empty when [explained]. *)
  metrics : Rsj_exec.Metrics.t;
  plan : Rsj_exec.Plan.t;  (** The executed plan, for EXPLAIN. *)
  decision : Rsj_optimizer.Picker.decision option;
      (** Present iff the picker routed a plain [SAMPLE n]. *)
  explained : bool;  (** The query carried an [EXPLAIN] prefix. *)
}

val run_query :
  ?seed:int ->
  ?monitor:Rsj_verify.Online.t ->
  catalog ->
  Ast.query ->
  (query_result, string) result

val run :
  ?seed:int -> ?monitor:Rsj_verify.Online.t -> catalog -> string -> (query_result, string) result
(** Parse + plan + execute. All errors (syntax, unknown table/column,
    ambiguity, unsupported sampling shape, a sampler's own [Failure] or
    [Invalid_argument]) come back as [Error msg]. *)
