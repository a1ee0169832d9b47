(** Planner and executor for the SQL subset.

    Turns a parsed {!Ast.query} into an {!Rsj_exec.Plan} over a catalog
    of named relations, then runs it. The [SAMPLE n] clause implements
    the paper's proposal of sampling as a language primitive:

    - [SAMPLE n] on a single equi-join of two tables routes through the
      cost-based picker ({!Rsj_optimizer.Picker}): the engine snapshots
      an exact catalog, costs every strategy (Theorems 5–9), runs the
      winner, and records the decision trace in the result. On any
      other query shape it places a WR reservoir (Black-Box U2) at the
      root of the query tree — the Naive-Sample construction, valid
      for any query shape;
    - [SAMPLE n USING <strategy>] pushes the named strategy into the
      join; this requires the query to be a single equi-join of two
      tables (the setting of §5–6). Single-table constant filters are
      pushed below the sampling first — selection commutes with
      sampling (§1) — so [WHERE t1.a = t2.a AND t1.x > 5] is sampled
      correctly.
    - [EXPLAIN SELECT ...] plans (and, for picked samples, decides)
      without executing: the result carries the plan and decision with
      no rows.

    Picked or named, a two-table strategy runs through
    [Rsj_parallel.run ~domains:1], the chunked runner a daemon [sample]
    request runs, so a query and a sample request with the same seed
    return the same rows.

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

val plan_query : ?seed:int -> catalog -> Ast.query -> (Rsj_exec.Plan.t, string) result
(** Plan without executing. *)

val run_query : ?seed:int -> catalog -> Ast.query -> (query_result, string) result
val run : ?seed:int -> catalog -> string -> (query_result, string) result
(** Parse + plan + execute. All errors (syntax, unknown table/column,
    ambiguity, unsupported sampling shape) come back as [Error msg]. *)
