(** Hash aggregation (GROUP BY) for query plans.

    The paper's motivating OLAP queries aggregate over joins; this
    operator provides the exact evaluation those approximate answers
    are judged against. Blocking: consumes its input, then emits one
    row per group. *)

open Rsj_relation

type func =
  | Count  (** COUNT of rows in the group (NULLs included). *)
  | Count_col of int  (** COUNT of non-NULL values in a column. *)
  | Sum of int  (** Σ of a numeric column; NULLs contribute nothing. *)
  | Avg of int  (** Mean of the non-NULL values; NULL on empty. *)
  | Min of int
  | Max of int  (** Extremes by {!Value.compare}; NULL on all-NULL. *)

type t = {
  group_by : int list;  (** Grouping columns (may be empty: one global group). *)
  aggregates : (string * func) list;  (** Output-column name and function. *)
}

val apply : t -> input:Schema.t -> Tuple.t Stream0.t -> Tuple.t Stream0.t
(** Evaluate; group order is unspecified. Raises [Invalid_argument] if
    a [Sum]/[Avg] column holds a non-numeric value. *)

val plan : t -> Plan.t -> Plan.t
(** Wrap as a [Plan.Transform] node. Its output schema is the grouping
    columns (with their input names/types) followed by one column per
    aggregate. Numeric aggregate columns are typed [T_float] except
    [Count]/[Count_col] ([T_int]) and [Min]/[Max] (input type). Raises
    [Invalid_argument] on out-of-range columns. *)
