(** Abstract syntax for the SQL subset.

    The dialect covers the paper's experimental queries
    ([SELECT * FROM t1, t2 WHERE t1.col2 = t2.col2]) extended with the
    sampling clause the paper proposes as a language primitive
    ([SAMPLE n [USING strategy]]), plus filters, GROUP BY aggregation
    and LIMIT — enough to express the motivating OLAP examples. *)

type literal = L_int of int | L_float of float | L_str of string

type column = { table : string option; name : string }
(** A possibly-qualified column reference. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = O_col of column | O_lit of literal

type condition = { left : column; cmp : comparison; right : operand }
(** Conditions are conjunctive (WHERE c1 AND c2 AND ...). *)

type agg_func = Count | Sum | Avg | Min | Max

type select_item =
  | S_star
  | S_col of column * string option  (** column [AS alias] *)
  | S_agg of agg_func * column option * string option
      (** agg(column) or COUNT( * ), with optional alias. *)

type direction = Asc | Desc

(** Requested sample size: an absolute tuple count, or a percentage of
    the (estimated) join size. The fraction form resolves to an
    absolute r at planning time, {e before} the cost-based picker runs
    (the picker's cost formulas take absolute r). *)
type sample_size =
  | Abs of int  (** [SAMPLE n] — n tuples, WR semantics. *)
  | Pct of float  (** [SAMPLE p%] — p in (0, 100], of the join size. *)

type sample_clause = {
  size : sample_size;
  strategy : string option;
      (** Strategy name after USING; [None] = cost-based picker (or a
          root reservoir when the query shape is not a two-table
          equi-join). *)
}

type query = {
  explain : bool;  (** [EXPLAIN SELECT ...]: plan (and pick), don't execute. *)
  select : select_item list;
  from : (string * string option) list;  (** table [alias], join order = list order. *)
  where : condition list;
  group_by : column list;
  order_by : (column * direction) list;
      (** Applied to the {e output} columns (post projection/aggregation),
          resolved by name. *)
  sample : sample_clause option;
  limit : int option;
}

val column_to_string : column -> string
