type literal = L_int of int | L_float of float | L_str of string

type column = { table : string option; name : string }

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = O_col of column | O_lit of literal

type condition = { left : column; cmp : comparison; right : operand }

type agg_func = Count | Sum | Avg | Min | Max

type select_item =
  | S_star
  | S_col of column * string option
  | S_agg of agg_func * column option * string option

type direction = Asc | Desc

type sample_size = Abs of int | Pct of float

type sample_clause = { size : sample_size; strategy : string option }

type query = {
  explain : bool;  (** [EXPLAIN SELECT ...]: plan, don't execute. *)
  select : select_item list;
  from : (string * string option) list;
  where : condition list;
  group_by : column list;
  order_by : (column * direction) list;
  sample : sample_clause option;
  limit : int option;
}

let column_to_string c =
  match c.table with Some t -> t ^ "." ^ c.name | None -> c.name
