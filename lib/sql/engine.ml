open Rsj_relation
module Plan = Rsj_exec.Plan
module Metrics = Rsj_exec.Metrics
module Predicate = Rsj_exec.Predicate
module Aggregate = Rsj_exec.Aggregate
module Strategy = Rsj_core.Strategy

type catalog = (string * Relation.t) list

type query_result = {
  schema : Schema.t;
  rows : Tuple.t list;
  metrics : Metrics.t;
  plan : Plan.t;
  decision : Rsj_optimizer.Picker.decision option;
  explained : bool;
}

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

(* A bound table: how FROM entry [index] maps into the concatenated
   join row. *)
type binding = {
  label : string;  (* alias if given, else table name *)
  relation : Relation.t;
  offset : int;  (* first column of this table in the joined row *)
}

let lookup_table catalog name =
  match List.assoc_opt name catalog with
  | Some rel -> rel
  | None -> fail "unknown table %S" name

let bind_tables catalog from =
  let seen = Hashtbl.create 8 in
  let offset = ref 0 in
  List.map
    (fun (name, alias) ->
      let rel = lookup_table catalog name in
      let label = Option.value ~default:name alias in
      if Hashtbl.mem seen label then fail "duplicate table label %S in FROM" label;
      Hashtbl.replace seen label ();
      let b = { label; relation = rel; offset = !offset } in
      offset := !offset + Schema.arity (Relation.schema rel);
      b)
    from

(* Resolve a column reference against a subset of bindings; returns the
   global position in the joined row. *)
let resolve bindings (c : Ast.column) =
  let candidates =
    List.filter_map
      (fun b ->
        let matches_table =
          match c.Ast.table with None -> true | Some t -> t = b.label
        in
        if not matches_table then None
        else
          Option.map
            (fun idx -> (b, b.offset + idx))
            (Schema.column_index_opt (Relation.schema b.relation) c.Ast.name))
      bindings
  in
  match candidates with
  | [ (_, pos) ] -> pos
  | [] -> fail "unknown column %s" (Ast.column_to_string c)
  | _ :: _ :: _ -> fail "ambiguous column %s" (Ast.column_to_string c)

let resolve_opt bindings c =
  match resolve bindings c with pos -> Some pos | exception Plan_error _ -> None

let value_of_literal = function
  | Ast.L_int i -> Value.Int i
  | Ast.L_float f -> Value.Float f
  | Ast.L_str s -> Value.Str s

let constant_predicate pos cmp lit =
  let v = value_of_literal lit in
  match (cmp : Ast.comparison) with
  | Eq -> Predicate.Eq (pos, v)
  | Ne -> Predicate.Ne (pos, v)
  | Lt -> Predicate.Lt (pos, v)
  | Le -> Predicate.Le (pos, v)
  | Gt -> Predicate.Gt (pos, v)
  | Ge -> Predicate.Ge (pos, v)

let column_predicate lpos cmp rpos =
  let test op row =
    let a = Tuple.get row lpos and b = Tuple.get row rpos in
    (not (Value.is_null a)) && (not (Value.is_null b)) && op (Value.compare a b) 0
  in
  let name op_str = Printf.sprintf "#%d %s #%d" lpos op_str rpos in
  match (cmp : Ast.comparison) with
  | Eq -> Predicate.Custom (name "=", test ( = ))
  | Ne -> Predicate.Custom (name "<>", test ( <> ))
  | Lt -> Predicate.Custom (name "<", test ( < ))
  | Le -> Predicate.Custom (name "<=", test ( <= ))
  | Gt -> Predicate.Custom (name ">", test ( > ))
  | Ge -> Predicate.Custom (name ">=", test ( >= ))

(* Split WHERE into: per-table constant conditions, equi-join
   conditions (col = col across tables), and everything else. *)
type classified = {
  constants : (string * Ast.condition) list;  (* binding label, cond *)
  equijoins : (Ast.column * Ast.column) list;
  residual : Ast.condition list;
}

let classify bindings conds =
  let binding_of c =
    List.find_opt
      (fun b ->
        (match c.Ast.table with None -> true | Some t -> t = b.label)
        && Schema.column_index_opt (Relation.schema b.relation) c.Ast.name <> None)
      bindings
  in
  List.fold_left
    (fun acc cond ->
      match cond.Ast.right with
      | Ast.O_lit _ -> (
          match binding_of cond.Ast.left with
          | Some b -> { acc with constants = (b.label, cond) :: acc.constants }
          | None -> fail "unknown column %s" (Ast.column_to_string cond.Ast.left))
      | Ast.O_col rc -> (
          match (cond.Ast.cmp, binding_of cond.Ast.left, binding_of rc) with
          | Ast.Eq, Some bl, Some br when bl.label <> br.label ->
              { acc with equijoins = (cond.Ast.left, rc) :: acc.equijoins }
          | _ -> { acc with residual = cond :: acc.residual }))
    { constants = []; equijoins = []; residual = [] }
    conds

(* ------------------------------------------------------------------ *)
(* Join tree construction (left-deep, FROM order)                      *)

let build_join_tree bindings equijoins =
  match bindings with
  | [] -> fail "FROM list is empty"
  | first :: rest ->
      let used = ref [] in
      let bound = ref [ first ] in
      let plan = ref (Plan.Scan first.relation) in
      List.iter
        (fun b ->
          (* Find an equi-join between the bound prefix and table b. *)
          let found =
            List.find_opt
              (fun (l, r) ->
                let in_prefix c = resolve_opt !bound c <> None in
                let in_new c = resolve_opt [ { b with offset = 0 } ] c <> None in
                (in_prefix l && in_new r) || (in_prefix r && in_new l))
              (List.filter (fun j -> not (List.memq j !used)) equijoins)
          in
          match found with
          | None ->
              fail "no equi-join predicate connects table %S to the preceding tables" b.label
          | Some ((l, r) as j) ->
              used := j :: !used;
              let prefix_col, new_col =
                if resolve_opt !bound l <> None then (l, r) else (r, l)
              in
              let left_key = resolve !bound prefix_col in
              let right_key = resolve [ { b with offset = 0 } ] new_col in
              plan :=
                Plan.Join
                  {
                    Plan.algorithm = Plan.Hash;
                    left = !plan;
                    right = Plan.Scan b.relation;
                    left_key;
                    right_key;
                  };
              bound := !bound @ [ b ])
        rest;
      let unused =
        List.filter (fun j -> not (List.memq j !used)) equijoins
      in
      (!plan, !bound, unused)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)

let filtered_relation b conds =
  if conds = [] then b.relation
  else begin
    let local = [ { b with offset = 0 } ] in
    let preds =
      List.map
        (fun cond ->
          let pos = resolve local cond.Ast.left in
          match cond.Ast.right with
          | Ast.O_lit lit -> constant_predicate pos cond.Ast.cmp lit
          | Ast.O_col _ -> assert false)
        conds
    in
    let out = Relation.create ~name:(b.label ^ "_filtered") (Relation.schema b.relation) in
    Relation.iter b.relation (fun row ->
        if List.for_all (fun p -> Predicate.eval p row) preds then
          Relation.append_unchecked out row);
    out
  end

let valid_strategy_names () =
  String.concat ", " (List.map Strategy.name Strategy.all)

(* How the sampling strategy was determined: spelled out in the query
   ([USING <name>]) or left to the cost-based picker. *)
type sample_route = Named of Strategy.t | Picked

let picker_shape_ok bindings classified =
  match (bindings, classified.equijoins, classified.residual) with
  | [ _; _ ], [ _ ], [] -> true
  | _ -> false

(* Resolve a SAMPLE size to an absolute tuple count. The fraction form
   is a share of the join size, which the env's frequency statistics
   give exactly (and, routed through the structure cache, cheaply);
   this happens before the picker runs, so the picker's cost formulas
   always see absolute r. *)
let resolve_sample_size env (size : Ast.sample_size) =
  match size with
  | Ast.Abs n -> n
  | Ast.Pct p ->
      let join_size = Strategy.env_join_size env in
      if join_size = 0 then 0
      else max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int join_size)))

let strategy_sample_plan ~seed bindings classified (sample : Ast.sample_clause) route =
  match (bindings, classified.equijoins, classified.residual) with
  | [ b1; b2 ], [ (l, r) ], [] ->
      (* Push constant selections below the sampling (selection
         commutes with sampling), then run the strategy. *)
      let conds_for label =
        List.filter_map
          (fun (lbl, c) -> if lbl = label then Some c else None)
          classified.constants
      in
      let left_rel = filtered_relation b1 (conds_for b1.label) in
      let right_rel = filtered_relation b2 (conds_for b2.label) in
      let local1 = [ { b1 with relation = left_rel; offset = 0 } ] in
      let local2 = [ { b2 with relation = right_rel; offset = 0 } ] in
      let left_key, right_key =
        if resolve_opt local1 l <> None && resolve_opt local2 r <> None then
          (resolve local1 l, resolve local2 r)
        else (resolve local1 r, resolve local2 l)
      in
      let env =
        (* Unfiltered inputs are the caller's own relations: their
           auxiliary structures are memoized in the shared structure
           cache, so repeated queries stop rebuilding. A filtered input
           is a fresh one-shot relation — don't pollute the cache. *)
        if left_rel == b1.relation && right_rel == b2.relation then
          Rsj_cache.Structure_cache.env
            (Rsj_cache.Structure_cache.shared ())
            ~seed ~left:left_rel ~right:right_rel ~left_key ~right_key ()
        else Strategy.make_env ~seed ~left:left_rel ~right:right_rel ~left_key ~right_key ()
      in
      let size = resolve_sample_size env sample.Ast.size in
      let strategy, decision =
        match route with
        | Named s -> (s, None)
        | Picked ->
            (* The engine owns materialized relations, so every
               auxiliary structure of Table 1 is constructible: the
               picker decides on cost alone, over an exact catalog. *)
            let catalog =
              Rsj_optimizer.Catalog.of_env ~availability:Strategy.all_available env
            in
            let shape = Rsj_optimizer.Cost_model.shape ~r:size in
            let s, d = Rsj_optimizer.Picker.choose_counted catalog shape in
            (s, Some d)
      in
      (* The fast path the daemon's sample requests take, so a query
         and a sample request run the same code. *)
      let res = Rsj_parallel.run env strategy ~r:size ~domains:1 in
      let schema =
        Schema.concat (Relation.schema left_rel) (Relation.schema right_rel)
      in
      let rows = res.Strategy.sample in
      ( Plan.source_of_stream ~name:(Printf.sprintf "Sample[%s, r=%d]" (Strategy.name strategy) size)
          schema
          (fun () -> Stream0.of_array rows),
        decision )
  | _ ->
      fail
        "SAMPLE ... USING requires exactly two tables joined by one equi-join predicate and \
         no cross-table filters (got %d tables, %d join predicates, %d residual conditions)"
        (List.length bindings)
        (List.length classified.equijoins)
        (List.length classified.residual)

(* Linear-chain detection for k >= 3 tables: exactly k-1 equi-joins,
   each pairing two consecutive FROM tables (one per edge, either
   orientation), and no residual conditions. Returns the columns per
   edge oriented FROM-order (left table's column first), or [None]
   when the shape doesn't hold and the query falls through to the
   reservoir path. *)
let chain_edges bindings classified =
  let k = List.length bindings in
  if k < 3 || classified.residual <> [] || List.length classified.equijoins <> k - 1 then
    None
  else begin
    let arr = Array.of_list bindings in
    let local i = [ { arr.(i) with offset = 0 } ] in
    let remaining = ref classified.equijoins in
    let edges = Array.make (k - 1) None in
    try
      for i = 0 to k - 2 do
        let found =
          List.find_opt
            (fun (l, r) ->
              (resolve_opt (local i) l <> None && resolve_opt (local (i + 1)) r <> None)
              || (resolve_opt (local i) r <> None && resolve_opt (local (i + 1)) l <> None))
            !remaining
        in
        match found with
        | None -> raise Exit
        | Some ((l, r) as j) ->
            remaining := List.filter (fun x -> x != j) !remaining;
            let a, b = if resolve_opt (local i) l <> None then (l, r) else (r, l) in
            edges.(i) <- Some (a, b)
      done;
      Some (Array.map Option.get edges)
    with Exit -> None
  end

(* Plain SAMPLE over a linear chain: route it into the chain walker —
   exact WR sampling with no join materialization at all. The prepared
   walker (weight tables + per-value alias tables) is memoized in the
   shared structure cache whenever every input is unfiltered, so a
   warm daemon pays only the O(k) walk per drawn tuple. The fraction form resolves against the walker's
   exact join size (paper §7.2's precomputed-statistics argument,
   extended along the chain). *)
let chain_sample_plan ~seed bindings classified (sample : Ast.sample_clause) edges =
  let conds_for label =
    List.filter_map
      (fun (lbl, c) -> if lbl = label then Some c else None)
      classified.constants
  in
  let arr = Array.of_list bindings in
  let rels = Array.map (fun b -> filtered_relation b (conds_for b.label)) arr in
  let join_keys =
    Array.mapi
      (fun i (a, b) ->
        let la = [ { arr.(i) with relation = rels.(i); offset = 0 } ] in
        let lb = [ { arr.(i + 1) with relation = rels.(i + 1); offset = 0 } ] in
        (resolve la a, resolve lb b))
      edges
  in
  let spec = { Rsj_core.Chain_sample.relations = rels; join_keys } in
  let unfiltered = ref true in
  Array.iteri (fun i b -> if rels.(i) != b.relation then unfiltered := false) arr;
  let cs =
    if !unfiltered then
      Rsj_cache.Structure_cache.chain (Rsj_cache.Structure_cache.shared ()) spec
    else Rsj_core.Chain_sample.prepare spec
  in
  let size =
    match sample.Ast.size with
    | Ast.Abs n -> n
    | Ast.Pct p ->
        let join_size = Rsj_core.Chain_sample.join_size cs in
        if join_size <= 0. then 0
        else max 1 (int_of_float (Float.ceil (p /. 100. *. join_size)))
  in
  let rng = Rsj_util.Prng.create ~seed () in
  let rows = Rsj_core.Chain_sample.sample cs rng ~r:size () in
  let schema =
    Array.fold_left
      (fun acc rel ->
        match acc with
        | None -> Some (Relation.schema rel)
        | Some s -> Some (Schema.concat s (Relation.schema rel)))
      None rels
    |> Option.get
  in
  ( Plan.source_of_stream ~name:(Printf.sprintf "Sample[chain-walk, r=%d]" size) schema
      (fun () -> Stream0.of_array rows),
    None )

(* ------------------------------------------------------------------ *)
(* Aggregation and projection                                          *)

let has_aggregates select =
  List.exists (function Ast.S_agg _ -> true | Ast.S_star | Ast.S_col _ -> false) select

let agg_name f arg alias =
  match alias with
  | Some a -> a
  | None -> (
      let base =
        match (f : Ast.agg_func) with
        | Count -> "count"
        | Sum -> "sum"
        | Avg -> "avg"
        | Min -> "min"
        | Max -> "max"
      in
      match arg with
      | Some c -> Printf.sprintf "%s(%s)" base (Ast.column_to_string c)
      | None -> base ^ "(*)")

let build_aggregation bindings query plan =
  let group_positions = List.map (resolve bindings) query.Ast.group_by in
  (* Select items map onto (aggregate list, output projection). *)
  let aggregates = ref [] in
  let projections =
    List.map
      (fun item ->
        match item with
        | Ast.S_star -> fail "SELECT * cannot be combined with aggregation"
        | Ast.S_col (c, _) -> (
            let pos = resolve bindings c in
            match List.mapi (fun i p -> (i, p)) group_positions
                  |> List.find_opt (fun (_, p) -> p = pos)
            with
            | Some (i, _) -> `Group i
            | None ->
                fail "column %s must appear in GROUP BY" (Ast.column_to_string c))
        | Ast.S_agg (f, arg, alias) ->
            let func =
              match ((f : Ast.agg_func), arg) with
              | Count, None -> Aggregate.Count
              | Count, Some c -> Aggregate.Count_col (resolve bindings c)
              | Sum, Some c -> Aggregate.Sum (resolve bindings c)
              | Avg, Some c -> Aggregate.Avg (resolve bindings c)
              | Min, Some c -> Aggregate.Min (resolve bindings c)
              | Max, Some c -> Aggregate.Max (resolve bindings c)
              | (Sum | Avg | Min | Max), None ->
                  fail "%s requires a column argument" (agg_name f None alias)
            in
            aggregates := (agg_name f arg alias, func) :: !aggregates;
            `Agg (List.length !aggregates - 1))
      query.Ast.select
  in
  let aggregates = List.rev !aggregates in
  let spec = { Aggregate.group_by = group_positions; aggregates } in
  let aggregated = Aggregate.plan spec plan in
  (* Aggregate output: group columns first, then aggregates in spec
     order; project into SELECT order. *)
  let n_groups = List.length group_positions in
  let cols =
    List.map (function `Group i -> i | `Agg i -> n_groups + i) projections
  in
  Plan.Project (cols, aggregated)

let build_projection bindings select plan =
  if List.for_all (function Ast.S_star -> true | _ -> false) select then plan
  else begin
    let cols =
      List.concat_map
        (function
          | Ast.S_star -> fail "SELECT * cannot be mixed with explicit columns"
          | Ast.S_col (c, _) -> [ resolve bindings c ]
          | Ast.S_agg _ -> assert false)
        select
    in
    Plan.Project (cols, plan)
  end

(* ------------------------------------------------------------------ *)

let plan_query_exn ?(seed = 0x5EED) catalog (query : Ast.query) =
  if query.Ast.select = [] then fail "empty SELECT list";
  let bindings = bind_tables catalog query.Ast.from in
  let classified = classify bindings query.Ast.where in
  let sampled_source =
    match query.Ast.sample with
    | Some ({ Ast.strategy = Some strat; _ } as sample) ->
        let strategy =
          match Strategy.of_name strat with
          | Some s -> s
          | None ->
              fail "unknown sampling strategy %S (valid: %s)" strat
                (valid_strategy_names ())
        in
        Some (strategy_sample_plan ~seed bindings classified sample (Named strategy))
    | Some ({ Ast.strategy = None; _ } as sample)
      when picker_shape_ok bindings classified ->
        (* Plain SAMPLE n on the two-table equi-join shape: let the
           cost-based picker route it into the join. *)
        Some (strategy_sample_plan ~seed bindings classified sample Picked)
    | Some ({ Ast.strategy = None; _ } as sample) -> (
        (* Three or more tables: if the joins form a linear chain,
           route into the chain walker (no join is ever materialized).
           Other shapes fall through to the reservoir below. *)
        match chain_edges bindings classified with
        | Some edges -> Some (chain_sample_plan ~seed bindings classified sample edges)
        | None -> None)
    | None -> None
  in
  let decision = Option.bind sampled_source snd in
  let base_plan =
    match sampled_source with
    | Some (p, _) -> p
    | None ->
        let joined, _bound, unused_joins = build_join_tree bindings classified.equijoins in
        (* Constant and residual conditions become filters above the
           join tree (the executor has no per-table pushdown need at
           this scale, and correctness is identical). *)
        let with_constants =
          List.fold_left
            (fun acc (_, cond) ->
              let pos = resolve bindings cond.Ast.left in
              match cond.Ast.right with
              | Ast.O_lit lit -> Plan.Filter (constant_predicate pos cond.Ast.cmp lit, acc)
              | Ast.O_col _ -> assert false)
            joined classified.constants
        in
        let with_residual =
          List.fold_left
            (fun acc cond ->
              match cond.Ast.right with
              | Ast.O_col rc ->
                  let lpos = resolve bindings cond.Ast.left in
                  let rpos = resolve bindings rc in
                  Plan.Filter (column_predicate lpos cond.Ast.cmp rpos, acc)
              | Ast.O_lit _ -> assert false)
            with_constants classified.residual
        in
        let with_unused_joins =
          List.fold_left
            (fun acc (l, r) ->
              let lpos = resolve bindings l and rpos = resolve bindings r in
              Plan.Filter (column_predicate lpos Ast.Eq rpos, acc))
            with_residual unused_joins
        in
        (* Plain SAMPLE n: reservoir at the root (Naive-Sample). The
           fraction form needs a join-size estimate, which only the
           two-table equi-join shape provides. *)
        (match query.Ast.sample with
        | Some { Ast.size = Ast.Abs size; strategy = None } ->
            let rng = Rsj_util.Prng.create ~seed () in
            Rsj_core.Sample_op.u2 rng ~r:size with_unused_joins
        | Some { Ast.size = Ast.Pct _; strategy = None } ->
            fail
              "SAMPLE with a percentage requires the two-table equi-join or linear-chain \
               shape (the fraction resolves against the known join size)"
        | Some _ | None -> with_unused_joins)
  in
  let sort_plan keys names plan =
    let compare_rows a b =
      let rec go = function
        | [] -> 0
        | (pos, dir) :: rest ->
            let c = Value.compare (Tuple.get a pos) (Tuple.get b pos) in
            let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go rest
      in
      go keys
    in
    Plan.Transform
      {
        Plan.transform_name = Printf.sprintf "OrderBy [%s]" (String.concat ", " names);
        child = plan;
        out_schema = None;
        apply =
          (fun metrics stream ->
            let rows = Stream0.to_array stream in
            metrics.Metrics.sort_tuples <- metrics.Metrics.sort_tuples + Array.length rows;
            Array.sort compare_rows rows;
            Stream0.of_array rows);
      }
  in
  let order_names =
    List.map
      (fun ((c : Ast.column), d) ->
        Ast.column_to_string c ^ match d with Ast.Asc -> "" | Ast.Desc -> " desc")
      query.Ast.order_by
  in
  let aggregated = has_aggregates query.Ast.select || query.Ast.group_by <> [] in
  let shaped =
    if aggregated then begin
      let plan = build_aggregation bindings query base_plan in
      if query.Ast.order_by = [] then plan
      else begin
        (* With aggregation, ORDER BY resolves against the output
           schema by (possibly aliased) column name. *)
        let out_schema = Plan.schema_of plan in
        let keys =
          List.map
            (fun ((c : Ast.column), dir) ->
              match Schema.column_index_opt out_schema c.Ast.name with
              | Some pos -> (pos, dir)
              | None ->
                  fail "ORDER BY column %s is not in the output" (Ast.column_to_string c))
            query.Ast.order_by
        in
        sort_plan keys order_names plan
      end
    end
    else begin
      (* Without aggregation, ORDER BY may reference any underlying
         column (SQL semantics): sort before projecting. *)
      let plan =
        if query.Ast.order_by = [] then base_plan
        else begin
          let keys =
            List.map (fun (c, dir) -> (resolve bindings c, dir)) query.Ast.order_by
          in
          sort_plan keys order_names base_plan
        end
      in
      build_projection bindings query.Ast.select plan
    end
  in
  let final = match query.Ast.limit with Some n -> Plan.Limit (n, shaped) | None -> shaped in
  (final, decision)

let plan_query ?seed catalog query =
  try Ok (fst (plan_query_exn ?seed catalog query)) with Plan_error msg -> Error msg

let run_query ?seed catalog query =
  match (try Ok (plan_query_exn ?seed catalog query) with Plan_error msg -> Error msg) with
  | Error _ as e -> e
  | Ok (plan, decision) -> (
      try
        let metrics = Metrics.create () in
        let rows =
          (* EXPLAIN: plan (and decide) but do not execute. *)
          if query.Ast.explain then [] else Plan.collect ~metrics plan
        in
        Ok
          {
            schema = Plan.schema_of plan;
            rows;
            metrics;
            plan;
            decision;
            explained = query.Ast.explain;
          }
      with Plan_error msg -> Error msg)

let run ?seed catalog input =
  match Parser.parse input with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok query -> run_query ?seed catalog query
