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

(* Linear-chain detection for k >= 2 tables: exactly k-1 equi-joins,
   each pairing two consecutive FROM tables (one per edge, either
   orientation), and no residual conditions. Returns the columns per
   edge oriented FROM-order (left table's column first), or [None]
   when the shape doesn't hold and the query falls through to the
   reservoir path. *)
let chain_edges bindings classified =
  let k = List.length bindings in
  if k < 2 || classified.residual <> [] || List.length classified.equijoins <> k - 1 then
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

(* SAMPLE over a linear chain, pushed into the join (§1; §7.2 for
   longer chains), through the one sampler every front door shares.
   Each table's constant selections go below the sampling first
   (selection commutes with sampling). Unfiltered inputs are the
   caller's own relations, so their structures come from the shared
   structure cache and their samples feed [monitor]; a filtered input
   is a fresh one-shot relation and builds privately. The fraction
   form resolves against the sampler's exact join size. Planning
   prepares and decides; the draw runs, once, when the plan
   executes. *)
let sample_plan ~seed ?monitor bindings classified (sample : Ast.sample_clause) named edges =
  let arr = Array.of_list bindings in
  let rels =
    Array.map
      (fun b ->
        filtered_relation b
          (List.filter_map
             (fun (lbl, c) -> if lbl = b.label then Some c else None)
             classified.constants))
      arr
  in
  let join_keys =
    Array.mapi
      (fun i (a, b) ->
        let local j = [ { arr.(j) with relation = rels.(j); offset = 0 } ] in
        (resolve (local i) a, resolve (local (i + 1)) b))
      edges
  in
  let cache =
    if Array.for_all2 (fun rel b -> rel == b.relation) rels arr then
      Some (Rsj_cache.Structure_cache.shared ())
    else None
  in
  let request = Sampler.prepare ?cache ~seed rels ~join_keys ~size:sample.Ast.size named in
  let rows =
    lazy
      (let drawn = Sampler.draw ~domains:1 request in
       Option.iter (fun m -> Sampler.observe m request drawn.Sampler.sample) monitor;
       drawn.Sampler.sample)
  in
  let schema =
    Array.fold_left
      (fun acc rel -> Schema.concat acc (Relation.schema rel))
      (Relation.schema rels.(0))
      (Array.sub rels 1 (Array.length rels - 1))
  in
  ( Plan.source_of_stream
      ~name:(Printf.sprintf "Sample[%s, r=%d]" (Sampler.name request) (Sampler.r request))
      schema
      (fun () -> Stream0.of_array (Lazy.force rows)),
    Sampler.decision request )

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

let plan_query_exn ?(seed = 0x5EED) ?monitor catalog (query : Ast.query) =
  if query.Ast.select = [] then fail "empty SELECT list";
  let bindings = bind_tables catalog query.Ast.from in
  let classified = classify bindings query.Ast.where in
  let sampled_source =
    match query.Ast.sample with
    | None -> None
    | Some sample -> (
        let named =
          Option.map
            (fun strat ->
              match Sampler.strategy_of_name strat with Ok s -> s | Error msg -> fail "%s" msg)
            sample.Ast.strategy
        in
        (* A linear chain samples inside the join; USING names a
           two-table strategy. Any other plain SAMPLE falls through to
           the reservoir below. *)
        match chain_edges bindings classified with
        | Some edges when named = None || Array.length edges = 1 ->
            Some (sample_plan ~seed ?monitor bindings classified sample named edges)
        | _ when named = None -> None
        | _ ->
            fail
              "SAMPLE ... USING requires exactly two tables joined by one equi-join predicate \
               and no cross-table filters (got %d tables, %d join predicates, %d residual \
               conditions)"
              (List.length bindings)
              (List.length classified.equijoins)
              (List.length classified.residual))
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

(* Planning errors, and a sampler's own failures (an empty R1 under
   Olken, say), come back as [Error msg]. *)
let guarded f =
  try Ok (f ()) with Plan_error msg | Failure msg | Invalid_argument msg -> Error msg

let run_query ?seed ?monitor catalog query =
  guarded (fun () ->
      let plan, decision = plan_query_exn ?seed ?monitor catalog query in
      let metrics = Metrics.create () in
      (* EXPLAIN: plan (and decide) but do not execute. *)
      let rows = if query.Ast.explain then [] else Plan.collect ~metrics plan in
      { schema = Plan.schema_of plan; rows; metrics; plan; decision; explained = query.Ast.explain })

let run ?seed ?monitor catalog input =
  match Parser.parse input with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok query -> run_query ?seed ?monitor catalog query
