open Rsj_relation
open Rsj_exec
module Vtbl = Internals.Vtbl
module Dist = Rsj_util.Dist
module Obs = Rsj_obs

type spec = { relations : Relation.t array; join_keys : (int * int) array }

(* For relation i (i >= 1), tuples are reachable through their join-in
   value (column b of join i-1). bucket: per join-in value, the
   matching rows with an alias table over their downstream weights —
   O(1) per pick. *)
type bucket = { rows : int array; pick : Dist.Alias_table.t }

type level = {
  relation : Relation.t;
  succ : bucket option array;
      (* row_id -> the next level's bucket for this row's join-out
         value, resolved at prepare time so the walk never touches a
         tuple or hashes a value; [||] for the last level. *)
}

type t = {
  levels : level array;
  root_rows : int array;
  root_pick : Dist.Alias_table.t option;  (* None when the join is empty *)
  total : float;
}

(* Alias-table draws across every chain walk (root pick + one pick per
   level entered). A complete walk of a k-chain makes exactly k
   weighted picks (positive root weight guarantees a full path), so
   counting is one bump per request. *)
let alias_draws =
  lazy
    (Obs.Registry.counter ~help:"Weighted draws served by the chain walker's alias tables."
       "rsj_alias_draws_total")

let count_draws t n = Obs.Registry.add (Lazy.force alias_draws) (n * Array.length t.levels)

let prepare ?(metrics = Metrics.create ()) spec =
  let k = Array.length spec.relations in
  if k = 0 then invalid_arg "Chain_sample.prepare: empty chain";
  if Array.length spec.join_keys <> k - 1 then
    invalid_arg "Chain_sample.prepare: need exactly k-1 join key pairs";
  Array.iteri
    (fun i (a, b) ->
      let arity_l = Schema.arity (Relation.schema spec.relations.(i)) in
      let arity_r = Schema.arity (Relation.schema spec.relations.(i + 1)) in
      if a < 0 || a >= arity_l then
        invalid_arg (Printf.sprintf "Chain_sample.prepare: join %d left column out of range" i);
      if b < 0 || b >= arity_r then
        invalid_arg (Printf.sprintf "Chain_sample.prepare: join %d right column out of range" i))
    spec.join_keys;
  Obs.Trace.with_span ~cat:"chain" ~args:[ ("k", Obs.Json.Int k) ] "chain_sample.prepare"
  @@ fun () ->
  (* weights.(i) : per-row weight for relation i; computed right to
     left. value_weight.(i) : join-in-value -> summed weight table used
     by level i-1 to compute its own weights. *)
  let weights = Array.make k [||] in
  let value_tables : float Vtbl.t array = Array.make k (Vtbl.create 0) in
  for i = k - 1 downto 0 do
    let rel = spec.relations.(i) in
    let n = Relation.cardinality rel in
    let w = Array.make n 0. in
    (if i = k - 1 then Array.fill w 0 n 1.
     else begin
       let a, _ = spec.join_keys.(i) in
       let downstream = value_tables.(i + 1) in
       Relation.iteri rel (fun row_id row ->
           metrics.Metrics.tuples_scanned <- metrics.Metrics.tuples_scanned + 1;
           let v = Tuple.attr row a in
           if not (Value.is_null v) then
             w.(row_id) <- Option.value ~default:0. (Vtbl.find_opt downstream v))
     end);
    weights.(i) <- w;
    if i > 0 then begin
      let _, b = spec.join_keys.(i - 1) in
      let table = Vtbl.create 1024 in
      Relation.iteri rel (fun row_id row ->
          metrics.Metrics.tuples_scanned <- metrics.Metrics.tuples_scanned + 1;
          let v = Tuple.attr row b in
          if (not (Value.is_null v)) && w.(row_id) > 0. then
            Vtbl.replace table v (w.(row_id) +. Option.value ~default:0. (Vtbl.find_opt table v)));
      value_tables.(i) <- table
    end
  done;
  (* Build per-value buckets with draw tables for levels 1..k-1, then
     resolve them into per-row successor arrays: each row of level i
     points straight at its bucket in level i+1, so the draw loop pays
     only the weighted picks — no tuple fetch, no value hash. *)
  let buckets_of : bucket Vtbl.t array = Array.make k (Vtbl.create 0) in
  for i = 1 to k - 1 do
    let rel = spec.relations.(i) in
    let _, b = spec.join_keys.(i - 1) in
    let lists : int list ref Vtbl.t = Vtbl.create 1024 in
    Relation.iteri rel (fun row_id row ->
        let v = Tuple.attr row b in
        if (not (Value.is_null v)) && weights.(i).(row_id) > 0. then
          match Vtbl.find_opt lists v with
          | Some cell -> cell := row_id :: !cell
          | None -> Vtbl.replace lists v (ref [ row_id ]));
    let buckets = Vtbl.create (Vtbl.length lists) in
    Vtbl.iter
      (fun v cell ->
        let rows = Array.of_list (List.rev !cell) in
        let w = Array.map (fun row_id -> weights.(i).(row_id)) rows in
        Vtbl.replace buckets v { rows; pick = Dist.Alias_table.of_weights w })
      lists;
    buckets_of.(i) <- buckets
  done;
  let levels =
    Array.init k (fun i ->
        let rel = spec.relations.(i) in
        if i = k - 1 then { relation = rel; succ = [||] }
        else begin
          let a, _ = spec.join_keys.(i) in
          let succ = Array.make (Relation.cardinality rel) None in
          Relation.iteri rel (fun row_id row ->
              if weights.(i).(row_id) > 0. then
                let v = Tuple.attr row a in
                if not (Value.is_null v) then
                  succ.(row_id) <- Vtbl.find_opt buckets_of.(i + 1) v);
          { relation = rel; succ }
        end)
  in
  (* Root table over all rows of R1 with positive weight. *)
  let root_rows = ref [] in
  let root_weights = ref [] in
  let total = ref 0. in
  Relation.iteri spec.relations.(0) (fun row_id _ ->
      if weights.(0).(row_id) > 0. then begin
        root_rows := row_id :: !root_rows;
        root_weights := weights.(0).(row_id) :: !root_weights;
        total := !total +. weights.(0).(row_id)
      end);
  let root_rows = Array.of_list (List.rev !root_rows) in
  let root_w = Array.of_list (List.rev !root_weights) in
  let root_pick =
    if Array.length root_w = 0 then None else Some (Dist.Alias_table.of_weights root_w)
  in
  { levels; root_rows; root_pick; total = !total }

let join_size t = t.total

(* The weighted walk below the root: picks the next row in each
   level's bucket for the current join value, combining with [f].
   Raises Failure when the weight tables disagree with the relation
   contents (only possible if a relation mutated after prepare). *)
(* [st] is a packed PRNG state ([Prng.dump_state]): the walk makes its
   picks without touching the generator's boxed int64 fields. *)
let walk_from t st metrics ~row0_id ~f ~init =
  let k = Array.length t.levels in
  let row0 = Relation.get t.levels.(0).relation row0_id in
  metrics.Metrics.random_accesses <- metrics.Metrics.random_accesses + 1;
  let rec walk acc level_idx row_id =
    if level_idx = k - 1 then acc
    else begin
      metrics.Metrics.index_probes <- metrics.Metrics.index_probes + 1;
      match t.levels.(level_idx).succ.(row_id) with
      | None ->
          (* Positive weight guarantees a resolved successor;
             unreachable unless the relations changed after prepare. *)
          failwith "Chain_sample.draw: weight table inconsistent with relation contents"
      | Some bucket ->
          let j = Dist.Alias_table.draw_packed bucket.pick st in
          let next_id = bucket.rows.(j) in
          let row = Relation.get t.levels.(level_idx + 1).relation next_id in
          walk (f acc next_id row) (level_idx + 1) next_id
    end
  in
  walk (f init row0_id row0) 0 row0_id

let draw t rng ?(metrics = Metrics.create ()) () =
  match t.root_pick with
  | None -> None
  | Some root_pick ->
      count_draws t 1;
      let idx = Dist.Alias_table.draw root_pick rng in
      let st = Bytes.create 40 in
      Rsj_util.Prng.dump_state rng st;
      let join acc _row_id row = match acc with None -> Some row | Some l -> Some (Tuple.join l row) in
      let res = walk_from t st metrics ~row0_id:t.root_rows.(idx) ~f:join ~init:None in
      Rsj_util.Prng.load_state rng st;
      res

let sample t rng ?(metrics = Metrics.create ()) ~r () =
  match t.root_pick with
  | None -> [||]
  | Some root_pick ->
      Obs.Trace.with_span ~cat:"chain" ~args:[ ("r", Obs.Json.Int r) ] "chain_sample.sample"
      @@ fun () ->
      (* Batch the root picks: one packed-state pass amortizes PRNG
         and bounds checks across the request. *)
      count_draws t r;
      let roots = Array.make (max 1 r) 0 in
      Dist.Alias_table.draw_many root_pick rng ~into:roots ~n:r;
      let st = Bytes.create 40 in
      Rsj_util.Prng.dump_state rng st;
      let join acc _row_id row = match acc with None -> Some row | Some l -> Some (Tuple.join l row) in
      let out =
        Array.init r (fun j ->
            match walk_from t st metrics ~row0_id:t.root_rows.(roots.(j)) ~f:join ~init:None with
            | Some row -> row
            | None -> assert false)
      in
      Rsj_util.Prng.load_state rng st;
      out

let sample_rows t rng ?(metrics = Metrics.create ()) ~r () =
  match t.root_pick with
  | None -> [||]
  | Some root_pick ->
      Obs.Trace.with_span ~cat:"chain" ~args:[ ("r", Obs.Json.Int r) ] "chain_sample.sample_rows"
      @@ fun () ->
      count_draws t r;
      let k = Array.length t.levels in
      let roots = Array.make (max 1 r) 0 in
      Dist.Alias_table.draw_many root_pick rng ~into:roots ~n:r;
      let out = Array.make (r * k) 0 in
      (* The walk inlined without closures, on the packed state for the
         whole batch: this is the draw kernel of every warm chain
         request, so nothing per-draw beyond the picks themselves. *)
      let st = Bytes.create 40 in
      Rsj_util.Prng.dump_state rng st;
      (* Accounting hoisted out of the loop: a complete batch makes
         exactly r root accesses and r * (k-1) successor probes. *)
      metrics.Metrics.random_accesses <- metrics.Metrics.random_accesses + r;
      metrics.Metrics.index_probes <- metrics.Metrics.index_probes + (r * (k - 1));
      let succs = Array.init (k - 1) (fun i -> t.levels.(i).succ) in
      let root_rows = t.root_rows in
      for j = 0 to r - 1 do
        let base = j * k in
        let row_id = ref (Array.unsafe_get root_rows (Array.unsafe_get roots j)) in
        Array.unsafe_set out base !row_id;
        for level_idx = 0 to k - 2 do
          match Array.unsafe_get (Array.unsafe_get succs level_idx) !row_id with
          | None ->
              failwith "Chain_sample.draw: weight table inconsistent with relation contents"
          | Some bucket ->
              let jj = Dist.Alias_table.draw_packed bucket.pick st in
              row_id := Array.unsafe_get bucket.rows jj;
              Array.unsafe_set out (base + level_idx + 1) !row_id
        done
      done;
      Rsj_util.Prng.load_state rng st;
      out
