open Rsj_relation
open Rsj_exec
module Int_index = Rsj_index.Int_index
module Hash_index = Rsj_index.Hash_index
module Dist = Rsj_util.Dist
module Obs = Rsj_obs

type spec = { relations : Relation.t array; join_keys : (int * int) array }

(* Level i > 0 holds relation i's rows grouped by their join-in key
   (column b of join i-1) over the int plane, in storage order. An
   inner level keeps only positive-weight rows, with [picks.(g)] an
   alias table over group g's row weights. The last level is R_k's own
   Hash_index plane, borrowed: every row weighs 1, so its pick is
   uniform and [picks] is [||]. Level 0 is entered through [root], so
   keeps only [succ]: each row's group id in level i+1 (-1 for none),
   resolved at prepare time so the walk never hashes a key. *)
type level = { index : Int_index.t; picks : Dist.Alias_table.t array; succ : int array }

type t = { relations : Relation.t array; root : Root_table.t; levels : level array }

(* Alias-table draws: the root pick and one per inner level, so a
   complete walk makes max 1 (k-1), and counting is one bump per
   request. *)
let alias_draws =
  lazy
    (Obs.Registry.counter ~help:"Alias-table draws of the walker: the root and inner levels."
       "rsj_alias_draws_total")

let count_draws t n =
  Obs.Registry.add (Lazy.force alias_draws) (n * max 1 (Array.length t.levels - 1))

let last_level (spec : spec) =
  let k = Array.length spec.relations in
  if k = 0 then invalid_arg "Chain_sample: empty chain";
  if Array.length spec.join_keys <> k - 1 then
    invalid_arg "Chain_sample: need exactly k-1 join key pairs";
  (spec.relations.(k - 1), if k = 1 then 0 else snd spec.join_keys.(k - 2))

let prepare ?(metrics = Metrics.create ()) ~index (spec : spec) =
  let last, col = last_level spec in
  let k = Array.length spec.relations in
  let check i side c rel =
    if c < 0 || c >= Schema.arity (Relation.schema rel) then
      invalid_arg (Printf.sprintf "Chain_sample.prepare: join %d %s column out of range" i side)
  in
  Array.iteri
    (fun i (a, b) ->
      check i "left" a spec.relations.(i);
      check i "right" b spec.relations.(i + 1))
    spec.join_keys;
  if Hash_index.relation index != last || (k > 1 && Hash_index.key index <> col) then
    invalid_arg "Chain_sample.prepare: the index is not over the last join's R_k column";
  Obs.Trace.with_span ~cat:"chain" ~args:[ ("k", Obs.Json.Int k) ] "chain_sample.prepare"
  @@ fun () ->
  let scanned n = metrics.Metrics.tuples_scanned <- metrics.Metrics.tuples_scanned + n in
  let plane = Hash_index.int_plane index in
  let levels = Array.make k { index = plane; picks = [||]; succ = [||] } in
  (* Right to left: w_i(row) is the summed weight of the row's matches
     in level i+1 ([sums], per group of that level, added up in storage
     order); on the last level a group's sum is its size. For k = 1, R1
     is the last level and every row weighs 1. *)
  let root_weights = ref (Array.make (if k = 1 then Relation.cardinality last else 0) 1.) in
  let group_size g = float_of_int (Int_index.gid_multiplicity plane g) in
  let sums = ref (Array.init (Int_index.group_count plane) group_size) in
  for i = k - 2 downto 0 do
    let rel = spec.relations.(i) in
    scanned (Relation.cardinality rel);
    let keys = Column.int_view rel ~col:(fst spec.join_keys.(i)) in
    let succ = Array.map (Int_index.find_gid levels.(i + 1).index) keys in
    let w = Array.map (fun g -> if g < 0 then 0. else !sums.(g)) succ in
    if i = 0 then begin
      root_weights := w;
      levels.(0) <- { index = Int_index.build ~keys:[||] (); picks = [||]; succ }
    end
    else begin
      scanned (Relation.cardinality rel);
      (* Zero-weight rows lead nowhere: masking their key to the
         sentinel keeps them out of the index. The mask goes on a copy:
         an int column's view is the column itself. *)
      let keys = Array.copy (Column.int_view rel ~col:(snd spec.join_keys.(i - 1))) in
      Array.iteri (fun row w -> if not (w > 0.) then keys.(row) <- Int_index.null_key) w;
      let index = Int_index.build ~keys () in
      let group_weights g =
        let s = Int_index.gid_start index g in
        Array.init (Int_index.gid_multiplicity index g) (fun j -> w.(Int_index.row index (s + j)))
      in
      let groups = Array.init (Int_index.group_count index) group_weights in
      sums := Array.map (Array.fold_left ( +. ) 0.) groups;
      levels.(i) <- { index; picks = Array.map Dist.Alias_table.of_weights groups; succ }
    end
  done;
  { relations = spec.relations; root = Root_table.of_weights !root_weights; levels }

let relations t = t.relations
let root t = t.root
let join_size t = Root_table.total t.root

(* Root and levels, less the pair's three words and the plane R_k's index owns. *)
let bytes t =
  let words v = Obj.reachable_words (Obj.repr v) in
  let owned = words (t.root, t.levels) - 3 - words t.levels.(Array.length t.levels - 1).index in
  owned * (Sys.word_size / 8)

let sample_rows t rng ?(metrics = Metrics.create ()) ~r () =
  if Root_table.size t.root = 0 then [||]
  else
    Obs.Trace.with_span ~cat:"chain" ~args:[ ("r", Obs.Json.Int r) ] "chain_sample.sample_rows"
    @@ fun () ->
    count_draws t r;
    let k = Array.length t.levels in
    let roots = Array.init r (fun _ -> Root_table.draw t.root rng) in
    let out = Array.make (r * k) 0 in
    (* The walk inlined without closures: this is the draw kernel of
       every chain request and of Stream, so nothing per-draw beyond
       the picks themselves. Accounting is hoisted: a complete batch
       makes r root accesses and r * (k-1) successor probes, and yields
       r join tuples. *)
    metrics.Metrics.random_accesses <- metrics.Metrics.random_accesses + r;
    metrics.Metrics.index_probes <- metrics.Metrics.index_probes + (r * (k - 1));
    metrics.Metrics.join_output_tuples <- metrics.Metrics.join_output_tuples + r;
    let levels = t.levels in
    for j = 0 to r - 1 do
      let base = j * k in
      let row_id = ref (Array.unsafe_get roots j) in
      Array.unsafe_set out base !row_id;
      for level_idx = 0 to k - 2 do
        let g = Array.unsafe_get (Array.unsafe_get levels level_idx).succ !row_id in
        (* Positive weight guarantees a successor; unreachable unless
           the relations changed after prepare. *)
        if g < 0 then
          failwith "Chain_sample.draw: weight table inconsistent with relation contents";
        let next = Array.unsafe_get levels (level_idx + 1) in
        (* The last level picks as Int_index.random_row does. *)
        let jj =
          if level_idx = k - 2 then Rsj_util.Prng.int rng (Int_index.gid_multiplicity next.index g)
          else Dist.Alias_table.draw (Array.unsafe_get next.picks g) rng
        in
        row_id := Int_index.row next.index (Int_index.gid_start next.index g + jj);
        Array.unsafe_set out (base + level_idx + 1) !row_id
      done
    done;
    out

let sample t rng ?metrics ~r () = Relation.rehydrate t.relations (sample_rows t rng ?metrics ~r ())

let draw t rng ?metrics () =
  match sample t rng ?metrics ~r:1 () with [| tuple |] -> Some tuple | _ -> None
