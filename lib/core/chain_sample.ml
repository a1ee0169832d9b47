open Rsj_relation
open Rsj_exec
module Int_index = Rsj_index.Int_index
module Dist = Rsj_util.Dist
module Obs = Rsj_obs

type spec = { relations : Relation.t array; join_keys : (int * int) array }

(* Level i > 0 holds relation i's positive-weight rows grouped by
   their join-in key (column b of join i-1) over the int plane, in
   storage order, and [picks.(g)] is an alias table over group g's row
   weights — O(1) per pick. R1 is entered through [root], the
   Root_table over its w_1 weights, so level 0 keeps only [succ].
   [succ] maps each row to the group id of its join-out key (column a
   of join i) in level i+1, -1 for none, resolved at prepare time so
   the walk never hashes a key; [||] for the last level. *)
type level = { index : Int_index.t; picks : Dist.Alias_table.t array; succ : int array }

type t = { relations : Relation.t array; root : Root_table.t; levels : level array }

(* Alias-table draws across every chain walk (root pick + one pick per
   level entered). A complete walk of a k-chain makes exactly k
   weighted picks (positive root weight guarantees a full path), so
   counting is one bump per request. *)
let alias_draws =
  lazy
    (Obs.Registry.counter ~help:"Weighted draws served by the chain walker's alias tables."
       "rsj_alias_draws_total")

let count_draws t n = Obs.Registry.add (Lazy.force alias_draws) (n * Array.length t.levels)

let prepare ?(metrics = Metrics.create ()) (spec : spec) =
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
  let scanned n = metrics.Metrics.tuples_scanned <- metrics.Metrics.tuples_scanned + n in
  let no_groups = { index = Int_index.build ~keys:[||] (); picks = [||]; succ = [||] } in
  let levels = Array.make k no_groups in
  let root = ref (Root_table.of_weights [||]) in
  (* Right to left: w_i(row) is the summed weight of the row's matches
     in level i+1 ([sums], per group of that level, added up in storage
     order), and 1 on the last level. *)
  let sums = ref [||] in
  for i = k - 1 downto 0 do
    let rel = spec.relations.(i) in
    let n = Relation.cardinality rel in
    let succ, w =
      if i = k - 1 then ([||], Array.make n 1.)
      else begin
        scanned n;
        let keys = Column.int_view rel ~col:(fst spec.join_keys.(i)) in
        let succ = Array.map (Int_index.find_gid levels.(i + 1).index) keys in
        (succ, Array.map (fun g -> if g < 0 then 0. else !sums.(g)) succ)
      end
    in
    if i = 0 then begin
      root := Root_table.of_weights w;
      levels.(0) <- { no_groups with succ }
    end
    else begin
      scanned n;
      let keys = Column.int_view rel ~col:(snd spec.join_keys.(i - 1)) in
      (* Zero-weight rows lead nowhere: masking their key to the
         sentinel keeps them out of the index. *)
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
  { relations = spec.relations; root = !root; levels }

let join_size t = Root_table.total t.root

(* Root and levels as one pair, less the pair's three words. *)
let bytes t = (Obj.reachable_words (Obj.repr (t.root, t.levels)) - 3) * (Sys.word_size / 8)

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
       every chain request, so nothing per-draw beyond the picks
       themselves. *)
    (* Accounting hoisted out of the loop: a complete batch makes
       exactly r root accesses and r * (k-1) successor probes. *)
    metrics.Metrics.random_accesses <- metrics.Metrics.random_accesses + r;
    metrics.Metrics.index_probes <- metrics.Metrics.index_probes + (r * (k - 1));
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
        let jj = Dist.Alias_table.draw (Array.unsafe_get next.picks g) rng in
        row_id := Int_index.row next.index (Int_index.gid_start next.index g + jj);
        Array.unsafe_set out (base + level_idx + 1) !row_id
      done
    done;
    out

let sample t rng ?metrics ~r () = Relation.rehydrate t.relations (sample_rows t rng ?metrics ~r ())

let draw t rng ?metrics () =
  match sample t rng ?metrics ~r:1 () with [| tuple |] -> Some tuple | _ -> None
