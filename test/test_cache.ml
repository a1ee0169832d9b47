(* The warm structure cache (lib/cache): hit/miss accounting,
   fingerprint-based staleness, explicit invalidation, the LRU byte
   budget, and the warm env being a faithful drop-in for
   Strategy.make_env. *)

open Rsj_relation
module Cache = Rsj_cache.Structure_cache
module Strategy = Rsj_core.Strategy
module Zipf_tables = Rsj_workload.Zipf_tables

let make_pair ?(seed = 0xCAFE) () =
  Zipf_tables.make_pair ~seed ~n1:60 ~n2:240 ~z1:1. ~z2:1. ~domain:24 ()

let key = Zipf_tables.col2

let test_hit_miss_accounting () =
  let c = Cache.create () in
  let pair = make_pair () in
  let i1 = Cache.hash_index c pair.Zipf_tables.inner ~key in
  let s0 = Cache.stats c in
  Alcotest.(check int) "first build is a miss" 1 s0.Cache.misses;
  Alcotest.(check int) "no hits yet" 0 s0.Cache.hits;
  let i2 = Cache.hash_index c pair.Zipf_tables.inner ~key in
  let s1 = Cache.stats c in
  Alcotest.(check int) "second touch is a hit" 1 s1.Cache.hits;
  Alcotest.(check int) "still one miss" 1 s1.Cache.misses;
  Alcotest.(check bool) "the very same structure is served" true (i1 == i2);
  (* A different structure kind on the same column is its own entry. *)
  ignore (Cache.frequency c pair.Zipf_tables.inner ~key);
  let s2 = Cache.stats c in
  Alcotest.(check int) "frequency is a second miss" 2 s2.Cache.misses;
  Alcotest.(check int) "two live entries" 2 s2.Cache.entries;
  Alcotest.(check bool) "footprint is measured" true (s2.Cache.bytes > 0)

(* Mutation bumps the relation's version, so the fingerprint key stops
   matching: the stale structure can never be served again. *)
let test_mutation_invalidates () =
  let c = Cache.create () in
  let pair = make_pair () in
  let rel = pair.Zipf_tables.inner in
  let idx = Cache.hash_index c rel ~key in
  Relation.append rel [| Value.Int 9999; Value.Int 1; Value.str "pad" |];
  let idx' = Cache.hash_index c rel ~key in
  let s = Cache.stats c in
  Alcotest.(check bool) "post-append structure is a fresh build" true (not (idx == idx'));
  Alcotest.(check int) "both builds were misses" 2 s.Cache.misses;
  Alcotest.(check bool) "stale entry dropped as an invalidation" true
    (s.Cache.invalidations >= 1);
  Alcotest.(check int) "only the fresh entry lives" 1 s.Cache.entries

let test_explicit_invalidate () =
  let c = Cache.create () in
  let pair = make_pair () in
  let rel = pair.Zipf_tables.inner in
  ignore (Cache.hash_index c rel ~key);
  ignore (Cache.frequency c rel ~key);
  Cache.invalidate c rel;
  let s = Cache.stats c in
  Alcotest.(check int) "no live entries" 0 s.Cache.entries;
  Alcotest.(check int) "zero bytes held" 0 s.Cache.bytes;
  Alcotest.(check bool) "invalidations counted" true (s.Cache.invalidations >= 2);
  ignore (Cache.hash_index c rel ~key);
  Alcotest.(check int) "rebuild after invalidate is a miss" 3 (Cache.stats c).Cache.misses

(* The byte budget: measure one relation's structure footprint with an
   unbounded cache, then give a bounded cache room for about two of
   them and insert five. LRU entries must be evicted and the measured
   footprint must stay within the budget (every entry individually
   fits, so the invariant is enforceable). *)
let test_lru_eviction_budget () =
  let pairs = List.init 5 (fun i -> make_pair ~seed:(0xCAFE + (17 * (i + 1))) ()) in
  let probe = Cache.create () in
  ignore (Cache.hash_index probe (List.hd pairs).Zipf_tables.inner ~key);
  let per_relation = (Cache.stats probe).Cache.bytes in
  Alcotest.(check bool) "probe measured something" true (per_relation > 0);
  let budget = 2 * per_relation in
  let c = Cache.create ~max_bytes:budget () in
  Alcotest.(check bool) "budget is reported" true (Cache.max_bytes c = Some budget);
  List.iter (fun p -> ignore (Cache.hash_index c p.Zipf_tables.inner ~key)) pairs;
  let s = Cache.stats c in
  Alcotest.(check bool)
    (Printf.sprintf "evictions happened (%d entries, %d bytes)" s.Cache.entries s.Cache.bytes)
    true
    (s.Cache.evictions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "footprint %d within budget %d" s.Cache.bytes budget)
    true
    (s.Cache.bytes <= budget);
  Alcotest.(check bool) "something still cached" true (s.Cache.entries > 0);
  (* The most recently inserted relation survived (LRU evicts oldest). *)
  let last = List.nth pairs 4 in
  let before = (Cache.stats c).Cache.hits in
  ignore (Cache.hash_index c last.Zipf_tables.inner ~key);
  Alcotest.(check int) "newest entry was retained" (before + 1) (Cache.stats c).Cache.hits

(* The warm env must be a faithful drop-in: same seed, same strategy,
   byte-identical sample — the cache only changes who builds the
   structures, never what is sampled. *)
let test_warm_env_identical () =
  let pair = make_pair () in
  let left = pair.Zipf_tables.outer and right = pair.Zipf_tables.inner in
  let sample_of env s =
    (Rsj_parallel.run env s ~r:24 ~domains:1).Strategy.sample
    |> Array.map Tuple.to_string |> Array.to_list
  in
  let c = Cache.create () in
  List.iter
    (fun s ->
      let cold =
        Strategy.make_env ~seed:77 ~left ~right ~left_key:key ~right_key:key ()
      in
      let warm = Cache.env c ~seed:77 ~left ~right ~left_key:key ~right_key:key () in
      Alcotest.(check (list string))
        (Strategy.name s ^ ": warm env samples identically")
        (sample_of cold s) (sample_of warm s))
    Strategy.all;
  Alcotest.(check bool) "repeated envs actually hit the cache" true
    ((Cache.stats c).Cache.hits > 0)

(* The chain getter: a prepared walker is cached under the root with a
   fingerprint mixing every member, so a warm lookup serves the very
   same walker, per-kind counters expose the traffic, and mutating any
   member — not just the root — forces a rebuild. *)
let test_chain_entry () =
  let c = Cache.create () in
  let pair = make_pair () in
  let third =
    Zipf_tables.make ~seed:0xBEEF ~name:"third" ~rows:120 ~z:1. ~domain:24 ()
  in
  let spec =
    {
      Rsj_core.Chain_sample.relations =
        [| pair.Zipf_tables.outer; pair.Zipf_tables.inner; third |];
      join_keys = [| (key, key); (key, key) |];
    }
  in
  let cs1 = Cache.chain c spec in
  let cs2 = Cache.chain c spec in
  Alcotest.(check bool) "warm lookup serves the same walker" true (cs1 == cs2);
  let s = Cache.stats c in
  Alcotest.(check bool) "by_kind reports chain traffic" true
    (List.assoc_opt "chain" s.Cache.by_kind = Some (1, 1));
  (* Mutating a non-root member must invalidate: the mixed fingerprint
     stops matching even though the root is untouched. *)
  Relation.append third [| Value.Int 9999; Value.Int 1; Value.str "pad" |];
  let cs3 = Cache.chain c spec in
  Alcotest.(check bool) "member mutation rebuilds the walker" true (not (cs2 == cs3));
  Alcotest.(check bool) "rebuild counted as a chain miss" true
    (List.assoc_opt "chain" (Cache.stats c).Cache.by_kind = Some (1, 2));
  (* The cached walker samples identically to a cold prepare. *)
  let draw w =
    let rng = Rsj_util.Prng.create ~seed:51 () in
    Rsj_core.Chain_sample.sample w rng ~r:16 ()
    |> Array.map Tuple.to_string |> Array.to_list
  in
  let third = spec.relations.(2) in
  let cold =
    Rsj_core.Chain_sample.prepare ~index:(Rsj_index.Hash_index.build third ~key) spec
  in
  Alcotest.(check (list string)) "warm walker samples identically" (draw cold) (draw cs3);
  Alcotest.(check bool) "the walker's last level is R_k's cached index" true
    (Cache.hash_index c third ~key == Cache.hash_index c third ~key
    && List.assoc_opt "hash_index" (Cache.stats c).Cache.by_kind = Some (2, 2))

let chain_counts c =
  Option.value ~default:(0, 0) (List.assoc_opt "chain" (Cache.stats c).Cache.by_kind)

(* The two-way walker of a cache env (its root table is the S1 table):
   one build per relation pair, over the env's own R2 index, served
   warm to every later env over the pair, and rebuilt once either
   relation is invalidated or mutated. *)
let test_two_way_walker_entry () =
  let c = Cache.create () in
  let pair = make_pair () in
  let left = pair.Zipf_tables.outer and right = pair.Zipf_tables.inner in
  let env () = Cache.env c ~seed:3 ~left ~right ~left_key:key ~right_key:key () in
  let stream () = ignore (Rsj_parallel.run (env ()) Strategy.Stream ~r:8 ~domains:1) in
  List.iter (fun s -> ignore (Rsj_parallel.run (env ()) s ~r:8 ~domains:1))
    [ Strategy.Stream; Strategy.Group; Strategy.Count_sample ];
  Alcotest.(check (pair int int)) "Stream, Group and Count share one build" (2, 1) (chain_counts c);
  Alcotest.(check (option (pair int int))) "one R2 index, shared with the walker" (Some (1, 1))
    (List.assoc_opt "hash_index" (Cache.stats c).Cache.by_kind);
  let w1 = Strategy.env_walker (env ()) in
  Alcotest.(check bool) "a warm env serves the very same walker" true
    (w1 == Strategy.env_walker (env ()));
  Cache.invalidate c right;
  stream ();
  Alcotest.(check (pair int int)) "invalidating R2 rebuilds" (4, 2) (chain_counts c);
  Cache.invalidate c left;
  stream ();
  Alcotest.(check (pair int int)) "invalidating R1 rebuilds" (4, 3) (chain_counts c);
  Relation.append right [| Value.Int 9999; Value.Int 1; Value.str "pad" |];
  stream ();
  Alcotest.(check (pair int int)) "mutating R2 rebuilds" (4, 4) (chain_counts c);
  Relation.append left [| Value.Int 9999; Value.Int 1; Value.str "pad" |];
  stream ();
  Alcotest.(check (pair int int)) "mutating R1 rebuilds" (4, 5) (chain_counts c)

(* Invalidating any member of a multi-relation entry drops it, not
   only invalidating the relation it is filed under: a chain entry
   lives under its root's uid. *)
let test_invalidate_drops_multi_relation_entries () =
  let c = Cache.create () in
  let pair = make_pair () in
  let third = Zipf_tables.make ~seed:0xBEEF ~name:"third" ~rows:120 ~z:1. ~domain:24 () in
  let spec =
    {
      Rsj_core.Chain_sample.relations = [| pair.Zipf_tables.outer; pair.Zipf_tables.inner; third |];
      join_keys = [| (key, key); (key, key) |];
    }
  in
  ignore (Cache.chain c spec);
  Cache.invalidate c third;
  let s = Cache.stats c in
  Alcotest.(check (pair int int)) "invalidating the last member drops the chain and its index"
    (0, 0) (s.Cache.entries, s.Cache.bytes);
  let chain3 = Cache.chain c spec in
  Alcotest.(check int) "the rebuild and its R_k index are the only live entries" 2
    (Cache.stats c).Cache.entries;
  let two () =
    Cache.chain c
      {
        Rsj_core.Chain_sample.relations = [| pair.Zipf_tables.outer; pair.Zipf_tables.inner |];
        join_keys = [| (key, key) |];
      }
  in
  let chain2 = two () in
  (* Nothing mutated, so only a dropped entry makes the next lookup a
     fresh walker. *)
  Cache.invalidate c pair.Zipf_tables.inner;
  Alcotest.(check bool) "invalidating R2 drops the chain" true
    (not (Cache.chain c spec == chain3));
  Alcotest.(check bool) "invalidating R2 drops the two-way walker" true (not (two () == chain2))

(* ---------- the structures read the columns, never write them ---------- *)

(* An int column's key view is the column itself, so a structure that
   masked its keys in place (the chain walker drops zero-weight rows
   from its inner indexes) would corrupt the relation. After the k = 3
   walker, every cache build and every strategy run, WR and WoR, on
   the reference kernels and the chunked runners, every relation still
   holds the same cells and the same keys. The middle relation matches
   only some of the last one's keys, so the walker has rows to mask. *)
let test_columns_unchanged_by_reads () =
  let pair = make_pair () in
  let left = pair.Zipf_tables.outer and right = pair.Zipf_tables.inner in
  let third = Zipf_tables.make ~seed:0xD00D ~name:"third" ~rows:40 ~z:2. ~domain:8 () in
  let rels = [| left; right; third |] in
  let snapshot () =
    Array.map
      (fun rel ->
        ( List.init (Relation.cardinality rel) (fun i -> Tuple.to_string (Relation.get rel i)),
          Array.init 3 (fun col -> Array.copy (Column.int_view rel ~col)) ))
      rels
  in
  let before = snapshot () in
  let c = Cache.create () in
  let walker =
    Cache.chain c { Rsj_core.Chain_sample.relations = rels; join_keys = [| (key, key); (key, key) |] }
  in
  Alcotest.(check bool) "the middle relation has rows to mask" true
    (Rsj_core.Chain_sample.join_size walker > 0.
    && Array.exists
         (fun k ->
           Rsj_index.Int_index.find_gid
             (Rsj_index.Hash_index.int_plane (Cache.hash_index c third ~key))
             k
           < 0)
         (Column.int_view right ~col:key));
  Array.iter
    (fun rel ->
      ignore (Cache.hash_index c rel ~key);
      ignore (Cache.histogram c rel ~key ~fraction:0.1))
    rels;
  let env () = Cache.env c ~seed:3 ~left ~right ~left_key:key ~right_key:key () in
  List.iter
    (fun s ->
      ignore (Strategy.run (env ()) s ~r:16);
      ignore (Strategy.run_wor (env ()) s ~r:16);
      ignore (Rsj_parallel.run (env ()) s ~r:16 ~domains:1);
      ignore (Rsj_parallel.run_wor (env ()) s ~r:16 ~domains:2))
    Strategy.all;
  Array.iteri
    (fun i (cells, views) ->
      let cells', views' = (snapshot ()).(i) in
      let name = Relation.name rels.(i) in
      Alcotest.(check (list string)) (name ^ ": cells unchanged") cells cells';
      Array.iteri
        (fun col v -> Alcotest.(check (array int)) (Printf.sprintf "%s: keys of column %d" name col) v views'.(col))
        views)
    before

(* ---------- footprint: each entry is charged the bytes it owns ---------- *)

(* One fixture per key encoding: plain ints keep their value as the
   key, ints in the reserved band, strings and floats are interned, and
   Null never joins (every other row of the last column). Keys repeat
   with uneven multiplicities. Each maps a row index to its key. *)
let key_kinds =
  let x i = i * i mod 13 in
  [
    ("out-of-band int", Value.T_int, fun i -> Value.Int (x i));
    ("in-band int", Value.T_int, fun i -> Value.Int (min_int + 1000 + x i));
    ("string", Value.T_str, fun i -> Value.Str (Printf.sprintf "k%d" (x i)));
    ("float", Value.T_float, fun i -> Value.Float (float_of_int (x i) +. 0.5));
    ("half-Null int", Value.T_int, fun i -> if i mod 2 = 0 then Value.Null else Value.Int (x i));
  ]

(* (label, R1, R2, R3) per key kind, joined on column 1. *)
let fixtures () =
  List.map
    (fun (label, ty, key_of) ->
      let keyed name rows =
        Relation.of_tuples ~name
          (Schema.of_list [ ("rid", Value.T_int); ("k", ty) ])
          (List.init rows (fun i -> [| Value.Int i; key_of i |]))
      in
      (label, keyed "r1" 150, keyed "r2" 400, keyed "r3" 250))
    key_kinds

(* The reference measure, computed here only: the words reachable from
   the structure and its relations together, less the relations' own
   and the pair block's three. *)
let walked_bytes v ~base =
  (Obj.reachable_words (Obj.repr (v, base)) - Obj.reachable_words (Obj.repr base) - 3)
  * (Sys.word_size / 8)

(* The charge may differ from the walk by the few header words of a
   record that also points at a relation (the index, the chain). *)
let footprint_tolerance_words = 16

(* [prebuild] warms the entries the structure's own build consults
   (the frequency table under a histogram, R_k's index under a walker),
   so the byte delta is the one new entry. *)
let check_footprint kind ?(prebuild = fun _ _ _ _ -> ()) get =
  List.iter
    (fun (label, r1, r2, r3) ->
      let c = Cache.create () in
      prebuild c r1 r2 r3;
      let before = (Cache.stats c).Cache.bytes in
      let walked = get c r1 r2 r3 in
      let charged = (Cache.stats c).Cache.bytes - before in
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s keys: charged %d B, walk %d B" kind label charged walked)
        true
        (charged > 0
        && abs (charged - walked) <= footprint_tolerance_words * (Sys.word_size / 8)))
    (fixtures ())

let test_footprint_hash_index () =
  check_footprint "hash_index" (fun c _ r2 _ ->
      walked_bytes (Cache.hash_index c r2 ~key:1) ~base:r2)

let test_footprint_frequency () =
  check_footprint "frequency" (fun c _ r2 _ ->
      walked_bytes (Cache.frequency c r2 ~key:1) ~base:r2)

let test_footprint_histogram () =
  check_footprint "histogram"
    ~prebuild:(fun c _ r2 _ -> ignore (Cache.frequency c r2 ~key:1))
    (fun c _ r2 _ -> walked_bytes (Cache.histogram c r2 ~key:1 ~fraction:0.1) ~base:r2)

(* A walker over [relations] joined on column 1: the walked base is the
   relations and the last level's plane, which R_k's index owns. *)
let check_walker_footprint kind relations =
  let last rels = rels.(Array.length rels - 1) in
  check_footprint kind
    ~prebuild:(fun c r1 r2 r3 -> ignore (Cache.hash_index c (last (relations r1 r2 r3)) ~key:1))
    (fun c r1 r2 r3 ->
      let relations = relations r1 r2 r3 in
      walked_bytes
        (Cache.chain c
           {
             Rsj_core.Chain_sample.relations;
             join_keys = Array.make (Array.length relations - 1) (1, 1);
           })
        ~base:
          (relations, Rsj_index.Hash_index.int_plane (Cache.hash_index c (last relations) ~key:1)))

let test_footprint_two_way_walker () =
  check_walker_footprint "two-way walker" (fun r1 r2 _ -> [| r1; r2 |])

let test_footprint_chain () = check_walker_footprint "chain" (fun r1 r2 r3 -> [| r1; r2; r3 |])

(* A cold miss costs about the bare build: sizing walks what the entry
   owns, never the relation. Medians of five pairs, alternating which
   side runs first, on a 200k-row relation. *)
let test_cold_miss_near_bare_build () =
  let rel = Zipf_tables.make ~seed:0x5EED ~name:"big" ~rows:200_000 ~z:1. ~domain:1000 () in
  let time f =
    let t0 = Rsj_obs.Clock.now_s () in
    f ();
    Rsj_obs.Clock.now_s () -. t0
  in
  let bare () = ignore (Rsj_stats.Frequency.of_relation rel ~key) in
  let miss () = ignore (Cache.frequency (Cache.create ()) rel ~key) in
  let pairs =
    Array.init 5 (fun i ->
        if i mod 2 = 0 then
          let b = time bare in
          (b, time miss)
        else
          let m = time miss in
          (time bare, m))
  in
  let median side =
    let a = Array.map side pairs in
    Array.sort compare a;
    a.(2)
  in
  let bare_s = median fst and miss_s = median snd in
  Alcotest.(check bool)
    (Printf.sprintf "cold miss %.2f ms vs bare build %.2f ms (at most 3x)" (miss_s *. 1e3)
       (bare_s *. 1e3))
    true
    (miss_s <= 3. *. bare_s)

(* A miss is one structure_cache.build span naming its kind; a hit
   records none. *)
let test_miss_is_one_span () =
  let was = Rsj_obs.enabled () in
  Rsj_obs.set_enabled true;
  Rsj_obs.Trace.clear ();
  Fun.protect ~finally:(fun () ->
      Rsj_obs.Trace.clear ();
      Rsj_obs.set_enabled was)
  @@ fun () ->
  let c = Cache.create () in
  let rel = (make_pair ()).Zipf_tables.inner in
  ignore (Cache.frequency c rel ~key);
  ignore (Cache.frequency c rel ~key);
  ignore (Cache.hash_index c rel ~key);
  let kinds =
    List.filter_map
      (fun (e : Rsj_obs.Trace.event) ->
        match (e.name, List.assoc_opt "kind" e.args) with
        | "structure_cache.build", Some (Rsj_obs.Json.Str k) -> Some k
        | _ -> None)
      (Rsj_obs.Trace.events ())
  in
  Alcotest.(check (list string)) "one span per miss" [ "frequency"; "hash_index" ] kinds

let suite =
  [
    Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss_accounting;
    Alcotest.test_case "mutation invalidates via fingerprint" `Quick test_mutation_invalidates;
    Alcotest.test_case "explicit invalidate" `Quick test_explicit_invalidate;
    Alcotest.test_case "LRU eviction respects the byte budget" `Quick test_lru_eviction_budget;
    Alcotest.test_case "warm env is sample-identical to cold" `Quick test_warm_env_identical;
    Alcotest.test_case "chain walker entry (by_kind, member invalidation)" `Quick
      test_chain_entry;
    Alcotest.test_case "two-way walker entry: one build, rebuilt on either side" `Quick
      test_two_way_walker_entry;
    Alcotest.test_case "invalidate drops multi-relation entries" `Quick
      test_invalidate_drops_multi_relation_entries;
    Alcotest.test_case "columns unchanged by every build and run" `Quick
      test_columns_unchanged_by_reads;
    Alcotest.test_case "footprint: hash_index" `Quick test_footprint_hash_index;
    Alcotest.test_case "footprint: frequency" `Quick test_footprint_frequency;
    Alcotest.test_case "footprint: histogram" `Quick test_footprint_histogram;
    Alcotest.test_case "footprint: two-way walker" `Quick test_footprint_two_way_walker;
    Alcotest.test_case "footprint: chain" `Quick test_footprint_chain;
    Alcotest.test_case "a cold miss costs about the bare build" `Quick
      test_cold_miss_near_bare_build;
    Alcotest.test_case "a miss is one traced build span" `Quick test_miss_is_one_span;
  ]
