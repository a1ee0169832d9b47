(* Compact data plane: the columnar int kernels under the parallel
   runtime's chunked runners.

   Four layers of evidence:
   - the Wr_int kernel replays Reservoir.Wr's draw sequence bit-for-bit
     (slots AND the generator stream after the feed agree);
   - the key encoding (Column.key) round-trips every value kind and
     joins exactly as Value.equal;
   - how a join key is stored (int, string, float, or an int inside the
     dictionary's band) never changes the sample: the row pairs drawn at
     a fixed seed are the int-keyed original's;
   - the int inner loop really is allocation-free: feeding 10k tuples
     through the Stream-Sample kernel costs < 256 minor words. *)

open Rsj_relation
open Rsj_core
module Zipf_tables = Rsj_workload.Zipf_tables
module Prng = Rsj_util.Prng
module Wr_int = Rsj_util.Wr_int
module Counter = Rsj_index.Int_index.Counter

let drain rng =
  let a = Array.make 8 0 in
  for i = 0 to 7 do
    a.(i) <- Prng.int rng 1_000_000
  done;
  a

(* --- Kernel equivalence: Wr_int vs Reservoir.Wr --- *)

let test_kernel_equivalence () =
  List.iter
    (fun (seed, r, weights) ->
      let n = Array.length weights in
      let rng_box = Prng.create ~seed () in
      let res = Reservoir.Wr.create ~r in
      Array.iteri
        (fun i w -> Reservoir.Wr.feed rng_box res ~weight:(float_of_int w) i)
        weights;
      let boxed = Reservoir.Wr.contents res in
      let rng_int = Prng.create ~seed () in
      let ker = Wr_int.create rng_int ~r in
      Array.iteri (fun i w -> Wr_int.feed ker ~weight:w i) weights;
      let label what = Printf.sprintf "%s (seed=%d r=%d n=%d)" what seed r n in
      Alcotest.(check (array int)) (label "slots") boxed (Wr_int.contents ker);
      Alcotest.(check int) (label "fed") (Reservoir.Wr.fed_count res) (Wr_int.fed_count ker);
      Alcotest.(check (float 1e-9))
        (label "total")
        (Reservoir.Wr.total_weight res)
        (Wr_int.total_weight ker);
      Alcotest.(check (array int)) (label "post-feed stream") (drain rng_box) (drain rng_int))
    ((* A partition chunk at r = 200: weighted high-frequency feeds
        whose r p falls from above 30 to about 0.2, so the early ones
        take Dist.binomial or the full inversion, then a unit-weight
        tail (r p < 10^-3) that takes the no-flip fast path on all but
        a few of its feeds. *)
     ( 7,
       200,
       Array.append
         (Array.init 475 (fun i -> if i mod 5 = 0 then 2080 else 260))
         (Array.make 4_600 1) )
    :: List.map
         (fun (seed, r, n) ->
           let wrng = Prng.create ~seed:((seed * 7) + 1) () in
           (* Mixed regimes: zeros (ignored), dominant early weights (the
              large-mean binomial detour), and a long light tail (the
              inlined inversion path). *)
           (seed, r, Array.init n (fun i -> if i < 3 then 50 * (i + 1) else Prng.int wrng 5)))
         [ (1, 4, 100); (2, 1, 57); (3, 16, 1000); (4, 8, 8); (5, 3, 0); (6, 5, 3000) ])

(* Two kernels interleaved on one generator (the partition route) must
   replay two interleaved Reservoir.Wr feeds. *)
let test_linked_kernels () =
  let seed = 42 and r = 5 and n = 400 in
  let route = Array.init n (fun i -> (i * 2654435761) land 7) in
  let rng_box = Prng.create ~seed () in
  let hi = Reservoir.Wr.create ~r and lo = Reservoir.Wr.create ~r in
  Array.iteri
    (fun i b ->
      if b < 4 then Reservoir.Wr.feed rng_box hi ~weight:(float_of_int (b + 1)) i
      else Reservoir.Wr.feed rng_box lo ~weight:1. i)
    route;
  let rng_int = Prng.create ~seed () in
  let hik = Wr_int.create rng_int ~r in
  let lok = Wr_int.create rng_int ~r in
  Array.iteri
    (fun i b ->
      if b < 4 then Wr_int.feed hik ~weight:(b + 1) i else Wr_int.feed lok ~weight:1 i)
    route;
  Alcotest.(check (array int)) "hi slots" (Reservoir.Wr.contents hi) (Wr_int.contents hik);
  Alcotest.(check (array int)) "lo slots" (Reservoir.Wr.contents lo) (Wr_int.contents lok);
  Alcotest.(check (array int)) "post-feed stream" (drain rng_box) (drain rng_int)

(* --- Key encoding --- *)

let test_int_view () =
  let schema = Schema.of_list [ ("k", Value.T_int); ("s", Value.T_str) ] in
  let rel =
    Relation.of_tuples schema
      [
        [| Value.Int 3; Value.Str "a" |];
        [| Value.Null; Value.Str "b" |];
        [| Value.Int (-7); Value.Str "a" |];
      ]
  in
  Alcotest.(check (array int)) "ints are their own keys, Null the sentinel"
    [| 3; Column.null_key; -7 |]
    (Column.int_view rel ~col:0);
  let s = Column.int_view rel ~col:1 in
  Alcotest.(check bool) "equal strings share a key" true (s.(0) = s.(2) && s.(0) <> s.(1))

let test_key_round_trip () =
  List.iter
    (fun v ->
      let k = Column.key v in
      Alcotest.(check bool) (Value.to_string v ^ " round-trips") true
        (Value.equal (Column.value_of_key k) v);
      Alcotest.(check bool)
        (Value.to_string v ^ " is not the Null key")
        true (k <> Column.null_key))
    [
      Value.Int 0;
      Value.Int max_int;
      Value.Int min_int;
      Value.Int (min_int + 7);
      Value.Int (min_int + (1 lsl 32));
      Value.Float Float.nan;
      Value.Float 0.;
      Value.Float (-0.);
      Value.Float 1.5;
      Value.Str "";
      Value.Str "1";
    ];
  Alcotest.(check int) "Null is the Null key" Column.null_key (Column.key Value.Null);
  Alcotest.(check bool) "Int 1, Str \"1\" and Float 1. never share a key" true
    (List.length (List.sort_uniq compare (List.map Column.key Value.[ Int 1; Str "1"; Float 1. ]))
    = 3)

let key_rel keys =
  let ty =
    match keys with
    | Value.Float _ :: _ -> Value.T_float
    | Value.Str _ :: _ -> Value.T_str
    | _ -> Value.T_int
  in
  let schema = Schema.of_list [ ("rid", Value.T_int); ("k", ty) ] in
  Relation.of_tuples schema (List.mapi (fun i k -> [| Value.Int i; k |]) keys)

let test_float_keys_join_as_value_equal () =
  let f x = Value.Float x in
  let lkeys = [ f Float.nan; f 0.; f (-0.); f 1.5; f Float.nan ] in
  let rkeys = [ f Float.nan; f (-0.); f 1.5; f 2.5; f 0. ] in
  let expected =
    List.fold_left
      (fun n a -> List.fold_left (fun n b -> if Value.equal a b then n + 1 else n) n rkeys)
      0 lkeys
  in
  let env () =
    Strategy.make_env ~seed:3 ~left:(key_rel lkeys) ~right:(key_rel rkeys) ~left_key:1
      ~right_key:1 ()
  in
  Alcotest.(check int) "|J| by Value.equal" expected (Strategy.env_join_size (env ()));
  List.iter
    (fun d ->
      let sample =
        (Rsj_parallel.run_wor (env ()) Strategy.Naive ~r:100 ~domains:d).Strategy.sample
      in
      Alcotest.(check int) (Printf.sprintf "d=%d: WoR returns all of J" d) expected
        (Array.length sample);
      Array.iter
        (fun t ->
          Alcotest.(check bool) "sampled pair is Value.equal" true
            (Value.equal (Tuple.get t 1) (Tuple.get t 3)))
        sample)
    [ 1; 2; 4 ]

(* An Int column joined to a Str column spelling the same digits must
   behave exactly like an int pair whose key sets are disjoint: no key
   collides across kinds: both joins are empty, and every strategy
   returns the empty sample on both, WR and WoR, sequential and
   parallel. *)
let test_int_vs_string_keys_never_match () =
  let ints l = List.map Value.int l in
  let outcome (left, right) run =
    let env = Strategy.make_env ~seed:5 ~left ~right ~left_key:1 ~right_key:1 () in
    match run env with
    | sample -> Ok (Array.length sample)
    | exception e -> Error (Printexc.to_string e)
  in
  let cross = (key_rel (ints [ 1; 2; 2; 3 ]), key_rel (List.map Value.str [ "1"; "2"; "3" ])) in
  let disjoint = (key_rel (ints [ 1; 2; 2; 3 ]), key_rel (ints [ 11; 12; 13 ])) in
  List.iter
    (fun s ->
      List.iter
        (fun (what, run) ->
          let label = Printf.sprintf "%s %s" (Strategy.name s) what in
          Alcotest.(check (result int string)) (label ^ ", disjoint ints") (Ok 0)
            (outcome disjoint run);
          Alcotest.(check (result int string)) (label ^ ", Int against Str") (Ok 0)
            (outcome cross run))
        [
          ("WR", fun env -> (Strategy.run env s ~r:5).Strategy.sample);
          ("WoR", fun env -> (Strategy.run_wor env s ~r:5).Strategy.sample);
          ("parallel WR", fun env -> (Rsj_parallel.run env s ~r:5 ~domains:1).Strategy.sample);
          ( "parallel WoR",
            fun env -> (Rsj_parallel.run_wor env s ~r:5 ~domains:1).Strategy.sample );
        ])
    Strategy.all

(* --- The key representation does not change the sample ---

   The same Zipf pair with its join keys stored four ways — ints, the
   digits as strings, floats, and ints shifted into the dictionary's
   band (min_int itself included) — must yield the same sequence of
   (outer rid, inner rid) pairs at the same seed, for every strategy,
   WR and WoR, at every width. Olken runs at d = 1 only: at d > 1 its
   speculative ticketing is distribution- but not bit-reproducible. *)

let rekey ~ty ~f rel =
  let schema =
    Schema.of_list [ ("rid", Value.T_int); ("col2", ty); ("pad", Value.T_str) ]
  in
  let out =
    Relation.create ~name:(Relation.name rel ^ "_rekeyed") ~capacity:(Relation.cardinality rel)
      schema
  in
  Relation.iter rel (fun t ->
      let t = Array.copy t in
      t.(Zipf_tables.col2) <- f t.(Zipf_tables.col2);
      Relation.append_unchecked out t);
  out

let rid_pairs (res : Strategy.result) =
  Array.map
    (fun t -> (Value.to_int_exn (Tuple.get t 0), Value.to_int_exn (Tuple.get t 3)))
    res.Strategy.sample

let test_key_representation_invariance () =
  let pair = Zipf_tables.make_pair ~seed:21 ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  let copy ~ty f =
    let f = function Value.Int x -> f x | v -> v in
    (rekey ~ty ~f pair.outer, rekey ~ty ~f pair.inner)
  in
  let strings = Zipf_tables.string_keyed pair in
  let copies =
    [
      ("string keys", (strings.outer, strings.inner));
      ("float keys", copy ~ty:Value.T_float (fun x -> Value.Float (float_of_int x)));
      ("in-band int keys", copy ~ty:Value.T_int (fun x -> Value.Int (min_int + x - 1)));
    ]
  in
  let env left right =
    Strategy.make_env ~seed:4 ~left ~right ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ()
  in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> Strategy.Olken || d = 1 then begin
            let wr l r = rid_pairs (Rsj_parallel.run (env l r) s ~r:10 ~domains:d) in
            let wor l r = rid_pairs (Rsj_parallel.run_wor (env l r) s ~r:10 ~domains:d) in
            let base_wr = wr pair.outer pair.inner and base_wor = wor pair.outer pair.inner in
            List.iter
              (fun (what, (l, r)) ->
                let cell = Printf.sprintf "%s %s d=%d" what (Strategy.name s) d in
                Alcotest.(check (array (pair int int))) (cell ^ " WR") base_wr (wr l r);
                Alcotest.(check (array (pair int int))) (cell ^ " WoR") base_wor (wor l r))
              copies
          end)
        [ 1; 2; 4 ])
    Strategy.all;
  (* Left keys [min_int; min_int; 1], right keys [min_int; 1]: |J| = 3,
     two of them on min_int, a genuine data value. A WoR request past
     |J| returns all 3. *)
  let ints l = key_rel (List.map Value.int l) in
  let env =
    Strategy.make_env ~seed:4 ~left:(ints [ min_int; min_int; 1 ]) ~right:(ints [ min_int; 1 ])
      ~left_key:1 ~right_key:1 ()
  in
  List.iter
    (fun d ->
      let sample = (Rsj_parallel.run_wor env Strategy.Naive ~r:10 ~domains:d).Strategy.sample in
      let on_min_int =
        Array.fold_left
          (fun n t -> if Tuple.get t 1 = Value.Int min_int then n + 1 else n)
          0 sample
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "d=%d: |J| and min_int join tuples" d)
        (3, 2)
        (Array.length sample, on_min_int))
    [ 1; 2; 4 ]

(* --- Allocation regression: the Stream-Sample int inner loop ---

   The per-tuple work of the columnar Stream-Sample S1 pass is one
   Counter probe plus one Wr_int.feed. Feeding 10k tuples must cost
   fewer than 256 minor words — i.e. the loop itself allocates nothing;
   the budget only absorbs the handful of boxed-float round-trips the
   rare slow-binomial regime is allowed. *)
let test_inner_loop_allocation () =
  let n = 10_000 in
  let keys = Array.init n (fun i -> i land 63) in
  let freq = Counter.create ~capacity:256 () in
  Array.iter (fun k -> Counter.add freq k 1) keys;
  let rng = Prng.create ~seed:7 () in
  let ker = Wr_int.create rng ~r:16 in
  (* Warm up so lazy runtime pieces (callbacks, tables) are paid. *)
  for row = 0 to 99 do
    Wr_int.feed ker ~weight:(Counter.get freq keys.(row)) row
  done;
  let before = Gc.minor_words () in
  for row = 0 to n - 1 do
    Wr_int.feed ker ~weight:(Counter.get freq (Array.unsafe_get keys row)) row
  done;
  let words = Gc.minor_words () -. before in
  if words >= 256. then
    Alcotest.failf "Stream int inner loop allocated %.0f minor words per %d tuples" words n

(* find_key probes without interning: a value the dictionary has never
   seen reads as the Null key, which matches nothing, and a known one
   reads as its key. Ints outside the reserved band are their own key
   either way. *)
let test_find_key_never_interns () =
  let fresh = Value.str (Printf.sprintf "never-interned-%d" (Column.key (Value.Float 0.125))) in
  Alcotest.(check int) "unseen string" Column.null_key (Column.find_key fresh);
  Alcotest.(check int) "still unseen after a probe" Column.null_key (Column.find_key fresh);
  let k = Column.key fresh in
  Alcotest.(check bool) "interned key is a real key" true (k <> Column.null_key);
  Alcotest.(check int) "find_key after key" k (Column.find_key fresh);
  Alcotest.(check int) "an int is its own key" 42 (Column.find_key (Value.Int 42));
  Alcotest.(check int) "Null" Column.null_key (Column.find_key Value.Null)

let suite =
  [
    Alcotest.test_case "Wr_int kernel replays Reservoir.Wr bit-for-bit" `Quick
      test_kernel_equivalence;
    Alcotest.test_case "linked kernels share one generator stream" `Quick test_linked_kernels;
    Alcotest.test_case "int_view extraction" `Quick test_int_view;
    Alcotest.test_case "key encoding round-trips every value kind" `Quick test_key_round_trip;
    Alcotest.test_case "find_key probes without interning" `Quick test_find_key_never_interns;
    Alcotest.test_case "float keys join as Value.equal" `Quick
      test_float_keys_join_as_value_equal;
    Alcotest.test_case "Int and Str keys never match" `Quick test_int_vs_string_keys_never_match;
    Alcotest.test_case "the key representation does not change the sample" `Quick
      test_key_representation_invariance;
    Alcotest.test_case "int inner loop allocates < 256 minor words / 10k tuples" `Quick
      test_inner_loop_allocation;
  ]
