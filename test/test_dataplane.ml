(* Compact data plane: the columnar int kernels under the parallel
   runtime's chunked runners.

   Three layers of evidence:
   - the Wr_int kernel replays Reservoir.Wr's draw sequence bit-for-bit
     (slots AND the post-finish generator stream agree);
   - join columns without an int view (Float keys, min_int as data)
     make the parallel runtime return exactly the sequential kernels'
     sample;
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
    (fun (seed, r, n) ->
      let weights =
        let wrng = Prng.create ~seed:((seed * 7) + 1) () in
        (* Mixed regimes: zeros (ignored), dominant early weights (the
           large-mean binomial detour), and a long light tail (the
           inlined inversion path). *)
        Array.init n (fun i -> if i < 3 then 50 * (i + 1) else Prng.int wrng 5)
      in
      let rng_box = Prng.create ~seed () in
      let res = Reservoir.Wr.create ~r in
      Array.iteri
        (fun i w -> Reservoir.Wr.feed rng_box res ~weight:(float_of_int w) i)
        weights;
      let boxed = Reservoir.Wr.contents res in
      let rng_int = Prng.create ~seed () in
      let ker = Wr_int.create rng_int ~r in
      Array.iteri (fun i w -> Wr_int.feed ker ~weight:w i) weights;
      Wr_int.finish ker;
      let label what = Printf.sprintf "%s (seed=%d r=%d n=%d)" what seed r n in
      Alcotest.(check (array int)) (label "slots") boxed (Wr_int.contents ker);
      Alcotest.(check int) (label "fed") (Reservoir.Wr.fed_count res) (Wr_int.fed_count ker);
      Alcotest.(check (float 1e-9))
        (label "total")
        (Reservoir.Wr.total_weight res)
        (Wr_int.total_weight ker);
      Alcotest.(check (array int)) (label "post-finish stream") (drain rng_box) (drain rng_int))
    [ (1, 4, 100); (2, 1, 57); (3, 16, 1000); (4, 8, 8); (5, 3, 0); (6, 5, 3000) ]

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
  let lok = Wr_int.create_linked hik ~r in
  Array.iteri
    (fun i b ->
      if b < 4 then Wr_int.feed hik ~weight:(b + 1) i else Wr_int.feed lok ~weight:1 i)
    route;
  Wr_int.finish hik;
  Alcotest.(check (array int)) "hi slots" (Reservoir.Wr.contents hi) (Wr_int.contents hik);
  Alcotest.(check (array int)) "lo slots" (Reservoir.Wr.contents lo) (Wr_int.contents lok);
  Alcotest.(check (array int)) "post-finish stream" (drain rng_box) (drain rng_int)

(* --- Column views --- *)

let test_int_view () =
  let schema = Schema.of_list [ ("k", Value.T_int); ("s", Value.T_str) ] in
  let rel =
    Relation.of_tuples schema
      [
        [| Value.Int 3; Value.Str "a" |];
        [| Value.Null; Value.Str "b" |];
        [| Value.Int (-7); Value.Str "c" |];
      ]
  in
  (match Column.int_view rel ~col:0 with
  | Some keys ->
      Alcotest.(check (array int)) "keys with Null sentinel"
        [| 3; Column.null_key; -7 |]
        keys
  | None -> Alcotest.fail "int column should be viewable");
  Alcotest.(check bool) "string column escapes" true (Column.int_view rel ~col:1 = None)

let check_same what a b =
  Alcotest.(check int) (what ^ ": size") (Array.length a) (Array.length b);
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) (Printf.sprintf "%s: tuple %d" what i) true (Tuple.equal t b.(i)))
    a

(* --- Keys the int view cannot hold ---

   A join column with a Float key, or with min_int as a genuine Int key
   (the Null sentinel), has no int view. The parallel runtime then runs
   the sequential kernels at every width, so its sample is exactly
   Strategy.run's. The min_int rows also join each other, as the boxed
   kernels' Value equality says they must. *)

let rekey ~ty ~f rel =
  let schema =
    Schema.of_list [ ("rid", Value.T_int); ("col2", ty); ("pad", Value.T_str) ]
  in
  let out =
    Relation.create ~name:(Relation.name rel ^ "_rekeyed") ~capacity:(Relation.cardinality rel)
      schema
  in
  Relation.iteri rel (fun i t ->
      let t = Array.copy t in
      t.(Zipf_tables.col2) <- f i t.(Zipf_tables.col2);
      Relation.append_unchecked out t);
  out

let test_unviewable_keys_fall_back () =
  let pair = Zipf_tables.make_pair ~seed:21 ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  let sentinel i v = if i < 2 then Value.Int Column.null_key else v in
  let to_float _ v = match v with Value.Int x -> Value.Float (float_of_int x) | v -> v in
  let key = Zipf_tables.col2 in
  List.iter
    (fun (what, ty, f) ->
      let left = rekey ~ty ~f pair.outer and right = rekey ~ty ~f pair.inner in
      Alcotest.(check bool) (what ^ ": no int view") true (Column.int_view left ~col:key = None);
      let env () = Strategy.make_env ~seed:4 ~left ~right ~left_key:key ~right_key:key () in
      List.iter
        (fun s ->
          let seq = Strategy.run (env ()) s ~r:10 in
          let seq_wor = Strategy.run_wor (env ()) s ~r:10 in
          List.iter
            (fun d ->
              let cell = Printf.sprintf "%s %s d=%d" what (Strategy.name s) d in
              check_same (cell ^ " WR") seq.Strategy.sample
                (Rsj_parallel.run (env ()) s ~r:10 ~domains:d).Strategy.sample;
              check_same (cell ^ " WoR") seq_wor.Strategy.sample
                (Rsj_parallel.run_wor (env ()) s ~r:10 ~domains:d).Strategy.sample)
            [ 1; 2; 4 ])
        Strategy.all)
    [ ("min_int keys", Value.T_int, sentinel); ("float keys", Value.T_float, to_float) ];
  (* Left keys [min_int; min_int; 1], right keys [min_int; 1]: |J| = 3,
     two of them on the sentinel. A WoR request past |J| returns all 3. *)
  let schema = Schema.of_list [ ("rid", Value.T_int); ("k", Value.T_int) ] in
  let rel keys =
    Relation.of_rows schema (List.mapi (fun i k -> [ Value.Int i; Value.Int k ]) keys)
  in
  let env =
    Strategy.make_env ~seed:4
      ~left:(rel [ Column.null_key; Column.null_key; 1 ])
      ~right:(rel [ Column.null_key; 1 ])
      ~left_key:1 ~right_key:1 ()
  in
  List.iter
    (fun d ->
      let sample = (Rsj_parallel.run_wor env Strategy.Naive ~r:10 ~domains:d).Strategy.sample in
      let on_sentinel =
        Array.fold_left
          (fun n t -> if Tuple.get t 1 = Value.Int Column.null_key then n + 1 else n)
          0 sample
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "d=%d: |J| and min_int join tuples" d)
        (3, 2)
        (Array.length sample, on_sentinel))
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
  Wr_int.finish ker;
  if words >= 256. then
    Alcotest.failf "Stream int inner loop allocated %.0f minor words per %d tuples" words n

let suite =
  [
    Alcotest.test_case "Wr_int kernel replays Reservoir.Wr bit-for-bit" `Quick
      test_kernel_equivalence;
    Alcotest.test_case "linked kernels share one generator stream" `Quick test_linked_kernels;
    Alcotest.test_case "int_view extraction and escape" `Quick test_int_view;
    Alcotest.test_case "keys without an int view run the sequential kernels" `Quick
      test_unviewable_keys_fall_back;
    Alcotest.test_case "int inner loop allocates < 256 minor words / 10k tuples" `Quick
      test_inner_loop_allocation;
  ]
