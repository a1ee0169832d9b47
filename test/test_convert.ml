open Rsj_util
open Rsj_core

let rng () = Prng.create ~seed:0xC0 ()

let test_semantics_conversions_table () =
  let open Semantics in
  Alcotest.(check bool) "WR->WoR" true (convertible ~from:WR ~into:WoR);
  Alcotest.(check bool) "CF->WoR" true (convertible ~from:CF ~into:WoR);
  Alcotest.(check bool) "WoR->WR" true (convertible ~from:WoR ~into:WR);
  Alcotest.(check bool) "WR->CF impossible" false (convertible ~from:WR ~into:CF);
  Alcotest.(check bool) "WoR->CF impossible" false (convertible ~from:WoR ~into:CF);
  Alcotest.(check bool) "identity" true (convertible ~from:CF ~into:CF);
  Alcotest.(check int) "three semantics" 3 (List.length all);
  Alcotest.(check string) "naming" "with-replacement" (to_string WR);
  Alcotest.(check (float 1e-9)) "expected size" 12. (expected_size WR ~n:120 ~f:0.1)

let test_wr_to_wor_distinct () =
  let r = rng () in
  let wr = [| 1; 1; 2; 3; 3; 3; 4 |] in
  let wor = Convert.wr_to_wor r ~r:10 wr in
  let sorted = List.sort compare (Array.to_list wor) in
  Alcotest.(check (list int)) "all distinct values kept" [ 1; 2; 3; 4 ] sorted

let test_wr_to_wor_truncates () =
  let r = rng () in
  let wor = Convert.wr_to_wor r ~r:2 [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "truncated to r" 2 (Array.length wor);
  Alcotest.(check bool) "distinct" true (wor.(0) <> wor.(1))

let test_wr_to_wor_unbiased_under_duplicates () =
  (* With WR sample [x; x; y], the kept singleton should not favour x
     because of its duplicate given both appear... it will keep both x
     and y when r >= 2; with r = 1 positions are scanned in random
     order so x (2 slots) is kept 2/3 of the time — matching a uniform
     draw over WR sample positions. *)
  let r = rng () in
  let x_kept = ref 0 in
  let runs = 30_000 in
  for _ = 1 to runs do
    let out = Convert.wr_to_wor r ~r:1 [| 1; 1; 2 |] in
    if out.(0) = 1 then incr x_kept
  done;
  let rate = float_of_int !x_kept /. float_of_int runs in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f ~ 2/3" rate) true
    (Float.abs (rate -. (2. /. 3.)) < 0.02)

let test_cf_to_wor () =
  let r = rng () in
  (match Convert.cf_to_wor r ~r:3 [| 10; 20; 30; 40; 50 |] with
  | None -> Alcotest.fail "expected a sample"
  | Some s ->
      Alcotest.(check int) "size" 3 (Array.length s);
      Alcotest.(check bool) "distinct positions" true
        (List.length (List.sort_uniq compare (Array.to_list s)) = 3));
  Alcotest.(check bool) "too small CF sample" true (Convert.cf_to_wor r ~r:3 [| 1; 2 |] = None)

let test_cf_oversample_fraction () =
  let f' = Convert.cf_oversample_fraction ~f:0.01 ~n:100_000 () in
  Alcotest.(check bool) "inflated" true (f' > 0.01);
  Alcotest.(check bool) "sane" true (f' < 0.05);
  Alcotest.(check (float 0.)) "f=0" 0. (Convert.cf_oversample_fraction ~f:0. ~n:100 ());
  (* The inflated fraction actually delivers >= fn with high prob. *)
  let r = rng () in
  let n = 50_000 in
  let f = 0.01 in
  let f2 = Convert.cf_oversample_fraction ~f ~n () in
  let failures = ref 0 in
  for _ = 1 to 50 do
    let size = Dist.binomial r ~n ~p:f2 in
    if size < int_of_float (f *. float_of_int n) then incr failures
  done;
  Alcotest.(check int) "no shortfalls in 50 runs" 0 !failures

let test_wor_to_wr () =
  let r = rng () in
  let wr = Convert.wor_to_wr r ~r:100 [| 1; 2; 3 |] in
  Alcotest.(check int) "size" 100 (Array.length wr);
  Array.iter (fun x -> Alcotest.(check bool) "members" true (List.mem x [ 1; 2; 3 ])) wr;
  Alcotest.(check (array int)) "r=0 from empty" [||] (Convert.wor_to_wr r ~r:0 [||]);
  Alcotest.(check bool) "empty source with r>0 rejected" true
    (try
       ignore (Convert.wor_to_wr r ~r:1 [||]);
       false
     with Invalid_argument _ -> true)

(* ---------- reservoirs ---------- *)

let test_wr_reservoir_marginals () =
  let r = rng () in
  let weights = [| 1.; 2.; 7. |] in
  let counts = Array.make 3 0 in
  let runs = 8_000 in
  for _ = 1 to runs do
    let res = Reservoir.Wr.create ~r:3 in
    Array.iteri (fun i w -> Reservoir.Wr.feed r res ~weight:w i) weights;
    Array.iter (fun x -> counts.(x) <- counts.(x) + 1) (Reservoir.Wr.contents res)
  done;
  let total = float_of_int (3 * runs) in
  let expected = Array.map (fun w -> total *. w /. 10.) weights in
  let res = Stats_math.chi_square_test ~expected ~observed:counts in
  Alcotest.(check bool) "weighted slots" true (res.p_value > 0.001)

let test_wr_reservoir_bookkeeping () =
  let r = rng () in
  let res = Reservoir.Wr.create ~r:2 in
  Alcotest.(check (array int)) "empty" [||] (Reservoir.Wr.contents res);
  Reservoir.Wr.feed r res ~weight:0. 1;
  Alcotest.(check int) "zero weight not fed" 0 (Reservoir.Wr.fed_count res);
  Reservoir.Wr.feed r res ~weight:2.5 2;
  Alcotest.(check int) "fed" 1 (Reservoir.Wr.fed_count res);
  Alcotest.(check (float 1e-9)) "total weight" 2.5 (Reservoir.Wr.total_weight res);
  Alcotest.(check bool) "negative weight rejected" true
    (try
       Reservoir.Wr.feed r res ~weight:(-1.) 3;
       false
     with Invalid_argument _ -> true);
  (* r = 0 still tracks mass *)
  let res0 = Reservoir.Wr.create ~r:0 in
  Reservoir.Wr.feed r res0 ~weight:4. 9;
  Alcotest.(check (float 1e-9)) "mass tracked at r=0" 4. (Reservoir.Wr.total_weight res0);
  Alcotest.(check (array int)) "no contents at r=0" [||] (Reservoir.Wr.contents res0)

let test_unit_reservoir_uniform () =
  let r = rng () in
  let counts = Array.make 5 0 in
  for _ = 1 to 50_000 do
    let res = Reservoir.Unit.create () in
    for i = 0 to 4 do
      Reservoir.Unit.feed r res i
    done;
    match Reservoir.Unit.get res with
    | Some x -> counts.(x) <- counts.(x) + 1
    | None -> Alcotest.fail "fed reservoir must hold something"
  done;
  let res = Stats_math.chi_square_uniform ~observed:counts in
  Alcotest.(check bool) "uniform pick" true (res.p_value > 0.001);
  Alcotest.(check bool) "empty reservoir" true (Reservoir.Unit.get (Reservoir.Unit.create ()) = None)

let test_wor_reservoir () =
  let r = rng () in
  let res = Reservoir.Wor.create ~r:3 in
  for i = 0 to 9 do
    Reservoir.Wor.feed r res i
  done;
  let out = Reservoir.Wor.contents res in
  Alcotest.(check int) "size" 3 (Array.length out);
  Alcotest.(check int) "fed count" 10 (Reservoir.Wor.fed_count res);
  Alcotest.(check bool) "distinct" true
    (List.length (List.sort_uniq compare (Array.to_list out)) = 3)

let test_multi_reservoir_basics () =
  let r = rng () in
  let m = Reservoir.Multi.create ~k:4 in
  Alcotest.(check int) "size" 4 (Reservoir.Multi.size m);
  Alcotest.(check bool) "empty slots" true
    (List.for_all (fun i -> Reservoir.Multi.get m i = None) [ 0; 1; 2; 3 ]);
  Reservoir.Multi.feed r m "first";
  Alcotest.(check bool) "the first element fills every slot" true
    (List.for_all (fun i -> Reservoir.Multi.get m i = Some "first") [ 0; 1; 2; 3 ]);
  for i = 1 to 20 do
    Reservoir.Multi.feed r m (string_of_int i)
  done;
  Alcotest.(check int) "fed count" 21 (Reservoir.Multi.fed_count m);
  Alcotest.(check bool) "every slot holds a fed element" true
    (List.for_all (fun i -> Option.is_some (Reservoir.Multi.get m i)) [ 0; 1; 2; 3 ]);
  let z = Reservoir.Multi.create ~k:0 in
  Reservoir.Multi.feed r z 1;
  Alcotest.(check int) "k = 0 still counts" 1 (Reservoir.Multi.fed_count z);
  Alcotest.(check bool) "negative k rejected" true
    (try
       ignore (Reservoir.Multi.create ~k:(-1));
       false
     with Invalid_argument _ -> true)

(* Each slot is a uniform pick of the feed, and slots are independent:
   the pair (slot 0, slot 1) is uniform over all 5 × 5 cells. *)
let test_multi_reservoir_uniform () =
  let r = rng () in
  let cells = Array.make 25 0 in
  for _ = 1 to 25_000 do
    let m = Reservoir.Multi.create ~k:3 in
    for i = 0 to 4 do
      Reservoir.Multi.feed r m i
    done;
    match (Reservoir.Multi.get m 0, Reservoir.Multi.get m 1) with
    | Some a, Some b -> cells.((5 * a) + b) <- cells.((5 * a) + b) + 1
    | _ -> Alcotest.fail "fed reservoir must hold something"
  done;
  let res = Stats_math.chi_square_uniform ~observed:cells in
  Alcotest.(check bool) "iid uniform slots" true (res.p_value > 0.001)

let test_multi_reservoir_merge () =
  let r = rng () in
  let feed k xs =
    let m = Reservoir.Multi.create ~k in
    List.iter (Reservoir.Multi.feed r m) xs;
    m
  in
  let a = feed 3 [ 1; 2 ] and b = feed 3 [ 10; 20; 30 ] and e = feed 3 [] in
  let slots m = List.init 3 (Reservoir.Multi.get m) in
  let before = (slots a, slots b) in
  let ab = Reservoir.Multi.merge r a b in
  Alcotest.(check int) "fed counts add" 5 (Reservoir.Multi.fed_count ab);
  Alcotest.(check bool) "inputs untouched" true ((slots a, slots b) = before);
  Alcotest.(check bool) "each merged slot is one of the inputs' slot picks" true
    (List.for_all
       (fun i ->
         let s = Reservoir.Multi.get ab i in
         s = Reservoir.Multi.get a i || s = Reservoir.Multi.get b i)
       [ 0; 1; 2 ]);
  Alcotest.(check bool) "merging an empty side keeps the other" true
    (slots (Reservoir.Multi.merge r e b) = slots b && slots (Reservoir.Multi.merge r a e) = slots a);
  Alcotest.(check bool) "mismatched k rejected" true
    (try
       ignore (Reservoir.Multi.merge r a (feed 2 [ 1 ]));
       false
     with Invalid_argument _ -> true)

(* The merge law: slot i of merge a b keeps a's pick with probability
   fed_a / (fed_a + fed_b), so a slot of a 1-element side merged with a
   3-element side lands on each of the 4 elements a quarter of the time. *)
let test_multi_reservoir_merge_law () =
  let r = rng () in
  let counts = Array.make 4 0 in
  for _ = 1 to 20_000 do
    let a = Reservoir.Multi.create ~k:2 and b = Reservoir.Multi.create ~k:2 in
    Reservoir.Multi.feed r a 0;
    List.iter (Reservoir.Multi.feed r b) [ 1; 2; 3 ];
    match Reservoir.Multi.get (Reservoir.Multi.merge r a b) 1 with
    | Some x -> counts.(x) <- counts.(x) + 1
    | None -> Alcotest.fail "merged slot empty"
  done;
  let res = Stats_math.chi_square_uniform ~observed:counts in
  Alcotest.(check bool) "uniform over the union" true (res.p_value > 0.001)

(* A finished Wr_int kernel lifts into a reservoir holding exactly its
   slots, count and mass; a kernel that saw nothing lifts to an empty
   reservoir. *)
let test_wr_of_parts () =
  let ker = Rsj_util.Wr_int.create (rng ()) ~r:4 in
  List.iter
    (fun (w, x) -> Rsj_util.Wr_int.feed ker ~weight:w x)
    [ (2, 10); (0, 11); (3, 12); (1, 13) ];
  let res =
    Reservoir.Wr.of_parts ~r:4 ~slots:(Rsj_util.Wr_int.contents ker)
      ~fed:(Rsj_util.Wr_int.fed_count ker) ~total:(Rsj_util.Wr_int.total_weight ker)
  in
  Alcotest.(check (array int)) "slots" (Rsj_util.Wr_int.contents ker) (Reservoir.Wr.contents res);
  Alcotest.(check int) "fed count" (Rsj_util.Wr_int.fed_count ker) (Reservoir.Wr.fed_count res);
  Alcotest.(check (float 0.)) "total weight" 6. (Reservoir.Wr.total_weight res);
  Array.iter
    (fun x ->
      Alcotest.(check bool) "slots hold positive-weight elements" true (List.mem x [ 10; 12; 13 ]))
    (Reservoir.Wr.contents res);
  let empty = Reservoir.Wr.of_parts ~r:4 ~slots:[||] ~fed:0 ~total:0. in
  Alcotest.(check (array int)) "nothing fed" [||] (Reservoir.Wr.contents empty);
  Alcotest.(check int) "nothing counted" 0 (Reservoir.Wr.fed_count empty);
  let merged = Reservoir.Wr.merge (rng ()) empty res in
  Alcotest.(check (array int)) "merging into an empty lift keeps the slots"
    (Reservoir.Wr.contents res) (Reservoir.Wr.contents merged);
  Alcotest.(check bool) "slot count must match r" true
    (try
       ignore (Reservoir.Wr.of_parts ~r:4 ~slots:[| 1; 2 |] ~fed:2 ~total:2.);
       false
     with Invalid_argument _ -> true)

(* Displacements reach the registry only while telemetry is on. *)
let test_note_displacements () =
  let c = Rsj_obs.Registry.counter "rsj_reservoir_displacements_total" in
  let was = Rsj_obs.enabled () in
  Fun.protect ~finally:(fun () -> Rsj_obs.set_enabled was) @@ fun () ->
  Rsj_obs.set_enabled false;
  let v0 = Rsj_obs.Registry.value c in
  Reservoir.note_displacements 5;
  Alcotest.(check int) "off: not counted" v0 (Rsj_obs.Registry.value c);
  Rsj_obs.set_enabled true;
  Reservoir.note_displacements 5;
  Alcotest.(check int) "on: counted" (v0 + 5) (Rsj_obs.Registry.value c);
  let res = Reservoir.Wr.create ~r:8 in
  let g = rng () in
  Reservoir.Wr.feed g res ~weight:1. "first";
  Alcotest.(check int) "a first feed fills the slots, displacing nothing" (v0 + 5)
    (Rsj_obs.Registry.value c);
  Reservoir.Wr.feed g res ~weight:1. "second";
  let displaced =
    Array.fold_left (fun n x -> if x = "second" then n + 1 else n) 0 (Reservoir.Wr.contents res)
  in
  Alcotest.(check int) "each slot the second feed took is one displacement" (v0 + 5 + displaced)
    (Rsj_obs.Registry.value c)

let suite =
  [
    Alcotest.test_case "semantics conversion table (§3)" `Quick test_semantics_conversions_table;
    Alcotest.test_case "WR->WoR keeps distinct" `Quick test_wr_to_wor_distinct;
    Alcotest.test_case "WR->WoR truncates to r" `Quick test_wr_to_wor_truncates;
    Alcotest.test_case "WR->WoR position uniformity" `Slow test_wr_to_wor_unbiased_under_duplicates;
    Alcotest.test_case "CF->WoR" `Quick test_cf_to_wor;
    Alcotest.test_case "CF oversample fraction (Chernoff)" `Slow test_cf_oversample_fraction;
    Alcotest.test_case "WoR->WR" `Quick test_wor_to_wr;
    Alcotest.test_case "Wr reservoir weighted marginals" `Slow test_wr_reservoir_marginals;
    Alcotest.test_case "Wr reservoir bookkeeping" `Quick test_wr_reservoir_bookkeeping;
    Alcotest.test_case "Wr reservoir lifts a kernel state" `Quick test_wr_of_parts;
    Alcotest.test_case "displacements are counted under telemetry" `Quick test_note_displacements;
    Alcotest.test_case "Unit reservoir uniform" `Slow test_unit_reservoir_uniform;
    Alcotest.test_case "WoR reservoir" `Quick test_wor_reservoir;
    Alcotest.test_case "Multi reservoir basics" `Quick test_multi_reservoir_basics;
    Alcotest.test_case "Multi reservoir slots iid uniform" `Slow test_multi_reservoir_uniform;
    Alcotest.test_case "Multi reservoir merge bookkeeping" `Quick test_multi_reservoir_merge;
    Alcotest.test_case "Multi reservoir merge law" `Slow test_multi_reservoir_merge_law;
  ]
