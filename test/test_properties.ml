(* Property-based tests (qcheck) for the core invariants:
   sampler sizes and supports, semantics-conversion laws, stream
   combinator laws, statistics identities, parser totality. *)

open Rsj_relation
open Rsj_core
module Frequency = Rsj_stats.Frequency

let prng_of_int seed = Rsj_util.Prng.create ~seed:(abs seed + 1) ()

(* ---------- black boxes ---------- *)

let prop_u1_exact_size =
  QCheck.Test.make ~name:"u1 returns exactly r elements of the stream" ~count:300
    QCheck.(pair small_nat (int_bound 50))
    (fun (seed, r) ->
      let n = 60 in
      let rng = prng_of_int seed in
      let out = Stream0.to_list (Black_box.u1 rng ~n ~r (Stream0.of_list (List.init n Fun.id))) in
      List.length out = r && List.for_all (fun x -> x >= 0 && x < n) out)

let prop_u2_slots =
  QCheck.Test.make ~name:"u2 fills r slots from any non-empty stream" ~count:300
    QCheck.(pair small_nat (pair (int_range 1 40) (int_range 0 30)))
    (fun (seed, (n, r)) ->
      let rng = prng_of_int seed in
      let out = Black_box.u2 rng ~r (Stream0.of_list (List.init n Fun.id)) in
      Array.length out = r && Array.for_all (fun x -> x >= 0 && x < n) out)

let prop_wor_distinct =
  QCheck.Test.make ~name:"wor_sequential yields r distinct, ordered" ~count:300
    QCheck.(pair small_nat (int_bound 30))
    (fun (seed, r) ->
      let n = 30 + r in
      let rng = prng_of_int seed in
      let out =
        Stream0.to_list (Black_box.wor_sequential rng ~n ~r (Stream0.of_list (List.init n Fun.id)))
      in
      List.length out = r
      && List.sort_uniq compare out = out (* sorted + distinct = stream order *))

let prop_weighted_never_zero =
  QCheck.Test.make ~name:"weighted samplers never pick zero-weight elements" ~count:200
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 30) (int_bound 10)))
    (fun (seed, weights) ->
      QCheck.assume (List.exists (fun w -> w > 0) weights);
      let rng = prng_of_int seed in
      let items = List.mapi (fun i w -> (i, w)) weights in
      let weight (_, w) = float_of_int w in
      let out = Black_box.wr2 rng ~r:8 ~weight (Stream0.of_list items) in
      Array.for_all (fun (_, w) -> w > 0) out)

let prop_coin_flip_subset =
  QCheck.Test.make ~name:"coin_flip output is an ordered subset" ~count:200
    QCheck.(pair small_nat (float_bound_inclusive 1.))
    (fun (seed, f) ->
      let rng = prng_of_int seed in
      let input = List.init 50 Fun.id in
      let out = Stream0.to_list (Black_box.coin_flip rng ~f (Stream0.of_list input)) in
      List.sort_uniq compare out = out && List.for_all (fun x -> List.mem x input) out)

(* ---------- conversions ---------- *)

let prop_wr_to_wor_distinct =
  QCheck.Test.make ~name:"wr_to_wor yields distinct elements, bounded by r" ~count:300
    QCheck.(pair small_nat (list_of_size (Gen.int_range 0 30) (int_bound 8)))
    (fun (seed, sample) ->
      let rng = prng_of_int seed in
      let out = Convert.wr_to_wor rng ~r:5 (Array.of_list sample) in
      let l = Array.to_list out in
      List.length l <= 5 && List.sort_uniq compare l = List.sort compare l)

let prop_wor_to_wr_members =
  QCheck.Test.make ~name:"wor_to_wr draws only members" ~count:300
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 20) int))
    (fun (seed, sample) ->
      let rng = prng_of_int seed in
      let out = Convert.wor_to_wr rng ~r:12 (Array.of_list sample) in
      Array.length out = 12 && Array.for_all (fun x -> List.mem x sample) out)

(* Round trips across semantics (§3 observations 1–3): converting away
   and back must land on the contracted sample size. All randomness is
   derived from the generated seed, so every counterexample replays. *)

let prop_convert_wr_wor_wr_roundtrip =
  QCheck.Test.make ~name:"wor_to_wr (wr_to_wor s) restores exactly r members of s" ~count:300
    QCheck.(pair small_nat (pair (int_range 1 10) (int_range 1 50)))
    (fun (seed, (r, n)) ->
      let rng = prng_of_int seed in
      (* A WR sample over universe [0, n): 4r draws so that r distinct
         elements are usually available. *)
      let wr = Array.init (4 * r) (fun _ -> Rsj_util.Prng.int rng n) in
      let wor = Convert.wr_to_wor rng ~r wr in
      let back = Convert.wor_to_wr rng ~r wor in
      Array.length wor <= r
      && Array.length back = r
      && Array.for_all (fun x -> Array.exists (( = ) x) wor) back
      && Array.for_all (fun x -> Array.exists (( = ) x) wr) wor)

let prop_convert_cf_to_wor_size =
  QCheck.Test.make ~name:"cf_to_wor is exactly r members, or None when short" ~count:300
    QCheck.(pair small_nat (pair (int_range 0 15) (int_range 0 25)))
    (fun (seed, (r, n)) ->
      let rng = prng_of_int seed in
      let cf = Array.init n Fun.id in
      match Convert.cf_to_wor rng ~r cf with
      | Some out ->
          n >= r
          && Array.length out = r
          && List.sort_uniq compare (Array.to_list out) |> List.length = r
          && Array.for_all (fun x -> x >= 0 && x < n) out
      | None -> n < r)

let prop_convert_cf_oversample_preserves_size =
  QCheck.Test.make
    ~name:"cf oversample fraction yields >= f*n expected elements (and a usable WoR cut)"
    ~count:120
    QCheck.(pair small_nat (pair (int_range 40 200) (int_range 1 9)))
    (fun (seed, (n, f10)) ->
      let f = float_of_int f10 /. 20. in
      let rng = prng_of_int seed in
      let f' = Convert.cf_oversample_fraction ~f ~n ~failure_prob:1e-9 () in
      let r = int_of_float (Float.round (f *. float_of_int n)) in
      (* Simulate the inflated CF pass: per-element coin at f'. The
         Chernoff bound makes a short sample (None below) a
         1-in-1e9 event, far beyond what 120 seeded cases can hit. *)
      let cf =
        Array.to_list (Array.init n Fun.id)
        |> List.filter (fun _ -> Rsj_util.Prng.float rng 1. < f')
        |> Array.of_list
      in
      let expected_size = Semantics.expected_size Semantics.CF ~n ~f:f' in
      f' >= f && f' <= 1.
      && expected_size >= f *. float_of_int n
      &&
      match Convert.cf_to_wor rng ~r cf with
      | Some out -> Array.length out = r
      | None -> false)

(* ---------- streams ---------- *)

let prop_stream_map_compose =
  QCheck.Test.make ~name:"stream map fusion: map f (map g s) = map (f∘g) s" ~count:300
    QCheck.(list int)
    (fun l ->
      let f x = x * 2 and g x = x + 1 in
      let a = Stream0.to_list (Stream0.map f (Stream0.map g (Stream0.of_list l))) in
      let b = Stream0.to_list (Stream0.map (fun x -> f (g x)) (Stream0.of_list l)) in
      a = b)

let prop_stream_filter_length =
  QCheck.Test.make ~name:"filter never grows a stream" ~count:300
    QCheck.(list int)
    (fun l ->
      Stream0.length (Stream0.filter (fun x -> x mod 3 = 0) (Stream0.of_list l))
      <= List.length l)

(* ---------- statistics ---------- *)

let freq_of_list l =
  let schema = Schema.of_list [ ("k", Value.T_int) ] in
  Frequency.of_relation
    (Relation.of_tuples schema (List.map (fun k -> [| Value.Int k |]) l))
    ~key:0

let prop_join_size_commutes =
  QCheck.Test.make ~name:"join_size is symmetric" ~count:200
    QCheck.(pair (list (int_bound 10)) (list (int_bound 10)))
    (fun (l1, l2) ->
      let m1 = freq_of_list l1 and m2 = freq_of_list l2 in
      Frequency.join_size m1 m2 = Frequency.join_size m2 m1)

let prop_join_size_bounds =
  QCheck.Test.make ~name:"0 <= |J| <= n1*n2" ~count:200
    QCheck.(pair (list (int_bound 6)) (list (int_bound 6)))
    (fun (l1, l2) ->
      let j = Frequency.join_size (freq_of_list l1) (freq_of_list l2) in
      j >= 0 && j <= List.length l1 * List.length l2)

let prop_end_biased_partition =
  QCheck.Test.make ~name:"end-biased histogram tracks exactly the >=threshold values" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 60) (int_bound 8)) (int_range 1 5))
    (fun (l, threshold) ->
      let f = freq_of_list l in
      let h = Rsj_stats.Histogram.End_biased.build f ~threshold in
      let ok = ref true in
      Frequency.iter f (fun v c ->
          let high = Rsj_stats.Histogram.End_biased.is_high h v in
          if high <> (c >= threshold) then ok := false);
      !ok)

(* The statistics are one int-keyed table over Column.key; a scan
   model over boxed values (nested loops under Value.equal, Null never
   joining) pins them on every key kind: ints outside the reserved band,
   in-band ints (interned like strings), strings, floats (0. = -0.) and
   Null. *)
let key_pools =
  [|
    ( Value.T_int,
      [|
        Value.Int 3; Value.Int (-7); Value.Int max_int; Value.Int (min_int + 1);
        Value.Int (min_int + 2); Value.Int (min_int + (1 lsl 32) - 1);
        Value.Int (min_int + (1 lsl 32)); Value.Null;
      |] );
    (Value.T_str, [| Value.Str "a"; Value.Str "b"; Value.Str ""; Value.Null |]);
    ( Value.T_float,
      [| Value.Float 1.5; Value.Float 0.; Value.Float (-0.); Value.Float 3.; Value.Null |] );
  |]

let every_key = Array.concat (Array.to_list (Array.map snd key_pools))

(* A column of one kind (a schema types its column): its pool's
   values, Null included, in any multiplicity. *)
let key_column =
  QCheck.(
    pair (int_bound (Array.length key_pools - 1)) (list_of_size (Gen.int_range 0 30) (int_bound 7)))

let column_values (kind, picks) =
  let ty, pool = key_pools.(kind) in
  (ty, List.map (fun i -> pool.(i mod Array.length pool)) picks)

let freq_of_values (ty, vs) =
  let schema = Schema.of_list [ ("k", ty) ] in
  Frequency.of_relation (Relation.of_tuples schema (List.map (fun v -> [| v |]) vs)) ~key:0

(* m(v) by scan; 0 for Null. *)
let model_m vs v =
  if Value.is_null v then 0 else List.length (List.filter (Value.equal v) vs)

let distinct_values vs =
  List.fold_left
    (fun acc v -> if Value.is_null v || List.exists (Value.equal v) acc then acc else v :: acc)
    [] vs

let prop_statistics_scan_model =
  QCheck.Test.make ~name:"frequency, end-biased and law agree with a scan on every key kind"
    ~count:300
    QCheck.(triple key_column key_column (int_range 1 4))
    (fun (i1, i2, threshold) ->
      let col1 = column_values i1 and col2 = column_values i2 in
      let m1 = freq_of_values col1 and m2 = freq_of_values col2 in
      let c1 = snd col1 and c2 = snd col2 in
      let d1 = distinct_values c1 in
      let per_value = List.for_all (fun v -> Frequency.frequency m1 v = model_m c1 v) in
      let folded = Frequency.fold m1 ~init:[] ~f:(fun acc v c -> (v, c) :: acc) in
      let join = List.fold_left (fun acc v -> acc + model_m c2 v) 0 c1 in
      let freq_ok =
        per_value (Array.to_list every_key)
        && Frequency.total m1 = List.length (List.filter (fun v -> not (Value.is_null v)) c1)
        && Frequency.distinct_count m1 = List.length d1
        && Frequency.max_frequency m1 = List.fold_left (fun acc v -> max acc (model_m c1 v)) 0 d1
        && List.length folded = List.length d1
        && List.for_all
             (fun v -> List.exists (fun (u, c) -> Value.equal u v && c = model_m c1 v) folded)
             d1
        && Frequency.join_size m1 m2 = join
        && Frequency.join_size m2 m1 = join
      in
      let module Eb = Rsj_stats.Histogram.End_biased in
      let h = Eb.build m1 ~threshold in
      let high = List.filter (fun v -> model_m c1 v >= threshold) d1 in
      let tracked_ok =
        List.length (Eb.high_values h) = List.length high
        && List.for_all
             (fun v -> List.exists (fun (u, _) -> Value.equal u v) (Eb.high_values h))
             high
        && Eb.tracked_mass h = List.fold_left (fun acc v -> acc + model_m c1 v) 0 high
        && Array.for_all
             (fun v ->
               let m = model_m c1 v in
               let want = if m >= threshold then m else 0 in
               Eb.frequency h v = (if want > 0 then Some want else None)
               && (Value.is_null v
                  || Rsj_index.Int_index.Counter.get (Eb.int_tracked h) (Column.key v) = want))
             every_key
      in
      let law_ok =
        match Rsj_verify.Online.law_of_frequencies ~left:m1 ~right:m2 with
        | None -> join = 0
        | Some law ->
            let p = Rsj_verify.Online.probability law in
            List.for_all
              (fun v ->
                let want = float_of_int (model_m c1 v * model_m c2 v) /. float_of_int join in
                Float.abs (p v -. want) < 1e-12)
              (Array.to_list every_key)
            && Float.abs (List.fold_left (fun acc v -> acc +. p v) 0. d1 -. 1.) < 1e-9
      in
      freq_ok && tracked_ok && law_ok)

(* The S1 root table of Stream/Group/Count — the root of a plain env's
   two-way walker: row i of R1 is drawn with probability m2(key_i)/|J|
   on every key kind, and rows whose key is Null or absent from R2 are
   not in the table — no draw lands on them. The table is a pure
   function of its weights, so the walker's table must draw exactly
   the rows that [Root_table.of_weights] draws over the scan's weights
   m2(key_i) from the same generator: a table with the right weights
   on the wrong rows, or any weight off by one, departs from it within
   the 20,000 draws (each weight unit moves about 20,000/|J| >= 22
   outcomes). The draws' counts must also fit m2(key_i)/|J|. *)
let prop_root_table_law =
  QCheck.Test.make ~name:"root table draws R1 row i with probability m2(key_i)/|J|" ~count:300
    QCheck.(triple small_nat key_column key_column)
    (fun (seed, i1, i2) ->
      let ty1, c1 = column_values i1 and ty2, c2 = column_values i2 in
      let rel ty vs =
        Relation.of_tuples (Schema.of_list [ ("k", ty) ]) (List.map (fun v -> [| v |]) vs)
      in
      let env =
        Strategy.make_env ~left:(rel ty1 c1) ~right:(rel ty2 c2) ~left_key:0 ~right_key:0 ()
      in
      let root = Chain_sample.root (Strategy.env_walker env) in
      let weights = Array.of_list (List.map (fun v -> float_of_int (model_m c2 v)) c1) in
      let join = int_of_float (Array.fold_left ( +. ) 0. weights) in
      let kept = Array.fold_left (fun n w -> if w > 0. then n + 1 else n) 0 weights in
      let law_ok =
        join = 0
        ||
        let model = Root_table.of_weights weights in
        let rng = prng_of_int seed and model_rng = prng_of_int seed in
        let draws = 20_000 in
        let counts = Array.make (Array.length weights) 0 in
        let same = ref true in
        for _ = 1 to draws do
          let row = Root_table.draw root rng in
          if row <> Root_table.draw model model_rng then same := false;
          counts.(row) <- counts.(row) + 1
        done;
        let expected = Array.map (fun w -> float_of_int draws *. w /. float_of_int join) weights in
        !same
        && (Rsj_util.Stats_math.chi_square_test ~expected ~observed:counts).p_value > 1e-9
      in
      Root_table.size root = kept
      && Root_table.total root = float_of_int join
      && Strategy.env_join_size env = join
      && law_ok)

let prop_binomial_support =
  QCheck.Test.make ~name:"binomial stays in [0, n]" ~count:500
    QCheck.(triple small_nat (int_bound 1000) (float_bound_inclusive 1.))
    (fun (seed, n, p) ->
      let rng = prng_of_int seed in
      let k = Rsj_util.Dist.binomial rng ~n ~p in
      k >= 0 && k <= n)

(* ---------- strategies on random instances ---------- *)

let random_env (seed, keys1, keys2) =
  let schema = Schema.of_list [ ("rid", Value.T_int); ("k", Value.T_int) ] in
  let mk name keys =
    Relation.of_tuples ~name schema (List.mapi (fun i k -> [| Value.Int i; Value.Int k |]) keys)
  in
  Strategy.make_env ~seed:(abs seed + 1) ~left:(mk "L" keys1) ~right:(mk "R" keys2) ~left_key:1
    ~right_key:1 ()

let prop_strategies_agree_on_membership =
  QCheck.Test.make ~name:"strategies emit only join tuples on random instances" ~count:60
    QCheck.(
      triple small_nat
        (list_of_size (Gen.int_range 1 15) (int_bound 5))
        (list_of_size (Gen.int_range 1 25) (int_bound 5)))
    (fun ((_, keys1, keys2) as input) ->
      let env = random_env input in
      let n = Strategy.env_join_size env in
      let members = Hashtbl.create 64 in
      List.iteri
        (fun i k1 ->
          List.iteri
            (fun j k2 ->
              if k1 = k2 then
                Hashtbl.replace members
                  [| Value.Int i; Value.Int k1; Value.Int j; Value.Int k2 |]
                  ())
            keys2)
        keys1;
      List.for_all
        (fun s ->
          let sample = (Strategy.run env s ~r:6).Strategy.sample in
          if n = 0 then Array.length sample = 0
          else Array.length sample = 6 && Array.for_all (fun t -> Hashtbl.mem members t) sample)
        [ Strategy.Naive; Strategy.Olken; Strategy.Stream; Strategy.Group;
          Strategy.Frequency_partition; Strategy.Count_sample; Strategy.Hybrid_count ])

(* ---------- parser ---------- *)

let prop_parser_total =
  QCheck.Test.make ~name:"parser never raises on arbitrary strings" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun s ->
      match Rsj_sql.Parser.parse s with Ok _ | Error _ -> true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_u1_exact_size;
      prop_u2_slots;
      prop_wor_distinct;
      prop_weighted_never_zero;
      prop_coin_flip_subset;
      prop_wr_to_wor_distinct;
      prop_wor_to_wr_members;
      prop_convert_wr_wor_wr_roundtrip;
      prop_convert_cf_to_wor_size;
      prop_convert_cf_oversample_preserves_size;
      prop_stream_map_compose;
      prop_stream_filter_length;
      prop_join_size_commutes;
      prop_join_size_bounds;
      prop_end_biased_partition;
      prop_statistics_scan_model;
      prop_root_table_law;
      prop_binomial_support;
      prop_strategies_agree_on_membership;
      prop_parser_total;
    ]
