open Rsj_relation
open Rsj_core
module Zipf_tables = Rsj_workload.Zipf_tables
module Prng = Rsj_util.Prng

(* Same small skewed instance as Test_strategies: the full join is
   cheap to enumerate, so the parallel sample's law can be chi-square
   tested against it cell by cell. *)
(* The generator's next 64-bit output, read from a copy: equal peeks
   mean the same state, without advancing either generator. *)
let peek t = Rsj_util.Prng.bits64 (Rsj_util.Prng.copy t)

let small_env ?(seed = 0xAB) ?(z1 = 1.) ?(z2 = 2.) () =
  let pair = Zipf_tables.make_pair ~seed ~n1:40 ~n2:80 ~z1 ~z2 ~domain:6 () in
  Strategy.make_env ~seed ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
    ~right_key:Zipf_tables.col2 ()

let full_join env =
  let plan =
    Rsj_exec.Plan.Join
      {
        Rsj_exec.Plan.algorithm = Rsj_exec.Plan.Hash;
        left = Rsj_exec.Plan.Scan (Strategy.env_left env);
        right = Rsj_exec.Plan.Scan (Strategy.env_right env);
        left_key = Zipf_tables.col2;
        right_key = Zipf_tables.col2;
      }
  in
  Array.of_list (Rsj_exec.Plan.collect plan)

(* Every strategy now has a parallel execution. *)
let parallel_strategies = Strategy.all

(* Domain counts under test; RSJ_DOMAINS ("1" or "2,4") narrows the
   matrix so one binary can be swept per-domain-count by the
   parallel-equiv alias. *)
let domain_counts =
  match Sys.getenv_opt "RSJ_DOMAINS" with
  | Some s when String.trim s <> "" -> (
      match
        String.split_on_char ',' s |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
      with
      | [] -> [ 1; 2; 4 ]
      | l -> l)
  | _ -> [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Parallel strategy execution                                         *)

let test_parallel_returns_r () =
  let env = small_env () in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          let res = Rsj_parallel.run env s ~r:25 ~domains:d in
          Alcotest.(check int)
            (Printf.sprintf "%s domains=%d returns r" (Strategy.name s) d)
            25 (Array.length res.Strategy.sample))
        domain_counts)
    parallel_strategies

let test_parallel_emits_join_tuples () =
  let env = small_env () in
  let members = Hashtbl.create 1024 in
  Array.iter (fun t -> Hashtbl.replace members t ()) (full_join env);
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          let res = Rsj_parallel.run env s ~r:40 ~domains:d in
          Array.iter
            (fun t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s domains=%d emits only join tuples" (Strategy.name s) d)
                true (Hashtbl.mem members t))
            res.Strategy.sample)
        domain_counts)
    parallel_strategies

(* The headline equivalence: the parallel sample obeys the same uniform
   law over J as the sequential one, at every domain count. Runs on the
   shared distribution-test kernel (bucketed chi-square, Bonferroni
   threshold, seeded retries) instead of a hand-picked p cutoff. *)
let test_parallel_uniform () =
  let pair = Zipf_tables.make_pair ~seed:0xAB ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  let universe = full_join (small_env ()) in
  (* Stream/Group cover the chunked-reservoir path, Olken the
     speculative path, Frequency-Partition the chunked hi/lo routing;
     the @conformance matrix sweeps the rest. Only domains > 1 are
     tested here: domains = 1 runs the same chunk cut and is
     bit-identical to the wider widths (see test_pool), and the
     sequential engine's law is gated by test_strategies. One
     domain count per run keeps the suite fast — the default is the
     smallest parallel width, @parallel-equiv re-runs the suite at
     RSJ_DOMAINS = 2 and 4, and the @conformance matrix chi-squares
     every strategy at domains {1, 2, 4} on each runtest anyway. *)
  let strategies =
    [ Strategy.Stream; Strategy.Group; Strategy.Olken; Strategy.Frequency_partition ]
  in
  let domain_counts =
    match List.filter (fun d -> d > 1) domain_counts with
    | [] -> [ 2 ]
    | l -> [ List.fold_left min max_int l ]
  in
  let checks = List.length domain_counts * List.length strategies in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          let outcome =
            Rsj_verify.Conformance.wr_uniformity
              ~config:{ Rsj_verify.Kernel.default with comparisons = checks }
              ~trials:120 ~universe
              ~draw:(fun ~attempt ->
                let env =
                  Strategy.make_env
                    ~seed:(0xAB + (97 * attempt))
                    ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
                    ~right_key:Zipf_tables.col2 ()
                in
                fun () -> (Rsj_parallel.run env s ~r:20 ~domains:d).Strategy.sample)
              ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s domains=%d uniform over J (p=%.5f, attempts=%d)" (Strategy.name s)
               d outcome.Rsj_verify.Kernel.p_value outcome.Rsj_verify.Kernel.attempts)
            true outcome.Rsj_verify.Kernel.passed)
        domain_counts)
    strategies

let tiny_schema_rel name vals =
  Relation.of_tuples ~name Zipf_tables.schema
    (List.mapi (fun i v -> [| Value.Int i; Value.Int v; Value.str "p" |]) vals)

let tiny_env ~left ~right =
  Strategy.make_env ~left:(tiny_schema_rel "L" left) ~right:(tiny_schema_rel "R" right)
    ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()

(* r = 0 must be a no-op for every strategy, sequential and parallel —
   including on degenerate inputs (empty R2, empty R1, empty join)
   where a strategy that inspects the input first could spin its whole
   rejection budget (Olken) or trip an emptiness guard. *)
let test_parallel_r_zero () =
  let check_r0 label env =
    List.iter
      (fun s ->
        let seq = Strategy.run env s ~r:0 in
        Alcotest.(check int)
          (Printf.sprintf "%s r=0 sequential (%s)" (Strategy.name s) label)
          0
          (Array.length seq.Strategy.sample);
        List.iter
          (fun d ->
            let res = Rsj_parallel.run env s ~r:0 ~domains:d in
            Alcotest.(check int)
              (Printf.sprintf "%s r=0 domains=%d (%s)" (Strategy.name s) d label)
              0
              (Array.length res.Strategy.sample))
          domain_counts)
      Strategy.all
  in
  check_r0 "skewed pair" (small_env ());
  check_r0 "empty R2" (tiny_env ~left:[ 1; 2 ] ~right:[]);
  check_r0 "empty R1" (tiny_env ~left:[] ~right:[ 1; 1; 2 ]);
  check_r0 "empty join" (tiny_env ~left:[ 1; 2 ] ~right:[ 3; 4 ])

(* Stream, Group and Count draw S1 from the env's root table. With
   |J| = 0 that table is empty: every WR and WoR run returns the empty
   sample at any r, and r = 0 is empty on a non-empty join. *)
let test_root_table_empty_cases () =
  let check label env ~r =
    List.iter
      (fun s ->
        List.iter
          (fun d ->
            let wr = Rsj_parallel.run env s ~r ~domains:d in
            let wor = Rsj_parallel.run_wor env s ~r ~domains:d in
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s %s r=%d domains=%d: WR and WoR empty" (Strategy.name s) label r d)
              (0, 0)
              (Array.length wr.Strategy.sample, Array.length wor.Strategy.sample))
          domain_counts)
      [ Strategy.Stream; Strategy.Group; Strategy.Count_sample ]
  in
  check "|J| = 0" (tiny_env ~left:[ 1; 2 ] ~right:[ 3; 4 ]) ~r:10;
  let nulls =
    Relation.of_tuples ~name:"N" Zipf_tables.schema
      (List.init 3 (fun i -> [| Value.Int i; Value.Null; Value.str "p" |]))
  in
  check "all-Null R1 keys"
    (Strategy.make_env ~left:nulls ~right:(tiny_schema_rel "R" [ 1; 2 ])
       ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ())
    ~r:10;
  check "non-empty join" (small_env ()) ~r:0

(* S1 is drawn on the calling domain, so a Stream/Group/Count WR sample
   is the same at every pool width — one table, one generator. *)
let test_root_table_bit_identical_across_widths () =
  List.iter
    (fun s ->
      let sample d =
        (Rsj_parallel.run (small_env ~seed:19 ()) s ~r:48 ~domains:d).Strategy.sample
        |> Array.map Tuple.to_string
      in
      let d1 = sample 1 in
      List.iter
        (fun d ->
          Alcotest.(check (array string))
            (Printf.sprintf "%s WR at d=%d equals d=1" (Strategy.name s) d)
            d1 (sample d))
        [ 2; 4 ])
    [ Strategy.Stream; Strategy.Group; Strategy.Count_sample ]

(* Stream-Sample as written before it became the k = 2 walk: r draws
   from a root table over m2(key), then one uniform pick in each drawn
   row's R2 bucket, on the run's generator. The walk must return
   exactly these positions, with the same work counters, at d = 1 and
   d = 4. *)
let test_stream_is_the_old_kernel () =
  let r = 48 in
  let reference env =
    let keys1 = Column.int_view (Strategy.env_left env) ~col:Zipf_tables.col2 in
    let m2 = Rsj_stats.Frequency.int_counter (Strategy.env_right_stats env) in
    let root =
      Root_table.of_weights
        (Array.map (fun k -> float_of_int (Rsj_index.Int_index.Counter.get m2 k)) keys1)
    in
    let plane = Rsj_index.Hash_index.int_plane (Strategy.env_right_index env) in
    let rng = Prng.split (Strategy.env_rng env) in
    let s1 = Array.init r (fun _ -> Root_table.draw root rng) in
    let rows = Array.make (2 * r) 0 in
    Array.iteri
      (fun j row ->
        rows.(2 * j) <- row;
        rows.((2 * j) + 1) <- Rsj_index.Int_index.random_row plane rng keys1.(row))
      s1;
    Relation.rehydrate [| Strategy.env_left env; Strategy.env_right env |] rows
  in
  let want = Array.map Tuple.to_string (reference (small_env ~seed:23 ())) in
  List.iter
    (fun d ->
      let res = Rsj_parallel.run (small_env ~seed:23 ()) Strategy.Stream ~r ~domains:d in
      Alcotest.(check (array string)) (Printf.sprintf "positions at d=%d" d) want
        (Array.map Tuple.to_string res.Strategy.sample);
      let m = res.Strategy.metrics in
      Alcotest.(check (list int))
        (Printf.sprintf "random accesses, index probes, join output at d=%d" d)
        [ r; r; r ]
        Rsj_exec.Metrics.[ m.random_accesses; m.index_probes; m.join_output_tuples ])
    [ 1; 4 ]

let test_parallel_more_domains_than_rows () =
  (* Chunks beyond the relation's size don't exist; idle domains must
     exit cleanly and the merge must cope. *)
  let env = tiny_env ~left:[ 1; 2 ] ~right:[ 1; 1; 2 ] in
  List.iter
    (fun s ->
      let res = Rsj_parallel.run env s ~r:5 ~domains:8 in
      Alcotest.(check int) (Strategy.name s ^ " domains > n1") 5
        (Array.length res.Strategy.sample))
    parallel_strategies

let test_parallel_deterministic () =
  (* Chunk state depends only on the chunk index, so the sample is
     reproducible at every domain count — except Olken above one
     domain, whose speculative ticketing is timing-dependent (the law
     is covered by the chi-square test above instead). *)
  List.iter
    (fun s ->
      let domains = if s = Strategy.Olken then [ 1 ] else domain_counts in
      List.iter
        (fun d ->
          let r1 = Rsj_parallel.run (small_env ~seed:7 ()) s ~r:10 ~domains:d in
          let r2 = Rsj_parallel.run (small_env ~seed:7 ()) s ~r:10 ~domains:d in
          Array.iteri
            (fun i t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s domains=%d reproducible" (Strategy.name s) d)
                true
                (Tuple.equal t r2.Strategy.sample.(i)))
            r1.Strategy.sample)
        domains)
    parallel_strategies

(* ------------------------------------------------------------------ *)
(* Parallel without-replacement                                        *)

let test_parallel_wor_basics () =
  let env = small_env () in
  let members = Hashtbl.create 1024 in
  Array.iter (fun t -> Hashtbl.replace members t ()) (full_join env);
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          let res = Rsj_parallel.run_wor env s ~r:25 ~domains:d in
          Alcotest.(check int)
            (Printf.sprintf "%s WoR domains=%d returns r" (Strategy.name s) d)
            25
            (Array.length res.Strategy.sample);
          let distinct =
            List.sort_uniq compare
              (Array.to_list (Array.map Tuple.hash res.Strategy.sample))
          in
          Alcotest.(check int)
            (Printf.sprintf "%s WoR domains=%d distinct" (Strategy.name s) d)
            25 (List.length distinct);
          Array.iter
            (fun t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s WoR domains=%d emits only join tuples" (Strategy.name s) d)
                true (Hashtbl.mem members t))
            res.Strategy.sample)
        domain_counts)
    parallel_strategies

let test_parallel_wor_clamps_to_join_size () =
  (* |J| = 3 here: r beyond the join must clamp, and r = 0 / domains on
     an empty join must no-op, at every width. *)
  List.iter
    (fun d ->
      let res =
        Rsj_parallel.run_wor (tiny_env ~left:[ 1; 2 ] ~right:[ 1; 1; 2 ]) Strategy.Naive ~r:10
          ~domains:d
      in
      Alcotest.(check int)
        (Printf.sprintf "domains=%d clamps to |J|" d)
        3
        (Array.length res.Strategy.sample);
      let empty =
        Rsj_parallel.run_wor (tiny_env ~left:[ 1; 2 ] ~right:[ 3; 4 ]) Strategy.Stream ~r:5
          ~domains:d
      in
      Alcotest.(check int) (Printf.sprintf "domains=%d empty join" d) 0
        (Array.length empty.Strategy.sample))
    domain_counts

let test_parallel_wor_deterministic () =
  List.iter
    (fun s ->
      let domains = if s = Strategy.Olken then [ 1 ] else domain_counts in
      List.iter
        (fun d ->
          let r1 = Rsj_parallel.run_wor (small_env ~seed:7 ()) s ~r:10 ~domains:d in
          let r2 = Rsj_parallel.run_wor (small_env ~seed:7 ()) s ~r:10 ~domains:d in
          Alcotest.(check int)
            (Printf.sprintf "%s WoR domains=%d size" (Strategy.name s) d)
            (Array.length r1.Strategy.sample)
            (Array.length r2.Strategy.sample);
          Array.iteri
            (fun i t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s WoR domains=%d reproducible" (Strategy.name s) d)
                true
                (Tuple.equal t r2.Strategy.sample.(i)))
            r1.Strategy.sample)
        domains)
    parallel_strategies

(* There is no sequential escape at domains = 0: a caller that wants
   the sequential reference calls Strategy.run. *)
let test_parallel_rejects_zero_domains () =
  List.iter
    (fun (what, f) ->
      List.iter
        (fun s ->
          match f s with
          | _ -> Alcotest.failf "%s %s ~domains:0 returned" what (Strategy.name s)
          | exception Invalid_argument _ -> ())
        Strategy.all)
    [
      ("run", fun s -> Rsj_parallel.run (small_env ()) s ~r:4 ~domains:0);
      ("run_wor", fun s -> Rsj_parallel.run_wor (small_env ()) s ~r:4 ~domains:0);
    ]

let test_parallel_metrics_sum () =
  (* tuples_scanned covers every scanned tuple exactly once regardless
     of the chunking: Naive scans R1 and R2 once, Index-Sample only R1.
     Stream draws S1 from the root table and scans nothing; Group scans
     only R2, for its per-group picks. *)
  let env = small_env () in
  let n1 = Relation.cardinality (Strategy.env_left env) in
  let n2 = Relation.cardinality (Strategy.env_right env) in
  let expectations =
    [
      (Strategy.Stream, 0, "nothing");
      (Strategy.Group, n2, "n2");
      (Strategy.Naive, n1 + n2, "n1+n2");
      (Strategy.Index_sample, n1, "n1");
      (Strategy.Frequency_partition, n1 + n2, "n1+n2");
    ]
  in
  List.iter
    (fun d ->
      List.iter
        (fun (s, expected, what) ->
          let res = Rsj_parallel.run env s ~r:20 ~domains:d in
          Alcotest.(check int)
            (Printf.sprintf "%s domains=%d scans %s" (Strategy.name s) d what)
            expected res.Strategy.metrics.Rsj_exec.Metrics.tuples_scanned)
        expectations)
    domain_counts

(* ------------------------------------------------------------------ *)
(* Chunk-queue scheduler                                               *)

module Chunk_scheduler = Rsj_parallel.Chunk_scheduler

let test_scheduler_results_in_order () =
  List.iter
    (fun domains ->
      List.iter
        (fun chunks ->
          let out, stats = Chunk_scheduler.run ~domains ~chunks ~task:(fun i -> i * i) () in
          Alcotest.(check (array int))
            (Printf.sprintf "d=%d chunks=%d results in chunk order" domains chunks)
            (Array.init chunks (fun i -> i * i))
            out;
          Alcotest.(check int)
            (Printf.sprintf "d=%d chunks=%d all chunks handed out" domains chunks)
            chunks stats.Chunk_scheduler.chunks;
          Alcotest.(check int)
            (Printf.sprintf "d=%d chunks=%d claims sum to chunks" domains chunks)
            chunks
            (Array.fold_left ( + ) 0 stats.Chunk_scheduler.claims);
          Alcotest.(check int)
            (Printf.sprintf "d=%d chunks=%d one claim slot per domain" domains chunks)
            domains
            (Array.length stats.Chunk_scheduler.claims))
        [ 0; 1; 7; 64 ])
    [ 1; 2; 4 ]

let test_scheduler_rejects_bad_args () =
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "domains=0 rejected" true
    (rejects (fun () -> Chunk_scheduler.run ~domains:0 ~chunks:1 ~task:(fun i -> i) ()));
  Alcotest.(check bool) "chunks<0 rejected" true
    (rejects (fun () -> Chunk_scheduler.run ~domains:2 ~chunks:(-1) ~task:(fun i -> i) ()))

let test_scheduler_default_chunk_size () =
  Alcotest.(check int) "small n floors at 1" 1 (Chunk_scheduler.default_chunk_size ~n:3);
  Alcotest.(check int) "mid n ~ n/16" 625 (Chunk_scheduler.default_chunk_size ~n:10_000);
  Alcotest.(check int) "huge n caps at 4096" 4096
    (Chunk_scheduler.default_chunk_size ~n:10_000_000)

let merge_sizes ~n ~r = [ 1; r; n ]

let test_wr_merge_mass_conservation () =
  let rng = Prng.create ~seed:3 () in
  List.iter
    (fun r ->
      let a = Reservoir.Wr.create ~r and b = Reservoir.Wr.create ~r in
      for i = 1 to 10 do
        Reservoir.Wr.feed rng a ~weight:(float_of_int i) i
      done;
      for i = 11 to 25 do
        Reservoir.Wr.feed rng b ~weight:2.5 i
      done;
      let m = Reservoir.Wr.merge rng a b in
      Alcotest.(check int) (Printf.sprintf "r=%d fed adds" r) 25 (Reservoir.Wr.fed_count m);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "r=%d weight adds" r)
        (55. +. (15. *. 2.5))
        (Reservoir.Wr.total_weight m);
      Alcotest.(check int) (Printf.sprintf "r=%d slots" r) r
        (Array.length (Reservoir.Wr.contents m)))
    (merge_sizes ~n:25 ~r:8)

let test_wr_merge_empty_side () =
  let rng = Prng.create ~seed:4 () in
  let a = Reservoir.Wr.create ~r:5 and b = Reservoir.Wr.create ~r:5 in
  List.iter (fun x -> Reservoir.Wr.feed rng a ~weight:1. x) [ 1; 2; 3 ];
  let m = Reservoir.Wr.merge rng a b in
  Alcotest.(check int) "empty B: A's slots" 5 (Array.length (Reservoir.Wr.contents m));
  Array.iter
    (fun x -> Alcotest.(check bool) "slot from A" true (x >= 1 && x <= 3))
    (Reservoir.Wr.contents m);
  let m' = Reservoir.Wr.merge rng b a in
  Alcotest.(check int) "empty A: B's slots" 5 (Array.length (Reservoir.Wr.contents m'));
  let e = Reservoir.Wr.merge rng (Reservoir.Wr.create ~r:5) (Reservoir.Wr.create ~r:5) in
  Alcotest.(check int) "both empty: no slots" 0 (Array.length (Reservoir.Wr.contents e))

let test_wr_merge_r_zero () =
  let rng = Prng.create ~seed:5 () in
  let a = Reservoir.Wr.create ~r:0 and b = Reservoir.Wr.create ~r:0 in
  Reservoir.Wr.feed rng a ~weight:2. 1;
  Reservoir.Wr.feed rng b ~weight:3. 2;
  let m = Reservoir.Wr.merge rng a b in
  Alcotest.(check int) "no slots" 0 (Array.length (Reservoir.Wr.contents m));
  Alcotest.(check (float 1e-9)) "mass still tracked" 5. (Reservoir.Wr.total_weight m)

let test_wr_merge_mismatched_r () =
  let rng = Prng.create ~seed:6 () in
  Alcotest.(check bool) "mismatched r rejected" true
    (try
       ignore (Reservoir.Wr.merge rng (Reservoir.Wr.create ~r:3) (Reservoir.Wr.create ~r:4));
       false
     with Invalid_argument _ -> true)

let test_wr_merge_slot_law () =
  (* A carries 3x B's mass: merged slots should come from A with
     probability 0.75, at every reservoir size (n = 2 elements fed in
     total). 400 trials x r slots, 3.5-sigma tolerance per size. *)
  let rng = Prng.create ~seed:7 () in
  let trials = 400 in
  List.iter
    (fun r ->
      let from_a = ref 0 in
      for _ = 1 to trials do
        let a = Reservoir.Wr.create ~r and b = Reservoir.Wr.create ~r in
        Reservoir.Wr.feed rng a ~weight:3. 1;
        Reservoir.Wr.feed rng b ~weight:1. 2;
        let m = Reservoir.Wr.merge rng a b in
        Array.iter (fun x -> if x = 1 then incr from_a) (Reservoir.Wr.contents m)
      done;
      let n = float_of_int (trials * r) in
      let phat = float_of_int !from_a /. n in
      let sigma = sqrt (0.75 *. 0.25 /. n) in
      Alcotest.(check bool)
        (Printf.sprintf "slot law r=%d: %.4f ~ 0.75" r phat)
        true
        (Float.abs (phat -. 0.75) < 3.5 *. sigma))
    (merge_sizes ~n:2 ~r:10)

let test_unit_merge () =
  let rng = Prng.create ~seed:8 () in
  let a = Reservoir.Unit.create () and b = Reservoir.Unit.create () in
  Alcotest.(check bool) "both empty" true
    (Reservoir.Unit.get (Reservoir.Unit.merge rng a b) = None);
  Reservoir.Unit.feed rng a 1;
  let m = Reservoir.Unit.merge rng a b in
  Alcotest.(check bool) "empty B keeps A" true (Reservoir.Unit.get m = Some 1);
  Alcotest.(check int) "fed adds" 1 (Reservoir.Unit.fed_count m);
  (* Weighted coin: A fed 3, B fed 1 -> A kept with probability 3/4. *)
  let trials = 800 in
  let kept_a = ref 0 in
  for _ = 1 to trials do
    let a = Reservoir.Unit.create () and b = Reservoir.Unit.create () in
    List.iter (fun x -> Reservoir.Unit.feed rng a x) [ 1; 1; 1 ];
    Reservoir.Unit.feed rng b 2;
    if Reservoir.Unit.get (Reservoir.Unit.merge rng a b) = Some 1 then incr kept_a
  done;
  let phat = float_of_int !kept_a /. float_of_int trials in
  let sigma = sqrt (0.75 *. 0.25 /. float_of_int trials) in
  Alcotest.(check bool)
    (Printf.sprintf "fed-weighted coin: %.4f ~ 0.75" phat)
    true
    (Float.abs (phat -. 0.75) < 3. *. sigma)

let test_wor_merge_invariants () =
  let rng = Prng.create ~seed:9 () in
  (* Disjoint sides: the merged WoR sample must stay duplicate-free and
     hold min(r, fed) elements — at r = 1, the working size and r = n. *)
  List.iter
    (fun r ->
      let a = Reservoir.Wor.create ~r and b = Reservoir.Wor.create ~r in
      for i = 1 to 4 do
        Reservoir.Wor.feed rng a i
      done;
      for i = 100 to 120 do
        Reservoir.Wor.feed rng b i
      done;
      let m = Reservoir.Wor.merge rng a b in
      let c = Reservoir.Wor.contents m in
      Alcotest.(check int)
        (Printf.sprintf "r=%d: min(r, fed) elements" r)
        (min r 25) (Array.length c);
      Alcotest.(check int) (Printf.sprintf "r=%d: fed adds" r) 25 (Reservoir.Wor.fed_count m);
      let distinct = List.sort_uniq compare (Array.to_list c) in
      Alcotest.(check int)
        (Printf.sprintf "r=%d: no duplicates" r)
        (min r 25) (List.length distinct))
    (merge_sizes ~n:25 ~r:6);
  (* Underfull merge: 2 + 3 fed with r = 10 keeps everything. *)
  let a = Reservoir.Wor.create ~r:10 and b = Reservoir.Wor.create ~r:10 in
  List.iter (fun x -> Reservoir.Wor.feed rng a x) [ 1; 2 ];
  List.iter (fun x -> Reservoir.Wor.feed rng b x) [ 3; 4; 5 ];
  let m = Reservoir.Wor.merge rng a b in
  Alcotest.(check (list int)) "underfull keeps all" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (Array.to_list (Reservoir.Wor.contents m)));
  (* r = 0 and empty merges. *)
  let z = Reservoir.Wor.merge rng (Reservoir.Wor.create ~r:0) (Reservoir.Wor.create ~r:0) in
  Alcotest.(check int) "r=0" 0 (Array.length (Reservoir.Wor.contents z));
  let e = Reservoir.Wor.merge rng (Reservoir.Wor.create ~r:4) (Reservoir.Wor.create ~r:4) in
  Alcotest.(check int) "both empty" 0 (Array.length (Reservoir.Wor.contents e))

let test_wor_merge_membership_law () =
  (* Merge of 5-fed + 5-fed at size r: each of the 10 elements belongs
     to the merged sample with probability min(r,10)/10. Check element
     1 at r = 1 (rare), r = 4 and r = n = 10 (certain). *)
  let rng = Prng.create ~seed:10 () in
  let trials = 600 in
  List.iter
    (fun r ->
      let p = float_of_int (min r 10) /. 10. in
      let hits = ref 0 in
      for _ = 1 to trials do
        let a = Reservoir.Wor.create ~r and b = Reservoir.Wor.create ~r in
        for i = 1 to 5 do
          Reservoir.Wor.feed rng a i
        done;
        for i = 6 to 10 do
          Reservoir.Wor.feed rng b i
        done;
        let m = Reservoir.Wor.merge rng a b in
        if Array.exists (fun x -> x = 1) (Reservoir.Wor.contents m) then incr hits
      done;
      let phat = float_of_int !hits /. float_of_int trials in
      if p = 1. then
        Alcotest.(check int) "r=n keeps every element" trials !hits
      else begin
        let sigma = sqrt (p *. (1. -. p) /. float_of_int trials) in
        Alcotest.(check bool)
          (Printf.sprintf "membership r=%d: %.4f ~ %.1f" r phat p)
          true
          (Float.abs (phat -. p) < 3.5 *. sigma)
      end)
    (merge_sizes ~n:10 ~r:4)

(* ------------------------------------------------------------------ *)
(* split_n                                                             *)

let test_split_n () =
  let fingerprints seed n =
    let t = Prng.create ~seed () in
    Array.map peek (Prng.split_n t n)
  in
  let a = fingerprints 42 6 and b = fingerprints 42 6 in
  Alcotest.(check bool) "deterministic" true (a = b);
  let distinct = List.sort_uniq compare (Array.to_list a) in
  Alcotest.(check int) "children mutually distinct" 6 (List.length distinct);
  Alcotest.(check int) "n=0 ok" 0 (Array.length (Prng.split_n (Prng.create ()) 0));
  Alcotest.(check bool) "n<0 rejected" true
    (try
       ignore (Prng.split_n (Prng.create ()) (-1));
       false
     with Invalid_argument _ -> true);
  (* Children diverge from the parent's subsequent stream. *)
  let t = Prng.create ~seed:42 () in
  let kids = Prng.split_n t 3 in
  let parent_fp = peek t in
  Array.iter
    (fun k ->
      Alcotest.(check bool) "child detached from parent" true
        (peek k <> parent_fp))
    kids

let test_default_domains () =
  let d = Rsj_parallel.default_domains () in
  Alcotest.(check bool) "at least one domain" true (d >= 1);
  Alcotest.(check int) "the runtime's recommendation" (Domain.recommended_domain_count ()) d

(* r chain walks on the calling domain: positions of chain join tuples,
   the walker's own draws for the same generator, whatever [domains]
   labels the run with. *)
let test_chain_draw () =
  let mk i rows =
    Zipf_tables.make ~seed:(0xC0 + i) ~name:(Printf.sprintf "r%d" i) ~rows ~z:1. ~domain:5 ()
  in
  let spec =
    {
      Chain_sample.relations = [| mk 0 20; mk 1 25; mk 2 30 |];
      join_keys = [| (Zipf_tables.col2, Zipf_tables.col2); (Zipf_tables.col2, Zipf_tables.col2) |];
    }
  in
  let last, key = Chain_sample.last_level spec in
  let walker = Chain_sample.prepare ~index:(Rsj_index.Hash_index.build last ~key) spec in
  let oracle = Rsj_verify.Oracle.of_chain spec in
  let draw ~r ~domains =
    Rsj_parallel.draw (Rsj_parallel.Chain { walker; rng = Prng.create ~seed:3 () }) ~r ~domains
  in
  let d = draw ~r:40 ~domains:4 in
  Alcotest.(check bool) "the chain's relations" true (d.Rsj_parallel.relations == spec.relations);
  let sample = Relation.rehydrate d.relations d.rows in
  Alcotest.(check int) "r walks" 40 (Array.length sample);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "a chain join tuple" true (Rsj_verify.Oracle.cell oracle t <> None))
    sample;
  Alcotest.(check bool) "timed" true (d.elapsed_seconds >= 0.);
  Alcotest.(check bool) "the walk is metered" true (Rsj_exec.Metrics.total_work d.metrics > 0);
  Alcotest.(check (array int)) "the walker's draws"
    (Chain_sample.sample_rows walker (Prng.create ~seed:3 ()) ~r:40 ())
    d.rows;
  Alcotest.(check (array int)) "domains only labels the run" d.rows (draw ~r:40 ~domains:1).rows;
  List.iter
    (fun (what, r, domains) ->
      Alcotest.(check bool) what true
        (try
           ignore (draw ~r ~domains);
           false
         with Invalid_argument _ -> true))
    [ ("r < 0 rejected", -1, 1); ("domains < 1 rejected", 4, 0) ]

let suite =
  [
    Alcotest.test_case "parallel run returns r tuples" `Quick test_parallel_returns_r;
    Alcotest.test_case "parallel output is join tuples" `Quick test_parallel_emits_join_tuples;
    Alcotest.test_case "parallel sample is WR-uniform (chi-square)" `Slow test_parallel_uniform;
    Alcotest.test_case "parallel r = 0" `Quick test_parallel_r_zero;
    Alcotest.test_case "root table: |J| = 0 and r = 0 are empty" `Quick
      test_root_table_empty_cases;
    Alcotest.test_case "root table: Stream/Group/Count WR equal at d = 1, 2, 4" `Quick
      test_root_table_bit_identical_across_widths;
    Alcotest.test_case "Stream is the old root-table kernel, position for position" `Quick
      test_stream_is_the_old_kernel;
    Alcotest.test_case "more domains than rows" `Quick test_parallel_more_domains_than_rows;
    Alcotest.test_case "parallel seeded reproducibility" `Quick test_parallel_deterministic;
    Alcotest.test_case "parallel WoR basics" `Quick test_parallel_wor_basics;
    Alcotest.test_case "parallel WoR clamps to join size" `Quick
      test_parallel_wor_clamps_to_join_size;
    Alcotest.test_case "parallel WoR seeded reproducibility" `Quick
      test_parallel_wor_deterministic;
    Alcotest.test_case "domains < 1 rejected" `Quick test_parallel_rejects_zero_domains;
    Alcotest.test_case "default domain count" `Quick test_default_domains;
    Alcotest.test_case "chain draw: r walks on the caller" `Quick test_chain_draw;
    Alcotest.test_case "metrics sum across domains" `Quick test_parallel_metrics_sum;
    Alcotest.test_case "scheduler returns results in chunk order" `Quick
      test_scheduler_results_in_order;
    Alcotest.test_case "scheduler rejects bad arguments" `Quick test_scheduler_rejects_bad_args;
    Alcotest.test_case "scheduler default chunk size" `Quick test_scheduler_default_chunk_size;
    Alcotest.test_case "Wr.merge conserves mass" `Quick test_wr_merge_mass_conservation;
    Alcotest.test_case "Wr.merge with an empty shard" `Quick test_wr_merge_empty_side;
    Alcotest.test_case "Wr.merge at r = 0" `Quick test_wr_merge_r_zero;
    Alcotest.test_case "Wr.merge rejects mismatched r" `Quick test_wr_merge_mismatched_r;
    Alcotest.test_case "Wr.merge slot law" `Slow test_wr_merge_slot_law;
    Alcotest.test_case "Unit.merge fed-weighted coin" `Quick test_unit_merge;
    Alcotest.test_case "Wor.merge invariants" `Quick test_wor_merge_invariants;
    Alcotest.test_case "Wor.merge membership law" `Slow test_wor_merge_membership_law;
    Alcotest.test_case "Prng.split_n determinism" `Quick test_split_n;
  ]
