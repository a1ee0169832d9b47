(* Domain_pool lifecycle and the pooled runtime's bit-identity
   guarantee.

   The pool's contract: workers spawn lazily and are reused across
   calls; a job that raises neither kills its worker nor wedges the
   barrier; the at_exit shutdown joins every worker, and later runs on
   the closed pool degrade to the sequential fallback (checked in a
   child process, pool_exit.ml). On top sits the acceptance regression
   for the runtime: a fixed seed yields bit-identical samples at pool widths
   1, 2 and 4 for every chunk-scheduled strategy, WR and WoR — the
   chunk cut and the per-chunk generators never depend on the domain
   count, only on the chunk index. *)

open Rsj_relation
open Rsj_core
module Zipf_tables = Rsj_workload.Zipf_tables

let small_env ?(seed = 0xAB) () =
  let pair = Zipf_tables.make_pair ~seed ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  Strategy.make_env ~seed ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
    ~right_key:Zipf_tables.col2 ()

let spawned () = (Domain_pool.counters ()).Domain_pool.spawned

(* Worker domains alive in the pool, read from its gauge. *)
let live () =
  let text =
    Rsj_obs.Registry.to_prometheus ~only:(String.equal "rsj_pool_workers_live") ()
  in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "rsj_pool_workers_live"; v ] -> Some (int_of_float (float_of_string v))
        | _ -> None)
      (String.split_on_char '\n' text)
  with
  | Some n -> n
  | None -> Alcotest.fail "no rsj_pool_workers_live sample"

(* The process-wide pool: earlier suites may already have grown it, so
   a 4-wide job grows it to at least 3 workers by spawning only the
   missing ones. *)
let test_pool_run_and_reuse () =
  let pool = Domain_pool.global () in
  let before = spawned () and live_before = live () in
  let out = Domain_pool.run pool ~domains:4 (fun k -> k * k) in
  Alcotest.(check (array int)) "results in index order" [| 0; 1; 4; 9 |] out;
  let width = max 3 live_before in
  Alcotest.(check int) "grew to domains-1 workers" width (live ());
  Alcotest.(check int) "spawned only the missing workers" (width - live_before)
    (spawned () - before);
  let grown = spawned () in
  let out2 = Domain_pool.run pool ~domains:4 (fun k -> k + 10) in
  Alcotest.(check (array int)) "second job reuses workers" [| 10; 11; 12; 13 |] out2;
  (* A narrower job also reuses; a single-index job never claims. *)
  Alcotest.(check (array int)) "narrower job" [| 0; 1 |]
    (Domain_pool.run pool ~domains:2 (fun k -> k));
  Alcotest.(check (array int)) "domains=1 runs on the caller" [| 7 |]
    (Domain_pool.run pool ~domains:1 (fun _ -> 7));
  Alcotest.(check (array int)) "domains=0 is empty" [||]
    (Domain_pool.run pool ~domains:0 (fun k -> k));
  Alcotest.(check int) "no new spawns on reuse" grown (spawned ());
  Alcotest.(check int) "width never shrank the pool" width (live ())

let test_pool_survives_worker_exception () =
  let pool = Domain_pool.global () in
  ignore (Domain_pool.run pool ~domains:4 (fun k -> k));
  let grown = spawned () and width = live () in
  Alcotest.(check bool) "at least 3 live workers" true (width >= 3);
  let raised =
    try
      ignore (Domain_pool.run pool ~domains:4 (fun k -> if k = 2 then failwith "boom" else k));
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "worker exception propagates to the caller" true raised;
  Alcotest.(check (array int)) "pool still runs jobs" [| 0; 2; 4; 6 |]
    (Domain_pool.run pool ~domains:4 (fun k -> 2 * k));
  (* A caller-side (index 0) exception must behave the same. *)
  let raised0 =
    try
      ignore (Domain_pool.run pool ~domains:3 (fun k -> if k = 0 then failwith "zero" else k));
      false
    with Failure m -> m = "zero"
  in
  Alcotest.(check bool) "caller exception propagates" true raised0;
  Alcotest.(check (array int)) "pool usable after caller exception" [| 0; 1; 2 |]
    (Domain_pool.run pool ~domains:3 (fun k -> k));
  Alcotest.(check int) "no respawn after the exceptions" grown (spawned ());
  Alcotest.(check int) "workers survive the exceptions" width (live ())

(* A fresh process: lazy growth from no workers, then the at_exit
   shutdown joins them all (the child exits), and a job run on the
   closed pool afterwards falls back to the caller, spawning nothing. *)
let test_pool_shutdown () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "pool_exit.exe" in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let output = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "child exits cleanly" true (status = Unix.WEXITED 0);
  Alcotest.(check (list string)) "fresh pool, growth, shutdown, closed fallback"
    [
      "fresh: live 0";
      "4-wide job: 0 1 4 9, live 3";
      "2-wide job: 0 1, live 3";
      "after exit: live 0";
      "closed pool: 0 1 4 9, spawned 0, live 0";
    ]
    (String.split_on_char '\n' (String.trim output))

let test_pool_chunk_scheduler () =
  let module Chunk_scheduler = Rsj_parallel.Chunk_scheduler in
  let out, stats = Chunk_scheduler.run ~domains:3 ~chunks:17 ~task:(fun i -> i + 1) () in
  Alcotest.(check (array int)) "chunk results in order" (Array.init 17 (fun i -> i + 1)) out;
  Alcotest.(check int) "claims sum to chunks" 17
    (Array.fold_left ( + ) 0 stats.Chunk_scheduler.claims);
  let grown = spawned () and width = live () in
  (* A raising task propagates and leaves the pool alive. *)
  let raised =
    try
      ignore
        (Chunk_scheduler.run ~domains:3 ~chunks:9
           ~task:(fun i -> if i = 5 then failwith "chunk" else i)
           ());
      false
    with Failure m -> m = "chunk"
  in
  Alcotest.(check bool) "chunk task exception propagates" true raised;
  ignore (Chunk_scheduler.run ~domains:3 ~chunks:9 ~task:Fun.id ());
  Alcotest.(check int) "no respawn after chunk exception" grown (spawned ());
  Alcotest.(check int) "pool alive after chunk exception" width (live ())

let strategies_deterministic =
  List.filter (fun s -> s <> Strategy.Olken) Strategy.all

(* The acceptance criterion: same seed, same sample, at widths 1, 2
   and 4 — for every chunk-scheduled strategy, WR and WoR. Olken is
   exempt by design (speculative ticketing). *)
let check_identical what samples =
  match samples with
  | [] | [ _ ] -> ()
  | (d0, first) :: rest ->
      List.iter
        (fun (d, sample) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: d=%d size = d=%d size" what d d0)
            (Array.length first) (Array.length sample);
          Array.iteri
            (fun i t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: d=%d bit-identical to d=%d" what d d0)
                true
                (Tuple.equal t sample.(i)))
            first)
        rest

let test_bit_identity_across_widths () =
  List.iter
    (fun s ->
      check_identical
        (Strategy.name s ^ " WR")
        (List.map
           (fun d ->
             (d, (Rsj_parallel.run (small_env ~seed:13 ()) s ~r:12 ~domains:d).Strategy.sample))
           [ 1; 2; 4 ]))
    strategies_deterministic

let test_bit_identity_across_widths_wor () =
  List.iter
    (fun s ->
      check_identical
        (Strategy.name s ^ " WoR")
        (List.map
           (fun d ->
             ( d,
               (Rsj_parallel.run_wor (small_env ~seed:13 ()) s ~r:12 ~domains:d)
                 .Strategy.sample ))
           [ 1; 2; 4 ]))
    strategies_deterministic

let test_spawn_accounting () =
  (* After any pooled work at all, the legacy (spawn-per-call) cost
     must dominate the pooled cost — that is the point of the pool. *)
  ignore (Rsj_parallel.run (small_env ()) Strategy.Stream ~r:8 ~domains:4);
  ignore (Rsj_parallel.run (small_env ()) Strategy.Group ~r:8 ~domains:4);
  let c = Domain_pool.counters () in
  Alcotest.(check bool) "some parallel jobs ran" true (c.Domain_pool.parallel_jobs > 0);
  Alcotest.(check bool) "spawns bounded by legacy equivalent" true
    (c.Domain_pool.spawned <= c.Domain_pool.unpooled_spawn_equivalent)

let suite =
  [
    Alcotest.test_case "pool runs, grows lazily, reuses workers" `Quick test_pool_run_and_reuse;
    Alcotest.test_case "pool survives job exceptions" `Quick test_pool_survives_worker_exception;
    Alcotest.test_case "pool shutdown joins and degrades cleanly" `Quick test_pool_shutdown;
    Alcotest.test_case "chunk scheduler on the pool" `Quick test_pool_chunk_scheduler;
    Alcotest.test_case "samples bit-identical across widths (WR)" `Quick
      test_bit_identity_across_widths;
    Alcotest.test_case "samples bit-identical across widths (WoR)" `Quick
      test_bit_identity_across_widths_wor;
    Alcotest.test_case "pooled spawns never exceed the unpooled cost" `Quick
      test_spawn_accounting;
  ]
