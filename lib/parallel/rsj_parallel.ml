(* Parallel sampling runtime on OCaml 5 domains — full strategy
   coverage, WR and WoR, on the persistent worker pool. The
   chunk-queue scheduling, its determinism and Olken's speculative
   ticketing are documented in rsj_parallel.mli.

   The runtime has one data plane. Every runner below scans the join
   columns as flat int arrays (Column.int_view, total over every key
   type), feeds allocation-free Wr_int kernels (or plain reservoirs of
   row ids / packed row pairs) and returns its sample as join
   positions: packed (left row, right row) pairs. [run] and [run_wor]
   turn the positions into tuples once, through Relation.rehydrate, and
   WoR dedupes on the positions themselves.

   Each chunk carries its own split generator, metrics and mergeable
   state (Reservoir.Wr / Reservoir.Multi / Reservoir.Wor /
   Internals_int.Partition); the reservoir merges preserve the slot
   laws, so a merged result is distributed as one sequential pass.

   Count-Sample and Hybrid-Count's R2 matching step runs through the
   same machinery: one Multi reservoir per sampled join value per
   chunk, merged element-wise with the U1 merge law. In the sequential
   kernel each S1 entry's pick is an independent uniform draw from its
   value's R2 tuples (the binomial assignment gives every outstanding
   entry the current tuple with probability 1/(population - seen)); an
   entry's merged unit pick is exactly such a draw, so the parallel
   scan keeps the law while auditing the reservoirs' fed counts
   against the claimed populations for staleness.

   Auxiliary structures (hash index, frequency statistics, histogram)
   are shared read-only; work counters are per-chunk Metrics.t values
   summed at the end (the index's probe counter is atomic), so no
   mutable state crosses domains unsynchronized. *)

open Rsj_relation
open Rsj_exec
module Strategy = Rsj_core.Strategy
module Reservoir = Rsj_core.Reservoir
module Internals = Rsj_core.Internals
module Internals_int = Rsj_core.Internals_int
module Olken_sample = Rsj_core.Olken_sample
module Frequency = Rsj_stats.Frequency
module End_biased = Rsj_stats.Histogram.End_biased
module Hash_index = Rsj_index.Hash_index
module Int_index = Rsj_index.Int_index
module Counter = Int_index.Counter
module Wr_int = Rsj_util.Wr_int
module Prng = Rsj_util.Prng
module Chunk_scheduler = Chunk_scheduler
module Obs = Rsj_obs

let default_domains () = Domain.recommended_domain_count ()

(* Telemetry around a whole strategy run: a "strategy.<name>" span
   (cat "strategy") encloses the scan/merge work — pool.run, pool.job
   and chunk spans nest temporally inside it — and, after the run, the
   work counters fold into the registry (the rsj_metrics_ family) and
   the wall-time into a per-strategy histogram. One branch when off. *)
let strategy_seconds strategy ~domains =
  Obs.Registry.histogram ~help:"Whole-strategy sampling run wall time, seconds"
    ~labels:[ ("strategy", Strategy.name strategy); ("domains", string_of_int domains) ]
    "rsj_strategy_run_seconds"

let observed ~semantics strategy ~r ~domains body =
  if not (Obs.enabled ()) then body ()
  else
    Obs.Trace.with_span ~cat:"strategy"
      ~args:
        [
          ("strategy", Obs.Json.Str (Strategy.name strategy));
          ("semantics", Obs.Json.Str semantics);
          ("r", Obs.Json.Int r);
          ("domains", Obs.Json.Int domains);
        ]
      ("strategy." ^ Strategy.name strategy)
      (fun () ->
        let result = body () in
        Obs.Registry.absorb_assoc ~prefix:"rsj_metrics_" (Metrics.to_assoc result.Strategy.metrics);
        Obs.Registry.observe (strategy_seconds strategy ~domains) result.Strategy.elapsed_seconds;
        result)

(* The one place a run's join positions — packed (left row, right row)
   pairs (Internals_int.pack) — become tuples, counted once as the
   run's delivered output. Consumes no randomness. *)
let rehydrate env (metrics : Metrics.t) pairs =
  Obs.Trace.with_span ~cat:"strategy" "rehydrate" @@ fun () ->
  let rows = Array.make (2 * Array.length pairs) 0 in
  Array.iteri
    (fun j p ->
      rows.(2 * j) <- Internals_int.unpack_left p;
      rows.((2 * j) + 1) <- Internals_int.unpack_right p)
    pairs;
  let out = Relation.rehydrate [| Strategy.env_left env; Strategy.env_right env |] rows in
  metrics.Metrics.output_tuples <- metrics.Metrics.output_tuples + Array.length out;
  out

(* The timed window of a run: the draws and the rehydration. *)
let timed env strategy draw =
  let t0 = Obs.Clock.now_s () in
  let pairs, metrics = draw () in
  let sample = rehydrate env metrics pairs in
  { Strategy.strategy; sample; metrics; elapsed_seconds = Obs.Clock.now_s () -. t0 }

(* Fold (state, metrics) chunk results in chunk order. [merge_rng] is
   consumed sequentially on the calling domain, so the fold is as
   deterministic as the parts. *)
let fold_parts ~merge_rng ~merge ~empty (parts : _ array) =
  if Array.length parts = 0 then (empty (), Metrics.create ())
  else begin
    let state = ref (fst parts.(0)) in
    let metrics = ref (snd parts.(0)) in
    for i = 1 to Array.length parts - 1 do
      state := merge merge_rng !state (fst parts.(i));
      metrics := Metrics.add !metrics (snd parts.(i))
    done;
    (!state, !metrics)
  end

(* One chunk-scheduled pass over [relation]'s rows. Each chunk gets
   its own generator (split by chunk index, so the result is
   independent of which domain claims it) and its own metrics, with the
   scan itself counted here. [feed] consumes a whole [lo, hi) row range
   in one call so the call sites can write flat loops over the shared
   key column; [make] receives the chunk's generator (the Wr_int
   kernels draw from it); [seal] converts the chunk state for merging.
   Results come back in chunk order. *)
let chunked_pass ~domains ~rng ~make ~feed ~seal relation =
  let n = Relation.cardinality relation in
  let chunk_size = Chunk_scheduler.default_chunk_size ~n in
  let chunks = Relation.chunk_count relation ~chunk_size in
  let rngs = Prng.split_n rng chunks in
  let task i =
    let metrics = Metrics.create () in
    let state = make rngs.(i) in
    let lo = i * chunk_size in
    let hi = min ((i + 1) * chunk_size) n in
    feed metrics rngs.(i) state ~lo ~hi;
    metrics.Metrics.tuples_scanned <- metrics.Metrics.tuples_scanned + (hi - lo);
    (seal state, metrics)
  in
  Chunk_scheduler.run ~domains ~chunks ~task ()

(* Weighted WR sample of R1 rows with weights m2(t.A) from the
   frequency statistics — the shared first step of Stream-, Group- and
   Count-Sample. Returns the merged row ids and the summed scan
   metrics. *)
let parallel_s1 env ~r ~domains rng ~(keys1 : int array) ~freq =
  let scan_rng = Prng.split rng in
  let merge_rng = Prng.split rng in
  let parts, _ =
    chunked_pass ~domains ~rng:scan_rng
      ~make:(fun crng -> Wr_int.create ~on_displace:Reservoir.note_displacements crng ~r)
      ~feed:(fun metrics _crng ker ~lo ~hi ->
        metrics.Metrics.stats_lookups <- metrics.Metrics.stats_lookups + (hi - lo);
        for row = lo to hi - 1 do
          Wr_int.feed ker ~weight:(Counter.get freq (Array.unsafe_get keys1 row)) row
        done)
      ~seal:(fun ker ->
        Reservoir.Wr.of_parts ~r ~slots:(Wr_int.contents ker) ~fed:(Wr_int.fed_count ker)
          ~total:(Wr_int.total_weight ker))
      (Strategy.env_left env)
  in
  let res, metrics =
    fold_parts ~merge_rng ~merge:Reservoir.Wr.merge ~empty:(fun () -> Reservoir.Wr.create ~r)
      parts
  in
  (Reservoir.Wr.contents res, metrics)

let run_stream env ~r ~domains rng ~keys1 ~freq =
  let open Metrics in
  let s1, metrics = parallel_s1 env ~r ~domains rng ~keys1 ~freq in
  let index = Strategy.env_right_index env in
  let pairs =
    Array.map
      (fun row ->
        metrics.index_probes <- metrics.index_probes + 1;
        match Hash_index.random_match_row index rng keys1.(row) with
        | -1 -> failwith "Rsj_parallel.run(Stream): sampled tuple has no match in R2"
        | r2 ->
            metrics.join_output_tuples <- metrics.join_output_tuples + 1;
            Internals_int.pack row r2)
      s1
  in
  (pairs, metrics)

let run_naive env ~r ~domains rng ~(keys1 : int array) ~keys2 =
  let open Metrics in
  let main_metrics = Metrics.create () in
  let tbl = Internals_int.build_join_index main_metrics ~keys:keys2 in
  let scan_rng = Prng.split rng in
  let merge_rng = Prng.split rng in
  let parts, _ =
    chunked_pass ~domains ~rng:scan_rng
      ~make:(fun crng -> Wr_int.create ~on_displace:Reservoir.note_displacements crng ~r)
      ~feed:(fun metrics _crng ker ~lo ~hi ->
        let matched = ref 0 in
        for row = lo to hi - 1 do
          match Int_index.find_gid tbl (Array.unsafe_get keys1 row) with
          | -1 -> ()
          | g ->
              let s = Int_index.gid_start tbl g in
              let m = Int_index.gid_multiplicity tbl g in
              for j = s to s + m - 1 do
                Wr_int.feed ker ~weight:1 (Internals_int.pack row (Int_index.row tbl j))
              done;
              matched := !matched + m
        done;
        metrics.join_output_tuples <- metrics.join_output_tuples + !matched)
      ~seal:(fun ker ->
        Reservoir.Wr.of_parts ~r ~slots:(Wr_int.contents ker) ~fed:(Wr_int.fed_count ker)
          ~total:(Wr_int.total_weight ker))
      (Strategy.env_left env)
  in
  let res, scan_metrics =
    fold_parts ~merge_rng ~merge:Reservoir.Wr.merge ~empty:(fun () -> Reservoir.Wr.create ~r)
      parts
  in
  (Reservoir.Wr.contents res, Metrics.add main_metrics scan_metrics)

(* Chunk-scheduled R2 matching shared by Group-Sample's step 3 and the
   Count-Sample scans. Each S1 entry needs an independent uniform pick
   over its value's R2 rows (the per-group U1 of the sequential
   kernels); feeding one unit reservoir per entry would cost the full
   S1 ⋈ R2 output, so each join value instead owns one Multi reservoir
   per chunk — k iid unit picks fed with a single binomial draw per
   matching R2 row, the same thinning Internals.count_sample_scan uses.
   Groups are keyed by raw int through a Counter (gid+1, so 0 means
   absent); per-value reservoirs merge in chunk order with the
   slot-wise U1 coin law, and values and members (s1 indices) keep
   their S1 first-occurrence order, so the scan is deterministic at any
   pool width. Returns, per group in that order, (join key, member
   indices, merged reservoir of R2 row ids), plus the scan metrics. *)
let per_group_r2_scan env ~domains rng ~(s1 : int array) ~(keys1 : int array)
    ~(keys2 : int array) =
  let n1 = Array.length s1 in
  let gids = Counter.create ~capacity:(2 * max 1 n1) () in
  let order = Array.make (max 1 n1) 0 in
  let cells = Array.make (max 1 n1) [] in
  let ngroups = ref 0 in
  Array.iteri
    (fun i row ->
      let k = keys1.(row) in
      match Counter.get gids k with
      | 0 ->
          incr ngroups;
          Counter.add gids k !ngroups;
          order.(!ngroups - 1) <- k;
          cells.(!ngroups - 1) <- [ i ]
      | g -> cells.(g - 1) <- i :: cells.(g - 1))
    s1;
  let group_keys = Array.sub order 0 !ngroups in
  let members = Array.init !ngroups (fun g -> Array.of_list (List.rev cells.(g))) in
  let fresh_multis () =
    Array.map (fun mem -> Reservoir.Multi.create ~k:(Array.length mem)) members
  in
  let scan_rng = Prng.split rng in
  let merge_rng = Prng.split rng in
  let parts, _ =
    chunked_pass ~domains ~rng:scan_rng
      ~make:(fun _crng -> fresh_multis ())
      ~feed:(fun _m crng multis ~lo ~hi ->
        for row = lo to hi - 1 do
          let k = Array.unsafe_get keys2 row in
          let g = Counter.get gids k in
          if g > 0 then Reservoir.Multi.feed crng multis.(g - 1) row
        done)
      ~seal:(fun s -> s)
      (Strategy.env_right env)
  in
  let merge_multi_arrays mrng a b =
    let n = Array.length a in
    if n = 0 then [||]
    else begin
      let out = Array.make n a.(0) in
      for g = 0 to n - 1 do
        out.(g) <- Reservoir.Multi.merge mrng a.(g) b.(g)
      done;
      out
    end
  in
  let merged, metrics = fold_parts ~merge_rng ~merge:merge_multi_arrays ~empty:fresh_multis parts in
  ((group_keys, members, merged), metrics)

(* Pair every S1 entry with its group's merged R2 pick. *)
let pair_picks ~caller (metrics : Metrics.t) ~(s1 : int array) ~members ~merged =
  let pairs = Array.make (Array.length s1) 0 in
  Array.iteri
    (fun g mem ->
      Array.iteri
        (fun j i ->
          match Reservoir.Multi.get merged.(g) j with
          | Some r2 ->
              metrics.join_output_tuples <- metrics.join_output_tuples + 1;
              pairs.(i) <- Internals_int.pack s1.(i) r2
          | None -> failwith (caller ^ ": sampled tuple has no match in R2"))
        mem)
    members;
  pairs

let run_group env ~r ~domains rng ~keys1 ~keys2 ~freq =
  let s1, metrics = parallel_s1 env ~r ~domains rng ~keys1 ~freq in
  if Array.length s1 = 0 then ([||], metrics)
  else begin
    let (_group_keys, members, merged), scan_metrics =
      per_group_r2_scan env ~domains rng ~s1 ~keys1 ~keys2
    in
    let metrics = Metrics.add metrics scan_metrics in
    (pair_picks ~caller:"Rsj_parallel.run(Group)" metrics ~s1 ~members ~merged, metrics)
  end

(* Count-Sample's R2 matching: the per-group Multi reservoirs above
   replace the sequential per-group U1 scan, and the fed counts are
   audited against the claimed populations afterwards so stale
   statistics fail with the same diagnostics as the sequential kernel
   (Internals.count_sample_scan). *)
let parallel_count_scan env ~domains rng ~strategy ~(s1 : int array) ~keys1
    ~keys2 ~(population : int -> int) =
  if Array.length s1 = 0 then ([||], Metrics.create ())
  else begin
    Array.iter
      (fun row ->
        if population keys1.(row) <= 0 then
          failwith (strategy ^ ": sampled value has no frequency in the statistics"))
      s1;
    let (group_keys, members, merged), metrics =
      per_group_r2_scan env ~domains rng ~s1 ~keys1 ~keys2
    in
    Array.iteri
      (fun g key ->
        let pop = population key in
        let fed = Reservoir.Multi.fed_count merged.(g) in
        if fed > pop then
          failwith (strategy ^ ": R2 holds more tuples of a value than the statistics claim");
        if fed < pop then
          failwith (strategy ^ ": statistics overstate a value's frequency (stale statistics?)"))
      group_keys;
    (* fed = pop > 0: every slot holds a pick. *)
    (pair_picks ~caller:strategy metrics ~s1 ~members ~merged, metrics)
  end

let run_count env ~r ~domains rng ~keys1 ~keys2 ~freq =
  let s1, metrics = parallel_s1 env ~r ~domains rng ~keys1 ~freq in
  let pairs, scan_metrics =
    parallel_count_scan env ~domains rng
      ~strategy:"Rsj_parallel.run(Count)" ~s1 ~keys1 ~keys2
      ~population:(fun k -> Counter.get freq k)
  in
  (pairs, Metrics.add metrics scan_metrics)

(* Speculative Olken: every domain runs independent accept/reject
   rounds (Olken_sample.attempt_int — iid, uniform on the join
   conditional on acceptance) into a private buffer. A shared atomic
   counter hands out acceptance tickets; a domain keeps a pair only for
   tickets below r and stops once the tickets are gone, so exactly r
   pairs survive in total. Ticketing, stopping and the domain-order
   concatenation below depend only on counters and timing — never on
   the sampled values — so the surviving pairs are r iid uniform draws
   from the join, exactly the sequential Olken law. The global
   iteration budget is divided evenly across domains. *)
let run_olken env ~r ~domains rng ~keys1 =
  let open Metrics in
  if r = 0 then ([||], Metrics.create ())
  else begin
    let left = Strategy.env_left env in
    if Relation.cardinality left = 0 then
      invalid_arg "Rsj_parallel.run(Olken): empty R1 with r > 0";
    let left_n = Relation.cardinality left in
    let right_index = Strategy.env_right_index env in
    let m = Hash_index.max_multiplicity right_index in
    if m = 0 then failwith "Rsj_parallel.run(Olken): R2 has no joinable tuples";
    let budget = max 1 (Olken_sample.default_max_iterations / domains) in
    let rngs = Prng.split_n rng domains in
    let tickets = Atomic.make 0 in
    let parts =
      Domain_pool.run (Domain_pool.global ()) ~domains (fun k ->
          let metrics = Metrics.create () in
          let buf = ref [] in
          let iterations = ref 0 in
          let exhausted = ref false in
          let finished = ref false in
          while (not !finished) && not !exhausted do
            if Atomic.get tickets >= r then finished := true
            else begin
              incr iterations;
              if !iterations > budget then exhausted := true
              else begin
                let p =
                  Olken_sample.attempt_int rngs.(k) ~metrics ~left_n ~keys1 ~right_index ~m
                in
                if p >= 0 then
                  if Atomic.fetch_and_add tickets 1 < r then buf := p :: !buf
              end
            end
          done;
          (Array.of_list (List.rev !buf), metrics))
    in
    let pairs = Array.concat (Array.to_list (Array.map fst parts)) in
    let metrics =
      Array.fold_left (fun acc (_, m) -> Metrics.add acc m) (Metrics.create ()) parts
    in
    if Array.length pairs < r then
      failwith
        "Rsj_parallel.run(Olken): iteration budget exhausted (join empty or near-empty?)";
    (* Acceptance/rejection tallies as first-class registry counters, so
       the rejection-rate churn Olken trades for its index probes is
       readable off `rsj metrics` without diffing work records. *)
    if Obs.enabled () then begin
      Obs.Registry.add
        (Obs.Registry.counter ~help:"Olken rounds rejected by the m2(v)/m ceiling coin"
           "rsj_olken_rejections_total")
        metrics.rejected_samples;
      Obs.Registry.add
        (Obs.Registry.counter ~help:"Olken rounds accepted" "rsj_olken_acceptances_total")
        r
    end;
    (pairs, metrics)
  end

(* The shared hi/lo routing pass of the partition strategies
   (Internals_int.Partition), chunk-scheduled over R1. [lo_tbl]
   resolves a low-frequency key's R2 bucket; [on_lo_probe] charges the
   probe metric the strategy's cost model counts. *)
let partition_pass env ~r ~domains rng ~(keys1 : int array) ~tracked ~lo_tbl
    ~on_lo_probe =
  let scan_rng = Prng.split rng in
  let merge_rng = Prng.split rng in
  let parts, _ =
    chunked_pass ~domains ~rng:scan_rng
      ~make:(fun crng -> Internals_int.Partition.create_kernels crng ~r)
      ~feed:(fun metrics _crng kers ~lo ~hi ->
        for row = lo to hi - 1 do
          Internals_int.Partition.route metrics kers ~tracked ~lo_tbl ~on_lo_probe row
            (Array.unsafe_get keys1 row)
        done)
      ~seal:(Internals_int.Partition.seal ~r)
      (Strategy.env_left env)
  in
  fold_parts ~merge_rng ~merge:Internals_int.Partition.merge
    ~empty:(fun () -> Internals_int.Partition.create ~r)
    parts

(* Combine a merged partition accumulator into the final sample: exact
   |Jhi| from the tallies, the strategy-specific hi pool (which returns
   the run's metrics with its own work added), the binomial hi/lo
   split. Runs on the calling domain — the pools have size r. *)
let partition_finish ~r rng metrics acc ~tracked ~hi_pool =
  let n_hi = Internals_int.Partition.n_hi acc ~tracked in
  let n_lo = Internals_int.Partition.n_lo acc in
  let hi_pool, metrics = hi_pool metrics (Internals_int.Partition.s1 acc) in
  let lo_pool = Internals_int.Partition.lo_pool acc in
  let pairs, _r_hi, _r_lo = Internals.binomial_combine rng ~r ~n_hi ~n_lo ~hi_pool ~lo_pool in
  (pairs, metrics)

let run_frequency_partition env ~r ~domains rng ~keys1 ~keys2 ~tracked =
  let main_metrics = Metrics.create () in
  let tbl = Internals_int.build_join_index main_metrics ~keys:keys2 in
  let acc, scan_metrics =
    partition_pass env ~r ~domains rng ~keys1 ~tracked ~lo_tbl:tbl
      ~on_lo_probe:(fun _ -> ())
  in
  let metrics = Metrics.add main_metrics scan_metrics in
  partition_finish ~r rng metrics acc ~tracked ~hi_pool:(fun m s1 ->
      (Internals_int.fps_hi_pick rng m ~tbl ~keys1 s1, m))

let run_hybrid_count env ~r ~domains rng ~keys1 ~keys2 ~tracked =
  let main_metrics = Metrics.create () in
  let is_low k = Counter.get tracked k = 0 in
  let tbl = Internals_int.build_join_index ~keep:is_low main_metrics ~keys:keys2 in
  let acc, scan_metrics =
    partition_pass env ~r ~domains rng ~keys1 ~tracked
      ~lo_tbl:tbl
      ~on_lo_probe:(fun _ -> ())
  in
  let metrics = Metrics.add main_metrics scan_metrics in
  partition_finish ~r rng metrics acc ~tracked ~hi_pool:(fun m s1 ->
      (* The hi pool is Count-Sample on the high-frequency values: the
         chunk-scheduled per-entry R2 scan replaces the sequential U1
         pass here too. *)
      let pairs, hi_metrics =
        parallel_count_scan env ~domains rng
          ~strategy:"Rsj_parallel.run(Hybrid)" ~s1 ~keys1 ~keys2
          ~population:(fun k -> Counter.get tracked k)
      in
      (pairs, Metrics.add m hi_metrics))

let run_index_sample env ~r ~domains rng ~keys1 ~tracked ~lo_tbl =
  let right_index = Strategy.env_right_index env in
  let on_lo_probe (m : Metrics.t) =
    m.Metrics.index_probes <- m.Metrics.index_probes + 1;
    Hash_index.note_probe right_index
  in
  let acc, metrics =
    partition_pass env ~r ~domains rng ~keys1 ~tracked ~lo_tbl ~on_lo_probe
  in
  partition_finish ~r rng metrics acc ~tracked ~hi_pool:(fun m s1 ->
      (Internals_int.index_hi_pick rng m ~right_index ~keys1 s1, m))

(* Parallel WoR, Naive path: the join is enumerated by the chunked R1
   scan and every join pair is fed into the chunk's Wor (Vitter
   Algorithm R) reservoir; the chunk-order merge applies the Wor merge
   law, so the merged reservoir holds a uniform without-replacement
   sample of min (r, |J|) join positions — the same law as one
   sequential Algorithm R pass over the join stream. *)
let run_wor_naive env ~r ~domains rng ~(keys1 : int array) ~keys2 =
  let open Metrics in
  let main_metrics = Metrics.create () in
  let tbl = Internals_int.build_join_index main_metrics ~keys:keys2 in
  let scan_rng = Prng.split rng in
  let merge_rng = Prng.split rng in
  let parts, _ =
    chunked_pass ~domains ~rng:scan_rng
      ~make:(fun _crng -> Reservoir.Wor.create ~r)
      ~feed:(fun metrics crng res ~lo ~hi ->
        let matched = ref 0 in
        for row = lo to hi - 1 do
          match Int_index.find_gid tbl (Array.unsafe_get keys1 row) with
          | -1 -> ()
          | g ->
              let s = Int_index.gid_start tbl g in
              let m = Int_index.gid_multiplicity tbl g in
              for j = s to s + m - 1 do
                Reservoir.Wor.feed crng res (Internals_int.pack row (Int_index.row tbl j))
              done;
              matched := !matched + m
        done;
        metrics.join_output_tuples <- metrics.join_output_tuples + !matched)
      ~seal:(fun s -> s)
      (Strategy.env_left env)
  in
  let res, scan_metrics =
    fold_parts ~merge_rng ~merge:Reservoir.Wor.merge
      ~empty:(fun () -> Reservoir.Wor.create ~r)
      parts
  in
  (Reservoir.Wor.contents res, Metrics.add main_metrics scan_metrics)

(* The runner for [strategy] over the env's key views: a function from
   ~r and a generator to (packed join positions, metrics). Building it
   forces those views and the int planes of the structures the
   strategy reads — before the runner starts its clock, so like the
   indexes and statistics [Strategy.prepare] forces, they count as
   pre-existing. With [~wor:true], Naive's runner is the chunked Vitter
   pass; the other strategies' WoR draws WR batches from their WR
   runner. *)
let int_runner ?(wor = false) env strategy ~domains =
  let keys1 = Strategy.env_left_key_view env in
  let keys2 = Strategy.env_right_key_view env in
  let freq () = Frequency.int_counter (Strategy.env_right_stats env) in
  let tracked () = End_biased.int_tracked (Strategy.env_histogram env) in
  match strategy with
  | Strategy.Naive when wor ->
      fun ~r rng -> run_wor_naive env ~r ~domains rng ~keys1 ~keys2
  | Strategy.Naive -> fun ~r rng -> run_naive env ~r ~domains rng ~keys1 ~keys2
  | Strategy.Olken -> fun ~r rng -> run_olken env ~r ~domains rng ~keys1
  | Strategy.Stream ->
      let freq = freq () in
      fun ~r rng -> run_stream env ~r ~domains rng ~keys1 ~freq
  | Strategy.Group ->
      let freq = freq () in
      fun ~r rng -> run_group env ~r ~domains rng ~keys1 ~keys2 ~freq
  | Strategy.Count_sample ->
      let freq = freq () in
      fun ~r rng -> run_count env ~r ~domains rng ~keys1 ~keys2 ~freq
  | Strategy.Frequency_partition ->
      let tracked = tracked () in
      fun ~r rng -> run_frequency_partition env ~r ~domains rng ~keys1 ~keys2 ~tracked
  | Strategy.Hybrid_count ->
      let tracked = tracked () in
      fun ~r rng -> run_hybrid_count env ~r ~domains rng ~keys1 ~keys2 ~tracked
  | Strategy.Index_sample ->
      let tracked = tracked () in
      let lo_tbl = Hash_index.int_plane (Strategy.env_right_index env) in
      fun ~r rng -> run_index_sample env ~r ~domains rng ~keys1 ~tracked ~lo_tbl

let validate ~caller ~r ~domains =
  if domains < 1 then invalid_arg (caller ^ ": domains < 1");
  if r < 0 then invalid_arg (caller ^ ": r < 0")

let run env strategy ~r ~domains =
  validate ~caller:"Rsj_parallel.run" ~r ~domains;
  Strategy.prepare env strategy;
  let runner = int_runner env strategy ~domains in
  observed ~semantics:"WR" strategy ~r ~domains (fun () ->
      let rng = Prng.split (Strategy.env_rng env) in
      timed env strategy (fun () -> runner ~r rng))

let wor_batches_total strategy =
  Obs.Registry.counter ~help:"WR batches drawn by the WoR conversion driver"
    ~labels:[ ("strategy", Strategy.name strategy) ]
    "rsj_wor_batches_total"

(* WoR for every strategy but Naive: the §3 conversion — WR batches of
   [target] positions from the strategy's own runner, deduplicated on
   the packed positions until [target] distinct ones have accumulated.
   The generators split off the env in a fixed order ([dedup_rng]
   first, then one per batch), so the loop is deterministic. On a set
   join distinct positions are distinct tuples. *)
let run_wor_batches env strategy runner ~target =
  let dedup_rng = Prng.split (Strategy.env_rng env) in
  let metrics = ref (Metrics.create ()) in
  let pairs =
    Strategy.wor_batches ~equal:Int.equal ~hash:Hashtbl.hash ~caller:"Rsj_parallel.run_wor"
      ~target (fun () ->
        if Obs.enabled () then Obs.Registry.incr (wor_batches_total strategy);
        let batch, m = runner ~r:target (Prng.split (Strategy.env_rng env)) in
        metrics := Metrics.add !metrics m;
        (dedup_rng, batch))
  in
  (Array.of_list pairs, !metrics)

let run_wor env strategy ~r ~domains =
  validate ~caller:"Rsj_parallel.run_wor" ~r ~domains;
  Strategy.prepare env strategy;
  let runner = int_runner ~wor:true env strategy ~domains in
  observed ~semantics:"WoR" strategy ~r ~domains (fun () ->
      let target = min r (Strategy.env_join_size env) in
      timed env strategy (fun () ->
          if target = 0 then ([||], Metrics.create ())
          else if strategy = Strategy.Naive then runner ~r:target (Prng.split (Strategy.env_rng env))
          else run_wor_batches env strategy runner ~target))
