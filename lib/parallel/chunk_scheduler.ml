(* Chunk-queue scheduler: dynamic work distribution over a fixed set
   of chunks.

   The static `Relation.shards` split gives every domain exactly one
   contiguous range up front; under skew (a Zipf-clustered R1, a hot
   hash bucket) one shard can carry most of the work while the other
   domains sit idle. Here the chunks sit behind a single atomic
   cursor instead: each domain claims the next unclaimed chunk with a
   fetch-and-add, so a domain that finishes cheap chunks immediately
   steals the remaining ones and the imbalance is bounded by one
   chunk's worth of work per domain.

   Domains come from the persistent pool (Domain_pool), so a scan pays
   a condvar wake per worker instead of a spawn+join per worker.

   Determinism: the racy part is only *which domain* runs a chunk.
   Each chunk's result lands in its own slot of the result array (the
   fetch-and-add hands out each index exactly once), so as long as
   [task i] depends only on [i] — per-chunk split generators, not
   per-domain ones — the result array is a deterministic function of
   the inputs, and callers that combine results in chunk order get
   schedule-independent output. The chunk size itself never depends on
   the domain count, so the chunk cut — and with it every split
   generator — is identical at any pool size.

   Telemetry: with tracing on and more than one domain, every chunk
   claim→merge becomes a span tagged with the claiming domain — in
   Perfetto a skewed scan shows up directly as one domain's lane
   filling with long chunk spans while the others' stay short, the
   static-vs-chunk-queue rebalancing evidence ROADMAP defers to a
   multi-core host for wall-clock. The registry gets a per-chunk
   service-time histogram and per-domain claim counters. Single-domain
   scans record only the whole-scan span: their chunks run inline and
   back to back, so per-chunk spans would add two clock reads per
   chunk to the serving path's latency without showing any
   interleaving. Disabled cost: one branch per scan. *)

module Obs = Rsj_obs

let chunk_service =
  Obs.Registry.histogram ~help:"Per-chunk claim-to-merge service time, seconds"
    "rsj_chunk_service_seconds"

type stats = {
  chunks : int;  (* chunks handed out in total *)
  claims : int array;  (* chunks claimed by each domain, index 0 = caller *)
}

(* ~16 chunks per scan so stealing has slack to act on at any realistic
   domain count, capped so huge relations still get cache-friendly
   chunks. Deliberately independent of the domain count: the chunk cut
   fixes the per-chunk generators, so a domain-count-dependent size
   would break bit-identity across pool widths. *)
let default_chunk_size ~n = max 1 (min 4096 (n / 16))

let run ~domains ~chunks ~task () =
  if domains <= 0 then invalid_arg "Chunk_scheduler.run: domains <= 0";
  if chunks < 0 then invalid_arg "Chunk_scheduler.run: chunks < 0";
  let results = Array.make chunks None in
  let cursor = Atomic.make 0 in
  (* One enabled check per scan; the traced worker pays its clock reads
     per chunk, the untraced one stays the bare claim loop. *)
  let traced = Obs.enabled () && domains > 1 in
  let claim_counters =
    if traced then
      Array.init domains (fun k ->
          Obs.Registry.counter ~help:"Chunks claimed, by claiming domain"
            ~labels:[ ("domain", string_of_int k) ]
            "rsj_chunk_claims_total")
    else [||]
  in
  let worker k =
    let mine = ref 0 in
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add cursor 1 in
      if i < chunks then begin
        (if not traced then results.(i) <- Some (task i)
         else begin
           let t0 = Obs.Clock.now_us () in
           results.(i) <- Some (task i);
           let dur = Float.max 0. (Obs.Clock.now_us () -. t0) in
           Obs.Trace.complete ~cat:"chunk"
             ~args:[ ("chunk", Rsj_obs.Json.Int i); ("domain", Rsj_obs.Json.Int k) ]
             "chunk" ~ts:t0 ~dur;
           Obs.Registry.observe chunk_service (dur /. 1e6);
           Obs.Registry.incr claim_counters.(k)
         end);
        incr mine
      end
      else continue := false
    done;
    !mine
  in
  let pool = Domain_pool.global () in
  let claims =
    Obs.Trace.with_span ~cat:"chunk"
      ~args:[ ("chunks", Rsj_obs.Json.Int chunks); ("domains", Rsj_obs.Json.Int domains) ]
      "chunk_scheduler.run"
      (fun () -> Domain_pool.run pool ~domains worker)
  in
  let out =
    Array.map
      (function Some r -> r | None -> assert false (* every index was handed out *))
      results
  in
  (out, { chunks; claims })
