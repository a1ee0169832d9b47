(* Persistent pool of worker domains.

   Each worker is spawned once and then parked on its own
   Mutex/Condition pair: the worker loop waits until a job is
   installed (or the stop flag is raised), runs the job outside the
   lock, clears its busy flag and signals completion. The caller's
   side of the same condition is the completion barrier — it waits
   until every claimed worker reports idle. One condition per worker
   serves both directions because the two parties never wait at the
   same time: the worker waits only while it has no job, the caller
   only while the worker is busy.

   Exceptions raised by a job are caught in the wrapper installed by
   [run], carried back in a per-index slot, and re-raised on the
   calling domain after the barrier — a raising job must not kill the
   worker (the pool would silently lose capacity) nor skip the
   barrier (the caller would race the other workers' writes).

   This is the only module in the tree that calls the domain spawn
   primitive; a dune rule greps the rest of the codebase to keep it
   that way.

   Telemetry: the spawn/job counters live in Obs.Registry (the one
   counter-export path; Domain_pool.counters reads them back for the
   legacy record API), and when tracing is enabled the pool emits
   spawn/park/job spans plus a submit→start wake-latency histogram —
   the park/wake cost that motivated the pool becomes visible per
   worker in Perfetto. All timed hooks gate on Obs.enabled. *)

module Obs = Rsj_obs

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable busy : bool;
  mutable stop : bool;
}

type t = {
  lock : Mutex.t;  (* guards the pool record itself *)
  mutable workers : worker array;
  mutable handles : unit Domain.t list;
  mutable closed : bool;
  mutable in_use : bool;
}

let spawned_total =
  Obs.Registry.counter ~help:"Worker domains ever spawned by any pool"
    "rsj_pool_workers_spawned_total"

let jobs_total =
  Obs.Registry.counter ~help:"Domain_pool.run calls with domains > 1" "rsj_pool_parallel_jobs_total"

let legacy_total =
  Obs.Registry.counter
    ~help:"Spawns a pool-less spawn-per-call runtime would have performed for the same jobs"
    "rsj_pool_unpooled_spawn_equivalent_total"

let wake_latency =
  Obs.Registry.histogram ~help:"Pool job submit-to-start latency (condvar wake), seconds"
    "rsj_pool_wake_latency_seconds"

(* Utilization gauges: how many worker domains are parked alive, and
   how many are claimed by an in-flight run. With the single-claimant
   pool, busy is 0 or (domains - 1) — still enough for a scrape to tell
   an idle daemon from a saturated one. *)
let workers_live_g =
  Obs.Registry.gauge ~help:"Worker domains currently alive in the pool" "rsj_pool_workers_live"

let workers_busy_g =
  Obs.Registry.gauge ~help:"Worker domains claimed by an in-flight parallel job"
    "rsj_pool_workers_busy"

type counters = {
  spawned : int;
  parallel_jobs : int;
  unpooled_spawn_equivalent : int;
}

let counters () =
  {
    spawned = Obs.Registry.value spawned_total;
    parallel_jobs = Obs.Registry.value jobs_total;
    unpooled_spawn_equivalent = Obs.Registry.value legacy_total;
  }

let worker_loop w =
  Mutex.lock w.mutex;
  let rec loop () =
    match w.job with
    | Some f ->
        w.job <- None;
        Mutex.unlock w.mutex;
        (* [f] is the wrapper from [run]; it never raises. *)
        f ();
        Mutex.lock w.mutex;
        w.busy <- false;
        Condition.signal w.cond;
        loop ()
    | None ->
        if w.stop then Mutex.unlock w.mutex
        else begin
          (* Park span: one per Condition.wait, so a worker's idle gaps
             between jobs are visible next to the jobs themselves. *)
          let t0 = if Obs.enabled () then Obs.Clock.now_us () else 0. in
          Condition.wait w.cond w.mutex;
          if Obs.enabled () && t0 > 0. then
            Obs.Trace.complete ~cat:"pool" "pool.park" ~ts:t0
              ~dur:(Float.max 0. (Obs.Clock.now_us () -. t0));
          loop ()
        end
  in
  loop ()

let spawn_worker () =
  let w =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      job = None;
      busy = false;
      stop = false;
    }
  in
  Obs.Registry.incr spawned_total;
  let handle =
    Obs.Trace.with_span ~cat:"pool" "pool.spawn" (fun () -> Domain.spawn (fun () -> worker_loop w))
  in
  (w, handle)

(* Grow to [n] workers. Caller holds [t.lock]. *)
let ensure t n =
  let have = Array.length t.workers in
  if n > have then begin
    let fresh = Array.init (n - have) (fun _ -> spawn_worker ()) in
    t.workers <- Array.append t.workers (Array.map fst fresh);
    t.handles <- t.handles @ Array.to_list (Array.map snd fresh);
    Obs.Registry.set_gauge workers_live_g (float_of_int (Array.length t.workers))
  end

let submit w f =
  Mutex.lock w.mutex;
  (* [run] serializes jobs per worker and waited for idle, so no job
     can be pending here. *)
  w.job <- Some f;
  w.busy <- true;
  Condition.signal w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while w.busy do
    Condition.wait w.cond w.mutex
  done;
  Mutex.unlock w.mutex

let create () =
  { lock = Mutex.create (); workers = [||]; handles = []; closed = false; in_use = false }

(* Sequential fallback: same results as the parallel path whenever f
   depends only on its index, which is the pool's usage contract. The
   explicit loop fixes the evaluation order (Array.init's is
   unspecified), so index-claiming tasks still see indices in order. *)
let run_on_caller domains f =
  let first = f 0 in
  let out = Array.make domains first in
  for k = 1 to domains - 1 do
    out.(k) <- f k
  done;
  out

(* Wrap a worker-bound task so its submit→start wake latency and its
   execution span are recorded on the worker's own ring. The closure is
   only built when telemetry is on; otherwise the task passes through
   untouched. *)
let instrument k task =
  if not (Obs.enabled ()) then task
  else begin
    let submitted = Obs.Clock.now_us () in
    fun () ->
      let started = Obs.Clock.now_us () in
      Obs.Registry.observe wake_latency (Float.max 0. (started -. submitted) /. 1e6);
      Obs.Trace.with_span ~cat:"pool" ~args:[ ("worker", Rsj_obs.Json.Int k) ] "pool.job" task
  end

let run t ~domains f =
  if domains < 0 then invalid_arg "Domain_pool.run: domains < 0";
  if domains = 0 then [||]
  else if domains = 1 then [| f 0 |]
  else begin
    Obs.Registry.incr jobs_total;
    Obs.Registry.add legacy_total (domains - 1);
    let claimed =
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          if t.closed || t.in_use then None
          else begin
            ensure t (domains - 1);
            t.in_use <- true;
            Obs.Registry.set_gauge workers_busy_g (float_of_int (domains - 1));
            Some (Array.sub t.workers 0 (domains - 1))
          end)
    in
    match claimed with
    | None -> run_on_caller domains f
    | Some ws ->
        let results = Array.make domains None in
        let errors = Array.make domains None in
        let task k () =
          match f k with
          | v -> results.(k) <- Some v
          | exception e -> errors.(k) <- Some (e, Printexc.get_raw_backtrace ())
        in
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock t.lock;
            t.in_use <- false;
            Obs.Registry.set_gauge workers_busy_g 0.;
            Mutex.unlock t.lock)
          (fun () ->
            Obs.Trace.with_span ~cat:"pool"
              ~args:[ ("domains", Rsj_obs.Json.Int domains) ]
              "pool.run"
              (fun () ->
                Array.iteri (fun i w -> submit w (instrument (i + 1) (task (i + 1)))) ws;
                Obs.Trace.with_span ~cat:"pool"
                  ~args:[ ("worker", Rsj_obs.Json.Int 0) ]
                  "pool.job" (task 0);
                (* Barrier: every claimed worker back to idle before any
                   result or error slot is read. *)
                Array.iter await ws));
        Array.iter
          (function
            | Some (e, bt) -> Printexc.raise_with_backtrace e bt
            | None -> ())
          errors;
        Array.map (function Some v -> v | None -> assert false) results
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.closed then Mutex.unlock t.lock
  else begin
    t.closed <- true;
    let ws = t.workers and hs = t.handles in
    t.workers <- [||];
    t.handles <- [];
    Obs.Registry.set_gauge workers_live_g 0.;
    Mutex.unlock t.lock;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stop <- true;
        Condition.signal w.cond;
        Mutex.unlock w.mutex)
      ws;
    List.iter Domain.join hs
  end

let global_pool : t option ref = ref None

let global () =
  match !global_pool with
  | Some t when not t.closed -> t
  | _ ->
      let t = create () in
      global_pool := Some t;
      at_exit (fun () -> shutdown t);
      t
