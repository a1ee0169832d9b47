(* The served half of a run: exec a real [rsj serve] daemon with a
   scrubbed environment, register the workload's tables, answer each
   request kind once (set-up), then drive the daemon over its Unix
   socket with a closed loop: [conns] connections, each with one
   request in flight, each on its own thread. *)

module P = Rsj_server.Protocol
module Client = Rsj_server.Client
module Json = Rsj_obs.Json
module Clock = Rsj_obs.Clock

(* The daemon's whole RSJ_* configuration. Every inherited RSJ_*
   variable is dropped, so knobs that latch at start-up (RSJ_DRAW,
   RSJ_DATAPLANE, RSJ_TRACE, RSJ_LOG, RSJ_CACHE_BYTES, RSJ_SERVE_BIAS,
   ...) sit at their defaults; OCAMLRUNPARAM is dropped too, so the GC
   runs with its defaults. The one knob set here tightens the
   online quality monitor's per-stream false-alert budget so that the
   end-of-run [quality_alert = false] check holds family-wise over the
   hundred-odd streams a churn run opens (each re-registered snapshot
   is a new stream); it changes a threshold, not the work done. *)
let knobs = [ ("RSJ_QUALITY_ALPHA", "0.00001") ]

let scrubbed_env () =
  let inherited =
    List.filter
      (fun kv ->
        not
          (String.starts_with ~prefix:"RSJ_" kv
          || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
          || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (inherited @ List.map (fun (k, v) -> k ^ "=" ^ v) knobs)

(* Daemons not yet reaped, so [kill_all] can stop them on any exit. *)
let live = ref []

let spawn ~exe ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Clock.now_s () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close err)
      (fun () ->
        Unix.create_process_env exe [| exe; "serve"; "--socket"; sock |] (scrubbed_env ()) devnull
          devnull err)
  in
  live := pid :: !live;
  (pid, t0)

(* Wait for [pid] to exit, killing it after ten seconds. *)
let reap pid =
  let deadline = Clock.now_s () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now_s () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Shut the daemon down over [admin], falling back to SIGTERM. *)
let stop pid admin =
  (match (try Client.shutdown admin with Failure _ | Unix.Unix_error _ -> Error "") with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  Client.close admin;
  reap pid

(* Connect, retrying while the daemon is still starting. Reads time out
   after [timeout_s], so a stuck daemon fails ops instead of hanging. *)
let connect ?(timeout_s = 30.) sock =
  let deadline = Clock.now_s () +. 60. in
  let rec go () =
    match Client.connect (Rsj_server.Server.Unix_path sock) with
    | c ->
        Unix.setsockopt_float (Client.fd c) Unix.SO_RCVTIMEO timeout_s;
        c
    | exception Failure msg ->
        if Clock.now_s () > deadline then failwith msg;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Peak resident set of a live process, in MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

let request ~dir ~seed ~id (op : Workload.op) =
  match op with
  | Workload.Sample s ->
      P.Sample
        {
          id;
          left = s.left;
          right = s.right;
          r = s.r;
          strategy = s.strategy;
          seed;
          wor = s.wor;
          domains = 1;
          on = "col2";
          deadline_ms = None;
          rid = None;
        }
  | Workload.Query q -> P.Query { id; sql = q.sql; seed; deadline_ms = None; rid = None }
  | Workload.Swap s -> P.Register { id; name = s.name; source = P.From_path (Filename.concat dir s.file) }

type outcome = { latency_s : float; digest : int; error : string option }

(* The checks a run applies to every answer, closed over its tables. *)
type env = {
  w : Workload.t;
  dir : string;
  seed : int;
  join_size : left:string -> right:string -> int;
  rows_of : string -> int;  (* CSV file -> row count *)
}

let make_env w ~dir ~seed ~sizes =
  let file_of name =
    (List.find (fun (t : Workload.table) -> t.name = name) w.Workload.tables).Workload.file
  in
  let rows_of file =
    (List.find (fun (t : Workload.table) -> t.file = file) (w.tables @ w.spare)).Workload.rows
  in
  { w; dir; seed; join_size = (fun ~left ~right -> List.assoc (file_of left, file_of right) sizes); rows_of }

(* Send one request and check its answer. The clock stops when the
   terminal frame is decoded, before any check runs. A transport error
   leaves the connection unusable: the caller reconnects. *)
let exec env conn ~index (op : Workload.op) =
  let req = request ~dir:env.dir ~seed:(Workload.op_seed env.seed index) ~id:(Client.fresh_id conn) op in
  let t0 = Clock.now_s () in
  match Client.rpc conn req with
  | exception Failure msg ->
      ({ latency_s = infinity; digest = 0; error = Some ("transport: " ^ msg) }, `Broken)
  | exception Unix.Unix_error (e, fn, _) ->
      ( { latency_s = infinity; digest = 0; error = Some ("transport: " ^ fn ^ ": " ^ Unix.error_message e) },
        `Broken )
  | Error (code, msg) ->
      ( {
          latency_s = Clock.now_s () -. t0;
          digest = 0;
          error = Some (P.error_code_to_string code ^ ": " ^ msg);
        },
        `Alive )
  | Ok reply ->
      let latency_s = Clock.now_s () -. t0 in
      let error =
        match Check.answer ~join_size:env.join_size ~rows_of:env.rows_of op reply with
        | Ok () -> None
        | Error msg -> Some msg
      in
      ({ latency_s; digest = Check.digest reply.rows; error }, `Alive)

let by_kind_misses admin =
  match Client.cache_stats admin with
  | Ok detail -> (
      match List.assoc_opt "by_kind" detail with
      | Some (Json.Obj kinds) ->
          List.map
            (fun (k, v) ->
              (k, match Json.member "misses" v with Some (Json.Int n) -> n | _ -> 0))
            kinds
      | _ -> [])
  | Error msg -> failwith ("stats: " ^ msg)

type setup = {
  setup_s : float;  (* exec to the last set-up answer *)
  builds : (string * string list) list;
      (* request kind -> cache kinds its first answer built *)
  warm : (string * outcome) list;  (* request kind -> its set-up answer *)
}

(* Start a daemon and bring it to its first answer of every request
   kind. Returns the live daemon and its admin connection. *)
let setup env ~exe ~sock ~log =
  let pid, t0 = spawn ~exe ~sock ~log in
  let admin = connect sock in
  List.iter
    (fun (t : Workload.table) ->
      match exec env admin ~index:(-1) (Workload.Swap { name = t.name; file = t.file }) with
      | { error = None; _ }, _ -> ()
      | { error = Some msg; _ }, _ -> failwith (Printf.sprintf "register %s: %s" t.name msg))
    env.w.tables;
  let t_last = ref t0 in
  let per_kind =
    List.mapi
      (fun k (kind, op) ->
        let before = by_kind_misses admin in
        let out, _ = exec env admin ~index:(-(k + 1)) op in
        t_last := Clock.now_s ();
        let after = by_kind_misses admin in
        let built =
          List.filter_map
            (fun (c, n) ->
              if n > Option.value ~default:0 (List.assoc_opt c before) then Some c else None)
            after
        in
        ((kind, built), (kind, out)))
      env.w.kinds
  in
  (pid, admin, { setup_s = !t_last -. t0; builds = List.map fst per_kind; warm = List.map snd per_kind })

type op_result = { index : int; kind : string; outcome : outcome; finished_s : float }
(* [finished_s]: completion time from the start of the loop. *)

type loop = { results : op_result array;  (* by index *) window_s : float }

let closed_loop env ~sock ~conns ~seconds =
  let w = env.w in
  let m = Mutex.create () and cond = Condition.create () in
  let next = ref 0 and in_flight = ref 0 and exclusive = ref false in
  let results = ref [] in
  let t_start = Clock.now_s () in
  let deadline = t_start +. seconds in
  let last_done = ref t_start in
  (* Hand out op indices in order. A barrier op waits until nothing is
     in flight and holds everyone else off until it completes, so
     every read sees the same snapshot it sees in the replay. *)
  let take () =
    Mutex.lock m;
    let rec go () =
      if Clock.now_s () >= deadline then None
      else if !exclusive || (w.barrier !next && !in_flight > 0) then begin
        Condition.wait cond m;
        go ()
      end
      else begin
        let i = !next in
        incr next;
        incr in_flight;
        if w.barrier i then exclusive := true;
        Some i
      end
    in
    let i = go () in
    Mutex.unlock m;
    i
  in
  let finish r =
    Mutex.lock m;
    decr in_flight;
    if w.barrier r.index then exclusive := false;
    let now = Clock.now_s () in
    results := { r with finished_s = now -. t_start } :: !results;
    last_done := Float.max !last_done now;
    Condition.broadcast cond;
    Mutex.unlock m
  in
  let worker () =
    let conn = ref (Some (connect ~timeout_s:10. sock)) in
    let rec loop () =
      match take () with
      | None -> ()
      | Some index ->
          let kind, op = w.op_at index in
          let outcome =
            match !conn with
            | None -> { latency_s = infinity; digest = 0; error = Some "transport: not connected" }
            | Some c -> (
                match exec env c ~index op with
                | outcome, `Alive -> outcome
                | outcome, `Broken ->
                    Client.close c;
                    conn := (try Some (connect ~timeout_s:10. sock) with Failure _ -> None);
                    outcome)
          in
          finish { index; kind; outcome; finished_s = 0. };
          loop ()
    in
    Fun.protect ~finally:(fun () -> Option.iter Client.close !conn) loop
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  let results = Array.of_list !results in
  Array.sort (fun a b -> compare a.index b.index) results;
  { results; window_s = !last_done -. t_start }

(* The end-of-run verdict of the daemon's online quality monitor. *)
let quality_alert admin =
  match Client.cache_stats admin with
  | Ok detail -> (
      match List.assoc_opt "quality_alert" detail with Some (Json.Bool b) -> Ok b | _ -> Error "no quality_alert")
  | Error msg -> Error msg
