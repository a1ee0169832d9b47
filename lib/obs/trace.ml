(* Span tracer: per-domain ring buffers flushed to Chrome Trace Event
   JSON (the format Perfetto and chrome://tracing open directly).

   One-writer discipline, mirroring Domain_pool's: each domain records
   only into its own ring, reached through domain-local storage, so the
   hot path takes no lock and performs no cross-domain write. The only
   shared state is the list of rings themselves, touched under a mutex
   once per domain (registration) and at flush time. Flush and clear
   are meant for quiescent moments — after a pool barrier, between
   runs — which is when every caller in this tree invokes them.

   A ring holds a fixed number of events (2^15 per domain); once full,
   further events are counted as dropped rather than recorded, so a
   runaway trace degrades to a truncated file, never to unbounded
   memory. *)

type event = {
  name : string;
  cat : string;
  ph : char;  (* 'X' complete span, 'i' instant *)
  ts : float;  (* µs since process start (Clock.now_us) *)
  dur : float;  (* µs; 0 for instants *)
  tid : int;
  args : (string * Json.t) list;
}

let capacity = 1 lsl 15

let dummy = { name = ""; cat = ""; ph = 'X'; ts = 0.; dur = 0.; tid = 0; args = [] }

type ring = { tid : int; events : event array; mutable len : int; mutable dropped : int }

let rings : ring list ref = ref []
let rings_lock = Mutex.create ()

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r =
        { tid = (Domain.self () :> int); events = Array.make capacity dummy; len = 0; dropped = 0 }
      in
      Mutex.lock rings_lock;
      rings := r :: !rings;
      Mutex.unlock rings_lock;
      r)

let record ev =
  let r = Domain.DLS.get ring_key in
  if r.len < Array.length r.events then begin
    r.events.(r.len) <- ev;
    r.len <- r.len + 1
  end
  else r.dropped <- r.dropped + 1

(* ------------------------------------------------------------------ *)
(* Recording API (all gated on Control.enabled)                        *)

(* Ambient request context: when the serving path has set a request id
   (Context.with_request), every span recorded underneath carries it as
   a "req" arg, so a whole request can be filtered out of a trace. *)
let tagged args =
  match Context.current () with
  | Some id when not (List.mem_assoc "req" args) -> ("req", Json.Str id) :: args
  | _ -> args

let complete ?(cat = "") ?(args = []) name ~ts ~dur =
  if Control.enabled () then
    record { name; cat; ph = 'X'; ts; dur; tid = (Domain.self () :> int); args = tagged args }

let instant ?(cat = "") ?(args = []) name =
  if Control.enabled () then
    record
      {
        name;
        cat;
        ph = 'i';
        ts = Clock.now_us ();
        dur = 0.;
        tid = (Domain.self () :> int);
        args = tagged args;
      }

let with_span ?(cat = "") ?(args = []) name f =
  if not (Control.enabled ()) then f ()
  else begin
    let t0 = Clock.now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_us () in
        record
          {
            name;
            cat;
            ph = 'X';
            ts = t0;
            dur = Float.max 0. (t1 -. t0);
            tid = (Domain.self () :> int);
            args = tagged args;
          })
      f
  end

(* ------------------------------------------------------------------ *)
(* Flush                                                               *)

let snapshot_rings () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  rs

let events () =
  let out =
    List.concat_map (fun r -> Array.to_list (Array.sub r.events 0 r.len)) (snapshot_rings ())
  in
  List.sort (fun a b -> compare a.ts b.ts) out

let dropped () = List.fold_left (fun acc r -> acc + r.dropped) 0 (snapshot_rings ())

let clear () =
  List.iter
    (fun r ->
      r.len <- 0;
      r.dropped <- 0)
    (snapshot_rings ())

let event_to_json pid e =
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str (if e.cat = "" then "rsj" else e.cat));
       ("ph", Json.Str (String.make 1 e.ph));
       ("ts", Json.Float e.ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int e.tid);
     ]
    @ (if e.ph = 'X' then [ ("dur", Json.Float e.dur) ] else [])
    @ (if e.args = [] then [] else [ ("args", Json.Obj e.args) ])
    @ if e.ph = 'i' then [ ("s", Json.Str "t") ] else [])

let to_json () =
  let pid = Unix.getpid () in
  let thread_meta =
    List.filter_map
      (fun r ->
        if r.len = 0 then None
        else
          Some
            (Json.Obj
               [
                 ("name", Json.Str "thread_name");
                 ("ph", Json.Str "M");
                 ("pid", Json.Int pid);
                 ("tid", Json.Int r.tid);
                 ( "args",
                   Json.Obj
                     [
                       ( "name",
                         Json.Str
                           (if r.tid = 0 then "domain-0 (caller)"
                            else Printf.sprintf "domain-%d" r.tid) );
                     ] );
               ]))
      (snapshot_rings ())
  in
  Json.Obj
    [
      ("traceEvents", Json.List (thread_meta @ List.map (event_to_json pid) (events ())));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("dropped_events", Json.Int (dropped ())) ]);
    ]

let write_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string (to_json ())))
