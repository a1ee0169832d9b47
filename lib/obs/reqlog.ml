(* Structured request log: newline-delimited JSON, one object per
   served request. Off by default; the server arms it from RSJ_LOG at
   startup (set_path). Every line gets a wall-clock timestamp and —
   when an ambient request context is set — the request id, so log
   lines, trace spans and RPC responses all share one id.

   Writes append under a mutex (the serve loop is single-threaded, but
   tests and the CLI may log from elsewhere). Flushing is time-bounded
   rather than per-line — a flush syscall on every request shows up
   directly in the served p99, so lines ride the channel buffer and
   are forced out at most [flush_interval_s] after they were written
   (and always on close, which the daemon's drain path runs). *)

let lock = Mutex.create ()
let dest : out_channel option ref = ref None
let flush_interval_s = 0.5
let last_flush = ref 0.

let close () =
  Mutex.lock lock;
  (match !dest with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  dest := None;
  Mutex.unlock lock

let set_path = function
  | None | Some "" -> close ()
  | Some path ->
      close ();
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Mutex.lock lock;
      dest := Some oc;
      Mutex.unlock lock

let enabled () = Option.is_some !dest

let write fields =
  Mutex.lock lock;
  (match !dest with
  | None -> ()
  | Some oc ->
      let now = Clock.now_s () in
      let base =
        [ ("ts", Json.Float now) ]
        @ (match Context.current () with
          | Some id when not (List.mem_assoc "req" fields) -> [ ("req", Json.Str id) ]
          | _ -> [])
      in
      output_string oc (Json.to_string (Json.Obj (base @ fields)));
      output_char oc '\n';
      if now -. !last_flush >= flush_interval_s then begin
        flush oc;
        last_flush := now
      end);
  Mutex.unlock lock
