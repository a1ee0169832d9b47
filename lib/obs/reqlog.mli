(** Structured NDJSON request log. One JSON object per line; armed via
    [set_path] (the server passes RSJ_LOG). Each line carries a
    wall-clock ["ts"] and, when an ambient {!Context} is set, the
    request id under ["req"]. *)

val set_path : string option -> unit
(** Arm the log to append to the given file ([None]/[""] disarms). *)

val enabled : unit -> bool

val write : (string * Json.t) list -> unit
(** Append one line with the given fields (plus ts/req). No-op when
    disarmed. Flushes per line. *)

val close : unit -> unit
