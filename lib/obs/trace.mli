(** Span tracer: monotone-timestamped spans in per-domain ring buffers,
    flushed to Chrome Trace Event JSON — a conformance or bench run's
    trace opens directly in Perfetto (ui.perfetto.dev) or
    [chrome://tracing].

    One-writer discipline (mirroring {!Domain_pool}): each domain
    appends only to its own ring, reached through domain-local storage,
    so recording takes no lock. Rings hold 2^15 events each; overflow
    increments a drop counter instead of growing, so tracing degrades
    to truncation, never to unbounded memory. {!events}, {!write_file},
    {!clear} read/reset every ring and are meant for quiescent moments
    (after a pool barrier, between runs).

    Every recording entry point is gated on {!Control.enabled}: with
    telemetry off each hook costs one branch. *)

type event = {
  name : string;
  cat : string;
  ph : char;  (** ['X'] complete span, ['i'] instant. *)
  ts : float;  (** µs since process start ({!Clock.now_us}). *)
  dur : float;  (** µs; [0.] for instants. *)
  tid : int;  (** The recording domain's id; 0 is the main domain. *)
  args : (string * Json.t) list;
}

val with_span : ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and records a complete span around it
    (also on exception, via [Fun.protect]). Disabled path: one branch,
    then [f ()]. *)

val complete : ?cat:string -> ?args:(string * Json.t) list -> string -> ts:float -> dur:float -> unit
(** Record an already-measured span (timestamps from
    {!Clock.now_us}) — for sites where a closure is inconvenient, e.g.
    the pool's park/wake measurements. *)

val instant : ?cat:string -> ?args:(string * Json.t) list -> string -> unit

val events : unit -> event list
(** Snapshot of every ring, sorted by timestamp. *)

val dropped : unit -> int
(** Events lost to ring overflow since the last {!clear}. *)

val clear : unit -> unit

val write_file : string -> unit
(** Write the Chrome Trace Event document: [{"traceEvents": [...]}]
    with per-domain [thread_name] metadata and a [dropped_events]
    tally. *)
