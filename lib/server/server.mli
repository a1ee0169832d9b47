(** The [rsj serve] daemon: a long-running sampling service.

    One process holds the registered relations and the process-wide
    {!Rsj_cache.Structure_cache}, so the auxiliary structures every
    strategy needs (paper Table 1) are built once and reused across
    requests — the warm path. The event loop is a single-threaded
    [Unix.select] multiplexer: any number of clients connect and
    pipeline newline-delimited JSON requests ({!Protocol}); requests
    are executed FIFO on the loop thread. A [sample] request and a SQL
    [query] both draw through {!Rsj_sql.Sampler}, so for a fixed seed a
    served sample is byte-identical to the same in-process run, and a
    two-table [SAMPLE] over registered relations returns the rows of
    the equivalent [sample] request. Both feed the daemon's quality
    monitor ({!Rsj_verify.Online}) with what they serve.

    Operational behavior:
    - {b Deadlines}: a request carrying [deadline_ms] fails with
      [Deadline_exceeded] if it is still queued when the budget
      elapses — it never starts late.
    - {b Admission control}: queued sample work (the sum of requested
      [r] over waiting requests) is capped; requests beyond the cap
      are rejected immediately with [Overloaded] rather than queued.
      A request within the cap is always admitted when the queue is
      empty, so the service keeps making progress; one whose own [r]
      exceeds the cap is refused before any work.
    - {b Metrics}: [GET /metrics] on the same socket answers with the
      Prometheus text of {!Rsj_obs.Registry} (a connection's first line
      picks its mode; JSON clients are unaffected), covering the
      [rsj_structure_cache_*] and [rsj_serve_*] families.
    - {b Graceful shutdown}: SIGINT/SIGTERM (or a [shutdown] request)
      stop the accept path, close and unlink the listening socket
      {e first} (so a replacement daemon can bind immediately), drain
      the queued requests, flush every connection, and write a final
      metrics snapshot. *)

type addr = Unix_path of string | Tcp of string * int

val addr_to_string : addr -> string

val addr_of_string : string -> (addr, string) result
(** ["tcp:HOST:PORT"] is TCP, the port after the last colon (so
    [addr_to_string] of any address parses back); anything else is a
    Unix-domain socket path (one ["unix:"] prefix is stripped). *)

type config = {
  addr : addr;
  max_queued_work : int;
      (** Admission cap on queued sample tuples (default 1_000_000;
          [rsj serve --queue-budget] overrides). A request whose own
          work exceeds it is refused [overloaded] even on an empty
          queue. *)
  frame_rows : int;  (** Rows per streamed [rows] frame (default 256). *)
  snapshot_path : string option;
      (** Where the final metrics snapshot goes; [None] = stderr
          (default; [rsj serve --snapshot] overrides). *)
  drain_linger_ms : float;
      (** After SIGTERM/shutdown, keep the loop alive this long past
          the drain so pre-existing connections can observe the 503
          [GET /healthz] state (default 0;
          [RSJ_SERVE_DRAIN_LINGER_MS] overrides). *)
  slow_ms : float;
      (** Requests slower than this emit a [request.slow] trace
          exemplar and bump [rsj_serve_slow_requests_total] (default
          100; [RSJ_SLOW_MS] overrides). *)
  log_path : string option;
      (** NDJSON request log destination; [None] = disabled ([RSJ_LOG]
          overrides). One line per request: id, op, sql/strategy,
          picker reason, cache hit/miss, deadline verdict, latency,
          GC words allocated. *)
}

val default_config : addr -> config
(** Defaults, with the [RSJ_*] knobs read through
    {!Rsj_obs.Config}. *)

val run : config -> unit
(** Bind, listen and serve until shutdown. A stale Unix socket file
    left by a crashed daemon is unlinked before binding. Raises
    [Failure] on bind/listen errors. *)
