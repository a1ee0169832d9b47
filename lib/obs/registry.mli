(** Named counters, gauges and log-bucketed histograms with Prometheus
    and JSON exporters.

    Handle creation is memoized under a mutex; the hot operations
    ({!incr}, {!add}, {!set_gauge}, {!observe}) are lock-free atomics,
    so metrics may be bumped from any domain concurrently. A metric is
    keyed by (name, sorted labels); help text and type are per-name
    (the Prometheus family model), and re-registering a name with a
    different type raises [Invalid_argument]. *)

type labels = (string * string) list
type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:labels -> string -> counter
(** Get-or-create. The same (name, labels) always returns the same
    cell. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : ?help:string -> ?labels:labels -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : ?help:string -> ?labels:labels -> ?buckets:float array -> string -> histogram
(** [buckets] are the upper bounds; the default is the shared
    exponential ladder: 30 bounds, powers of two from 1 µs (1e-6) to
    ~537 s — sized for pool wake latencies up through whole-strategy
    runs, in seconds. *)

val observe : histogram -> float -> unit
(** Counts [v] in the first bucket whose bound reaches it
    ([v <= bound]), or in the +Inf slot past every bound. *)

val observed_count : histogram -> int

val quantile : histogram -> float -> float
(** Upper bound of the bucket where the cumulative count crosses
    [q × count] — a factor-of-2 estimate by construction. [nan] when
    nothing was observed. *)

val to_prometheus : ?only:(string -> bool) -> unit -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] per family, then one
    line per series; histograms as cumulative [_bucket{le=...}] plus
    [_sum]/[_count]. [only] filters family names. *)

val to_json : ?only:(string -> bool) -> unit -> Json.t
(** Same data as JSON, with per-histogram p50/p99 included. *)

val absorb_assoc : ?prefix:string -> (string * int) list -> unit
(** Add each [(name, v)] into the counter [prefix ^ name] — the bridge
    that folds a {!Rsj_exec.Metrics} record ([Metrics.to_assoc]) into
    the registry after a run. *)
