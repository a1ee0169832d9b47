(** Online statistical-quality monitor for the serving path.

    Streams served join-attribute values into per-stream window
    counters and tests each full window against the expected marginal
    P(A = v) = m1(v) m2(v) / |J| derived from the cached frequency
    tables. One stream per (inputs, join columns, strategy, semantics).
    A window's p-value is a two-sided Chernoff bound per pooled cell
    (cells pooled to [min_expected] as for a chi-square), Bonferroni-
    corrected over the cells: unlike the asymptotic chi-square tail it
    stays valid at the tiny spent thresholds below. Alerts latch; the
    lifetime false-alert budget per stream is bounded by
    [significance] via alpha spending (window k tested at
    significance / (k (k+1))). Draws outside the join support alert
    immediately.

    Exports [rsj_quality_pvalue{stream}] /
    [rsj_quality_stream_alert{stream}] gauges plus the aggregate
    [rsj_quality_alert]. *)

open Rsj_relation

type t
type law

val create : ?window:int -> ?significance:float -> ?min_expected:float -> unit -> t
(** Defaults: window from RSJ_QUALITY_WINDOW (512 draws), significance
    from RSJ_QUALITY_ALPHA (0.01), both read through {!Rsj_obs.Config};
    min_expected 5.0. *)

val law_of_frequencies :
  left:Rsj_stats.Frequency.t -> right:Rsj_stats.Frequency.t -> law option
(** The WR join-value marginal from the two frequency tables; [None]
    when the join is empty (nothing to monitor). *)

val probability : law -> Value.t -> float
(** P(A = v) = m1(v) m2(v) / |J|, the law {!observe} tests each window
    against; [0.] outside the join support. *)

val observe : t -> key:string -> law:law -> Value.t array -> unit
(** Fold one served sample's join-attribute values into stream [key],
    closing and testing windows as they fill. *)

val observe_join :
  t ->
  frequency:(Relation.t -> key:int -> Rsj_stats.Frequency.t) ->
  left:Relation.t ->
  right:Relation.t ->
  left_key:int ->
  right_key:int ->
  stream:string ->
  int array ->
  unit
(** Fold a two-table join sample into stream
    ["<left fp>.<left key>-<right fp>.<right key>/<stream>"], given as
    each drawn tuple's join key ({!Column.key} of its left join
    attribute): a caller holding positions reads them off the key view,
    and builds no tuple. The law comes from [frequency] once per inputs
    and join columns and is memoized in [t]. *)

val any_alert : t -> bool

type stream_stats = {
  st_key : string;
  st_seen : int;
  st_foreign : int;
  st_windows : int;
  st_last_p : float;  (** nan before the first completed window *)
  st_alert : bool;
}

val stats : t -> stream_stats list
(** Sorted by stream key. *)
