(** Every [RSJ_*] knob of the library and the CLI, read in one place.

    One parse rule for every knob: unset or empty (after trimming)
    gives the default; a malformed or out-of-range value raises
    [Invalid_argument] whose message names the knob and its accepted
    range. Accessors read the environment on each call; latching a
    value is the caller's business. [rsj config] prints {!effective}
    (defaults and docs included); the daemon's [stats] RPC carries the
    same triples. *)

val trace : unit -> string option
(** [RSJ_TRACE]: [None] when off (unset or ["0"]), ["trace.json"] for
    ["1"], otherwise the value as a path. *)

val log_path : unit -> string option  (* RSJ_LOG; None = no request log. *)
val slow_ms : unit -> float  (* RSJ_SLOW_MS *)
val drain_linger_ms : unit -> float  (* RSJ_SERVE_DRAIN_LINGER_MS *)
val serve_bias : unit -> bool  (* RSJ_SERVE_BIAS *)
val cache_bytes : unit -> int option  (* RSJ_CACHE_BYTES; None = unbounded. *)
val quality_window : unit -> int  (* RSJ_QUALITY_WINDOW *)
val quality_alpha : unit -> float  (* RSJ_QUALITY_ALPHA *)
val conf_trials : unit -> int  (* RSJ_CONF_TRIALS *)

val reps : ?default:int -> unit -> int
(** [RSJ_REPS]; [default] (1 unless given) applies when it is unset. *)

val n1 : unit -> int  (* RSJ_N1 *)
val n2 : unit -> int  (* RSJ_N2 *)
val domain : unit -> int  (* RSJ_DOMAIN *)
val scale : unit -> int  (* RSJ_SCALE *)
val seed : unit -> int  (* RSJ_SEED *)

type source = Env | Default
type entry = { name : string; value : string; source : source; doc : string }

val source_to_string : source -> string

val effective : unit -> entry list
(** One entry per knob, in declaration order, with its effective value
    as text. Raises like the accessors. *)

val check : unit -> unit
(** Reads every knob; raises [Invalid_argument] on the first malformed
    one. *)
