(** Master telemetry switch (see {!Rsj_obs.enabled}). *)

val enabled : unit -> bool
(** One atomic read; the only cost every instrumentation hook pays when
    telemetry is off. Initialised from [RSJ_TRACE] ({!Config.trace}). *)

val set_enabled : bool -> unit
