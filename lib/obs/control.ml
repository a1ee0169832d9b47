(* The master telemetry switch.

   One atomic bool read per instrumentation hook: with telemetry off,
   every hook in the runtime reduces to a single branch on this flag —
   no clock read, no allocation, no registry lookup. Spans and timed
   histogram observations are gated here; the always-on counters (the
   pool's spawn accounting) bypass the flag because they are plain
   atomic increments and pre-date the subsystem as public API. *)

let flag = Atomic.make (Config.trace () <> None)
let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b
