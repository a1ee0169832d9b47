(* Telemetry subsystem (the "Obs" of DESIGN.md §9): a span tracer over
   per-domain ring buffers with Chrome Trace Event export (Trace), a
   counter/gauge/histogram registry with Prometheus text and JSON
   exporters (Registry), the one clock module in the tree (Clock),
   the master switch every hook branches on (enabled), and the one
   reader of the RSJ_* knobs (Config). Zero external dependencies.
   Consumers alias this as [module Obs = Rsj_obs]. *)

module Json = Json
module Clock = Clock
module Registry = Registry
module Trace = Trace
module Context = Context
module Reqlog = Reqlog
module Runtime = Runtime
module Config = Config

let enabled = Control.enabled
let set_enabled = Control.set_enabled
