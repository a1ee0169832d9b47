(* The one reader of the process environment (@config-hygiene). Each
   RSJ_* knob is declared once below — name, default, accepted range,
   doc — and read through a typed accessor, under one parse rule:
   unset or empty gives the default, anything else must parse and lie
   in range or the accessor raises [Invalid_argument] naming the knob
   and the range. Accessors read the environment on every call; the
   callers that latch a value (the telemetry switch at start-up, the
   shared cache's budget on first use) keep doing so. *)

type 'a knob = {
  name : string;
  default : 'a;
  range : string;
  show : 'a -> string;
  parse : string -> 'a option;
  doc : string;
}

let knob name default ~range ~show ~parse doc = { name; default; range; show; parse; doc }

let raw k =
  match Sys.getenv_opt k.name with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | _ -> None

let get k =
  match raw k with
  | None -> k.default
  | Some s -> (
      match k.parse s with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "%s=%S: expected %s" k.name s k.range))

let only ok v = if ok v then Some v else None

let positive_int s = Option.bind (int_of_string_opt s) (only (fun v -> v > 0))

let positive name default doc =
  knob name default doc ~range:"a positive integer" ~show:string_of_int ~parse:positive_int

let number name default ~range ~ok doc =
  knob name default doc ~range ~show:(Printf.sprintf "%g") ~parse:(fun s ->
      Option.bind (float_of_string_opt s) (only ok))

let milliseconds name default doc =
  number name default doc ~range:"a non-negative number" ~ok:(fun v ->
      v >= 0. && Float.is_finite v)

let path name ~range ~parse doc =
  knob name None doc ~range ~parse ~show:(Option.value ~default:"off")

(* ------------------------------------------------------------------ *)
(* The knobs                                                           *)

let k_trace =
  path "RSJ_TRACE" ~range:"0, 1 or a file path"
    ~parse:(function "0" -> Some None | "1" -> Some (Some "trace.json") | p -> Some (Some p))
    "record spans; write Chrome Trace JSON to this path on exit (1 = trace.json)"

let k_log =
  path "RSJ_LOG" ~range:"a file path" ~parse:(fun p -> Some (Some p))
    "daemon NDJSON request log, one line per served request"

let k_slow_ms = milliseconds "RSJ_SLOW_MS" 100. "slow-request exemplar threshold, ms"

let k_drain_linger_ms =
  milliseconds "RSJ_SERVE_DRAIN_LINGER_MS" 0.
    "keep the daemon loop alive this long after SIGTERM so probes see the 503, ms"

let k_serve_bias =
  knob "RSJ_SERVE_BIAS" false ~range:"0 or 1"
    ~show:(fun b -> if b then "1" else "0")
    ~parse:(function "0" -> Some false | "1" -> Some true | _ -> None)
    "serve deliberately biased WR draws (the quality monitor's live drill)"

let k_cache_bytes =
  knob "RSJ_CACHE_BYTES" None ~range:"a positive integer (bytes)"
    ~show:(Option.fold ~none:"unbounded" ~some:string_of_int)
    ~parse:(fun s -> Option.map Option.some (positive_int s))
    "byte budget of the shared structure cache (latched on first use)"

let k_quality_window = positive "RSJ_QUALITY_WINDOW" 512 "draws per online quality-test window"

let k_quality_alpha =
  number "RSJ_QUALITY_ALPHA" 0.01 ~range:"a number in (0, 1)" ~ok:(fun v -> v > 0. && v < 1.)
    "lifetime false-alert budget per quality stream"

let k_conf_trials = positive "RSJ_CONF_TRIALS" 60 "samples pooled per conformance cell"
let k_reps = positive "RSJ_REPS" 1 "median-of-k wall-clock repetitions of the paper harness"
let k_n1 = positive "RSJ_N1" 3_000 "outer relation size of the paper harness"
let k_n2 = positive "RSJ_N2" 12_000 "inner relation size of the paper harness"
let k_domain = positive "RSJ_DOMAIN" 600 "distinct join values of the paper harness"
let k_scale = positive "RSJ_SCALE" 1 "multiplies the harness n1 and n2"
let k_seed = positive "RSJ_SEED" 0x5EED "workload seed of the paper harness"

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let trace () = get k_trace
let log_path () = get k_log
let slow_ms () = get k_slow_ms
let drain_linger_ms () = get k_drain_linger_ms
let serve_bias () = get k_serve_bias
let cache_bytes () = get k_cache_bytes
let quality_window () = get k_quality_window
let quality_alpha () = get k_quality_alpha
let conf_trials () = get k_conf_trials
let reps ?(default = k_reps.default) () = get { k_reps with default }
let n1 () = get k_n1
let n2 () = get k_n2
let domain () = get k_domain
let scale () = get k_scale
let seed () = get k_seed

type source = Env | Default
type entry = { name : string; value : string; source : source; doc : string }
type any = Knob : 'a knob -> any

let all =
  [
    Knob k_trace; Knob k_log; Knob k_slow_ms; Knob k_drain_linger_ms; Knob k_serve_bias;
    Knob k_cache_bytes; Knob k_quality_window; Knob k_quality_alpha; Knob k_conf_trials;
    Knob k_reps; Knob k_n1; Knob k_n2; Knob k_domain; Knob k_scale; Knob k_seed;
  ]

let source_to_string = function Env -> "env" | Default -> "default"

let effective () =
  List.map
    (fun (Knob k) ->
      let source = if raw k = None then Default else Env in
      { name = k.name; value = k.show (get k); source; doc = k.doc })
    all

let check () = List.iter (fun (Knob k) -> ignore (get k)) all
