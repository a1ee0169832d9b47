(* Named counters, gauges and log-bucketed histograms.

   Metric handles are created (and memoized) under one mutex; the hot
   operations — incr/add/set/observe — are lock-free atomics so any
   domain may bump any metric concurrently. A metric is keyed by
   (name, sorted labels); family metadata (help text, type) is keyed by
   name alone, Prometheus-style.

   Histograms use one shared exponential bucket ladder (powers of two
   from 1 µs), sized for the quantities this runtime observes: pool
   wake latencies, chunk service times, whole-strategy runs. Quantiles
   are read back as the upper bound of the bucket where the cumulative
   count crosses the target — a factor-of-2 estimate, which is all a
   p50/p99 over a perf trajectory needs. *)

type labels = (string * string) list

(* Lock-free float accumulator: CAS on the boxed value (physical
   equality of the box makes the compare exact). *)
let atomic_add_float cell x =
  let rec go () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. x)) then go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Buckets                                                             *)

let default_buckets = Array.init 30 (fun i -> 1e-6 *. (2. ** float_of_int i))

let bucket_index buckets v =
  let n = Array.length buckets in
  let rec go i = if i >= n then n else if v <= buckets.(i) then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  buckets : float array;  (* upper bounds; counts has one extra +Inf slot *)
  counts : int Atomic.t array;
  sum : float Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type family = { help : string; kind : string }

let lock = Mutex.create ()
let metrics : (string * labels, metric) Hashtbl.t = Hashtbl.create 64
let families : (string, family) Hashtbl.t = Hashtbl.create 64
let registration_order : (string * labels) list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let canonical labels = List.sort compare labels

let register ~kind ~help name labels make =
  let labels = canonical labels in
  let key = (name, labels) in
  with_lock (fun () ->
      (match Hashtbl.find_opt families name with
      | Some fam ->
          if fam.kind <> kind then
            invalid_arg
              (Printf.sprintf "Obs.Registry: %s already registered as a %s" name fam.kind)
      | None -> Hashtbl.replace families name { help; kind });
      match Hashtbl.find_opt metrics key with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace metrics key m;
          registration_order := key :: !registration_order;
          m)

let counter ?(help = "") ?(labels = []) name =
  match register ~kind:"counter" ~help name labels (fun () -> Counter (Atomic.make 0)) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Obs.Registry: %s is not a counter" name)

let gauge ?(help = "") ?(labels = []) name =
  match register ~kind:"gauge" ~help name labels (fun () -> Gauge (Atomic.make 0.)) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Obs.Registry: %s is not a gauge" name)

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  let make () =
    Histogram
      {
        buckets;
        counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
        sum = Atomic.make 0.;
      }
  in
  match register ~kind:"histogram" ~help name labels make with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Obs.Registry: %s is not a histogram" name)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c
let set_gauge g v = Atomic.set g v

let observe h v =
  Atomic.incr h.counts.(bucket_index h.buckets v);
  atomic_add_float h.sum v

let observed_count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts
let observed_sum h = Atomic.get h.sum

let quantile h q =
  let total = observed_count h in
  if total = 0 then nan
  else begin
    let target = Float.max 1. (Float.of_int total *. q) in
    let n = Array.length h.counts in
    let rec go i cum =
      if i >= n then h.buckets.(Array.length h.buckets - 1)
      else begin
        let cum = cum + Atomic.get h.counts.(i) in
        if float_of_int cum >= target then
          if i < Array.length h.buckets then h.buckets.(i)
          else h.buckets.(Array.length h.buckets - 1)
        else go (i + 1) cum
      end
    in
    go 0 0
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

(* Registration-order snapshot grouped by family name, families in
   name order so exports are stable across runs. *)
let snapshot () =
  with_lock (fun () ->
      let keys = List.rev !registration_order in
      let by_name = Hashtbl.create 16 in
      List.iter
        (fun (name, labels) ->
          let row = ((name, labels), Hashtbl.find metrics (name, labels)) in
          let rows = try Hashtbl.find by_name name with Not_found -> [] in
          Hashtbl.replace by_name name (row :: rows))
        keys;
      let names = List.sort_uniq compare (List.map fst keys) in
      List.map
        (fun name -> (name, Hashtbl.find families name, List.rev (Hashtbl.find by_name name)))
        names)

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      ^ "}"

let float_repr f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else Printf.sprintf "%.9g" f

let to_prometheus ?(only = fun _ -> true) () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, fam, rows) ->
      if only name then begin
        if fam.help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name fam.help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name fam.kind);
        List.iter
          (fun ((_, labels), metric) ->
            match metric with
            | Counter c ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %d\n" name (render_labels labels) (Atomic.get c))
            | Gauge g ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" name (render_labels labels)
                     (float_repr (Atomic.get g)))
            | Histogram h ->
                let cum = ref 0 in
                Array.iteri
                  (fun i count ->
                    cum := !cum + Atomic.get count;
                    let le =
                      if i < Array.length h.buckets then float_repr h.buckets.(i) else "+Inf"
                    in
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d\n" name
                         (render_labels (labels @ [ ("le", le) ]))
                         !cum))
                  h.counts;
                Buffer.add_string buf
                  (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
                     (float_repr (observed_sum h)));
                Buffer.add_string buf
                  (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) !cum))
          rows
      end)
    (snapshot ());
  Buffer.contents buf

let to_json ?(only = fun _ -> true) () =
  let series labels rest = ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)) :: rest in
  Json.Obj
    (List.filter_map
       (fun (name, fam, rows) ->
         if not (only name) then None
         else
           Some
             ( name,
               Json.Obj
                 [
                   ("type", Json.Str fam.kind);
                   ("help", Json.Str fam.help);
                   ( "series",
                     Json.List
                       (List.map
                          (fun ((_, labels), metric) ->
                            match metric with
                            | Counter c -> Json.Obj (series labels [ ("value", Json.Int (Atomic.get c)) ])
                            | Gauge g ->
                                Json.Obj (series labels [ ("value", Json.Float (Atomic.get g)) ])
                            | Histogram h ->
                                Json.Obj
                                  (series labels
                                     [
                                       ( "buckets",
                                         Json.List
                                           (Array.to_list (Array.map (fun b -> Json.Float b) h.buckets))
                                       );
                                       ( "counts",
                                         Json.List
                                           (Array.to_list
                                              (Array.map (fun c -> Json.Int (Atomic.get c)) h.counts))
                                       );
                                       ("sum", Json.Float (observed_sum h));
                                       ("count", Json.Int (observed_count h));
                                       ("p50", Json.Float (quantile h 0.5));
                                       ("p99", Json.Float (quantile h 0.99));
                                     ]))
                          rows) );
                 ] ))
       (snapshot ()))

(* ------------------------------------------------------------------ *)
(* Bridging                                                            *)

let absorb_assoc ?(prefix = "") assoc =
  List.iter (fun (k, v) -> add (counter (prefix ^ k)) v) assoc
