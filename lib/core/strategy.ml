open Rsj_relation
open Rsj_exec
module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Hash_index = Rsj_index.Hash_index

type t =
  | Naive
  | Olken
  | Stream
  | Group
  | Frequency_partition
  | Index_sample
  | Count_sample
  | Hybrid_count

let all =
  [ Naive; Olken; Stream; Group; Frequency_partition; Index_sample; Count_sample; Hybrid_count ]

let name = function
  | Naive -> "Naive-Sample"
  | Olken -> "Olken-Sample"
  | Stream -> "Stream-Sample"
  | Group -> "Group-Sample"
  | Frequency_partition -> "Frequency-Partition-Sample"
  | Index_sample -> "Index-Sample"
  | Count_sample -> "Count-Sample"
  | Hybrid_count -> "Hybrid-Count-Sample"

let of_name s =
  let norm =
    String.lowercase_ascii s |> String.map (function '-' | '_' | ' ' -> '-' | c -> c)
  in
  let strip_sample x =
    if Filename.check_suffix x "-sample" then Filename.chop_suffix x "-sample" else x
  in
  match strip_sample norm with
  | "naive" -> Some Naive
  | "olken" -> Some Olken
  | "stream" -> Some Stream
  | "group" -> Some Group
  | "frequency-partition" | "fps" -> Some Frequency_partition
  | "index" -> Some Index_sample
  | "count" -> Some Count_sample
  | "hybrid-count" -> Some Hybrid_count
  | _ -> None

type requirement = Nothing | Index | Index_or_stats | Statistics | Partial_statistics

(* Table 1 of the paper, extended with the §6.4 variants. *)
let r1_requirement = function
  | Naive | Stream | Group | Frequency_partition | Index_sample | Count_sample | Hybrid_count ->
      Nothing
  | Olken -> Index

let r2_requirement = function
  | Naive -> Nothing
  | Olken -> Index_or_stats
  | Stream -> Index_or_stats
  | Group -> Statistics
  | Frequency_partition -> Partial_statistics
  | Index_sample -> Partial_statistics  (* plus an index on the hi part *)
  | Count_sample -> Statistics
  | Hybrid_count -> Partial_statistics

let requirement_to_string = function
  | Nothing -> "-"
  | Index -> "Index"
  | Index_or_stats -> "Index/Stats."
  | Statistics -> "Statistics"
  | Partial_statistics -> "Partial Stats."

let table1 () =
  List.map
    (fun s ->
      (name s, requirement_to_string (r1_requirement s), requirement_to_string (r2_requirement s)))
    all

(* ------------------------------------------------------------------ *)
(* Catalog availability: which auxiliary structures exist              *)

type availability = {
  left_index : bool;
  right_index : bool;
  right_stats : bool;
  right_histogram : bool;
}

let all_available =
  { left_index = true; right_index = true; right_stats = true; right_histogram = true }

let nothing_available =
  { left_index = false; right_index = false; right_stats = false; right_histogram = false }

(* Structure names are stable identifiers: error messages, decision
   traces and the negative tests all match on them. *)
let missing_r1 avail = function
  | Nothing -> None
  | Index -> if avail.left_index then None else Some "index(R1)"
  (* Table 1 never asks for R1 statistics, but the requirement type is
     shared; name the structure anyway so a future strategy fails
     loudly rather than silently passing. *)
  | Index_or_stats -> if avail.left_index then None else Some "index(R1) or statistics(R1)"
  | Statistics -> Some "statistics(R1)"
  | Partial_statistics -> Some "end-biased histogram(R1)"

let missing_r2 avail = function
  | Nothing -> None
  | Index -> if avail.right_index then None else Some "index(R2)"
  | Index_or_stats ->
      if avail.right_index || avail.right_stats then None
      else Some "index(R2) or statistics(R2)"
  | Statistics -> if avail.right_stats then None else Some "statistics(R2)"
  | Partial_statistics ->
      if avail.right_histogram then None else Some "end-biased histogram(R2)"

let missing_structures avail strategy =
  let base =
    List.filter_map
      (fun x -> x)
      [ missing_r1 avail (r1_requirement strategy); missing_r2 avail (r2_requirement strategy) ]
  in
  (* Index-Sample additionally random-accesses the hi part of R2
     (Table 1's "plus an index" footnote). *)
  match strategy with
  | Index_sample when not avail.right_index -> base @ [ "index(R2hi)" ]
  | _ -> base

type env = {
  rng : Rsj_util.Prng.t;
  left : Relation.t;
  right : Relation.t;
  left_key : int;
  right_key : int;
  histogram_fraction : float;
  right_stats : Frequency.t Lazy.t;
  left_stats : Frequency.t Lazy.t;
  right_index : Hash_index.t Lazy.t;
  histogram : Histogram.End_biased.t Lazy.t;
  walker : Chain_sample.t Lazy.t;
}

(* Injection point for memoized auxiliary structures: a warm cache
   (Rsj_cache.Structure_cache, which sits above this library) supplies
   thunks instead of letting the env build privately. Thunks — not
   values — so nothing is built until a strategy actually forces it,
   exactly like the private lazies they replace. *)
type prebuilt = {
  p_left_stats : (unit -> Frequency.t) option;
  p_right_stats : (unit -> Frequency.t) option;
  p_right_index : (unit -> Hash_index.t) option;
  p_histogram : (unit -> Histogram.End_biased.t) option;
  p_walker : (unit -> Chain_sample.t) option;
}

let no_prebuilt =
  {
    p_left_stats = None;
    p_right_stats = None;
    p_right_index = None;
    p_histogram = None;
    p_walker = None;
  }

let make_env ?(seed = 0x5EED) ?(histogram_fraction = 0.05) ?(structures = no_prebuilt) ~left
    ~right ~left_key ~right_key () =
  let via thunk fallback =
    match thunk with Some f -> lazy (f ()) | None -> Lazy.from_fun fallback
  in
  let right_stats =
    via structures.p_right_stats (fun () -> Frequency.of_relation right ~key:right_key)
  in
  let right_index =
    via structures.p_right_index (fun () -> Hash_index.build right ~key:right_key)
  in
  {
    rng = Rsj_util.Prng.create ~seed ();
    left;
    right;
    left_key;
    right_key;
    histogram_fraction;
    right_stats;
    left_stats =
      via structures.p_left_stats (fun () -> Frequency.of_relation left ~key:left_key);
    right_index;
    histogram =
      via structures.p_histogram (fun () ->
          Histogram.End_biased.build_fraction (Lazy.force right_stats)
            ~fraction:histogram_fraction);
    walker =
      via structures.p_walker (fun () ->
          Chain_sample.prepare ~index:(Lazy.force right_index)
            { relations = [| left; right |]; join_keys = [| (left_key, right_key) |] });
  }

let env_left env = env.left
let env_right env = env.right
let env_left_key env = env.left_key
let env_right_key env = env.right_key
let env_rng env = env.rng
let env_left_stats env = Lazy.force env.left_stats
let env_right_stats env = Lazy.force env.right_stats
let env_right_index env = Lazy.force env.right_index
let env_histogram env = Lazy.force env.histogram
let env_join_size env = Frequency.join_size (Lazy.force env.left_stats) (Lazy.force env.right_stats)
let env_left_key_view env = Column.int_view env.left ~col:env.left_key
let env_right_key_view env = Column.int_view env.right ~col:env.right_key
let env_walker env = Lazy.force env.walker

type result = {
  strategy : t;
  sample : Tuple.t array;
  metrics : Metrics.t;
  elapsed_seconds : float;
}

let now () = Rsj_obs.Clock.now_s ()

(* One paper kernel per strategy: this is the sequential reference.
   The compact data plane (flat int key columns) lives in the chunked
   runners of the parallel runtime. *)
let dispatch env strategy rng metrics ~r =
  (* Strategies treat their R1 input as an opaque stream; the scan is
     counted here so pipelined inputs (whose own operators already
     count) are never double-counted. *)
  let left () =
    Stream0.on_element
      (fun _ -> metrics.Metrics.tuples_scanned <- metrics.Metrics.tuples_scanned + 1)
      (Relation.to_stream env.left)
  in
  match strategy with
  | Naive ->
      Naive_sample.sample rng ~metrics ~r ~left:(left ()) ~right:env.right
        ~left_key:env.left_key ~right_key:env.right_key
  | Olken ->
      Olken_sample.sample rng ~metrics ~r ~left:env.left ~left_key:env.left_key
        ~right_index:(Lazy.force env.right_index) ()
  | Stream ->
      Stream_sample.sample rng ~metrics ~r ~left:(left ()) ~left_key:env.left_key
        ~right_index:(Lazy.force env.right_index)
        ~right_stats:(Lazy.force env.right_stats) ()
  | Group ->
      Group_sample.sample rng ~metrics ~r ~left:(left ()) ~left_key:env.left_key
        ~right:env.right ~right_key:env.right_key
        ~right_stats:(Lazy.force env.right_stats)
  | Frequency_partition ->
      fst
        (Frequency_partition.sample rng ~metrics ~r ~left:(left ()) ~left_key:env.left_key
           ~right:env.right ~right_key:env.right_key ~histogram:(Lazy.force env.histogram))
  | Index_sample ->
      fst
        (Index_sample.sample rng ~metrics ~r ~left:(left ()) ~left_key:env.left_key
           ~right_index:(Lazy.force env.right_index) ~histogram:(Lazy.force env.histogram))
  | Count_sample ->
      Count_sample.sample rng ~metrics ~r ~left:(left ()) ~left_key:env.left_key
        ~right:env.right ~right_key:env.right_key
        ~right_stats:(Lazy.force env.right_stats)
  | Hybrid_count ->
      fst
        (Hybrid_count.sample rng ~metrics ~r ~left:(left ()) ~left_key:env.left_key
           ~right:env.right ~right_key:env.right_key ~histogram:(Lazy.force env.histogram))

let prepare env strategy =
  (* Force auxiliary structures the strategy is entitled to before the
     clock starts (the paper's indexes/statistics pre-exist). *)
  (match r2_requirement strategy with
  | Nothing -> ()
  | Index -> ignore (Lazy.force env.right_index)
  | Index_or_stats ->
      ignore (Lazy.force env.right_index);
      ignore (Lazy.force env.right_stats)
  | Statistics -> ignore (Lazy.force env.right_stats)
  | Partial_statistics -> ignore (Lazy.force env.histogram));
  match strategy with
  | Index_sample -> ignore (Lazy.force env.right_index)
  | Naive | Olken | Stream | Group | Frequency_partition | Count_sample | Hybrid_count -> ()

let run env strategy ~r =
  prepare env strategy;
  let rng = Rsj_util.Prng.split env.rng in
  let metrics = Metrics.create () in
  let t0 = now () in
  let sample = dispatch env strategy rng metrics ~r in
  let elapsed_seconds = now () -. t0 in
  { strategy; sample; metrics; elapsed_seconds }

exception Wor_shortfall of { caller : string; target : int; distinct : int }

let () =
  Printexc.register_printer (function
    | Wor_shortfall { caller; _ } ->
        Some (caller ^ ": failed to accumulate distinct samples (very small join?)")
    | _ -> None)

(* The §3 WR-to-WoR driver (observation 1): pull WR batches from
   [next] — each with the generator its dedupe pass shuffles with —
   and keep the first occurrence of every distinct element until
   [target] have accumulated; returns them in acceptance order.
   Distinct means [equal], not an equal hash, so colliding elements are
   never merged. *)
let wor_batches (type a) ~equal ~hash ~caller ~target next =
  let module Seen = Hashtbl.Make (struct
    type t = a

    let equal = equal
    let hash = hash
  end) in
  let collected = Seen.create (2 * max 1 target) in
  let out = ref [] in
  let count = ref 0 in
  (* Batch size r keeps the expected number of rounds small. *)
  let rounds = ref 0 in
  while !count < target && !rounds < 64 do
    incr rounds;
    let dedup_rng, batch = next () in
    Array.iter
      (fun x ->
        if not (Seen.mem collected x) then begin
          Seen.replace collected x ();
          out := x :: !out;
          incr count
        end)
      (Convert.wr_to_wor dedup_rng ~equal ~hash ~r:(target - !count) batch)
  done;
  if !count < target then raise (Wor_shortfall { caller; target; distinct = !count });
  List.rev !out

let run_wor env strategy ~r =
  let target = min r (env_join_size env) in
  let rng = Rsj_util.Prng.split env.rng in
  let metrics = Metrics.create () in
  let t0 = now () in
  let accepted =
    wor_batches ~equal:Tuple.equal ~hash:Tuple.hash ~caller:"Strategy.run_wor" ~target (fun () ->
        let batch_rng = Rsj_util.Prng.split rng in
        let batch = dispatch env strategy batch_rng metrics ~r in
        (batch_rng, batch))
  in
  (* Newest first: the order this entry point has always returned. *)
  let sample = Array.of_list (List.rev accepted) in
  let elapsed_seconds = now () -. t0 in
  { strategy; sample; metrics; elapsed_seconds }
