open Rsj_relation
module Obs = Rsj_obs
module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Hash_index = Rsj_index.Hash_index

(* What is stored. The histogram kind carries the threshold fraction
   (as its IEEE bits, so the key stays an immediate) — distinct
   fractions are distinct structures. The chain kind carries the
   member uids and the flattened join-key pairs (structural
   equality/hash apply), keyed under the root relation's
   uid; its entry fingerprint mixes every member's fingerprint, so a
   mutation of ANY member relation invalidates the chain. *)
type kind =
  | K_hash_index of int  (* key column *)
  | K_frequency of int
  | K_histogram of int * int  (* key column, fraction bits *)
  | K_int_view of int
  | K_chain of int array * int array  (* member uids, join keys *)

let kind_name = function
  | K_hash_index _ -> "hash_index"
  | K_frequency _ -> "frequency"
  | K_histogram _ -> "histogram"
  | K_int_view _ -> "int_view"
  | K_chain _ -> "chain"

type packed =
  | P_hash_index of Hash_index.t
  | P_frequency of Frequency.t
  | P_histogram of Histogram.End_biased.t
  | P_int_view of int array
  | P_chain of Rsj_core.Chain_sample.t

type entry = {
  fp : int;  (* Relation.fingerprint at build time *)
  bytes : int;
  value : packed;
  mutable tick : int;  (* LRU clock at last touch *)
}

type t = {
  budget : int option;
  table : (int * kind, entry) Hashtbl.t;  (* key: relation uid × kind *)
  kind_counts : (string, int ref * int ref) Hashtbl.t;  (* kind -> hits, misses *)
  mutable clock : int;
  mutable total_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  lock : Mutex.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
  by_kind : (string * (int * int)) list;
}

(* ------------------------------------------------------------------ *)
(* Registry metrics: one counter family per event, labelled by kind,
   plus footprint gauges and a build-time histogram. Handles are
   memoized by the registry itself; we memoize locally too so the hot
   path is a single atomic bump. *)

let metric_cache : (string * string, Obs.Registry.counter) Hashtbl.t = Hashtbl.create 16
let metric_lock = Mutex.create ()

let counter_for family kind =
  Mutex.lock metric_lock;
  let c =
    match Hashtbl.find_opt metric_cache (family, kind) with
    | Some c -> c
    | None ->
        let help =
          match family with
          | "rsj_structure_cache_hits_total" -> "Structure-cache lookups served warm."
          | "rsj_structure_cache_misses_total" -> "Structure-cache lookups that had to build."
          | "rsj_structure_cache_evictions_total" ->
              "Entries dropped by the LRU byte-budget."
          | _ -> "Entries dropped because their relation mutated or was invalidated."
        in
        let c = Obs.Registry.counter ~help ~labels:[ ("kind", kind) ] family in
        Hashtbl.replace metric_cache (family, kind) c;
        c
  in
  Mutex.unlock metric_lock;
  c

let build_seconds kind =
  Obs.Registry.histogram ~help:"Wall-clock seconds spent building cacheable structures."
    ~labels:[ ("kind", kind) ] "rsj_structure_cache_build_seconds"

let bytes_gauge = lazy (Obs.Registry.gauge ~help:"Structure-cache live footprint." "rsj_structure_cache_bytes")
let entries_gauge =
  lazy (Obs.Registry.gauge ~help:"Structure-cache live entries." "rsj_structure_cache_entries")

let publish_footprint t =
  Obs.Registry.set_gauge (Lazy.force bytes_gauge) (float_of_int t.total_bytes);
  Obs.Registry.set_gauge (Lazy.force entries_gauge) (float_of_int (Hashtbl.length t.table))

(* ------------------------------------------------------------------ *)

let create ?max_bytes () =
  let budget = match max_bytes with Some b when b > 0 -> Some b | _ -> None in
  {
    budget;
    table = Hashtbl.create 64;
    kind_counts = Hashtbl.create 8;
    clock = 0;
    total_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    lock = Mutex.create ();
  }

let shared_cell = lazy (create ?max_bytes:(Obs.Config.cache_bytes ()) ())

let shared () = Lazy.force shared_cell
let max_bytes t = t.budget

(* Per-kind hit/miss split for [stats], under [t.lock]. *)
let bump_kind t kind_s ~hit =
  let h, m =
    match Hashtbl.find_opt t.kind_counts kind_s with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.replace t.kind_counts kind_s cell;
        cell
  in
  if hit then incr h else incr m

(* Measured footprint of [v], excluding everything reachable from
   [base] (the relation(s), which the cache does not own): words
   reachable from the pair minus words reachable from the base alone,
   minus the pair block itself. *)
let bytes_excluding ~base v =
  let together = Obj.reachable_words (Obj.repr (v, base)) in
  let base_only = Obj.reachable_words (Obj.repr base) in
  max 0 (together - base_only - 3) * (Sys.word_size / 8)

let touch t (entry : entry) =
  t.clock <- t.clock + 1;
  entry.tick <- t.clock

let remove_entry t key (entry : entry) ~family =
  Hashtbl.remove t.table key;
  t.total_bytes <- t.total_bytes - entry.bytes;
  let kind = kind_name (snd key) in
  (match family with
  | `Eviction ->
      t.evictions <- t.evictions + 1;
      Obs.Registry.incr (counter_for "rsj_structure_cache_evictions_total" kind)
  | `Invalidation ->
      t.invalidations <- t.invalidations + 1;
      Obs.Registry.incr (counter_for "rsj_structure_cache_invalidations_total" kind))

(* Evict LRU entries until the budget holds. [keep] (the entry just
   inserted or served) is never the victim, so a single oversized
   structure still caches rather than thrashing. *)
let enforce_budget t ~keep =
  match t.budget with
  | None -> ()
  | Some budget ->
      while
        t.total_bytes > budget
        &&
        let victim =
          Hashtbl.fold
            (fun key (entry : entry) acc ->
              if entry == keep then acc
              else
                match acc with
                | Some (_, best) when best.tick <= entry.tick -> acc
                | _ -> Some (key, entry))
            t.table None
        in
        match victim with
        | Some (key, entry) ->
            remove_entry t key entry ~family:`Eviction;
            true
        | None -> false
      do
        ()
      done

(* [fp] defaults to the relation's own fingerprint; multi-relation
   structures (chains) pass a mix of every member's so a mutation of
   any member invalidates. [base] defaults to the relation; it is
   whatever the built structure references but the cache does not own
   (for chains, the whole member array). *)
let find t ?fp ?base rel kind ~build ~pack ~unpack =
  let key = (Relation.uid rel, kind) in
  let fp = match fp with Some f -> f | None -> Relation.fingerprint rel in
  let base = match base with Some b -> b | None -> Obj.repr rel in
  let kind_s = kind_name kind in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some entry when entry.fp = fp ->
      t.hits <- t.hits + 1;
      bump_kind t kind_s ~hit:true;
      Obs.Registry.incr (counter_for "rsj_structure_cache_hits_total" kind_s);
      touch t entry;
      Mutex.unlock t.lock;
      unpack entry.value
  | stale ->
      (* Stale (relation mutated since the build) or absent: drop the
         stale entry and build. The build runs outside the lock — a
         histogram build recursively consults the cache for its
         frequency table, and the mutex is not reentrant. A racing
         build of the same key is benign: the later insert wins and the
         earlier entry's bytes are released. *)
      (match stale with
      | Some entry -> remove_entry t key entry ~family:`Invalidation
      | None -> ());
      t.misses <- t.misses + 1;
      bump_kind t kind_s ~hit:false;
      Obs.Registry.incr (counter_for "rsj_structure_cache_misses_total" kind_s);
      Mutex.unlock t.lock;
      let t0 = Obs.Clock.now_s () in
      let v = build () in
      Obs.Registry.observe (build_seconds kind_s) (Obs.Clock.now_s () -. t0);
      let bytes = bytes_excluding ~base v in
      Mutex.lock t.lock;
      (match Hashtbl.find_opt t.table key with
      | Some racing -> t.total_bytes <- t.total_bytes - racing.bytes
      | None -> ());
      t.clock <- t.clock + 1;
      let entry = { fp; bytes; value = pack v; tick = t.clock } in
      Hashtbl.replace t.table key entry;
      t.total_bytes <- t.total_bytes + bytes;
      enforce_budget t ~keep:entry;
      publish_footprint t;
      Mutex.unlock t.lock;
      v

let hash_index t rel ~key =
  find t rel (K_hash_index key)
    ~build:(fun () -> Hash_index.build rel ~key)
    ~pack:(fun v -> P_hash_index v)
    ~unpack:(function P_hash_index v -> v | _ -> assert false)

let frequency t rel ~key =
  find t rel (K_frequency key)
    ~build:(fun () -> Frequency.of_relation rel ~key)
    ~pack:(fun v -> P_frequency v)
    ~unpack:(function P_frequency v -> v | _ -> assert false)

let histogram t rel ~key ~fraction =
  let bits = Int64.to_int (Int64.bits_of_float fraction) in
  find t rel
    (K_histogram (key, bits))
    ~build:(fun () ->
      Histogram.End_biased.build_fraction (frequency t rel ~key) ~fraction)
    ~pack:(fun v -> P_histogram v)
    ~unpack:(function P_histogram v -> v | _ -> assert false)

let int_view t rel ~col =
  find t rel (K_int_view col)
    ~build:(fun () -> Column.int_view rel ~col)
    ~pack:(fun v -> P_int_view v)
    ~unpack:(function P_int_view v -> v | _ -> assert false)

let chain t (spec : Rsj_core.Chain_sample.spec) =
  let k = Array.length spec.relations in
  if k = 0 then invalid_arg "Structure_cache.chain: empty chain";
  let uids = Array.map Relation.uid spec.relations in
  let keys = Array.make (max 1 (2 * (k - 1))) 0 in
  Array.iteri
    (fun i (a, b) ->
      keys.(2 * i) <- a;
      keys.((2 * i) + 1) <- b)
    spec.join_keys;
  (* The entry lives under the root's uid; the fingerprint mixes every
     member's, so mutating ANY member relation invalidates on the next
     lookup. *)
  let fp =
    Array.fold_left
      (fun acc rel -> (acc * 0x9E3779B1) lxor Relation.fingerprint rel)
      0 spec.relations
  in
  find t ~fp ~base:(Obj.repr spec.relations) spec.relations.(0)
    (K_chain (uids, keys))
    ~build:(fun () -> Rsj_core.Chain_sample.prepare spec)
    ~pack:(fun v -> P_chain v)
    ~unpack:(function P_chain v -> v | _ -> assert false)

let env t ?seed ?(histogram_fraction = 0.05) ~left ~right ~left_key ~right_key () =
  let structures =
    {
      Rsj_core.Strategy.p_left_stats = Some (fun () -> frequency t left ~key:left_key);
      p_right_stats = Some (fun () -> frequency t right ~key:right_key);
      p_right_index = Some (fun () -> hash_index t right ~key:right_key);
      p_histogram =
        Some (fun () -> histogram t right ~key:right_key ~fraction:histogram_fraction);
      p_left_key_view = Some (fun () -> int_view t left ~col:left_key);
      p_right_key_view = Some (fun () -> int_view t right ~col:right_key);
    }
  in
  Rsj_core.Strategy.make_env ?seed ~histogram_fraction ~structures ~left ~right ~left_key
    ~right_key ()

let invalidate t rel =
  let uid = Relation.uid rel in
  Mutex.lock t.lock;
  let doomed =
    Hashtbl.fold
      (fun key (entry : entry) acc -> if fst key = uid then (key, entry) :: acc else acc)
      t.table []
  in
  List.iter (fun (key, entry) -> remove_entry t key entry ~family:`Invalidation) doomed;
  publish_footprint t;
  Mutex.unlock t.lock

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.total_bytes <- 0;
  publish_footprint t;
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let by_kind =
    Hashtbl.fold (fun kind_s (h, m) acc -> (kind_s, (!h, !m)) :: acc) t.kind_counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      invalidations = t.invalidations;
      entries = Hashtbl.length t.table;
      bytes = t.total_bytes;
      by_kind;
    }
  in
  Mutex.unlock t.lock;
  s
