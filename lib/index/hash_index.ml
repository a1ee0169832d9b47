open Rsj_relation

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* One record per distinct value: the row ids plus the fill cursor used
   during construction. A single table serves both build passes, where
   the previous design kept separate counts/buckets/fill tables and paid
   three probes per row during the fill pass. *)
type bucket = { rows : int array; mutable fill : int }

type t = {
  relation : Relation.t;
  key : int;
  buckets : bucket Vtbl.t;  (* value -> row ids, in row order *)
  mutable max_mult : int;
  probes : int Atomic.t;  (* probed concurrently by the parallel runtime *)
  int_plane : Int_index.t option;  (* data-plane twin when the column is int-viewable *)
}

(* The int plane is built whenever the key column admits a flat int
   view. In-bucket row order matches the boxed buckets (storage
   order), so uniform in-bucket picks agree between planes. *)
let build_int_plane relation ~key =
  match Column.int_view relation ~col:key with
  | Some keys -> Some (Int_index.build ~keys ())
  | None -> None

let count_range relation ~key ~lo ~hi () =
  let counts = Vtbl.create 1024 in
  for i = lo to hi - 1 do
    let v = Tuple.attr (Relation.get relation i) key in
    if not (Value.is_null v) then
      Vtbl.replace counts v (1 + Option.value ~default:0 (Vtbl.find_opt counts v))
  done;
  counts

let alloc_buckets counts =
  let buckets = Vtbl.create (Vtbl.length counts) in
  let max_mult = ref 0 in
  Vtbl.iter
    (fun v c ->
      Vtbl.replace buckets v { rows = Array.make c (-1); fill = 0 };
      if c > !max_mult then max_mult := c)
    counts;
  (buckets, !max_mult)

let build relation ~key =
  (* Two-pass build: count multiplicities, then fill fixed-size buckets.
     Avoids per-value list reversal and keeps row ids in storage order. *)
  let counts = count_range relation ~key ~lo:0 ~hi:(Relation.cardinality relation) () in
  let buckets, max_mult = alloc_buckets counts in
  Relation.iteri relation (fun i row ->
      let v = Tuple.attr row key in
      if not (Value.is_null v) then begin
        let b = Vtbl.find buckets v in
        b.rows.(b.fill) <- i;
        b.fill <- b.fill + 1
      end);
  { relation; key; buckets; max_mult; probes = Atomic.make 0;
    int_plane = build_int_plane relation ~key }

let build_parallel relation ~key ~domains =
  if domains <= 1 then build relation ~key
  else begin
    let n = Relation.cardinality relation in
    let bounds = Array.init (domains + 1) (fun k -> k * n / domains) in
    (* Pass 1, parallel: count each contiguous row shard separately,
       one pooled worker per shard. *)
    let parts =
      Domain_pool.run (Domain_pool.global ()) ~domains (fun k ->
          count_range relation ~key ~lo:bounds.(k) ~hi:bounds.(k + 1) ())
    in
    (* Merge the per-shard count tables into per-shard starting offsets
       (prefix sums in shard order); the running table ends up holding
       the global multiplicities. *)
    let running = Vtbl.create (Vtbl.length parts.(0)) in
    let cursors =
      Array.map
        (fun part ->
          let cur = Vtbl.create (Vtbl.length part) in
          Vtbl.iter
            (fun v c ->
              let base = Option.value ~default:0 (Vtbl.find_opt running v) in
              Vtbl.replace cur v (ref base);
              Vtbl.replace running v (base + c))
            part;
          cur)
        parts
    in
    let buckets, max_mult = alloc_buckets running in
    (* Pass 2, parallel: each shard writes its rows into its own offset
       range of the shared bucket arrays — disjoint slots, no locking.
       [buckets] is read-only from here on, so concurrent lookups into
       it are safe. *)
    let fill_range k lo hi () =
      let cur = cursors.(k) in
      for i = lo to hi - 1 do
        let v = Tuple.attr (Relation.get relation i) key in
        if not (Value.is_null v) then begin
          let b = Vtbl.find buckets v in
          let c = Vtbl.find cur v in
          b.rows.(!c) <- i;
          incr c
        end
      done
    in
    ignore
      (Domain_pool.run (Domain_pool.global ()) ~domains (fun k ->
           fill_range k bounds.(k) bounds.(k + 1) ()));
    Vtbl.iter (fun _ b -> b.fill <- Array.length b.rows) buckets;
    { relation; key; buckets; max_mult; probes = Atomic.make 0;
      int_plane = build_int_plane relation ~key }
  end

let relation t = t.relation
let key t = t.key

let empty_rows : int array = [||]

let lookup t v =
  Atomic.incr t.probes;
  if Value.is_null v then empty_rows
  else match Vtbl.find_opt t.buckets v with Some b -> b.rows | None -> empty_rows

let multiplicity t v = Array.length (lookup t v)

let matching_tuples t v = Array.map (Relation.get t.relation) (lookup t v)

let random_match t rng v =
  let ids = lookup t v in
  let m = Array.length ids in
  if m = 0 then None else Some (Relation.get t.relation ids.(Rsj_util.Prng.int rng m))

let distinct_keys t =
  let out = Array.make (Vtbl.length t.buckets) Value.Null in
  let i = ref 0 in
  Vtbl.iter
    (fun v _ ->
      out.(!i) <- v;
      incr i)
    t.buckets;
  out

let max_multiplicity t = t.max_mult
let probe_count t = Atomic.get t.probes

(* Data-plane accessors: same probe accounting as their boxed twins
   (lookup costs one probe regardless of plane). *)
let int_plane t = t.int_plane
let note_probe t = Atomic.incr t.probes

let multiplicity_key t k =
  Atomic.incr t.probes;
  match t.int_plane with
  | Some ip -> Int_index.multiplicity ip k
  | None -> invalid_arg "Hash_index.multiplicity_key: no int plane"

let random_match_row t rng k =
  Atomic.incr t.probes;
  match t.int_plane with
  | Some ip -> Int_index.random_row ip rng k
  | None -> invalid_arg "Hash_index.random_match_row: no int plane"
