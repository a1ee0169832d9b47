open Rsj_relation
module Counter = Rsj_index.Int_index.Counter

(* One table: m(v) keyed by Column.key, built once and never mutated,
   with the total and the maximum fixed at build time. *)
type t = { counts : Counter.t; total : int; max_freq : int }

let of_counter counts =
  let total = Counter.fold (fun _ n acc -> acc + n) counts 0 in
  { counts; total; max_freq = Counter.fold (fun _ n acc -> max n acc) counts 0 }

(* Count keys [lo, hi) of a key view; Null keys never join. *)
let count_keys keys ~lo ~hi =
  let c = Counter.create ~capacity:64 () in
  for i = lo to hi - 1 do
    let k = Array.unsafe_get keys i in
    if k <> Column.null_key then Counter.add c k 1
  done;
  c

let of_relation rel ~key =
  let keys = Column.int_view rel ~col:key in
  of_counter (count_keys keys ~lo:0 ~hi:(Array.length keys))

let of_relation_parallel ?(domains = 1) rel ~key =
  if domains <= 1 then of_relation rel ~key
  else begin
    (* Count each contiguous shard of the key view on a pooled worker;
       the per-shard tables sum by key, so the result is exactly
       [of_relation]'s table. *)
    let keys = Column.int_view rel ~col:key in
    let n = Array.length keys in
    let parts =
      Domain_pool.run (Domain_pool.global ()) ~domains (fun s ->
          count_keys keys ~lo:(s * n / domains) ~hi:((s + 1) * n / domains))
    in
    for s = 1 to domains - 1 do
      Counter.iter (Counter.add parts.(0)) parts.(s)
    done;
    of_counter parts.(0)
  end

let frequency t v = Counter.get t.counts (Column.find_key v)
let int_counter t = t.counts
let total t = t.total
let distinct_count t = Counter.cardinal t.counts
let max_frequency t = t.max_freq
let iter t f = Counter.iter (fun k n -> f (Column.value_of_key k) n) t.counts
let fold t ~init ~f = Counter.fold (fun k n acc -> f acc (Column.value_of_key k) n) t.counts init

let by_freq_desc (v1, c1) (v2, c2) =
  if c1 <> c2 then Int.compare c2 c1 else Value.compare v1 v2

let to_assoc t = List.sort by_freq_desc (fold t ~init:[] ~f:(fun acc v c -> (v, c) :: acc))

let join_size t1 t2 =
  (* Iterate the smaller table for speed. *)
  let small, large = if distinct_count t1 <= distinct_count t2 then (t1, t2) else (t2, t1) in
  Counter.fold (fun k c acc -> acc + (c * Counter.get large.counts k)) small.counts 0
