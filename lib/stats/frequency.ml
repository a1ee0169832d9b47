open Rsj_relation

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Counter = Rsj_index.Int_index.Counter

(* [plane] is the data-plane view of the table: the same counts keyed
   by Column.key instead of boxed Value, built by [of_relation],
   derived lazily otherwise and dropped by any mutation. *)
type t = {
  counts : int Vtbl.t;
  mutable total : int;
  mutable max_freq : int;
  mutable plane : Counter.t option;
}

let empty () = { counts = Vtbl.create 256; total = 0; max_freq = 0; plane = None }

let bump t v k =
  let c = k + Option.value ~default:0 (Vtbl.find_opt t.counts v) in
  Vtbl.replace t.counts v c;
  t.total <- t.total + k;
  t.plane <- None;
  if c > t.max_freq then t.max_freq <- c

let int_counter t =
  match t.plane with
  | Some c -> c
  | None ->
      let c = Counter.create ~capacity:(Vtbl.length t.counts) () in
      Vtbl.iter
        (fun v n ->
          let k = Column.key v in
          if k <> Column.null_key then Counter.add c k n)
        t.counts;
      t.plane <- Some c;
      c

let of_relation rel ~key =
  (* Count raw keys through the open-addressing counter (no Value
     hashing), then mirror the table into the boxed Vtbl for the boxed
     consumers. *)
  let keys = Column.int_view rel ~col:key in
  let c = Counter.create ~capacity:64 () in
  let total = ref 0 in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> Column.null_key then begin
      Counter.add c k 1;
      incr total
    end
  done;
  let t = empty () in
  Counter.iter
    (fun k n ->
      Vtbl.replace t.counts (Column.value_of_key k) n;
      if n > t.max_freq then t.max_freq <- n)
    c;
  t.total <- !total;
  t.plane <- Some c;
  t

let of_stream stream ~key =
  let t = empty () in
  Stream0.iter
    (fun row ->
      let v = Tuple.attr row key in
      if not (Value.is_null v) then bump t v 1)
    stream;
  t

let merge a b =
  let out = empty () in
  Vtbl.iter (fun v c -> bump out v c) a.counts;
  Vtbl.iter (fun v c -> bump out v c) b.counts;
  out

let of_relation_parallel ?(domains = 1) rel ~key =
  if domains <= 1 then of_relation rel ~key
  else begin
    (* Count each contiguous shard on a pooled worker; the per-shard
       tables merge by addition in shard order, so the result is
       exactly [of_relation]'s table. *)
    let shards = Relation.shards rel ~n:domains in
    let parts =
      Domain_pool.run (Domain_pool.global ()) ~domains (fun k -> of_stream shards.(k) ~key)
    in
    let acc = parts.(0) in
    for k = 1 to domains - 1 do
      Vtbl.iter (fun v c -> bump acc v c) parts.(k).counts
    done;
    acc
  end

let of_assoc pairs =
  let t = empty () in
  List.iter
    (fun (v, c) ->
      if c <= 0 then invalid_arg "Frequency.of_assoc: non-positive frequency";
      if Vtbl.mem t.counts v then invalid_arg "Frequency.of_assoc: duplicate value";
      bump t v c)
    pairs;
  t

let frequency t v = Option.value ~default:0 (Vtbl.find_opt t.counts v)
let total t = t.total
let distinct_count t = Vtbl.length t.counts
let max_frequency t = t.max_freq

let iter t f = Vtbl.iter f t.counts

let fold t ~init ~f =
  let acc = ref init in
  Vtbl.iter (fun v c -> acc := f !acc v c) t.counts;
  !acc

let by_freq_desc (v1, c1) (v2, c2) =
  if c1 <> c2 then Int.compare c2 c1 else Value.compare v1 v2

let to_assoc t =
  let pairs = fold t ~init:[] ~f:(fun acc v c -> (v, c) :: acc) in
  List.sort by_freq_desc pairs

let values_above t ~threshold =
  (* Filter during the fold, then sort only the survivors: for an
     end-biased threshold the survivor set is a tiny fraction of the
     domain, so this avoids sorting the whole table. *)
  let pairs =
    fold t ~init:[] ~f:(fun acc v c -> if c >= threshold then (v, c) :: acc else acc)
  in
  List.sort by_freq_desc pairs

let join_size t1 t2 =
  (* Iterate the smaller table for speed. *)
  let small, large = if distinct_count t1 <= distinct_count t2 then (t1, t2) else (t2, t1) in
  fold small ~init:0 ~f:(fun acc v c -> acc + (c * frequency large v))

let restrict t ~keep =
  let out = empty () in
  iter t (fun v c -> if keep v then bump out v c);
  out
