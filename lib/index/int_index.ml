(* Int-specialised hash index over a flat key column — the storage
   behind Hash_index. Open addressing over flat int arrays: no Vtbl
   functor dispatch, no boxed keys, no per-bucket blocks. Buckets are a
   CSR layout (starts/rows) with row ids in storage order.

   This module is Value-free by design (enforced by the @box-hygiene
   alias): the Null sentinel is the literal min_int, shared with
   Column.null_key, and sentinel keys match nothing, mirroring the
   boxed plane's Null join semantics. *)

open Rsj_util

let sentinel = min_int (* = Column.null_key; literal keeps this module Value-free *)
let null_key = sentinel

(* 64-bit multiplicative mix, linear probing. The table never stores
   [sentinel], so an empty slot doubles as the miss marker. *)
let rec probe_from keys mask k i =
  let i = i land mask in
  let kk = Array.unsafe_get keys i in
  if kk = k || kk = sentinel then i else probe_from keys mask k (i + 1)

let slot_of keys mask k =
  let h = k * 0x2545F4914F6CDD1D in
  probe_from keys mask k ((h lxor (h lsr 31)) land mask)

let capacity_for n =
  let cap = ref 8 in
  while !cap < 2 * (n + 1) do
    cap := !cap * 2
  done;
  !cap

module Counter = struct
  type t = {
    mutable keys : int array; (* sentinel = empty slot *)
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
  }

  let create ?(capacity = 16) () =
    let cap = capacity_for capacity in
    { keys = Array.make cap sentinel; vals = Array.make cap 0; mask = cap - 1; count = 0 }

  let grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let ncap = 2 * (t.mask + 1) in
    t.keys <- Array.make ncap sentinel;
    t.vals <- Array.make ncap 0;
    t.mask <- ncap - 1;
    for i = 0 to Array.length old_keys - 1 do
      let k = old_keys.(i) in
      if k <> sentinel then begin
        let s = slot_of t.keys t.mask k in
        t.keys.(s) <- k;
        t.vals.(s) <- old_vals.(i)
      end
    done

  let add t k d =
    if k = sentinel then invalid_arg "Int_index.Counter.add: sentinel key";
    let s = slot_of t.keys t.mask k in
    if Array.unsafe_get t.keys s = sentinel then begin
      t.keys.(s) <- k;
      t.vals.(s) <- d;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t
    end
    else t.vals.(s) <- t.vals.(s) + d

  let get t k =
    if k = sentinel then 0
    else
      let s = slot_of t.keys t.mask k in
      if Array.unsafe_get t.keys s = sentinel then 0 else Array.unsafe_get t.vals s

  let cardinal t = t.count

  let iter f t =
    for i = 0 to t.mask do
      let k = Array.unsafe_get t.keys i in
      if k <> sentinel then f k (Array.unsafe_get t.vals i)
    done

  let fold f t init =
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) t;
    !acc
end

type t = {
  slot_keys : int array;
  slot_gid : int array;
  mask : int;
  starts : int array; (* length groups + 1; CSR offsets into rows *)
  rows : int array; (* row ids, storage order within each group *)
  groups : int;
  max_mult : int;
}

let build ?keep ~keys () =
  let n = Array.length keys in
  let cap = capacity_for n in
  let slot_keys = Array.make cap sentinel in
  let slot_gid = Array.make cap 0 in
  let mask = cap - 1 in
  let keep_key = match keep with None -> fun _ -> true | Some f -> f in
  (* Pass 1: assign gids in first-occurrence order, count group sizes. *)
  let counts = ref (Array.make 16 0) in
  let groups = ref 0 in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get keys i in
    if k <> sentinel && keep_key k then begin
      incr kept;
      let s = slot_of slot_keys mask k in
      let g =
        if Array.unsafe_get slot_keys s = sentinel then begin
          slot_keys.(s) <- k;
          slot_gid.(s) <- !groups;
          if !groups >= Array.length !counts then begin
            let nc = Array.make (2 * Array.length !counts) 0 in
            Array.blit !counts 0 nc 0 (Array.length !counts);
            counts := nc
          end;
          incr groups;
          !groups - 1
        end
        else Array.unsafe_get slot_gid s
      in
      !counts.(g) <- !counts.(g) + 1
    end
  done;
  let g = !groups in
  let starts = Array.make (g + 1) 0 in
  let max_mult = ref 0 in
  for j = 0 to g - 1 do
    starts.(j + 1) <- starts.(j) + !counts.(j);
    if !counts.(j) > !max_mult then max_mult := !counts.(j)
  done;
  (* Pass 2: scatter row ids, preserving storage order per group. *)
  let rows = Array.make !kept 0 in
  let cursor = Array.copy starts in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get keys i in
    if k <> sentinel && keep_key k then begin
      let gid = Array.unsafe_get slot_gid (slot_of slot_keys mask k) in
      rows.(cursor.(gid)) <- i;
      cursor.(gid) <- cursor.(gid) + 1
    end
  done;
  { slot_keys; slot_gid; mask; starts; rows; groups = g; max_mult = !max_mult }

let find_gid t k =
  if k = sentinel then -1
  else
    let s = slot_of t.slot_keys t.mask k in
    if Array.unsafe_get t.slot_keys s = sentinel then -1 else Array.unsafe_get t.slot_gid s

let gid_start t g = t.starts.(g)
let gid_multiplicity t g = t.starts.(g + 1) - t.starts.(g)
let row t j = t.rows.(j)
let multiplicity t k = match find_gid t k with -1 -> 0 | g -> gid_multiplicity t g

let random_row t rng k =
  (* Nothing drawn on a miss, one Prng.int on a hit (which itself
     draws nothing when the bucket is a singleton). *)
  match find_gid t k with
  | -1 -> -1
  | g ->
      let s = t.starts.(g) in
      t.rows.(s + Prng.int rng (t.starts.(g + 1) - s))

let group_count t = t.groups
let size t = Array.length t.rows
let max_multiplicity t = t.max_mult
