type t = {
  name : string;
  schema : Schema.t;
  uid : int;  (* process-unique identity, assigned at creation *)
  mutable version : int;  (* bumped on every mutation *)
  mutable rows : Tuple.t array;  (* slots [0, size) are live *)
  mutable size : int;
}

(* Identity counter for fingerprints. Atomic so relations may be
   created from any domain (the parallel builders do). *)
let next_uid = Atomic.make 0

let create ?(name = "<anon>") ?(capacity = 64) schema =
  let capacity = max capacity 1 in
  {
    name;
    schema;
    uid = Atomic.fetch_and_add next_uid 1;
    version = 0;
    rows = Array.make capacity [||];
    size = 0;
  }

let name t = t.name
let schema t = t.schema
let cardinality t = t.size

let ensure_capacity t =
  if t.size >= Array.length t.rows then begin
    let fresh = Array.make (2 * Array.length t.rows) [||] in
    Array.blit t.rows 0 fresh 0 t.size;
    t.rows <- fresh
  end

let append_unchecked t row =
  ensure_capacity t;
  t.rows.(t.size) <- row;
  t.size <- t.size + 1;
  t.version <- t.version + 1

let uid t = t.uid
let version t = t.version

(* A fingerprint identifies one immutable snapshot of one relation:
   any append changes it, and no two relations ever share one. Derived
   caches (Structure_cache) key on it so stale entries can never be
   served after a mutation. *)
let fingerprint t = (t.uid * 0x10001) lxor t.version

let append t row =
  match Schema.validate t.schema row with
  | Ok () -> append_unchecked t row
  | Error msg -> invalid_arg (Printf.sprintf "Relation.append(%s): %s" t.name msg)

let get t i =
  if i < 0 || i >= t.size then
    invalid_arg (Printf.sprintf "Relation.get(%s): row %d out of range [0,%d)" t.name i t.size);
  t.rows.(i)

let rehydrate rels rows =
  let k = Array.length rels in
  if k = 0 || Array.length rows mod k <> 0 then
    invalid_arg "Relation.rehydrate: row ids must come in groups of one per relation";
  Array.init (Array.length rows / k) (fun j ->
      Array.concat (List.init k (fun i -> get rels.(i) rows.((j * k) + i))))

let iter t f =
  for i = 0 to t.size - 1 do
    f t.rows.(i)
  done

let iteri t f =
  for i = 0 to t.size - 1 do
    f i t.rows.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun row -> acc := f !acc row);
  !acc

let of_tuples ?name schema tuples =
  let t = create ?name ~capacity:(max 1 (List.length tuples)) schema in
  List.iter (append t) tuples;
  t

let of_rows ?name schema rows = of_tuples ?name schema (List.map Array.of_list rows)

let to_stream t =
  let i = ref 0 in
  Stream0.make
    ~next:(fun () ->
      if !i >= t.size then None
      else begin
        let row = t.rows.(!i) in
        incr i;
        Some row
      end)
    ()

let stream_range t ~lo ~hi =
  if lo < 0 || hi > t.size || lo > hi then
    invalid_arg
      (Printf.sprintf "Relation.stream_range(%s): [%d,%d) outside [0,%d)" t.name lo hi t.size);
  let i = ref lo in
  Stream0.make
    ~next:(fun () ->
      if !i >= hi then None
      else begin
        let row = t.rows.(!i) in
        incr i;
        Some row
      end)
    ()

let shards t ~n =
  if n <= 0 then invalid_arg (Printf.sprintf "Relation.shards(%s): n <= 0" t.name);
  Array.init n (fun k ->
      stream_range t ~lo:(k * t.size / n) ~hi:((k + 1) * t.size / n))

let chunk_count t ~chunk_size =
  if chunk_size <= 0 then
    invalid_arg (Printf.sprintf "Relation.chunk_count(%s): chunk_size <= 0" t.name);
  (t.size + chunk_size - 1) / chunk_size

let to_list t = List.init t.size (fun i -> t.rows.(i))
let to_array t = Array.init t.size (fun i -> t.rows.(i))

let random_row t rng =
  if t.size = 0 then invalid_arg (Printf.sprintf "Relation.random_row(%s): empty" t.name);
  t.rows.(Rsj_util.Prng.int rng t.size)

let column_values t col = Array.init t.size (fun i -> Tuple.get t.rows.(i) col)

let pp_sample ?(limit = 10) ppf t =
  Format.fprintf ppf "@[<v>%s %a (%d rows)" t.name Schema.pp t.schema t.size;
  let shown = min limit t.size in
  for i = 0 to shown - 1 do
    Format.fprintf ppf "@,  %a" Tuple.pp t.rows.(i)
  done;
  if t.size > shown then Format.fprintf ppf "@,  ... (%d more)" (t.size - shown);
  Format.fprintf ppf "@]"
