(* A relation is its columns. An int column is its keys (Key encoding,
   Null as Key.null_key), so its key view is the column itself. A float
   or string column is a flat array plus a null bitmap, allocated on the
   first Null; its key view is interned on first use, in row order, and
   held until the next append. A tuple exists only when asked for. *)

type column =
  | Ints of { mutable keys : int array }
  | Floats of { mutable xs : float array; mutable nulls : Bytes.t; mutable view : int array option }
  | Strs of { mutable ss : string array; mutable nulls : Bytes.t; mutable view : int array option }

type t = {
  name : string;
  schema : Schema.t;
  uid : int;  (* process-unique identity, assigned at creation *)
  mutable version : int;  (* bumped on every mutation *)
  columns : column array;
  mutable size : int;  (* rows [0, size) are live *)
  mutable bytes : int;  (* memo of [bytes]; -1 when stale *)
}

(* Identity counter for fingerprints. Atomic so relations may be
   created from any domain (the parallel builders do). *)
let next_uid = Atomic.make 0

let create ?(name = "<anon>") ?(capacity = 64) schema =
  let capacity = max capacity 1 in
  let column (c : Schema.column) =
    match c.ty with
    | Value.T_int -> Ints { keys = Array.make capacity Key.null_key }
    | Value.T_float -> Floats { xs = Array.make capacity 0.; nulls = Bytes.empty; view = None }
    | Value.T_str -> Strs { ss = Array.make capacity ""; nulls = Bytes.empty; view = None }
  in
  {
    name;
    schema;
    uid = Atomic.fetch_and_add next_uid 1;
    version = 0;
    columns = Array.map column (Schema.columns schema);
    size = 0;
    bytes = -1;
  }

let name t = t.name
let schema t = t.schema
let cardinality t = t.size
let uid t = t.uid

(* A fingerprint identifies one immutable snapshot of one relation:
   any append changes it, and no two relations ever share one. Derived
   caches (Structure_cache) key on it so stale entries can never be
   served after a mutation. *)
let fingerprint t = (t.uid * 0x10001) lxor t.version

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)

let is_null nulls i =
  Bytes.length nulls > i lsr 3 && Char.code (Bytes.unsafe_get nulls (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Set or clear row [i]'s null bit; the bitmap grows (from nothing) only
   to set one. *)
let mark_null nulls i ~null =
  let byte = i lsr 3 in
  let nulls =
    if byte < Bytes.length nulls || not null then nulls
    else begin
      let bigger = Bytes.make (max (2 * Bytes.length nulls) (byte + 1)) '\000' in
      Bytes.blit nulls 0 bigger 0 (Bytes.length nulls);
      bigger
    end
  in
  if byte < Bytes.length nulls then begin
    let bits = Char.code (Bytes.unsafe_get nulls byte) in
    let bit = 1 lsl (i land 7) in
    Bytes.unsafe_set nulls byte (Char.unsafe_chr (if null then bits lor bit else bits land lnot bit))
  end;
  nulls

let grow a i fill =
  if i < Array.length a then a
  else begin
    let bigger = Array.make (max (2 * Array.length a) (i + 1)) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

let value_at col i =
  match col with
  | Ints { keys } -> Key.value_of_key (Array.unsafe_get keys i)
  | Floats { xs; nulls; _ } -> if is_null nulls i then Value.Null else Value.Float xs.(i)
  | Strs { ss; nulls; _ } -> if is_null nulls i then Value.Null else Value.Str ss.(i)

let mismatch t c what =
  invalid_arg
    (Printf.sprintf "Relation(%s): column %S holds %s, not %s" t.name (Schema.column_name t.schema c)
       (Value.ty_to_string (Schema.column_ty t.schema c))
       what)

(* The cell writers fill the pending row, [size]; [commit] makes it
   live. Each drops the column's cached view. *)
let set_int t ~col x =
  match t.columns.(col) with
  | Ints c ->
      c.keys <- grow c.keys t.size Key.null_key;
      c.keys.(t.size) <- Key.of_int x
  | _ -> mismatch t col "int"

let set_float t ~col x =
  match t.columns.(col) with
  | Floats c ->
      c.xs <- grow c.xs t.size 0.;
      c.xs.(t.size) <- x;
      c.nulls <- mark_null c.nulls t.size ~null:false;
      c.view <- None
  | _ -> mismatch t col "float"

let set_str t ~col s =
  match t.columns.(col) with
  | Strs c ->
      c.ss <- grow c.ss t.size "";
      c.ss.(t.size) <- s;
      c.nulls <- mark_null c.nulls t.size ~null:false;
      c.view <- None
  | _ -> mismatch t col "string"

let set_null t ~col =
  match t.columns.(col) with
  | Ints c ->
      c.keys <- grow c.keys t.size Key.null_key;
      c.keys.(t.size) <- Key.null_key
  | Floats c ->
      c.xs <- grow c.xs t.size 0.;
      c.nulls <- mark_null c.nulls t.size ~null:true;
      c.view <- None
  | Strs c ->
      c.ss <- grow c.ss t.size "";
      c.nulls <- mark_null c.nulls t.size ~null:true;
      c.view <- None

let commit t =
  t.size <- t.size + 1;
  t.version <- t.version + 1;
  t.bytes <- -1

let set_value t col = function
  | Value.Null -> set_null t ~col
  | Value.Int x -> set_int t ~col x
  | Value.Float x -> set_float t ~col x
  | Value.Str s -> set_str t ~col s

let append_unchecked t row =
  Array.iteri (set_value t) row;
  commit t

let append t row =
  match Schema.validate t.schema row with
  | Ok () -> append_unchecked t row
  | Error msg -> invalid_arg (Printf.sprintf "Relation.append(%s): %s" t.name msg)

(* ------------------------------------------------------------------ *)
(* Tuples on demand                                                    *)

let fill t i out ~at =
  let cols = t.columns in
  for c = 0 to Array.length cols - 1 do
    Array.unsafe_set out (at + c) (value_at (Array.unsafe_get cols c) i)
  done

let row_unchecked t i =
  let out = Array.make (Array.length t.columns) Value.Null in
  fill t i out ~at:0;
  out

let get t i =
  if i < 0 || i >= t.size then
    invalid_arg (Printf.sprintf "Relation.get(%s): row %d out of range [0,%d)" t.name i t.size);
  row_unchecked t i

let rehydrate_frame rels rows ~first ~stop =
  let k = Array.length rels in
  if k = 0 || Array.length rows mod k <> 0 then
    invalid_arg "Relation.rehydrate: row ids must come in groups of one per relation";
  if first < 0 || stop < first || stop * k > Array.length rows then
    invalid_arg "Relation.rehydrate: frame out of range";
  let width = Array.fold_left (fun w r -> w + Array.length r.columns) 0 rels in
  Array.init (stop - first) (fun j ->
      let out = Array.make width Value.Null in
      let at = ref 0 in
      for i = 0 to k - 1 do
        let rel = rels.(i) and row = rows.(((first + j) * k) + i) in
        if row < 0 || row >= rel.size then
          invalid_arg
            (Printf.sprintf "Relation.rehydrate(%s): row %d out of range [0,%d)" rel.name row rel.size);
        fill rel row out ~at:!at;
        at := !at + Array.length rel.columns
      done;
      out)

let rehydrate rels rows =
  let k = Array.length rels in
  rehydrate_frame rels rows ~first:0 ~stop:(if k = 0 then 0 else Array.length rows / k)

let iter t f =
  for i = 0 to t.size - 1 do
    f (row_unchecked t i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun row -> acc := f !acc row);
  !acc

let of_tuples ?name schema tuples =
  let t = create ?name ~capacity:(max 1 (List.length tuples)) schema in
  List.iter (append t) tuples;
  t

let to_stream t =
  let i = ref 0 in
  Stream0.make
    ~next:(fun () ->
      if !i >= t.size then None
      else begin
        let row = row_unchecked t !i in
        incr i;
        Some row
      end)
    ()

let chunk_count t ~chunk_size =
  if chunk_size <= 0 then
    invalid_arg (Printf.sprintf "Relation.chunk_count(%s): chunk_size <= 0" t.name);
  (t.size + chunk_size - 1) / chunk_size

let random_row t rng =
  if t.size = 0 then invalid_arg (Printf.sprintf "Relation.random_row(%s): empty" t.name);
  row_unchecked t (Rsj_util.Prng.int rng t.size)

(* ------------------------------------------------------------------ *)
(* Key views and footprint                                             *)

let key_view t ~col =
  if col < 0 || col >= Array.length t.columns then
    invalid_arg (Printf.sprintf "Relation.key_view(%s): no column %d" t.name col);
  let n = t.size in
  let interned nulls boxed = Array.init n (fun i -> if is_null nulls i then Key.null_key else Key.key (boxed i)) in
  match t.columns.(col) with
  | Ints c ->
      (* The column itself, trimmed to [n] keys: an append then grows a
         fresh array, so a view handed out never changes. *)
      if Array.length c.keys <> n then begin
        c.keys <- Array.sub c.keys 0 n;
        t.bytes <- -1
      end;
      c.keys
  | Floats ({ view = None; _ } as c) ->
      let v = interned c.nulls (fun i -> Value.Float c.xs.(i)) in
      c.view <- Some v;
      t.bytes <- -1;
      v
  | Strs ({ view = None; _ } as c) ->
      let v = interned c.nulls (fun i -> Value.Str c.ss.(i)) in
      c.view <- Some v;
      t.bytes <- -1;
      v
  | Floats { view = Some v; _ } | Strs { view = Some v; _ } -> v

let bytes t =
  if t.bytes < 0 then t.bytes <- Obj.reachable_words (Obj.repr t.columns) * (Sys.word_size / 8);
  t.bytes
