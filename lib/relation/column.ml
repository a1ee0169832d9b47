(* Columnar int-key views — the entry gate of the compact data plane.

   A strategy's inner loop only ever consults the join-key column; the
   rest of the tuple matters exactly once, when an accepted row is
   emitted. Extracting that column into a flat int array up front lets
   the hot loops scan unboxed ints and rehydrate winners by row id via
   Relation.get — the "sample over cheap key columns, join back the
   survivors" split of Joins-on-Samples, applied here to the sampling
   loops themselves.

   The key of an int outside the reserved band [min_int, band_hi) is
   the int itself, so int-keyed inputs keep their exact keys. Every
   other value is interned: the dictionary hands out the band's codes
   min_int + 1, min_int + 2, ... in first-seen order, under Value.equal,
   so equal values share a code and unequal ones never do. min_int
   itself is the Null key and is never a code. One mutex guards the
   dictionary; the int fast path never takes it. *)

let null_key = min_int
let band_hi = min_int + (1 lsl 32)

module Dict = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let lock = Mutex.create ()
let codes : int Dict.t = Dict.create 1024
let values = ref (Array.make 1024 Value.Null) (* values.(i) has code min_int + 1 + i *)

let intern v =
  Mutex.protect lock (fun () ->
      match Dict.find_opt codes v with
      | Some c -> c
      | None ->
          let i = Dict.length codes in
          if i >= band_hi - min_int - 1 then failwith "Column.key: key dictionary full";
          if i >= Array.length !values then begin
            let bigger = Array.make (2 * i) Value.Null in
            Array.blit !values 0 bigger 0 i;
            values := bigger
          end;
          !values.(i) <- v;
          let c = min_int + 1 + i in
          Dict.add codes v c;
          c)

let key = function
  | Value.Int x when x >= band_hi -> x
  | Value.Null -> null_key
  | v -> intern v

let value_of_key k =
  if k >= band_hi then Value.Int k
  else if k = null_key then Value.Null
  else
    Mutex.protect lock (fun () ->
        let i = k - min_int - 1 in
        if i < Dict.length codes then !values.(i)
        else invalid_arg "Column.value_of_key: not a key")

let int_view t ~col =
  let keys = Array.make (Relation.cardinality t) null_key in
  for i = 0 to Array.length keys - 1 do
    keys.(i) <- key (Tuple.get (Relation.get t i) col)
  done;
  keys
