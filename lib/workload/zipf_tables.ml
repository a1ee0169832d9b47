open Rsj_relation
open Rsj_util

let schema =
  Schema.of_list [ ("rid", Value.T_int); ("col2", Value.T_int); ("pad", Value.T_str) ]

let col_rid = 0
let col2 = 1

(* The paper pads records to a realistic size with a 32-byte character
   field; sharing one string per table keeps memory sane at scale while
   preserving the record shape. *)
let padding = String.make 32 'x'

let make ?(seed = 0x5EED) ~name ~rows ~z ~domain () =
  if rows <= 0 then invalid_arg "Zipf_tables.make: rows <= 0";
  if domain <= 0 then invalid_arg "Zipf_tables.make: domain <= 0";
  if z < 0. then invalid_arg "Zipf_tables.make: z < 0";
  let rng = Prng.create ~seed () in
  let zipf = Dist.Zipf.create ~z ~support:domain in
  (* Unique randomly-ordered RIDs: a shuffled 1..n. *)
  let rids = Array.init rows (fun i -> i + 1) in
  Prng.shuffle_in_place rng rids;
  let rel = Relation.create ~name ~capacity:rows schema in
  for i = 0 to rows - 1 do
    let v = Dist.Zipf.draw zipf rng in
    Relation.append_unchecked rel [| Value.Int rids.(i); Value.Int v; Value.Str padding |]
  done;
  rel

type pair = {
  outer : Relation.t;
  inner : Relation.t;
  z_outer : float;
  z_inner : float;
  domain : int;
}

let make_pair ?(seed = 0x5EED) ~n1 ~n2 ~z1 ~z2 ~domain () =
  let root = Prng.create ~seed () in
  let seed_of rng = Int64.to_int (Int64.logand (Prng.bits64 rng) 0x3FFFFFFFL) in
  let s1 = seed_of root in
  let s2 = seed_of root in
  {
    outer = make ~seed:s1 ~name:(Printf.sprintf "t1_z%g" z1) ~rows:n1 ~z:z1 ~domain ();
    inner = make ~seed:s2 ~name:(Printf.sprintf "t2_z%g" z2) ~rows:n2 ~z:z2 ~domain ();
    z_outer = z1;
    z_inner = z2;
    domain;
  }

(* Both tables of [pair] copied row by row through [set], which
   rewrites one cell of a fresh row. *)
let rewrite ~suffix ?schema set pair =
  let copy rel =
    let schema = Option.value schema ~default:(Relation.schema rel) in
    let out =
      Relation.create ~name:(Relation.name rel ^ suffix) ~capacity:(Relation.cardinality rel) schema
    in
    Relation.iter rel (fun t ->
        let t = Array.copy t in
        set t;
        Relation.append_unchecked out t);
    out
  in
  { pair with outer = copy pair.outer; inner = copy pair.inner }

let string_keyed =
  rewrite ~suffix:"_str"
    ~schema:(Schema.of_list [ ("rid", Value.T_int); ("col2", Value.T_str); ("pad", Value.T_str) ])
    (fun t ->
      match t.(col2) with Value.Int v -> t.(col2) <- Value.Str (string_of_int v) | _ -> ())

let bag = rewrite ~suffix:"_bag" (fun t -> t.(col_rid) <- Value.Int 0)

let join_size pair =
  let m1 = Rsj_stats.Frequency.of_relation pair.outer ~key:col2 in
  let m2 = Rsj_stats.Frequency.of_relation pair.inner ~key:col2 in
  Rsj_stats.Frequency.join_size m1 m2

module Scale = struct
  type t = { n1 : int; n2 : int; domain : int; seed : int }

  let from_env () =
    let module C = Rsj_obs.Config in
    let scale = C.scale () in
    { n1 = scale * C.n1 (); n2 = scale * C.n2 (); domain = C.domain (); seed = C.seed () }

  let pp ppf t =
    Format.fprintf ppf "n1=%d n2=%d domain=%d seed=%#x" t.n1 t.n2 t.domain t.seed
end
