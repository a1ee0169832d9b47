open Rsj_relation

type t = {
  relation : Relation.t;
  key : int;
  plane : Int_index.t;  (* row ids by Column.key, storage order per bucket *)
}

let build relation ~key =
  {
    relation;
    key;
    plane = Int_index.build ~keys:(Column.int_view relation ~col:key) ();
  }

let relation t = t.relation
let key t = t.key
let int_plane t = t.plane
let multiplicity_key t k = Int_index.multiplicity t.plane k
let random_match_row t rng k = Int_index.random_row t.plane rng k

let lookup t v =
  match Int_index.find_gid t.plane (Column.key v) with
  | -1 -> [||]
  | g ->
      let s = Int_index.gid_start t.plane g in
      Array.init (Int_index.gid_multiplicity t.plane g) (fun j -> Int_index.row t.plane (s + j))

let multiplicity t v = multiplicity_key t (Column.key v)
let matching_tuples t v = Array.map (Relation.get t.relation) (lookup t v)

let random_match t rng v =
  match random_match_row t rng (Column.key v) with
  | -1 -> None
  | row -> Some (Relation.get t.relation row)

let max_multiplicity t = Int_index.max_multiplicity t.plane
