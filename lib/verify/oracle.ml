open Rsj_relation
module Strategy = Rsj_core.Strategy
module Chain_sample = Rsj_core.Chain_sample
module Hash_index = Rsj_index.Hash_index

(* One cell per distinct join tuple, weighted by its multiplicity:
   a bag join's c_t copies of a tuple are c_t join positions that all
   land in the same cell. *)
type t = {
  universe : Tuple.t array;
  mult : int array;
  size : int;
  index : (Tuple.t, int) Hashtbl.t;
}

let of_universe tuples =
  let index = Hashtbl.create (2 * max 1 (Array.length tuples)) in
  let mult = Array.make (Array.length tuples) 0 in
  let cells = ref [] in
  Array.iter
    (fun t ->
      let i =
        match Hashtbl.find_opt index t with
        | Some i -> i
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.replace index t i;
            cells := t :: !cells;
            i
      in
      mult.(i) <- mult.(i) + 1)
    tuples;
  let universe = Array.of_list (List.rev !cells) in
  { universe; mult = Array.sub mult 0 (Array.length universe); size = Array.length tuples; index }

let of_relations ~left ~right ~left_key ~right_key =
  let plan =
    Rsj_exec.Plan.Join
      {
        Rsj_exec.Plan.algorithm = Rsj_exec.Plan.Hash;
        left = Rsj_exec.Plan.Scan left;
        right = Rsj_exec.Plan.Scan right;
        left_key;
        right_key;
      }
  in
  of_universe (Array.of_list (Rsj_exec.Plan.collect plan))

let of_env env =
  of_relations ~left:(Strategy.env_left env) ~right:(Strategy.env_right env)
    ~left_key:(Strategy.env_left_key env) ~right_key:(Strategy.env_right_key env)

let of_chain (spec : Chain_sample.spec) =
  let k = Array.length spec.relations in
  if k = 0 then invalid_arg "Oracle.of_chain: no relations";
  if Array.length spec.join_keys <> k - 1 then
    invalid_arg "Oracle.of_chain: join_keys length must be k-1";
  (* Nested-loop enumeration, each partial tuple remembering the last
     base tuple so join_keys address base-relation columns exactly as
     Chain_sample.spec documents. *)
  let acc =
    ref (Relation.fold spec.relations.(0) ~init:[] ~f:(fun l t -> (t, t) :: l) |> List.rev)
  in
  for i = 0 to k - 2 do
    let a, b = spec.join_keys.(i) in
    let idx = Hash_index.build spec.relations.(i + 1) ~key:b in
    acc :=
      List.concat_map
        (fun (joined, last) ->
          Array.to_list (Hash_index.matching_tuples idx (Tuple.attr last a))
          |> List.map (fun t' -> (Tuple.join joined t', t')))
        !acc
  done;
  of_universe (Array.of_list (List.map fst !acc))

let universe t = t.universe
let size t = t.size
let multiplicity t i = t.mult.(i)
let cell t tuple = Hashtbl.find_opt t.index tuple

let counter t = Array.make (Array.length t.universe) 0

let observe t counts tuple =
  match Hashtbl.find_opt t.index tuple with
  | Some i -> counts.(i) <- counts.(i) + 1
  | None ->
      invalid_arg
        (Printf.sprintf "Oracle.observe: tuple %s is not in the join" (Tuple.to_string tuple))

(* Every law below is per join position; a cell's expectation is its
   multiplicity times that of one position. *)
let per_cell t x = Array.map (fun c -> float_of_int c *. x) t.mult

let wr_expected t ~draws =
  if t.size = 0 then invalid_arg "Oracle.wr_expected: empty join";
  per_cell t (float_of_int draws /. float_of_int t.size)

let wor_inclusion t ~r =
  if t.size = 0 then invalid_arg "Oracle.wor_inclusion: empty join";
  float_of_int (min r t.size) /. float_of_int t.size

let wor_expected t ~trials ~r = per_cell t (float_of_int trials *. wor_inclusion t ~r)

let cf_expected t ~trials ~f =
  if f < 0. || f > 1. then invalid_arg "Oracle.cf_expected: f outside [0,1]";
  per_cell t (float_of_int trials *. f)
