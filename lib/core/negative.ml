open Rsj_relation
open Rsj_util

let example1 ~k =
  if k < 1 then invalid_arg "Negative.example1: k < 1";
  let schema1 = Schema.of_list [ ("A", Value.T_int); ("B", Value.T_int) ] in
  let schema2 = Schema.of_list [ ("A", Value.T_int); ("C", Value.T_int) ] in
  let r1 = Relation.create ~name:"example1_R1" ~capacity:(k + 1) schema1 in
  let r2 = Relation.create ~name:"example1_R2" ~capacity:(k + 1) schema2 in
  (* R1: (a1, b0) then (a2, b1) ... (a2, bk). *)
  Relation.append r1 [| Value.Int 1; Value.Int 0 |];
  for i = 1 to k do
    Relation.append r1 [| Value.Int 2; Value.Int i |]
  done;
  (* R2: (a2, c0) then (a1, c1) ... (a1, ck). *)
  Relation.append r2 [| Value.Int 2; Value.Int 0 |];
  for i = 1 to k do
    Relation.append r2 [| Value.Int 1; Value.Int i |]
  done;
  (r1, r2)

let oblivious_join_empty_prob ~f1 ~f2 = (1. -. f1) *. (1. -. f2)

let oblivious_join_trial rng ~k ~f1 ~f2 =
  let r1, r2 = example1 ~k in
  let keep f row = ignore row; Prng.bernoulli rng f in
  let s1 = Relation.fold r1 ~init:[] ~f:(fun acc row -> if keep f1 row then row :: acc else acc) in
  let s2 = Relation.fold r2 ~init:[] ~f:(fun acc row -> if keep f2 row then row :: acc else acc) in
  (* Join of the two samples on A. *)
  List.fold_left
    (fun acc t1 ->
      acc
      + List.length
          (List.filter (fun t2 -> Value.equal (Tuple.get t1 0) (Tuple.get t2 0)) s2))
    0 s1

let thm11_feasible ~m1 ~m2 ~f ~f1 ~f2 =
  if m1 <= 0 || m2 <= 0 then invalid_arg "Negative.thm11_feasible: m1, m2 must be positive";
  let m = float_of_int (max m1 m2) in
  let m' = float_of_int (min m1 m2) in
  let ok = ref true in
  if f <= 1. /. m then begin
    if f1 < f *. float_of_int m2 /. 2. then ok := false;
    if f2 < f *. float_of_int m1 /. 2. then ok := false
  end;
  if f >= 1. /. m' then begin
    if f1 < 0.5 then ok := false;
    if f2 < 0.5 then ok := false
  end;
  !ok

let thm12_feasible ~f ~f1 ~f2 = f1 *. f2 >= f
let min_symmetric_fraction ~f = sqrt f

let biased_wr_draw rng ~universe ~r =
  let n = Array.length universe in
  if n = 0 then invalid_arg "Negative.biased_wr_draw: empty universe";
  if r < 0 then invalid_arg "Negative.biased_wr_draw: r < 0";
  (* Over-weight the first half of the universe 4:1 — a gross, easily
     detectable departure from the uniform law every strategy targets.
     Drawn through the alias table every repeated-draw path uses. *)
  let weights = Array.init n (fun i -> if 2 * i < n then 4. else 1.) in
  let table = Dist.Alias_table.of_weights weights in
  Array.init r (fun _ -> universe.(Dist.Alias_table.draw table rng))

type uniformity_report = {
  cells : int;
  draws : int;
  chi_square : Stats_math.chi_square_result;
}

let uniformity_check ~trials ~universe ~draw =
  let cells = Array.length universe in
  if cells = 0 then invalid_arg "Negative.uniformity_check: empty universe";
  let index = Hashtbl.create (2 * cells) in
  Array.iteri
    (fun i t ->
      if Hashtbl.mem index t then
        invalid_arg "Negative.uniformity_check: duplicate tuple in universe";
      Hashtbl.replace index t i)
    universe;
  let observed = Array.make cells 0 in
  let draws = ref 0 in
  for _ = 1 to trials do
    Array.iter
      (fun t ->
        match Hashtbl.find_opt index t with
        | Some i ->
            observed.(i) <- observed.(i) + 1;
            incr draws
        | None ->
            invalid_arg
              (Printf.sprintf "Negative.uniformity_check: sampled tuple %s not in the join"
                 (Tuple.to_string t)))
      (draw ())
  done;
  { cells; draws = !draws; chi_square = Stats_math.chi_square_uniform ~observed }
