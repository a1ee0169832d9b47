open Rsj_relation

type estimate = { value : float; stderr : float; ci_low : float; ci_high : float }

let confidence_z = 1.96

let make_estimate value stderr =
  { value; stderr; ci_low = value -. (confidence_z *. stderr); ci_high = value +. (confidence_z *. stderr) }

(* Scale up a per-draw statistic: estimate n * mean(xs), with
   stderr n * sd(xs)/sqrt(r). *)
let scaled_mean ~n xs =
  let r = Array.length xs in
  if r = 0 then make_estimate 0. 0.
  else begin
    let nf = float_of_int n in
    let mean = Rsj_util.Stats_math.mean xs in
    let stderr =
      if r < 2 then 0.
      else nf *. Rsj_util.Stats_math.stddev xs /. sqrt (float_of_int r)
    in
    make_estimate (nf *. mean) stderr
  end

let numeric_or_zero v = if Value.is_null v then 0. else Value.to_float_exn v

let count_where ~sample ~n ~pred =
  let xs = Array.map (fun t -> if pred t then 1. else 0.) sample in
  scaled_mean ~n xs

let sum_where ~sample ~n ~col ~pred =
  let xs =
    Array.map (fun t -> if pred t then numeric_or_zero (Tuple.get t col) else 0.) sample
  in
  scaled_mean ~n xs

let avg ~sample ~col =
  let xs =
    Array.to_list sample
    |> List.filter_map (fun t ->
           let v = Tuple.get t col in
           if Value.is_null v then None else Some (Value.to_float_exn v))
    |> Array.of_list
  in
  let r = Array.length xs in
  if r = 0 then make_estimate nan nan
  else begin
    let mean = Rsj_util.Stats_math.mean xs in
    let stderr =
      if r < 2 then 0. else Rsj_util.Stats_math.stddev xs /. sqrt (float_of_int r)
    in
    make_estimate mean stderr
  end

let group_estimates ~sample ~n ~group_col ~value_of =
  let module Vtbl = Hashtbl in
  let groups : (Value.t, float list ref) Vtbl.t = Vtbl.create 64 in
  Array.iter
    (fun t ->
      let g = Tuple.get t group_col in
      let x = value_of t in
      match Vtbl.find_opt groups g with
      | Some cell -> cell := x :: !cell
      | None -> Vtbl.replace groups g (ref [ x ]))
    sample;
  let r = Array.length sample in
  let out =
    Vtbl.fold
      (fun g cell acc ->
        (* Per-group statistic over ALL r draws: zero outside the
           group. Rebuild the full vector implicitly: mean and variance
           over r values of which only the group's entries are
           non-zero. *)
        let xs_in = !cell in
        let sum_in = List.fold_left ( +. ) 0. xs_in in
        let sumsq_in = List.fold_left (fun a x -> a +. (x *. x)) 0. xs_in in
        let rf = float_of_int r in
        let mean = sum_in /. rf in
        let var =
          if r < 2 then 0. else (sumsq_in -. (rf *. mean *. mean)) /. (rf -. 1.)
        in
        let nf = float_of_int n in
        let stderr = if var <= 0. then 0. else nf *. sqrt var /. sqrt rf in
        (g, make_estimate (nf *. mean) stderr) :: acc)
      groups []
  in
  List.sort (fun (_, a) (_, b) -> Float.compare b.value a.value) out

let group_sum ~sample ~n ~group_col ~value_col =
  group_estimates ~sample ~n ~group_col ~value_of:(fun t ->
      numeric_or_zero (Tuple.get t value_col))
