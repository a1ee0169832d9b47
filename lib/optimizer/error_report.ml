module Stats_math = Rsj_util.Stats_math
module Tuple = Rsj_relation.Tuple
module Value = Rsj_relation.Value

type interval = { lo : float; hi : float }

let everything = { lo = neg_infinity; hi = infinity }

type line = {
  aggregate : string;
  estimate : float;
  clt : interval;
  hoeffding : interval;
}

type t = {
  r : int;
  n : int;
  confidence : float;
  range_assumed : bool;
  lines : line list;
}

let numeric v =
  match v with Value.Int i -> float_of_int i | Value.Float f -> f | _ -> 0.

let sample_sd xs =
  let r = Array.length xs in
  if r < 2 then 0.
  else begin
    let m = Array.fold_left ( +. ) 0. xs /. float_of_int r in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (acc /. float_of_int (r - 1))
  end

(* CLT interval for the mean of iid draws: mean ± z_{1-δ/2}·s/√r. *)
let clt_interval ~confidence xs =
  let r = Array.length xs in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int r in
  let z = Stats_math.normal_quantile (1. -. ((1. -. confidence) /. 2.)) in
  let half = z *. sample_sd xs /. sqrt (float_of_int r) in
  (mean, { lo = mean -. half; hi = mean +. half })

(* Hoeffding for the mean of iid draws bounded in [a, b]:
   half-width (b−a)·√(ln(2/δ)/2r). Distribution-free, hence wider than
   CLT whenever the draws don't exhaust their range. *)
let hoeffding_interval ~confidence ~bounds:(a, b) mean r =
  let delta = 1. -. confidence in
  let half = (b -. a) *. sqrt (log (2. /. delta) /. (2. *. float_of_int r)) in
  { lo = mean -. half; hi = mean +. half }

let make ?(confidence = 0.95) ?range ?(pred = fun (_ : Tuple.t) -> true) ~sample ~n ~col
    () =
  let r = Array.length sample in
  if r = 0 then invalid_arg "Error_report.make: empty sample";
  if n < 0 then invalid_arg "Error_report.make: negative join size";
  if not (confidence > 0. && confidence < 1.) then
    invalid_arg "Error_report.make: confidence outside (0,1)";
  let nf = float_of_int n in
  let g = Array.map (fun t -> numeric (Tuple.get t col)) sample in
  let keep = Array.map pred sample in
  let a, b =
    match range with
    | Some (a, b) ->
        if a > b then invalid_arg "Error_report.make: empty range";
        (a, b)
    | None ->
        (* Fallback bounds read off the sample itself — fine for CLT
           sanity but not a rigorous Hoeffding premise; the report
           flags it via [range_assumed]. *)
        Array.fold_left
          (fun (a, b) x -> (Float.min a x, Float.max b x))
          (g.(0), g.(0)) g
  in
  let range_assumed = range = None in
  (* Horvitz–Thompson per-draw variables: each uniform WR draw t
     contributes n·g(t)·1[pred t] (SUM) or n·1[pred t] (COUNT); the
     mean of r such draws is unbiased for the aggregate over the full
     join (§4's scale-up, with n = |J|). *)
  let ht_sum = Array.init r (fun i -> if keep.(i) then nf *. g.(i) else 0.) in
  let ht_count = Array.init r (fun i -> if keep.(i) then nf else 0.) in
  let sum_line =
    let estimate, clt = clt_interval ~confidence ht_sum in
    let bounds = (nf *. Float.min 0. a, nf *. Float.max 0. b) in
    {
      aggregate = "sum";
      estimate;
      clt;
      hoeffding = hoeffding_interval ~confidence ~bounds estimate r;
    }
  in
  let count_line =
    let estimate, clt = clt_interval ~confidence ht_count in
    {
      aggregate = "count";
      estimate;
      clt;
      hoeffding = hoeffding_interval ~confidence ~bounds:(0., nf) estimate r;
    }
  in
  let avg_line =
    (* AVG over the qualifying rows: the qualifying draws are uniform
       over the qualifying join tuples, so their g-mean estimates the
       population mean directly (no n scale-up). *)
    let qualifying =
      let acc = ref [] in
      for i = r - 1 downto 0 do
        if keep.(i) then acc := g.(i) :: !acc
      done;
      Array.of_list !acc
    in
    match Array.length qualifying with
    | 0 -> { aggregate = "avg"; estimate = nan; clt = everything; hoeffding = everything }
    | k ->
        let estimate, clt = clt_interval ~confidence qualifying in
        {
          aggregate = "avg";
          estimate;
          clt;
          hoeffding = hoeffding_interval ~confidence ~bounds:(a, b) estimate k;
        }
  in
  { r; n; confidence; range_assumed; lines = [ sum_line; count_line; avg_line ] }

let pp ppf t =
  Format.fprintf ppf "error report: r=%d |J|=%d confidence=%.0f%%%s@," t.r t.n
    (100. *. t.confidence)
    (if t.range_assumed then " (value range read off the sample)" else "");
  List.iter
    (fun l ->
      Format.fprintf ppf "  %-5s %14.3f  clt [%g, %g]  hoeffding [%g, %g]@," l.aggregate
        l.estimate l.clt.lo l.clt.hi l.hoeffding.lo l.hoeffding.hi)
    t.lines

let to_string t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>%a@]@?" pp t;
  Buffer.contents buf
