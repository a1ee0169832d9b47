
type target = Draws of int | Relative_ci of float | Absolute_ci of float

type progress = { draws : int; estimate : Aqp.estimate }

(* Welford's online mean/variance: numerically stable single pass. *)
type welford = { mutable n : int; mutable mean : float; mutable m2 : float }

let welford_create () = { n = 0; mean = 0.; m2 = 0. }

let welford_push w x =
  w.n <- w.n + 1;
  let delta = x -. w.mean in
  w.mean <- w.mean +. (delta /. float_of_int w.n);
  w.m2 <- w.m2 +. (delta *. (x -. w.mean))

let welford_stderr w =
  if w.n < 2 then 0.
  else sqrt (w.m2 /. float_of_int (w.n - 1)) /. sqrt (float_of_int w.n)

let estimate_of_welford ~scale w =
  let value = scale *. w.mean in
  let stderr = scale *. welford_stderr w in
  {
    Aqp.value;
    stderr;
    ci_low = value -. (Aqp.confidence_z *. stderr);
    ci_high = value +. (Aqp.confidence_z *. stderr);
  }

let min_draws_for_clt = 30

let satisfied target w ~scale =
  match target with
  | Draws k -> w.n >= k
  | Relative_ci frac ->
      w.n >= min_draws_for_clt
      &&
      let e = estimate_of_welford ~scale w in
      let half = Aqp.confidence_z *. e.Aqp.stderr in
      Float.abs e.Aqp.value > 0. && half /. Float.abs e.Aqp.value <= frac
  | Absolute_ci width ->
      w.n >= min_draws_for_clt
      &&
      let e = estimate_of_welford ~scale w in
      Aqp.confidence_z *. e.Aqp.stderr <= width

let run ~draw ~value ~scale ?(on_progress = fun _ -> ()) ?(max_draws = 1_000_000) target =
  let w = welford_create () in
  let next_report = ref 1 in
  let exhausted = ref false in
  while (not !exhausted) && (not (satisfied target w ~scale)) && w.n < max_draws do
    match draw () with
    | None -> exhausted := true
    | Some t ->
        welford_push w (value t);
        if w.n = !next_report then begin
          on_progress { draws = w.n; estimate = estimate_of_welford ~scale w };
          next_report := 2 * !next_report
        end
  done;
  { draws = w.n; estimate = estimate_of_welford ~scale w }

let estimate_mean ~draw ~value ?on_progress ?max_draws target =
  run ~draw ~value ~scale:1. ?on_progress ?max_draws target

let estimate_count_where ~draw ~pred ~join_size ?on_progress ?max_draws target =
  run ~draw
    ~value:(fun t -> if pred t then 1. else 0.)
    ~scale:(float_of_int join_size) ?on_progress ?max_draws target
