open Rsj_util

let wr_to_wor (type a) rng ?(equal = ( = )) ?(hash = Hashtbl.hash) ~r (sample : a array) =
  let module Seen = Hashtbl.Make (struct
    type t = a

    let equal = equal
    let hash = hash
  end) in
  let order = Array.init (Array.length sample) Fun.id in
  Prng.shuffle_in_place rng order;
  let seen = Seen.create (2 * r) in
  let out = ref [] in
  let count = ref 0 in
  Array.iter
    (fun idx ->
      if !count < r then begin
        let x = sample.(idx) in
        if not (Seen.mem seen x) then begin
          Seen.replace seen x ();
          out := x :: !out;
          incr count
        end
      end)
    order;
  Array.of_list (List.rev !out)

let cf_to_wor rng ~r sample =
  let n = Array.length sample in
  if n < r then None
  else begin
    let idxs = Prng.sample_distinct rng ~k:r ~n in
    Some (Array.map (fun i -> sample.(i)) idxs)
  end

let cf_oversample_fraction ~f ~n ?(failure_prob = 1e-6) () =
  if f < 0. || f > 1. then invalid_arg "Convert.cf_oversample_fraction: f outside [0,1]";
  if n <= 0 then invalid_arg "Convert.cf_oversample_fraction: n <= 0";
  if f = 0. then 0.
  else begin
    (* Multiplicative Chernoff lower tail: a CF(f') sample of n tuples
       falls below (1 - eps) f' n with probability <= exp(-eps^2 f' n / 2).
       The bound holds at failure_prob when eps = sqrt(2 target / (n f')),
       so the guaranteed mass g(f') = (1 - eps) f' = f' - sqrt(2 target
       f' / n) must reach f. g is increasing in f', so bisect on [f, 1];
       when even f' = 1 cannot guarantee f n (small n, tight
       failure_prob), the whole relation must be read. *)
    let nf = float_of_int n in
    let target = -.log failure_prob in
    let guaranteed fp = fp -. sqrt (2. *. target *. fp /. nf) in
    if guaranteed 1. < f then 1.
    else begin
      let lo = ref f and hi = ref 1. in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if guaranteed mid >= f then hi := mid else lo := mid
      done;
      !hi
    end
  end

let wor_to_wr rng ~r sample =
  let n = Array.length sample in
  if n = 0 then
    if r = 0 then [||] else invalid_arg "Convert.wor_to_wr: empty source with r > 0"
  else Array.init r (fun _ -> sample.(Prng.int rng n))
