(* Order statistics for the benchmark's reports. Every function takes
   an ascending array (see [sorted]). *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Nearest-rank index of quantile [q] among [n] samples. The epsilon
   keeps 0.99 *. 1000. from rounding up past rank 990. *)
let rank n q = max 0 (min (n - 1) (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) - 1))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n q)

let median sorted = percentile sorted 0.5

type tail = { q : float; value : float; beyond : int }

(* Highest quantile on the ladder with at least ten samples strictly
   above its rank: a tail figure backed by fewer samples than that is
   noise, so reports name the tail they can actually support. *)
let tail_percentile sorted =
  let n = Array.length sorted in
  List.find_map
    (fun q ->
      let i = rank n q in
      let beyond = n - 1 - i in
      if n > 0 && beyond >= 10 then Some { q; value = sorted.(i); beyond } else None)
    [ 0.9999; 0.999; 0.99; 0.9; 0.5 ]
