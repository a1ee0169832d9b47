module Alias_table = Rsj_util.Dist.Alias_table

(* [rows.(j)] is the row behind alias cell [j]; rows ascend (storage
   order), which [row_prob] bisects on. *)
type t = { rows : int array; table : Alias_table.t option; total : float }

let of_weights w =
  let kept = Array.fold_left (fun n x -> if x > 0. then n + 1 else n) 0 w in
  let rows = Array.make kept 0 and weights = Array.make kept 0. in
  let j = ref 0 in
  Array.iteri
    (fun row x ->
      if x > 0. then begin
        rows.(!j) <- row;
        weights.(!j) <- x;
        incr j
      end)
    w;
  if kept = 0 then { rows; table = None; total = 0. }
  else
    {
      rows;
      table = Some (Alias_table.of_weights weights);
      total = Array.fold_left ( +. ) 0. weights;
    }

let draw t rng =
  match t.table with
  | Some table -> Array.unsafe_get t.rows (Alias_table.draw table rng)
  | None -> invalid_arg "Root_table.draw: empty table"

let size t = Array.length t.rows
let total t = t.total

let row_prob t row =
  let rec find lo hi =
    if lo >= hi then 0.
    else
      let mid = (lo + hi) / 2 in
      let r = t.rows.(mid) in
      if r = row then match t.table with Some table -> Alias_table.prob table mid | None -> 0.
      else if r < row then find (mid + 1) hi
      else find lo mid
  in
  find 0 (Array.length t.rows)
