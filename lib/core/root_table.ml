module Alias_table = Rsj_util.Dist.Alias_table

(* [rows.(j)] is the row behind alias cell [j]; rows ascend (storage
   order). *)
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
