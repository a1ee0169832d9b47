(* Output checks shared by the served run and the replay: what a
   correct answer to each request looks like, and a digest that makes
   "byte-identical to the replay" cheap to test per op. *)

open Rsj_relation
module Json = Rsj_obs.Json

(* FNV-style mixing over 63-bit ints; a tag per value constructor and a
   length per row keep differently-shaped answers apart. *)
let mix h v = (h lxor v) * 0x100000001B3

let value_hash = function
  | Value.Null -> 1
  | Value.Int i -> mix 2 i
  | Value.Float f -> mix 3 (Int64.to_int (Int64.bits_of_float f))
  | Value.Str s -> mix 4 (Hashtbl.hash s)

let digest rows =
  List.fold_left
    (fun h row -> List.fold_left (fun h v -> mix h (value_hash v)) (mix h (List.length row)) row)
    0x5EED rows

(* [count] rows of [arity] values, equal at every one of [join_cols],
   and pairwise distinct when [distinct]. *)
let check_rows ~count ~distinct ~arity ~join_cols rows =
  let n = List.length rows in
  if n <> count then Error (Printf.sprintf "%d rows, expected %d" n count)
  else
    let bad_row row =
      List.length row <> arity
      ||
      match List.map (List.nth row) join_cols with
      | v :: rest -> not (List.for_all (Value.equal v) rest)
      | [] -> false
    in
    match List.find_opt bad_row rows with
    | Some row ->
        Error
          (Printf.sprintf "row violates the join predicate: (%s)"
             (String.concat ", " (List.map Value.to_string row)))
    | None ->
        if distinct then begin
          let seen = Hashtbl.create n in
          List.iter (fun row -> Hashtbl.replace seen row ()) rows;
          if Hashtbl.length seen <> n then
            Error (Printf.sprintf "%d distinct rows in a WoR sample of %d" (Hashtbl.length seen) n)
          else Ok ()
        end
        else Ok ()

(* What a correct answer to [op] looks like. Two-way samples are
   (rid, col2, pad) x 2 joined on col2: r rows (WR), or min(r, |J|)
   distinct rows (WoR). The chain query is three such triples joined on
   col2. A register answer reports the table's full row count. *)
let answer ~join_size ~rows_of (op : Workload.op) (reply : Rsj_server.Client.reply) =
  match op with
  | Workload.Sample { r; wor; left; right; _ } ->
      let j = join_size ~left ~right in
      check_rows
        ~count:(if j = 0 then 0 else if wor then min r j else r)
        ~distinct:wor ~arity:6 ~join_cols:[ 1; 4 ] reply.rows
  | Workload.Query { r; _ } -> check_rows ~count:r ~distinct:false ~arity:9 ~join_cols:[ 1; 4; 7 ] reply.rows
  | Workload.Swap { file; _ } -> (
      let rows = rows_of file in
      match List.assoc_opt "rows" reply.detail with
      | Some (Json.Int n) when n = rows -> Ok ()
      | Some (Json.Int n) -> Error (Printf.sprintf "registered %d rows, expected %d" n rows)
      | _ -> Error "register answer carries no row count")
