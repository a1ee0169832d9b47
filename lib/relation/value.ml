type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

type ty = T_int | T_float | T_str

let conforms v ty =
  match (v, ty) with
  | Null, _ -> true
  | Int _, T_int | Float _, T_float | Str _, T_str -> true
  | (Int _ | Float _ | Str _), _ -> false

let equal a b =
  match (a, b) with
  (* Int first: join keys are overwhelmingly ints, and this is the
     comparison every Vtbl probe performs. *)
  | Int x, Int y -> x = y
  | Null, Null -> true
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | (Null | Int _ | Float _ | Str _), _ -> false

let kind_rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | _ -> Int.compare (kind_rank a) (kind_rank b)

let hash = function
  | Null -> 0x9E37
  | Int x ->
      (* Fibonacci-style multiplicative mix, masked non-negative — no
         trip through the generic [Hashtbl.hash] structural walker on
         the hot int-key path. Injective up to the mask, so distinct
         int keys never collide by construction. *)
      (x * 0x2545F4914F6CDD1D) land max_int
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s

let int x = Int x
let float x = Float x
let str s = Str s

let to_int_exn = function
  | Int x -> x
  | v -> invalid_arg (Printf.sprintf "Value.to_int_exn: not an int (%s)"
                        (match v with Null -> "null" | Float _ -> "float" | Str _ -> "string" | Int _ -> assert false))

let to_float_exn = function
  | Float x -> x
  | Int x -> float_of_int x
  | Null -> invalid_arg "Value.to_float_exn: null"
  | Str _ -> invalid_arg "Value.to_float_exn: string"

let is_null = function Null -> true | Int _ | Float _ | Str _ -> false

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.fprintf ppf "%g" x
  | Str s -> Format.fprintf ppf "%S" s

let to_string v = Format.asprintf "%a" pp v
let ty_to_string = function T_int -> "int" | T_float -> "float" | T_str -> "string"
