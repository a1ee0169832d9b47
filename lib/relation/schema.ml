type column = { name : string; ty : Value.ty }

type t = { cols : column array; by_name : (string, int) Hashtbl.t }

let build cols =
  let by_name = Hashtbl.create (Array.length cols) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem by_name c.name then
        invalid_arg (Printf.sprintf "Schema.create: duplicate column %S" c.name);
      Hashtbl.replace by_name c.name i)
    cols;
  { cols; by_name }

let create = function
  | [] -> invalid_arg "Schema.create: empty column list"
  | cols -> build (Array.of_list cols)

let of_list l = create (List.map (fun (name, ty) -> { name; ty }) l)

let columns t = Array.copy t.cols
let arity t = Array.length t.cols

let column_index t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> raise Not_found

let column_index_opt t name = Hashtbl.find_opt t.by_name name
let column_name t i = t.cols.(i).name
let column_ty t i = t.cols.(i).ty
let mem t name = Hashtbl.mem t.by_name name

let concat ?(left_prefix = "l.") ?(right_prefix = "r.") a b =
  let collides name = mem a name && mem b name in
  let fix prefix c = if collides c.name then { c with name = prefix ^ c.name } else c in
  let cols =
    Array.append (Array.map (fix left_prefix) a.cols) (Array.map (fix right_prefix) b.cols)
  in
  build cols

let project t idxs =
  let n = arity t in
  let cols =
    List.map
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Schema.project: index out of range";
        t.cols.(i))
      idxs
  in
  create cols

let validate t row =
  if Array.length row <> arity t then
    Error
      (Printf.sprintf "arity mismatch: schema has %d columns, row has %d" (arity t)
         (Array.length row))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i v ->
        if !bad = None && not (Value.conforms v t.cols.(i).ty) then
          bad :=
            Some
              (Printf.sprintf "column %S expects %s, got %s" t.cols.(i).name
                 (Value.ty_to_string t.cols.(i).ty)
                 (Value.to_string v)))
      row;
    match !bad with None -> Ok () | Some msg -> Error msg
  end
