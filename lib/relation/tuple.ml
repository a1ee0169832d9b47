type t = Value.t array

let create = Array.of_list

let get t i =
  if i < 0 || i >= Array.length t then invalid_arg "Tuple.get: index out of range";
  t.(i)

let attr = get
let join t1 t2 = Array.append t1 t2
let project t idxs = Array.of_list (List.map (get t) idxs)

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
