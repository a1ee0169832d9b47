type 'a t = {
  mutable producer : (unit -> 'a option) option;  (* None once exhausted/closed *)
  mutable on_close : (unit -> unit) option;
}

let make ~next ?(close = fun () -> ()) () = { producer = Some next; on_close = Some close }

let run_close t =
  match t.on_close with
  | None -> ()
  | Some f ->
      t.on_close <- None;
      f ()

let close t =
  t.producer <- None;
  run_close t

let next t =
  match t.producer with
  | None -> None
  | Some produce -> (
      match produce () with
      | Some _ as r -> r
      | None ->
          close t;
          None)

let of_array a =
  let i = ref 0 in
  make
    ~next:(fun () ->
      if !i >= Array.length a then None
      else begin
        let v = a.(!i) in
        incr i;
        Some v
      end)
    ()

let of_list l =
  let rest = ref l in
  make
    ~next:(fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
          rest := tl;
          Some x)
    ()

let empty () = make ~next:(fun () -> None) ()

let iter f t =
  let rec go () =
    match next t with
    | None -> ()
    | Some x ->
        f x;
        go ()
  in
  go ()

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let map f t = make ~next:(fun () -> Option.map f (next t)) ~close:(fun () -> close t) ()

let filter p t =
  let rec pull () =
    match next t with
    | None -> None
    | Some x -> if p x then Some x else pull ()
  in
  make ~next:pull ~close:(fun () -> close t) ()

let filter_map f t =
  let rec pull () =
    match next t with
    | None -> None
    | Some x -> ( match f x with Some _ as r -> r | None -> pull ())
  in
  make ~next:pull ~close:(fun () -> close t) ()

let concat_map f t =
  let current = ref (empty ()) in
  let rec pull () =
    match next !current with
    | Some _ as r -> r
    | None -> (
        match next t with
        | None -> None
        | Some x ->
            current := f x;
            pull ())
  in
  make ~next:pull
    ~close:(fun () ->
      close !current;
      close t)
    ()

let take n t =
  let remaining = ref n in
  make
    ~next:(fun () ->
      if !remaining <= 0 then begin
        close t;
        None
      end
      else
        match next t with
        | None -> None
        | Some _ as r ->
            decr remaining;
            r)
    ~close:(fun () -> close t)
    ()

let length t = fold (fun n _ -> n + 1) 0 t

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)
let to_array t = Array.of_list (to_list t)

let on_element f t =
  make
    ~next:(fun () ->
      match next t with
      | None -> None
      | Some x as r ->
          f x;
          r)
    ~close:(fun () -> close t)
    ()
