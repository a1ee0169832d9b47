(* In-memory span recorder for the traced replay. Spans are opened
   around calls into a layer's public function from the benchmark's
   own code; nothing inside lib/ is instrumented. They stay in memory
   until [write_chrome] dumps them as Chrome-trace JSON. *)

module Clock = Rsj_obs.Clock

type span = { id : int; name : string; parent : int; start_us : float; stop_us : float }
(* [parent] is the enclosing span's id, -1 for a root. *)

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable finished : span list;  (* newest first *)
}

let create ~enabled = { enabled; next_id = 0; stack = []; finished = [] }

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_us = Clock.now_us () in
    let close () =
      t.stack <- List.tl t.stack;
      t.finished <- { id; name; parent; start_us; stop_us = Clock.now_us () } :: t.finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans t = List.rev t.finished

(* Self time: the interval's length minus the part of it covered by
   the union of its children's intervals (children may overlap each
   other or stick out of the parent; both are clipped). *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, frontier) (a, b) ->
        let a = Float.max a frontier in
        if b > a then (acc +. (b -. a), b) else (acc, frontier))
      (0., start) clipped
  in
  stop -. start -. covered

(* Every span paired with its self time in microseconds. *)
let with_self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start_us, s.stop_us))
    spans;
  List.map
    (fun s -> (s, self_time ~start:s.start_us ~stop:s.stop_us (Hashtbl.find_all children s.id)))
    spans

let write_chrome ~path ~metadata spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name s.start_us (s.stop_us -. s.start_us) s.id s.parent)
    spans;
  Printf.fprintf oc "\n],\"metadata\":%s}\n" (Rsj_obs.Json.to_string metadata)
