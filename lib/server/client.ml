open Rsj_relation
module Json = Rsj_obs.Json
module P = Protocol

type t = {
  sock : Unix.file_descr;
  input : Line_reader.t;
  mutable next_id : int;
}

let connect (addr : Server.addr) =
  let domain, sockaddr =
    match addr with
    | Server.Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
        let inet =
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host)
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect sock sockaddr
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
     failwith
       (Printf.sprintf "cannot connect to %s: %s" (Server.addr_to_string addr)
          (Unix.error_message e)));
  { sock; input = Line_reader.create (); next_id = 0 }

let close t = try Unix.close t.sock with Unix.Unix_error (_, _, _) -> ()
let fd t = t.sock

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let send t req =
  let line = P.encode_request req ^ "\n" in
  let n = String.length line in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring t.sock line !written (n - !written)
  done

let rec next_response t =
  match Line_reader.next t.input with
  | None ->
      if Line_reader.read t.input t.sock = 0 then failwith "server closed the connection";
      next_response t
  | Some "" -> next_response t
  | Some line -> (
      match P.decode_response line with
      | Ok resp -> resp
      | Error msg -> failwith (Printf.sprintf "undecodable response frame: %s" msg))

type reply = { rows : Value.t list list; detail : (string * Json.t) list }

let collect t ~id =
  let rows = ref [] in
  let rec go () =
    match next_response t with
    | P.Rows r when r.id = id ->
        rows := List.rev_append r.rows !rows;
        go ()
    | P.Ack { id = rid; detail } when rid = id -> Ok { rows = List.rev !rows; detail }
    | P.Done { id = rid; detail } when rid = id -> Ok { rows = List.rev !rows; detail }
    | P.Failed { id = rid; code; message } when rid = id -> Error (code, message)
    | other ->
        failwith
          (Printf.sprintf "frame for request %d while waiting on %d" (P.response_id other) id)
  in
  go ()

let rpc t req =
  send t req;
  collect t ~id:(P.request_id req)

let simple t req =
  match rpc t req with
  | Ok reply -> Ok reply
  | Error (code, msg) -> Error (Printf.sprintf "%s: %s" (P.error_code_to_string code) msg)

let ping t = match simple t (P.Ping { id = fresh_id t }) with Ok _ -> true | Error _ -> false

let rows_detail = function
  | Ok reply -> (
      match List.assoc_opt "rows" reply.detail with Some (Json.Int n) -> Ok n | _ -> Ok 0)
  | Error e -> Error e

let register_path t ~name ~path =
  rows_detail (simple t (P.Register { id = fresh_id t; name; source = P.From_path path }))

let sample t ~left ~right ~r ?strategy ?(seed = 0x5EED) ?(wor = false) ?(domains = 1)
    ?(on = "col2") ?deadline_ms ?rid () =
  rpc t
    (P.Sample
       { id = fresh_id t; left; right; r; strategy; seed; wor; domains; on; deadline_ms; rid })

let query t ~sql ?(seed = 0x5EED) ?deadline_ms ?rid () =
  rpc t (P.Query { id = fresh_id t; sql; seed; deadline_ms; rid })

let metrics t =
  match simple t (P.Metrics { id = fresh_id t }) with
  | Ok reply -> (
      match List.assoc_opt "prometheus" reply.detail with
      | Some (Json.Str text) -> Ok text
      | _ -> Error "metrics reply carried no prometheus field")
  | Error e -> Error e

let cache_stats t =
  match simple t (P.Stats { id = fresh_id t }) with
  | Ok reply -> Ok reply.detail
  | Error e -> Error e

let invalidate t ~name =
  match simple t (P.Invalidate { id = fresh_id t; name }) with
  | Ok _ -> Ok ()
  | Error e -> Error e

let shutdown t =
  match simple t (P.Shutdown { id = fresh_id t }) with Ok _ -> Ok () | Error e -> Error e
