open Rsj_relation
module Json = Rsj_obs.Json

type source =
  | From_path of string
  | Inline of (string * Value.ty) list * Value.t list list

type request =
  | Ping of { id : int }
  | Register of { id : int; name : string; source : source }
  | Sample of {
      id : int;
      left : string;
      right : string;
      r : int;
      strategy : string option;
      seed : int;
      wor : bool;
      domains : int;
      on : string;
      deadline_ms : float option;
      rid : string option;
    }
  | Query of {
      id : int;
      sql : string;
      seed : int;
      deadline_ms : float option;
      rid : string option;
    }
  | Invalidate of { id : int; name : string }
  | Metrics of { id : int }
  | Stats of { id : int }
  | Shutdown of { id : int }

type error_code =
  | Bad_request
  | Unknown_relation
  | Unknown_strategy
  | Engine_error
  | Deadline_exceeded
  | Overloaded
  | Shutting_down
  | Internal_error

type response =
  | Ack of { id : int; detail : (string * Json.t) list }
  | Rows of { id : int; rows : Value.t list list }
  | Done of { id : int; detail : (string * Json.t) list }
  | Failed of { id : int; code : error_code; message : string }

let request_id = function
  | Ping { id }
  | Register { id; _ }
  | Sample { id; _ }
  | Query { id; _ }
  | Invalidate { id; _ }
  | Metrics { id }
  | Stats { id }
  | Shutdown { id } ->
      id

let response_id = function
  | Ack { id; _ } | Rows { id; _ } | Done { id; _ } | Failed { id; _ } -> id

let request_rid = function
  | Sample { rid; _ } | Query { rid; _ } -> rid
  | Ping _ | Register _ | Invalidate _ | Metrics _ | Stats _ | Shutdown _ -> None

let request_op = function
  | Ping _ -> "ping"
  | Register _ -> "register"
  | Sample _ -> "sample"
  | Query _ -> "query"
  | Invalidate _ -> "invalidate"
  | Metrics _ -> "metrics"
  | Stats _ -> "stats"
  | Shutdown _ -> "shutdown"

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_relation -> "unknown_relation"
  | Unknown_strategy -> "unknown_strategy"
  | Engine_error -> "engine_error"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Internal_error -> "internal_error"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_relation" -> Some Unknown_relation
  | "unknown_strategy" -> Some Unknown_strategy
  | "engine_error" -> Some Engine_error
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | "internal_error" -> Some Internal_error
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Cell / schema codecs                                                *)

let value_to_json = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Float f -> Json.Float f
  | Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Int i -> Ok (Value.Int i)
  | Json.Float f -> Ok (Value.Float f)
  | Json.Str s -> Ok (Value.Str s)
  | Json.Bool _ | Json.List _ | Json.Obj _ -> Error "cell must be null, number or string"

let ty_to_wire = function Value.T_int -> "int" | Value.T_float -> "float" | Value.T_str -> "str"

let ty_of_wire = function
  | "int" -> Some Value.T_int
  | "float" -> Some Value.T_float
  | "str" -> Some Value.T_str
  | _ -> None

let schema_to_json cols =
  Json.List
    (List.map (fun (name, ty) -> Json.Obj [ ("name", Json.Str name); ("type", Json.Str (ty_to_wire ty)) ]) cols)

(* ------------------------------------------------------------------ *)
(* Field extraction helpers (decode side)                              *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field name j = match Json.member name j with Some v -> v | None -> failf "missing field %S" name

let opt_field name j = Json.member name j

let as_int name = function Json.Int i -> i | _ -> failf "field %S must be an integer" name

let as_float name = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failf "field %S must be a number" name

let as_str name = function Json.Str s -> s | _ -> failf "field %S must be a string" name

let as_bool name = function Json.Bool b -> b | _ -> failf "field %S must be a boolean" name

let as_list name = function Json.List l -> l | _ -> failf "field %S must be a list" name

let int_field name j = as_int name (field name j)
let str_field name j = as_str name (field name j)

let opt_default name conv default j =
  match opt_field name j with Some Json.Null | None -> default | Some v -> conv name v

(* deadline_ms is validated at the protocol boundary: a zero, negative
   or NaN budget can never be met and must not reach admission control
   (where "elapsed > budget" arithmetic on NaN silently never fires). *)
let deadline_field j =
  match opt_field "deadline_ms" j with
  | None | Some Json.Null -> None
  | Some v ->
      let d = as_float "deadline_ms" v in
      if Float.is_nan d || d <= 0. then
        failf "field \"deadline_ms\" must be a positive number of milliseconds"
      else Some d

let rid_field j = Option.map (as_str "rid") (opt_field "rid" j)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let encode_request req =
  let base id op rest = Json.Obj (("op", Json.Str op) :: ("id", Json.Int id) :: rest) in
  let j =
    match req with
    | Ping { id } -> base id "ping" []
    | Register { id; name; source } ->
        let src =
          match source with
          | From_path p -> [ ("path", Json.Str p) ]
          | Inline (cols, rows) ->
              [
                ("schema", schema_to_json cols);
                ("rows", Json.List (List.map (fun row -> Json.List (List.map value_to_json row)) rows));
              ]
        in
        base id "register" (("name", Json.Str name) :: src)
    | Sample { id; left; right; r; strategy; seed; wor; domains; on; deadline_ms; rid } ->
        base id "sample"
          ([
             ("left", Json.Str left);
             ("right", Json.Str right);
             ("r", Json.Int r);
             ("seed", Json.Int seed);
             ("wor", Json.Bool wor);
             ("domains", Json.Int domains);
             ("on", Json.Str on);
           ]
          @ (match strategy with Some s -> [ ("strategy", Json.Str s) ] | None -> [])
          @ (match deadline_ms with Some d -> [ ("deadline_ms", Json.Float d) ] | None -> [])
          @ match rid with Some r -> [ ("rid", Json.Str r) ] | None -> [])
    | Query { id; sql; seed; deadline_ms; rid } ->
        base id "query"
          ([ ("sql", Json.Str sql); ("seed", Json.Int seed) ]
          @ (match deadline_ms with Some d -> [ ("deadline_ms", Json.Float d) ] | None -> [])
          @ match rid with Some r -> [ ("rid", Json.Str r) ] | None -> [])
    | Invalidate { id; name } -> base id "invalidate" [ ("name", Json.Str name) ]
    | Metrics { id } -> base id "metrics" []
    | Stats { id } -> base id "stats" []
    | Shutdown { id } -> base id "shutdown" []
  in
  Json.to_string j

let decode_row name j =
  List.map
    (fun cell -> match value_of_json cell with Ok v -> v | Error e -> failf "field %S: %s" name e)
    (as_list name j)

let decode_schema j =
  List.map
    (fun col ->
      let name = str_field "name" col in
      let ty = str_field "type" col in
      match ty_of_wire ty with
      | Some ty -> (name, ty)
      | None -> failf "unknown column type %S (want int|float|str)" ty)
    (as_list "schema" j)

let decode_request line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok j -> (
      try
        let id = int_field "id" j in
        match str_field "op" j with
        | "ping" -> Ok (Ping { id })
        | "register" ->
            let name = str_field "name" j in
            let source =
              match (opt_field "path" j, opt_field "rows" j) with
              | Some p, None -> From_path (as_str "path" p)
              | None, Some rows ->
                  Inline (decode_schema (field "schema" j), List.map (decode_row "row") (as_list "rows" rows))
              | Some _, Some _ -> failf "register takes path or rows, not both"
              | None, None -> failf "register needs a path or inline rows"
            in
            Ok (Register { id; name; source })
        | "sample" ->
            Ok
              (Sample
                 {
                   id;
                   left = str_field "left" j;
                   right = str_field "right" j;
                   r = int_field "r" j;
                   strategy = Option.map (as_str "strategy") (opt_field "strategy" j);
                   seed = opt_default "seed" as_int 0x5EED j;
                   wor = opt_default "wor" as_bool false j;
                   domains = opt_default "domains" as_int 1 j;
                   on = opt_default "on" as_str "col2" j;
                   deadline_ms = deadline_field j;
                   rid = rid_field j;
                 })
        | "query" ->
            Ok
              (Query
                 {
                   id;
                   sql = str_field "sql" j;
                   seed = opt_default "seed" as_int 0x5EED j;
                   deadline_ms = deadline_field j;
                   rid = rid_field j;
                 })
        | "invalidate" -> Ok (Invalidate { id; name = str_field "name" j })
        | "metrics" -> Ok (Metrics { id })
        | "stats" -> Ok (Stats { id })
        | "shutdown" -> Ok (Shutdown { id })
        | op -> Error (Printf.sprintf "unknown op %S" op)
      with Bad msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

(* The rows frame's bytes, written cell by cell: the one definition of
   its format, for the daemon's slices of a sample and for a [Rows]
   value alike. *)
let write_rows buf ~id (rows : Tuple.t array) ~first ~stop =
  Buffer.add_string buf "{\"id\":";
  Json.write_int buf id;
  Buffer.add_string buf ",\"type\":\"rows\",\"rows\":[";
  for i = first to stop - 1 do
    if i > first then Buffer.add_char buf ',';
    Buffer.add_char buf '[';
    let row = rows.(i) in
    for j = 0 to Array.length row - 1 do
      if j > 0 then Buffer.add_char buf ',';
      match row.(j) with
      | Value.Null -> Buffer.add_string buf "null"
      | Value.Int n -> Json.write_int buf n
      | Value.Float f -> Json.write_float buf f
      | Value.Str s -> Json.write_string buf s
    done;
    Buffer.add_char buf ']'
  done;
  Buffer.add_string buf "]}"

let write_response buf resp =
  let frame id ty fields = Json.write buf (Json.Obj (("id", Json.Int id) :: ("type", Json.Str ty) :: fields)) in
  match resp with
  | Ack { id; detail } -> frame id "ok" detail
  | Rows { id; rows } ->
      let rows = Array.of_list (List.map Array.of_list rows) in
      write_rows buf ~id rows ~first:0 ~stop:(Array.length rows)
  | Done { id; detail } -> frame id "done" detail
  | Failed { id; code; message } ->
      frame id "error"
        [ ("code", Json.Str (error_code_to_string code)); ("message", Json.Str message) ]

let encode_response resp =
  let buf = Buffer.create 256 in
  write_response buf resp;
  Buffer.contents buf

let decode_response line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok j -> (
      try
        let id = int_field "id" j in
        let detail_of j =
          match j with
          | Json.Obj fields -> List.filter (fun (k, _) -> k <> "id" && k <> "type") fields
          | _ -> []
        in
        match str_field "type" j with
        | "ok" -> Ok (Ack { id; detail = detail_of j })
        | "done" -> Ok (Done { id; detail = detail_of j })
        | "rows" ->
            let rows = List.map (decode_row "rows") (as_list "rows" (field "rows" j)) in
            Ok (Rows { id; rows })
        | "error" ->
            let code_s = str_field "code" j in
            let code =
              match error_code_of_string code_s with
              | Some c -> c
              | None -> failf "unknown error code %S" code_s
            in
            Ok (Failed { id; code; message = str_field "message" j })
        | ty -> Error (Printf.sprintf "unknown response type %S" ty)
      with Bad msg -> Error msg)
