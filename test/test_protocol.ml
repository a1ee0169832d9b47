(* The sampling service's wire codec on its own: every request and
   response constructor survives encode/decode, the decoder fills the
   documented defaults, and malformed lines are rejected with a message
   instead of an exception. No daemon is started here; the serve suite
   drives the same codec through a live socket. *)

open Rsj_relation
module P = Rsj_server.Protocol
module Json = Rsj_obs.Json

let decode_req line =
  match P.decode_request line with Ok r -> r | Error e -> Alcotest.failf "decode %s: %s" line e

let decode_resp line =
  match P.decode_response line with Ok r -> r | Error e -> Alcotest.failf "decode %s: %s" line e

let sample ?strategy ?deadline_ms ?rid ~wor () =
  P.Sample
    { id = 12; left = "orders"; right = "lines"; r = 250; strategy; seed = -9; wor; domains = 4;
      on = "ok"; deadline_ms; rid }

let requests =
  [
    P.Ping { id = 0 };
    P.Register { id = 1; name = "t1"; source = P.From_path "/data/t1.csv" };
    P.Register
      {
        id = 2;
        name = "inline";
        source =
          P.Inline
            ( [ ("a", Value.T_int); ("b", Value.T_float); ("c", Value.T_str) ],
              [
                [ Value.Int 1; Value.Float 2.5; Value.Str "x,\"y\"\n" ];
                [ Value.Null; Value.Float (-0.125); Value.Str "" ];
                [ Value.Int min_int; Value.Null; Value.Null ];
              ] );
      };
    P.Register { id = 3; name = "empty"; source = P.Inline ([ ("a", Value.T_int) ], []) };
    sample ~wor:false ();
    sample ~strategy:"olken" ~deadline_ms:1.5 ~rid:"req-7" ~wor:true ();
    P.Query { id = 4; sql = "SELECT * FROM t1 SAMPLE 5"; seed = 3; deadline_ms = None; rid = None };
    P.Query { id = 5; sql = "select 1"; seed = max_int; deadline_ms = Some 250.; rid = Some "q" };
    P.Invalidate { id = 6; name = "t1" };
    P.Metrics { id = 7 };
    P.Stats { id = 8 };
    P.Shutdown { id = max_int };
  ]

let test_request_round_trip () =
  List.iter
    (fun req ->
      let line = P.encode_request req in
      Alcotest.(check bool) ("one line: " ^ line) false (String.contains line '\n');
      Alcotest.(check bool) ("round-trips: " ^ line) true (decode_req line = req))
    requests

let test_request_accessors () =
  Alcotest.(check (list string))
    "op names"
    [ "ping"; "register"; "register"; "register"; "sample"; "sample"; "query"; "query";
      "invalidate"; "metrics"; "stats"; "shutdown" ]
    (List.map P.request_op requests);
  Alcotest.(check (list int))
    "ids"
    [ 0; 1; 2; 3; 12; 12; 4; 5; 6; 7; 8; max_int ]
    (List.map P.request_id requests);
  Alcotest.(check (list (option string)))
    "rids"
    [ None; None; None; None; None; Some "req-7"; None; Some "q"; None; None; None; None ]
    (List.map P.request_rid requests)

let test_sample_defaults () =
  match decode_req {|{"op":"sample","id":1,"left":"a","right":"b","r":3}|} with
  | P.Sample { strategy; seed; wor; domains; on; deadline_ms; rid; _ } ->
      Alcotest.(check (option string)) "picker" None strategy;
      Alcotest.(check int) "seed" 0x5EED seed;
      Alcotest.(check bool) "wr" false wor;
      Alcotest.(check int) "domains" 1 domains;
      Alcotest.(check string) "join column" "col2" on;
      Alcotest.(check bool) "no deadline" true (deadline_ms = None);
      Alcotest.(check (option string)) "no rid" None rid;
      (match decode_req {|{"op":"sample","id":1,"left":"a","right":"b","r":3,"seed":null,"wor":null}|} with
      | P.Sample { seed; wor; _ } ->
          Alcotest.(check int) "null seed is the default" 0x5EED seed;
          Alcotest.(check bool) "null wor is the default" false wor
      | _ -> Alcotest.fail "not a sample");
      (match decode_req {|{"op":"query","id":2,"sql":"select 1"}|} with
      | P.Query { seed; _ } -> Alcotest.(check int) "query seed" 0x5EED seed
      | _ -> Alcotest.fail "not a query")
  | _ -> Alcotest.fail "not a sample"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_request_rejections () =
  List.iter
    (fun (line, why) ->
      match P.decode_request line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error msg ->
          Alcotest.(check bool) (Printf.sprintf "%s names %S (got %S)" line why msg) true (contains msg why))
    [
      ("not json", "bad JSON");
      ({|{"op":"ping"}|}, "\"id\"");
      ({|{"op":"ping","id":"1"}|}, "\"id\"");
      ({|{"id":1}|}, "\"op\"");
      ({|{"op":"dance","id":1}|}, "dance");
      ({|{"op":"sample","id":1,"left":"a","right":"b"}|}, "\"r\"");
      ({|{"op":"sample","id":1,"left":"a","right":"b","r":1.5}|}, "\"r\"");
      ({|{"op":"sample","id":1,"left":"a","right":"b","r":1,"wor":1}|}, "\"wor\"");
      ({|{"op":"sample","id":1,"left":"a","right":"b","r":1,"strategy":3}|}, "\"strategy\"");
      ({|{"op":"register","id":1,"name":"t"}|}, "path or inline rows");
      ({|{"op":"register","id":1,"name":"t","path":"p","rows":[]}|}, "not both");
      ({|{"op":"register","id":1,"name":"t","schema":[{"name":"a","type":"date"}],"rows":[]}|}, "date");
      ({|{"op":"register","id":1,"name":"t","schema":[{"name":"a","type":"int"}],"rows":[[true]]}|},
        "cell must be");
      ({|{"op":"invalidate","id":1}|}, "\"name\"");
    ]

let responses =
  [
    P.Ack { id = 1; detail = [] };
    P.Ack { id = 2; detail = [ ("rows", Json.Int 3); ("name", Json.Str "t1") ] };
    P.Rows { id = 3; rows = [ [ Value.Int 1; Value.Str "a" ]; [ Value.Null; Value.Float 0.5 ] ] };
    P.Rows { id = 4; rows = [] };
    P.Done { id = 5; detail = [ ("rid", Json.Str "r-1"); ("elapsed_ms", Json.Float 1.25) ] };
    P.Failed { id = 6; code = P.Overloaded; message = "queue full" };
    P.Failed { id = 7; code = P.Internal_error; message = "Out_of_memory" };
  ]

let test_response_round_trip () =
  List.iter
    (fun resp ->
      let line = P.encode_response resp in
      let back = decode_resp line in
      Alcotest.(check bool) ("round-trips: " ^ line) true (back = resp);
      Alcotest.(check int) "response_id" (P.response_id resp) (P.response_id back))
    responses

let test_response_rejections () =
  List.iter
    (fun line ->
      match P.decode_response line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error _ -> ())
    [
      "[";
      {|{"type":"ok"}|};
      {|{"id":1}|};
      {|{"id":1,"type":"maybe"}|};
      {|{"id":1,"type":"error","code":"teapot","message":"m"}|};
      {|{"id":1,"type":"error","code":"overloaded"}|};
      {|{"id":1,"type":"rows"}|};
      {|{"id":1,"type":"rows","rows":[[{"a":1}]]}|};
    ]

let all_codes =
  P.
    [
      Bad_request; Unknown_relation; Unknown_strategy; Engine_error; Deadline_exceeded;
      Overloaded; Shutting_down; Internal_error;
    ]

let test_error_codes () =
  List.iter
    (fun c ->
      let s = P.error_code_to_string c in
      Alcotest.(check bool) ("round-trips: " ^ s) true (P.error_code_of_string s = Some c))
    all_codes;
  let names = List.map P.error_code_to_string all_codes in
  Alcotest.(check int) "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "unknown name" true (P.error_code_of_string "Bad_request" = None)

let test_cell_codec () =
  List.iter
    (fun v ->
      match P.value_of_json (P.value_to_json v) with
      | Ok v' -> Alcotest.(check bool) ("cell " ^ Value.to_string v) true (v = v')
      | Error e -> Alcotest.failf "cell %s: %s" (Value.to_string v) e)
    [ Value.Null; Value.Int 0; Value.Int max_int; Value.Int min_int; Value.Float 3.75; Value.Str "é\t" ];
  List.iter
    (fun j ->
      Alcotest.(check bool) ("rejects " ^ Json.to_string j) true (Result.is_error (P.value_of_json j)))
    Json.[ Bool true; List []; Obj [] ];
  Alcotest.(check string) "tuple_to_json" {|[1,null,"s"]|}
    (Json.to_string (P.tuple_to_json [| Value.Int 1; Value.Null; Value.Str "s" |]))

(* A Float cell crosses the wire unchanged, however many digits it
   needs; a non-finite one, which JSON cannot carry, arrives as NULL. *)
let test_float_cells_round_trip () =
  let rows_frame v = P.Rows { id = 1; rows = [ [ Value.Float v ] ] } in
  let back v =
    match decode_resp (P.encode_response (rows_frame v)) with
    | P.Rows { rows = [ [ cell ] ]; _ } -> cell
    | _ -> Alcotest.failf "no single cell back for %h" v
  in
  List.iter
    (fun v ->
      match back v with
      | Value.Float v' when Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v') -> ()
      | cell -> Alcotest.failf "%h came back as %s" v (Value.to_string cell))
    [
      0.1234567891234; 0.1; 1. /. 3.; -2. /. 3.; 1e-300; 5e-324; Float.max_float;
      Float.min_float; -0.; 1e15 +. 1.; 2. ** 53. +. 2.; 1e22; 123456789.123456789;
      Float.pi; Float.epsilon;
    ];
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "%h arrives as NULL" v) true (back v = Value.Null))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let suite =
  [
    Alcotest.test_case "request codec round-trips every op" `Quick test_request_round_trip;
    Alcotest.test_case "request op, id and rid accessors" `Quick test_request_accessors;
    Alcotest.test_case "sample and query defaults" `Quick test_sample_defaults;
    Alcotest.test_case "malformed requests are rejected by name" `Quick test_request_rejections;
    Alcotest.test_case "response codec round-trips every frame" `Quick test_response_round_trip;
    Alcotest.test_case "malformed responses are rejected" `Quick test_response_rejections;
    Alcotest.test_case "error codes round-trip by name" `Quick test_error_codes;
    Alcotest.test_case "cell codec" `Quick test_cell_codec;
    Alcotest.test_case "float cells round-trip exactly; non-finite ones as NULL" `Quick
      test_float_cells_round_trip;
  ]
