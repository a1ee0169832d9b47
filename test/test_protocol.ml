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

(* A byte that starts no JSON value is named, with its offset, rather
   than read as an empty number. *)
let test_unexpected_character () =
  List.iter
    (fun (doc, want) ->
      match Json.parse doc with
      | Ok _ -> Alcotest.failf "parsed %S" doc
      | Error msg -> Alcotest.(check string) doc want msg)
    [
      ("bogus", "unexpected character 'b' at offset 0");
      ("@", "unexpected character '@' at offset 0");
      ("}", "unexpected character '}' at offset 0");
      ({|{"n": @}|}, "unexpected character '@' at offset 6");
    ];
  match P.decode_request "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus"
  | Error msg ->
      Alcotest.(check bool) ("request names the byte: " ^ msg) true
        (contains msg "unexpected character 'b' at offset 0")

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

(* [s] with the first occurrence of [sub] replaced by [by]. *)
let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* Error codes cross the wire by name: an error frame decodes to the
   code it was encoded with, and an unknown name is refused. *)
(* A request line nested 100k deep is refused as a bad request, not a
   stack overflow that would end the daemon. *)
let test_deep_nesting_refused () =
  List.iter
    (fun line ->
      match P.decode_request line with
      | Ok _ -> Alcotest.fail "decoded a 100k-deep line"
      | Error _ -> ())
    [ String.make 100_000 '['; {|{"op":"ping","id":|} ^ String.make 100_000 '[' ]

let test_error_codes () =
  let failed code = P.encode_response (P.Failed { id = 3; code; message = "m" }) in
  List.iter
    (fun c ->
      let s = P.error_code_to_string c in
      match decode_resp (failed c) with
      | P.Failed { code; _ } -> Alcotest.(check bool) ("round-trips: " ^ s) true (code = c)
      | _ -> Alcotest.failf "%s: not an error frame" s)
    all_codes;
  let names = List.map P.error_code_to_string all_codes in
  Alcotest.(check int) "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  let name = P.error_code_to_string P.Bad_request in
  Alcotest.(check bool) "unknown name" true
    (Result.is_error
       (P.decode_response
          (replace_first ~sub:("\"" ^ name ^ "\"") ~by:"\"Bad_request\"" (failed P.Bad_request))))

(* The cell codec, through a rows frame: every value kind comes back
   equal, and a JSON value that is no cell is refused. *)
let test_cell_codec () =
  let line v = P.encode_response (P.Rows { id = 1; rows = [ [ v ] ] }) in
  List.iter
    (fun v ->
      match decode_resp (line v) with
      | P.Rows { rows = [ [ v' ] ]; _ } ->
          Alcotest.(check bool) ("cell " ^ Value.to_string v) true (v = v')
      | _ -> Alcotest.failf "cell %s: no single cell back" (Value.to_string v))
    [ Value.Null; Value.Int 0; Value.Int max_int; Value.Int min_int; Value.Float 3.75; Value.Str "é\t" ];
  List.iter
    (fun j ->
      Alcotest.(check bool) ("rejects " ^ j) true
        (Result.is_error
           (P.decode_response (replace_first ~sub:"424242" ~by:j (line (Value.Int 424242))))))
    [ "true"; "[]"; "{}" ]

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

(* The daemon encodes frames into a reused buffer: write_response
   appends exactly encode_response's bytes after what is there. *)
let test_write_response () =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "prefix|";
  let frames =
    [
      P.Ack { id = 1; detail = [ ("k", Json.Int 2) ] };
      P.Rows { id = 1; rows = [ [ Value.Int 1; Value.Null ]; [ Value.Str "a\nb"; Value.Float 0.5 ] ] };
      P.Done { id = 1; detail = [] };
      P.Failed { id = 2; code = P.Overloaded; message = "busy" };
    ]
  in
  List.iter (P.write_response buf) frames;
  Alcotest.(check string) "appended encodings"
    ("prefix|" ^ String.concat "" (List.map P.encode_response frames))
    (Buffer.contents buf)

(* Socket addresses: tcp:HOST:PORT is TCP (the port after the last
   colon, so a host may hold colons), anything else a Unix path with
   one "unix:" prefix stripped, and printing an address parses back to
   it. *)
let test_server_addresses () =
  let module S = Rsj_server.Server in
  let parse s = match S.addr_of_string s with Ok a -> a | Error e -> Alcotest.failf "%s: %s" s e in
  Alcotest.(check bool) "tcp" true (parse "tcp:127.0.0.1:7411" = S.Tcp ("127.0.0.1", 7411));
  Alcotest.(check bool) "bare path" true (parse "/run/rsj.sock" = S.Unix_path "/run/rsj.sock");
  Alcotest.(check bool) "unix: prefix stripped" true
    (parse "unix:/run/rsj.sock" = S.Unix_path "/run/rsj.sock");
  Alcotest.(check bool) "unix: stripped once, colons kept" true
    (parse "unix:/a:b" = S.Unix_path "/a:b" && parse "unix:unix:x" = S.Unix_path "unix:x");
  Alcotest.(check bool) "tcp host with colons" true
    (parse "tcp:::1:7411" = S.Tcp ("::1", 7411) && parse "tcp:a:b:1" = S.Tcp ("a:b", 1));
  List.iter
    (fun a -> Alcotest.(check bool) (S.addr_to_string a) true (parse (S.addr_to_string a) = a))
    [
      S.Tcp ("localhost", 1); S.Tcp ("10.0.0.7", 65535); S.Tcp ("::1", 7411);
      S.Tcp ("fe80::1:2", 80); S.Unix_path "rel/sock"; S.Unix_path "/a:b";
    ];
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejected: " ^ bad) true (Result.is_error (S.addr_of_string bad)))
    [ "tcp:host:0"; "tcp:host:65536"; "tcp:host:http"; "tcp:host"; "tcp:::1:http"; "tcp:::1:" ]

(* ---------- the rows writer: the bytes did not move ---------- *)

(* The rows frame as the Json.t route wrote it before the writer: a
   tree per frame, strings escaped byte by byte, ints through
   string_of_int, floats in the fewest of 15 or 17 digits. Kept here,
   independent of Obs.Json's printer, to pin the wire bytes. *)
let reference_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let reference_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let reference_rows_frame ~id rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("{\"id\":" ^ string_of_int id ^ ",\"type\":\"rows\",\"rows\":[");
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      List.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ',';
          match v with
          | Value.Null -> Buffer.add_string buf "null"
          | Value.Int n -> Buffer.add_string buf (string_of_int n)
          | Value.Float f -> Buffer.add_string buf (reference_float f)
          | Value.Str s -> reference_string buf s)
        row;
      Buffer.add_char buf ']')
    rows;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let gen_cell =
  let open QCheck.Gen in
  frequency
    [
      (1, return Value.Null);
      (3, map (fun i -> Value.Int i) (oneof [ oneofl [ 0; 1; -1; max_int; min_int ]; int ]));
      ( 3,
        map
          (fun f -> Value.Float f)
          (oneof
             [
               oneofl
                 [ 0.; -0.; 1.; -3.; 1e15; 2. ** 60.; Float.nan; Float.infinity;
                   Float.neg_infinity; 5e-324; 2.2e-308 /. 3.; Float.min_float ];
               map float_of_int small_signed_int;
               float;
             ]) );
      ( 3,
        map
          (fun s -> Value.Str s)
          (oneof
             [
               oneofl [ ""; "\""; "\\"; "a\"b\\c"; "\000\031\127\255" ];
               string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 24);
             ]) );
    ]

let gen_rows =
  QCheck.Gen.(array_size (int_bound 12) (array_size (int_range 1 6) gen_cell))

let arb_frame =
  QCheck.make
    ~print:(fun (id, rows, _, _) ->
      Printf.sprintf "id %d, %d rows: %s" id (Array.length rows)
        (reference_rows_frame ~id (Array.to_list (Array.map Array.to_list rows))))
    QCheck.Gen.(
      gen_rows >>= fun rows ->
      let n = Array.length rows in
      int_bound n >>= fun first ->
      int_range first n >>= fun stop ->
      map (fun id -> (id, rows, first, stop)) (oneof [ int; oneofl [ 0; -1; min_int ] ]))

(* The writer's bytes for any slice equal the reference's for that
   slice, encode_response of the Rows value gives the same bytes, and
   the client decodes them back to the rows (non-finite floats, which
   JSON cannot carry, as NULL). *)
let prop_rows_writer_bytes =
  QCheck.Test.make ~name:"rows writer = Json.t route, byte for byte" ~count:500 arb_frame
    (fun (id, rows, first, stop) ->
      let slice = Array.to_list (Array.map Array.to_list (Array.sub rows first (stop - first))) in
      let expected = reference_rows_frame ~id slice in
      let buf = Buffer.create 16 in
      P.write_rows buf ~id rows ~first ~stop;
      let on_wire = function Value.Float f when not (Float.is_finite f) -> Value.Null | v -> v in
      Buffer.contents buf = expected
      && P.encode_response (P.Rows { id; rows = slice }) = expected
      && decode_resp expected = P.Rows { id; rows = List.map (List.map on_wire) slice })

(* Number literals parse as the generic route read them: a digit loop
   takes plain integers of at most 18 digits, and everything else
   (leading zeros, fractions, exponents, a bare sign, longer literals)
   goes through int_of_string / float_of_string as before. *)
let reference_number lit =
  let float () = Option.map (fun f -> Json.Float f) (float_of_string_opt lit) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then float ()
  else match int_of_string_opt lit with Some i -> Some (Json.Int i) | None -> float ()

let number_literals =
  [
    "007"; "-0"; "0"; "-007"; "1e5"; "-"; "1-2"; "+5"; "1.5"; "-2.5E-3";
    "123456789012345678"; "-999999999999999999"; "1234567890123456789";
    "9999999999999999999"; "12345678901234567890"; "-12345678901234567890";
    "4611686018427387904"; "-4611686018427387904"; "4611686018427387903";
  ]

let prop_number_literals =
  let gen =
    QCheck.Gen.(
      pair
        (oneof
           [
             oneofl number_literals;
             map string_of_int int;
             map2
               (fun sign digits -> sign ^ digits)
               (oneofl [ ""; "-" ])
               (string_size ~gen:(char_range '0' '9') (int_range 1 22));
           ])
        (oneofl [ `Bare; `In_list; `In_object ]))
  in
  QCheck.Test.make ~name:"Json.parse reads number literals as before" ~count:1000
    (QCheck.make ~print:(fun (lit, _) -> lit) gen)
    (fun (lit, ctx) ->
      let doc, unwrap =
        match ctx with
        | `Bare -> (lit, fun j -> Some j)
        | `In_list -> ("[ " ^ lit ^ ",1]", function Json.List [ j; _ ] -> Some j | _ -> None)
        | `In_object -> ({|{"n":|} ^ lit ^ "}", Json.member "n")
      in
      match (reference_number lit, Json.parse doc) with
      | Some expected, Ok j -> unwrap j = Some expected
      | None, Error _ -> true
      | _ -> false)

(* ---------- the shared line reader ---------- *)

let test_line_reader () =
  let module L = Rsj_server.Line_reader in
  let rd, wr = Unix.pipe () in
  Fun.protect ~finally:(fun () -> Unix.close rd; Unix.close wr) @@ fun () ->
  let r = L.create () in
  let feed s =
    ignore (Unix.write_substring wr s 0 (String.length s));
    let got = ref 0 in
    while !got < String.length s do
      got := !got + L.read r rd
    done
  in
  let rec lines acc = match L.next r with Some l -> lines (l :: acc) | None -> List.rev acc in
  let check what expected = Alcotest.(check (list string)) what expected (lines []) in
  check "nothing yet" [];
  feed "{\"op\":";
  check "a fragment is no line" [];
  feed "\"ping\"";
  check "still no line" [];
  feed "}\nab";
  check "a line split across reads" [ {|{"op":"ping"}|} ];
  feed "c\r\n\r\n\nd\r\ne\n";
  check "the fragment kept; \\r\\n endings stripped; empty lines returned empty"
    [ "abc"; ""; ""; "d"; "e" ];
  feed "tail";
  check "no newline, no line" [];
  feed (String.make 40_000 'x');
  feed (String.make 40_000 'y');
  feed "\r\n";
  check "a line longer than the buffer"
    [ "tail" ^ String.make 40_000 'x' ^ String.make 40_000 'y' ];
  check "nothing left" []

let suite =
  [
    Alcotest.test_case "request codec round-trips every op" `Quick test_request_round_trip;
    Alcotest.test_case "request op, id and rid accessors" `Quick test_request_accessors;
    Alcotest.test_case "sample and query defaults" `Quick test_sample_defaults;
    Alcotest.test_case "malformed requests are rejected by name" `Quick test_request_rejections;
    Alcotest.test_case "response codec round-trips every frame" `Quick test_response_round_trip;
    Alcotest.test_case "malformed responses are rejected" `Quick test_response_rejections;
    Alcotest.test_case "a 100k-deep request line is refused" `Quick test_deep_nesting_refused;
    Alcotest.test_case "error codes round-trip by name" `Quick test_error_codes;
    Alcotest.test_case "write_response appends the encoded frame" `Quick test_write_response;
    Alcotest.test_case "server addresses parse and print" `Quick test_server_addresses;
    Alcotest.test_case "cell codec" `Quick test_cell_codec;
    Alcotest.test_case "float cells round-trip exactly; non-finite ones as NULL" `Quick
      test_float_cells_round_trip;
    Alcotest.test_case "Json.parse names an unexpected byte" `Quick test_unexpected_character;
    Alcotest.test_case "line reader: split lines, \\r\\n, empty lines, fragments" `Quick
      test_line_reader;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~speed_level:`Quick)
      [ prop_rows_writer_bytes; prop_number_literals ]
