(* Minimal JSON: just enough for the telemetry exporters to build
   documents safely (escaping, number formatting) and for the tests to
   parse emitted artifacts back — no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(* Bytes that need no escape are copied in runs, one
   [Buffer.add_substring] per run [s.[start .. i-1]]. *)
let rec escape_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
        escape_from buf s (i + 1) (i + 1)
    | _ -> escape_from buf s start (i + 1)

let write_string buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

(* The digits of [n <= 0]: on [-|i|], [min_int] needs no special case. *)
let rec write_digits buf n =
  if n <= -10 then write_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let write_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  write_digits buf (if i < 0 then i else -i)

(* The shortest of [%.15g] and [%.17g] that re-parses to [f] exactly,
   always carrying a [.] or an exponent so it re-parses as a float. *)
let write_float buf f =
  Buffer.add_string buf
    (if not (Float.is_finite f) then "null" (* JSON has no NaN or infinity *)
     else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
     else
       let s = Printf.sprintf "%.15g" f in
       let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
       if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0")

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> write_int buf i
  | Float f -> write_float buf f
  | Str s -> write_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent)                                         *)

exception Bad of string

(* The parser recurses once per nesting level, so an unbounded depth
   lets one request line overflow the daemon's stack. Every document
   this library emits nests a handful of levels deep. *)
let max_depth = 64

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  (* ['\000'] at the end: callers that care test [!pos < n] first. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if !pos < n && s.[!pos] = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* Strings are read in runs between escapes: one [String.sub] when
     there is no escape, else one [Buffer.add_substring] per run. *)
  let skip_run () =
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
      advance ()
    done;
    if !pos >= n then fail "unterminated string";
    start
  in
  let parse_string () =
    expect '"';
    let start = skip_run () in
    if s.[!pos] = '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create 16 in
      let rec go start =
        Buffer.add_substring buf s start (!pos - start);
        advance ();
        if s.[!pos - 1] = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> (
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code ->
                  (* A BMP code point, as UTF-8. *)
                  Buffer.add_utf_8_uchar buf (Uchar.unsafe_of_int code);
                  pos := !pos + 3
              | None -> fail "bad \\u escape")
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go (skip_run ())
        end
      in
      go start;
      Buffer.contents buf
    end
  in
  let num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  let parse_number () =
    let start = !pos in
    (* A plain integer of at most 18 digits and no leading zero fits an
       int: a digit loop reads it. Anything else takes the general path. *)
    let first = if s.[start] = '-' then start + 1 else start in
    let stop = ref first and acc = ref 0 in
    while !stop < n && !stop - first < 19 && s.[!stop] >= '0' && s.[!stop] <= '9' do
      acc := (!acc * 10) + Char.code s.[!stop] - 48;
      incr stop
    done;
    let digits = !stop - first in
    if digits >= 1 && digits <= 18 && (digits = 1 || s.[first] <> '0')
       && not (!stop < n && num_char s.[!stop])
    then begin
      pos := !stop;
      Int (if first > start then - !acc else !acc)
    end
    else begin
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      let float () =
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" lit)
      in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then float ()
      else match int_of_string_opt lit with Some i -> Int i | None -> float ()
    end
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | ('[' | '{') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | c when num_char c -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
