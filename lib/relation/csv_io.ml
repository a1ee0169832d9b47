let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let field_of_value = function
  | Value.Null -> ""
  | Value.Int x -> string_of_int x
  | Value.Float x -> Printf.sprintf "%.17g" x
  | Value.Str "" -> "\"\"" (* quoted, to tell the empty string from NULL *)
  | Value.Str s -> escape_field s

let save ~path rel =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let schema = Relation.schema rel in
      let header =
        Array.to_list (Schema.columns schema)
        |> List.map (fun (c : Schema.column) -> escape_field c.name)
        |> String.concat ","
      in
      output_string oc header;
      output_char oc '\n';
      Relation.iter rel (fun row ->
          let line =
            Array.to_list row |> List.map field_of_value |> String.concat ","
          in
          output_string oc line;
          output_char oc '\n'))

(* A tiny state machine splits one record into fields. Quoted fields may
   not contain newlines (records are line-oriented in this dialect). *)
let parse_line line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let quoted = ref false in
  (* was_quoted distinguishes "" (empty string) from an empty field (NULL) *)
  let was_quoted = ref false in
  let flush () =
    let raw = Buffer.contents buf in
    let tagged = if !was_quoted then "\"" ^ raw else raw in
    fields := tagged :: !fields;
    Buffer.clear buf;
    was_quoted := false
  in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if !quoted then begin
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          incr i
        end
        else quoted := false
      else Buffer.add_char buf c
    end
    else if c = '"' then begin
      quoted := true;
      was_quoted := true
    end
    else if c = ',' then flush ()
    else Buffer.add_char buf c;
    incr i
  done;
  if !quoted then failwith "Csv_io.parse_line: unterminated quote";
  flush ();
  List.rev_map
    (fun f ->
      (* strip the was-quoted tag; callers see the raw content *)
      if String.length f > 0 && f.[0] = '"' then String.sub f 1 (String.length f - 1) else f)
    !fields

(* parse_line returns raw fields but loses the quoted/NULL distinction;
   re-derive it here by looking at the original text per field. *)
let split_with_null_info line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let quoted = ref false in
  let was_quoted = ref false in
  let flush () =
    fields := (Buffer.contents buf, !was_quoted) :: !fields;
    Buffer.clear buf;
    was_quoted := false
  in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if !quoted then begin
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          incr i
        end
        else quoted := false
      else Buffer.add_char buf c
    end
    else if c = '"' then begin
      quoted := true;
      was_quoted := true
    end
    else if c = ',' then flush ()
    else Buffer.add_char buf c;
    incr i
  done;
  if !quoted then failwith "Csv_io: unterminated quote";
  flush ();
  List.rev !fields

(* Exception-free int parse for the load hot path: a manual digit loop
   covers the overwhelmingly common [+-]?[0-9]+ shape without the
   Failure-raising round trip inside [int_of_string_opt]'s caml_int_of_string,
   and anything it cannot prove in-range and decimal (overflow, '_'
   separators, 0x/0o/0b prefixes, stray characters) falls back to
   [int_of_string_opt] so accepted spellings are exactly unchanged.
   Accumulates in negative space so min_int parses without wrapping. *)
let parse_int s =
  let n = String.length s in
  if n = 0 then None
  else begin
    let c0 = String.unsafe_get s 0 in
    let neg = c0 = '-' in
    let start = if neg || c0 = '+' then 1 else 0 in
    if n = start then None
    else begin
      let lim = min_int / 10 in
      let acc = ref 0 in
      let i = ref start in
      let fast = ref true in
      while !fast && !i < n do
        let d = Char.code (String.unsafe_get s !i) - Char.code '0' in
        if d < 0 || d > 9 then fast := false
        else if !acc < lim then fast := false
        else begin
          let a = !acc * 10 in
          if a < min_int + d then fast := false else acc := a - d;
          if !fast then incr i
        end
      done;
      if not !fast then int_of_string_opt s
      else if neg then Some !acc
      else if !acc = min_int then int_of_string_opt s
      else Some (- !acc)
    end
  end

let value_of_field ~line_no ~col (raw, was_quoted) ty =
  if raw = "" && not was_quoted then Value.Null
  else
    match ty with
    | Value.T_int -> (
        match parse_int raw with
        | Some x -> Value.Int x
        | None ->
            failwith
              (Printf.sprintf "Csv_io.load: line %d column %d: %S is not an int" line_no col raw))
    | Value.T_float -> (
        match float_of_string_opt raw with
        | Some x -> Value.Float x
        | None ->
            failwith
              (Printf.sprintf "Csv_io.load: line %d column %d: %S is not a float" line_no col raw))
    | Value.T_str -> Value.Str raw

let load ?name ~path schema =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rel = Relation.create ~name:(Option.value name ~default:(Filename.basename path)) schema in
      let header = try input_line ic with End_of_file -> failwith "Csv_io.load: empty file" in
      let header_fields = parse_line header in
      let expected =
        Array.to_list (Schema.columns schema) |> List.map (fun (c : Schema.column) -> c.name)
      in
      if header_fields <> expected then
        failwith
          (Printf.sprintf "Csv_io.load: header mismatch: got [%s], expected [%s]"
             (String.concat "; " header_fields)
             (String.concat "; " expected));
      let tys = Array.map (fun (c : Schema.column) -> c.ty) (Schema.columns schema) in
      let line_no = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr line_no;
           if line <> "" then begin
             let fields = split_with_null_info line in
             if List.length fields <> Array.length tys then
               failwith
                 (Printf.sprintf "Csv_io.load: line %d: %d fields, expected %d" !line_no
                    (List.length fields) (Array.length tys));
             let row =
               List.mapi (fun col f -> value_of_field ~line_no:!line_no ~col f tys.(col)) fields
             in
             Relation.append rel (Array.of_list row)
           end
         done
       with End_of_file -> ());
      rel)
