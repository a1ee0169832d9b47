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

(* Field splitting. One pass over a record finds its fields' bounds
   without copying them: field [f] is [line.[starts.(f) .. stops.(f)-1]]
   raw, with [quoted.(f)] set when a quote occurs in it. Quoted fields
   may not contain newlines (records are line-oriented in this dialect).
   The bound arrays are reused from line to line. *)
exception Unterminated

type fields = {
  mutable starts : int array;
  mutable stops : int array;
  mutable quoted : bool array;
  mutable count : int;
}

let fields () = { starts = Array.make 8 0; stops = Array.make 8 0; quoted = Array.make 8 false; count = 0 }

let split f line =
  let n = String.length line in
  f.count <- 0;
  let push start stop q =
    if f.count = Array.length f.starts then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      f.starts <- grow f.starts 0;
      f.stops <- grow f.stops 0;
      f.quoted <- grow f.quoted false
    end;
    f.starts.(f.count) <- start;
    f.stops.(f.count) <- stop;
    f.quoted.(f.count) <- q;
    f.count <- f.count + 1
  in
  let start = ref 0 and quoted = ref false and seen_quote = ref false in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get line !i in
    if !quoted then begin
      if c = '"' then
        if !i + 1 < n && String.unsafe_get line (!i + 1) = '"' then incr i else quoted := false
    end
    else if c = '"' then begin
      quoted := true;
      seen_quote := true
    end
    else if c = ',' then begin
      push !start !i !seen_quote;
      start := !i + 1;
      seen_quote := false
    end;
    incr i
  done;
  if !quoted then raise Unterminated;
  push !start n !seen_quote

(* A field's content: the raw slice, or, when it holds quotes, the slice
   with its quoting undone ("" inside quotes is one quote). *)
let content f line j =
  let start = f.starts.(j) and stop = f.stops.(j) in
  if not f.quoted.(j) then String.sub line start (stop - start)
  else begin
    let buf = Buffer.create (stop - start) in
    let quoted = ref false and i = ref start in
    while !i < stop do
      let c = line.[!i] in
      if !quoted && c = '"' then
        if !i + 1 < stop && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          incr i
        end
        else quoted := false
      else if c = '"' then quoted := true
      else Buffer.add_char buf c;
      incr i
    done;
    Buffer.contents buf
  end

(* Exception-free int parse for the load hot path: a manual digit loop
   covers the overwhelmingly common [+-]?[0-9]+ shape without the
   Failure-raising round trip inside [int_of_string_opt]'s caml_int_of_string,
   and anything it cannot prove in-range and decimal (overflow, '_'
   separators, 0x/0o/0b prefixes, stray characters) falls back to
   [int_of_string_opt] so accepted spellings are exactly unchanged.
   Accumulates in negative space so min_int parses without wrapping. *)
let parse_int_in s ~start:first ~stop:n =
  let slow () = int_of_string_opt (String.sub s first (n - first)) in
  if n = first then None
  else begin
    let c0 = String.unsafe_get s first in
    let neg = c0 = '-' in
    let start = if neg || c0 = '+' then first + 1 else first in
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
      if not !fast then slow ()
      else if neg then Some !acc
      else if !acc = min_int then slow ()
      else Some (- !acc)
    end
  end

(* Field [j] of the split [line] straight into column [col] of the
   pending row: an empty unquoted field is NULL, and an unquoted int
   cell is parsed in place, with no copy. *)
let store rel f line ~line_no ~col ty =
  let start = f.starts.(col) and stop = f.stops.(col) and quoted = f.quoted.(col) in
  if start = stop && not quoted then Relation.set_null rel ~col
  else
    let raw () = content f line col in
    let bad what = failwith (Printf.sprintf "Csv_io.load: line %d column %d: %S is not %s" line_no col (raw ()) what) in
    match ty with
    | Value.T_int -> (
        let parsed =
          if quoted then
            let raw = raw () in
            parse_int_in raw ~start:0 ~stop:(String.length raw)
          else parse_int_in line ~start ~stop
        in
        match parsed with Some x -> Relation.set_int rel ~col x | None -> bad "an int")
    | Value.T_float -> (
        match float_of_string_opt (raw ()) with
        | Some x -> Relation.set_float rel ~col x
        | None -> bad "a float")
    | Value.T_str -> Relation.set_str rel ~col (raw ())

let load ?name ~path schema =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rel = Relation.create ~name:(Option.value name ~default:(Filename.basename path)) schema in
      let f = fields () in
      let header = try input_line ic with End_of_file -> failwith "Csv_io.load: empty file" in
      (try split f header with Unterminated -> failwith "Csv_io.parse_line: unterminated quote");
      let header_fields = List.init f.count (content f header) in
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
             (try split f line with Unterminated -> failwith "Csv_io: unterminated quote");
             if f.count <> Array.length tys then
               failwith
                 (Printf.sprintf "Csv_io.load: line %d: %d fields, expected %d" !line_no f.count
                    (Array.length tys));
             Array.iteri (fun col ty -> store rel f line ~line_no:!line_no ~col ty) tys;
             Relation.commit rel
           end
         done
       with End_of_file -> ());
      rel)
