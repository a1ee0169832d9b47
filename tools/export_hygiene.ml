(* Export hygiene: every [val] that a lib/<dir>/<m>.mli exports must
   have a caller outside test/, or a line on the allowlist.

   A val [v] of module [M] (or of its submodule [M.Sub]) counts as
   called when an .ml under lib, bin, bench, perfbench or examples,
   other than M's own <m>.ml, names it
   - qualified, as [M.v] or [M.Sub.v] (anywhere inside a longer path,
     so [Rsj_core.M.v] counts), or
   - as the bare word [v], in a file that binds an alias to M
     ([module X = ... M] or [module X = ... M.Sub]).
   Comments, string and char literals are blanked first, so a mention
   in prose is not a caller.

   The scan is textual. It cannot see a use through [open M],
   [let open M in], [M.( ... )], [include M], a functor argument or a
   first-class module, nor any use from an .mli; such an export is
   flagged, and is then called qualified or allowlisted.

   The allowlist names a [Module] (every val of it) or a
   [Module.val] / [Module.Sub.val] per line, each followed by
   [# reason]. An entry without a reason, one that names no export,
   and one that names only called exports all fail the rule, so the
   list stays short and true.

   Usage: export_hygiene.exe ALLOWLIST (run from the repository
   root). Exits 1 and lists the offenders when the rule fails. *)

let caller_roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec files_under ext dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name.[0] = '.' || name = "_build" || name = "work" then []
           else files_under ext path
         else if Filename.check_suffix name ext then [ path ]
         else [])

(* Blank every comment (nested), string literal and char literal,
   keeping the rest of the text in place. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let rec string_lit i =
    (* [i] is just past the opening quote; returns the index past the
       closing one. *)
    if i >= n then n
    else (
      blank i;
      match src.[i] with
      | '\\' when i + 1 < n ->
          blank (i + 1);
          string_lit (i + 2)
      | '"' -> i + 1
      | _ -> string_lit (i + 1))
  in
  let rec comment depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then (
      blank i;
      blank (i + 1);
      comment (depth + 1) (i + 2))
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then (
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else comment (depth - 1) (i + 2))
    else if src.[i] = '"' then (
      blank i;
      comment depth (string_lit (i + 1)))
    else (
      blank i;
      comment depth (i + 1))
  in
  let rec code i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then code (comment 0 i)
      else if src.[i] = '"' then (
        blank i;
        code (string_lit (i + 1)))
      else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' && src.[i + 1] <> '\\'
      then (
        blank (i + 1);
        code (i + 3))
      else if src.[i] = '\'' && i + 1 < n && src.[i + 1] = '\\' then (
        let j = ref (i + 1) in
        while !j < n && src.[!j] <> '\'' do
          blank !j;
          incr j
        done;
        code (!j + 1))
      else code (i + 1)
  in
  code 0;
  Bytes.to_string out

(* The text as a list of tokens: dotted paths of identifiers
   ([Rsj_core.Dist.draw] is one token) and single punctuation
   characters. *)
let tokens src =
  let src = strip src in
  let n = String.length src in
  let is_ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident src.[i] then (
      let j = ref i in
      let dotted k = src.[k] = '.' && k + 1 < n && is_ident src.[k + 1] in
      while !j < n && (is_ident src.[!j] || dotted !j) do
        incr j
      done;
      go !j (String.sub src i (!j - i) :: acc))
    else if src.[i] = ' ' || src.[i] = '\n' || src.[i] = '\t' || src.[i] = '\r' then go (i + 1) acc
    else go (i + 1) (String.make 1 src.[i] :: acc)
  in
  go 0 []

let module_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Every val of an .mli, as its path below the module: ["v"] or
   ["Sub"; "v"]. *)
let exports mli =
  let rec go stack pending acc = function
    | [] -> List.rev acc
    | "module" :: name :: rest -> go stack (Some name) acc rest
    | "sig" :: rest -> go (Option.value pending ~default:"_" :: stack) None acc rest
    | "end" :: rest -> go (match stack with [] -> [] | _ :: s -> s) None acc rest
    | "val" :: name :: rest when name <> "(" ->
        go stack None (List.rev (name :: stack) :: acc) rest
    | _ :: rest -> go stack pending acc rest
  in
  go [] None [] (tokens (read_file mli))

type caller = {
  path : string;
  segments : string list list;  (** each path token, split at dots *)
  words : (string, unit) Hashtbl.t;  (** every identifier in the file *)
  aliased : string list;  (** module names some [module X = ...] path names *)
}

let caller path =
  let toks = tokens (read_file path) in
  let segments = List.map (String.split_on_char '.') toks in
  let words = Hashtbl.create 256 in
  List.iter (List.iter (fun w -> Hashtbl.replace words w ())) segments;
  let rec aliases acc = function
    | "module" :: _ :: "=" :: target :: rest -> aliases (String.split_on_char '.' target @ acc) rest
    | _ :: rest -> aliases acc rest
    | [] -> acc
  in
  { path; segments; words; aliased = aliases [] toks }

(* [needle] occurs as a contiguous run inside [hay]. *)
let rec infix needle hay =
  let rec prefix n h =
    match (n, h) with [], _ -> true | x :: n, y :: h -> x = y && prefix n h | _, [] -> false
  in
  match hay with [] -> false | _ :: rest -> prefix needle hay || infix needle rest

let called callers ~own full =
  let v = List.nth full (List.length full - 1) in
  let modules = List.filteri (fun i _ -> i < List.length full - 1) full in
  List.exists
    (fun c ->
      c.path <> own
      && (List.exists (infix full) c.segments
         || (List.exists (fun a -> List.mem a modules) c.aliased && Hashtbl.mem c.words v)))
    callers

(* Allowlist lines: [Name  # reason]; blank lines and lines that start
   with '#' are ignored. *)
let allowlist path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line '#' with
           | Some i when String.trim (String.sub line (i + 1) (String.length line - i - 1)) <> "" ->
               Some (String.trim (String.sub line 0 i), true)
           | _ -> Some (line, false))

let () =
  let list_file = Sys.argv.(1) in
  let callers = List.concat_map (files_under ".ml") caller_roots |> List.map caller in
  let entries = allowlist list_file in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, reason) -> if not reason then problem "%s: entry %s has no # reason" list_file name)
    entries;
  let allowed = List.map fst entries in
  let used = Hashtbl.create 16 in
  let all = ref [] in
  List.iter
    (fun mli ->
      let m = module_of mli in
      let own = Filename.remove_extension mli ^ ".ml" in
      List.iter
        (fun sub_v ->
          let name = String.concat "." (m :: sub_v) in
          all := m :: name :: !all;
          if not (called callers ~own (m :: sub_v)) then
            match List.find_opt (fun a -> a = m || a = name) allowed with
            | Some a -> Hashtbl.replace used a ()
            | None -> problem "%s: %s has no caller outside test/" mli name)
        (exports mli))
    (files_under ".mli" "lib");
  List.iter
    (fun a ->
      if not (List.mem a !all) then problem "%s: entry %s names no lib export" list_file a
      else if not (Hashtbl.mem used a) then problem "%s: entry %s is called; drop it" list_file a)
    allowed;
  match List.rev !problems with
  | [] -> ()
  | ps ->
      List.iter prerr_endline ps;
      Printf.eprintf "export-hygiene: %d problem(s)\n" (List.length ps);
      exit 1
