(* [bytes.[start .. len-1]] is input not yet taken as lines, and
   [bytes.[start .. scanned-1]] holds no newline. *)
type t = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable start : int;
  mutable scanned : int;
  max_line : int;
}

exception Too_long of int

let create ?(max_line = max_int) () =
  { bytes = Bytes.create 65536; len = 0; start = 0; scanned = 0; max_line }

(* Before a read every complete line has been taken, so what moves to
   the front is part of one line, and it moves once: [start] stays 0
   until that line is taken. *)
let read t fd =
  let keep = t.len - t.start and size = Bytes.length t.bytes in
  let bytes = if size - keep < 4096 then Bytes.create (2 * size) else t.bytes in
  if t.start > 0 || bytes != t.bytes then Bytes.blit t.bytes t.start bytes 0 keep;
  t.bytes <- bytes;
  t.scanned <- t.scanned - t.start;
  t.start <- 0;
  t.len <- keep + Unix.read fd bytes keep (Bytes.length bytes - keep);
  t.len - keep

let rec newline t i =
  if i >= t.len then -1 else if Bytes.unsafe_get t.bytes i = '\n' then i else newline t (i + 1)

let next t =
  match newline t t.scanned with
  | -1 ->
      t.scanned <- t.len;
      if t.len - t.start > t.max_line then raise (Too_long t.max_line);
      None
  | i ->
      let stop = if i > t.start && Bytes.get t.bytes (i - 1) = '\r' then i - 1 else i in
      if stop - t.start > t.max_line then raise (Too_long t.max_line);
      let line = Bytes.sub_string t.bytes t.start (stop - t.start) in
      t.start <- i + 1;
      t.scanned <- i + 1;
      Some line
