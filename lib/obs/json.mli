(** Minimal JSON values: enough for the telemetry exporters to emit
    well-formed documents (escaping, number formatting) and for the
    test suite to parse the emitted artifacts back — deliberately not a
    general JSON library and not a new dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. A finite [Float] prints in the fewest digits
    (15 or 17 significant) that {!parse} reads back as the same float,
    and integral floats keep a trailing [.0] so they stay floats on
    re-parse. Non-finite floats print as [null] (JSON has no NaN or
    infinity). *)

val write : Buffer.t -> t -> unit
(** {!to_string}'s rendering, appended to a caller's buffer — a writer
    that reuses one buffer across documents allocates no output
    string. *)

val write_int : Buffer.t -> int -> unit
val write_float : Buffer.t -> float -> unit

val write_string : Buffer.t -> string -> unit
(** The bytes {!write} gives [Int], [Float] and [Str], appended
    without building a [t]: a row writer emits each cell this way. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for the subset this library emits plus
    standard escapes ([\uXXXX] decodes to UTF-8). Numbers without
    [./e/E] parse as [Int], others as [Float]. Rejects trailing
    garbage, and arrays or objects nested more than 64 deep (the
    parser recurses per level, so the bound keeps a hostile line from
    overflowing the stack). *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the field [k] if present; [None] on any
    other constructor. *)
