(** Newline framing of a socket's input, for the daemon and the client
    alike. Reads land in one growing buffer, and the reader remembers
    where its last newline scan ended, so a line that arrives in many
    small reads is scanned once. *)

type t

exception Too_long of int
(** A line longer than the reader's cap (the cap's value): the input
    can no longer be framed. *)

val create : ?max_line:int -> unit -> t
(** [max_line] caps a line's length in bytes, newline excluded
    (default: no cap). The buffer then never grows much past it. *)

val read : t -> Unix.file_descr -> int
(** One [Unix.read] into the buffer; [0] at end of input. *)

val next : t -> string option
(** The next line, without its newline or a trailing ['\r']; [None]
    until a newline arrives, keeping the fragment for the next read.
    Raises {!Too_long} once the line being framed, complete or not,
    passes the cap. *)
