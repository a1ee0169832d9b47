(** Newline framing of a socket's input, for the daemon and the client
    alike. Reads land in one growing buffer, and the reader remembers
    where its last newline scan ended, so a line that arrives in many
    small reads is scanned once. *)

type t

val create : unit -> t

val read : t -> Unix.file_descr -> int
(** One [Unix.read] into the buffer; [0] at end of input. *)

val next : t -> string option
(** The next line, without its newline or a trailing ['\r']; [None]
    until a newline arrives, keeping the fragment for the next read. *)
