(** Plain-text table rendering for experiment output.

    The benches print the same rows/series the paper's figures plot;
    this module renders them as aligned ASCII tables. *)

type t = {
  title : string;
  header : string list;  (** Column names; first column is the row label. *)
  rows : string list list;  (** Each row must match the header length. *)
}

val render : Format.formatter -> t -> unit
(** Box-drawn table with a title line. Raises [Invalid_argument] when a
    row's arity disagrees with the header. *)

val print : t -> unit
(** [render] to stdout. *)

val to_csv : t -> string
(** Machine-readable rendering: one RFC-4180-style CSV line per row
    (header first, fields quoted when they contain commas, quotes or
    newlines; the title is not emitted). Raises [Invalid_argument] on a
    row-arity mismatch, like {!render}. *)

val pct : float -> string
(** Format a percentage: ["63.1%"]; ["-"] for NaN. *)

val float_cell : float -> string
(** Compact numeric cell: 3 significant-ish decimals, ["-"] for NaN. *)
