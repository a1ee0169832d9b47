(** Blocking client for the sampling service.

    Wraps one socket connection with line framing, request-id
    allocation and typed helpers for every {!Protocol} operation. The
    helpers are strictly request/response. *)

open Rsj_relation

type t

val connect : Server.addr -> t
(** Raises [Failure] when the server is unreachable. *)

val close : t -> unit
val fd : t -> Unix.file_descr

val fresh_id : t -> int
(** Next request id on this connection (monotone). *)

type reply = {
  rows : Value.t list list;  (** Concatenation of the [rows] frames. *)
  detail : (string * Rsj_obs.Json.t) list;  (** The [ok]/[done] frame's payload. *)
}

val rpc : t -> Protocol.request -> (reply, Protocol.error_code * string) result
(** Write one request line, then read frames until its terminal frame
    arrives. Raises [Failure] on EOF, an undecodable frame, or a frame
    for another request id. *)

(** {1 Typed helpers} *)

val ping : t -> bool
val register_path : t -> name:string -> path:string -> (int, string) result
(** Rows loaded, or an error message. *)

val sample :
  t ->
  left:string ->
  right:string ->
  r:int ->
  ?strategy:string ->
  ?seed:int ->
  ?wor:bool ->
  ?domains:int ->
  ?on:string ->
  ?deadline_ms:float ->
  ?rid:string ->
  unit ->
  (reply, Protocol.error_code * string) result

val query :
  t -> sql:string -> ?seed:int -> ?deadline_ms:float -> ?rid:string -> unit ->
  (reply, Protocol.error_code * string) result

val metrics : t -> (string, string) result
(** Prometheus text of the server's registry. *)

val cache_stats : t -> ((string * Rsj_obs.Json.t) list, string) result
val invalidate : t -> name:string -> (unit, string) result
val shutdown : t -> (unit, string) result
