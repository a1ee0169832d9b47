(** Wire protocol of the sampling service: newline-delimited JSON.

    One request per line, one or more response frames per request. A
    request carries a client-chosen [id]; every response frame echoes
    it, so clients may pipeline. Row-bearing operations stream their
    result as a sequence of [rows] frames (bounded rows per frame)
    terminated by one [done] frame; everything else answers with a
    single [ok] frame. Failures of any operation produce a single
    [error] frame with a typed code.

    The codec is symmetric (both encode and decode live here) so the
    server, the client library, and the conformance tests share one
    definition of the wire format. JSON values use {!Rsj_obs.Json} —
    no external JSON dependency. *)

open Rsj_relation

(** Where a registered relation's rows come from. *)
type source =
  | From_path of string  (** CSV on the server's filesystem (§8.1 schema by default). *)
  | Inline of (string * Value.ty) list * Value.t list list
      (** Schema (name, type) pairs plus the rows themselves. *)

type request =
  | Ping of { id : int }
  | Register of { id : int; name : string; source : source }
      (** Bind [name] in the server catalog; re-registering replaces
          the binding and invalidates the old relation's cache
          entries. *)
  | Sample of {
      id : int;
      left : string;
      right : string;
      r : int;
      strategy : string option;  (** [None] = cost-based picker. *)
      seed : int;
      wor : bool;
      domains : int;
      on : string;  (** Join column name (both sides); default "col2". *)
      deadline_ms : float option;
          (** Budget from receipt to start of execution; exceeded
              requests fail with [Deadline_exceeded] instead of
              running. Validated at decode: zero, negative or NaN
              budgets are rejected with [Bad_request]. *)
      rid : string option;
          (** Client-supplied request id for end-to-end tracing; the
              server mints one when absent, and either way echoes it in
              the [done] frame, every trace span and the request-log
              line. Optional on the wire — old clients still parse. *)
    }
  | Query of {
      id : int;
      sql : string;
      seed : int;
      deadline_ms : float option;
      rid : string option;
    }
  | Invalidate of { id : int; name : string }
      (** Drop the relation's warm-cache entries (keeps the catalog
          binding). *)
  | Metrics of { id : int }  (** Prometheus text of the whole registry. *)
  | Stats of { id : int }  (** Cache counters, quality verdicts, knobs in effect. *)
  | Shutdown of { id : int }  (** Ack, then drain and exit. *)

type error_code =
  | Bad_request  (** Malformed JSON, unknown op, missing/ill-typed field. *)
  | Unknown_relation
  | Unknown_strategy
  | Engine_error  (** SQL parse/plan/execution failure. *)
  | Deadline_exceeded
  | Overloaded  (** Admission controller rejected: queued sample work over budget. *)
  | Shutting_down
  | Internal_error
      (** Any other exception a request raised (an allocation past the
          address space, say); the daemon keeps serving. *)

type response =
  | Ack of { id : int; detail : (string * Rsj_obs.Json.t) list }
  | Rows of { id : int; rows : Value.t list list }
  | Done of { id : int; detail : (string * Rsj_obs.Json.t) list }
  | Failed of { id : int; code : error_code; message : string }

val request_id : request -> int
val response_id : response -> int
val request_op : request -> string
(** Stable operation name ("ping", "register", ... ) for metric labels. *)

val request_rid : request -> string option
(** The client-supplied request id, when the operation carries one. *)

val error_code_to_string : error_code -> string

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
(** One line, no trailing newline. *)

val write_response : Buffer.t -> response -> unit
(** {!encode_response}'s bytes appended to the buffer: the daemon
    encodes every frame into its connection's reused output buffer. *)

val write_rows : Buffer.t -> id:int -> Tuple.t array -> first:int -> stop:int -> unit
(** The [rows] frame of request [id] carrying rows [first .. stop-1],
    appended to the buffer: {!write_response}'s bytes for the [Rows]
    frame of that slice, written straight from the tuples, with no
    list and no {!Rsj_obs.Json.t} built on the way. *)

val decode_response : string -> (response, string) result
