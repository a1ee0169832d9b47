(** Single-pass pull cursors ("streaming by", paper §4).

    A stream yields elements one at a time and can be consumed exactly
    once — the model under which the sequential black boxes and all
    Case A/B strategies must operate. Combinators are strict about this:
    a stream whose [next] has returned [None] keeps returning [None].

    Named [Stream0] to avoid clashing with the historical stdlib
    [Stream]. *)

type 'a t

val make : next:(unit -> 'a option) -> ?close:(unit -> unit) -> unit -> 'a t
(** Wrap a producer. [close] is called exactly once, either when the
    stream is drained or when {!close} is invoked early. *)

val next : 'a t -> 'a option
(** Pull the next element; [None] signals (permanent) exhaustion. *)

val close : 'a t -> unit
(** Release the producer early. Subsequent {!next} returns [None].
    Idempotent. *)

val of_list : 'a list -> 'a t
val of_array : 'a array -> 'a t
val empty : unit -> 'a t

val iter : ('a -> unit) -> 'a t -> unit
(** Drain the stream, applying [f] to every element. *)

val map : ('a -> 'b) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t
val filter_map : ('a -> 'b option) -> 'a t -> 'b t

val concat_map : ('a -> 'b t) -> 'a t -> 'b t
(** Flatten: used to expand one input tuple into its join matches. *)

val take : int -> 'a t -> 'a t
(** At most [n] elements; closes the source once satisfied. *)

val length : 'a t -> int
(** Drains the stream and counts — destructive, like every consumer. *)

val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

val on_element : ('a -> unit) -> 'a t -> 'a t
(** Side-effecting tap, applied to each element as it streams by. *)
