(** The one sampler behind every front door: SQL [SAMPLE], the daemon's
    [sample] request and the CLI all prepare, decide, draw and observe
    here, so a query and a sample request with the same seed return the
    same rows (the paper's sampling-as-a-primitive, §1).

    Two tables run a Table-1 strategy, named or picked by cost
    ({!Rsj_optimizer.Picker.decide}), on the chunked runner
    ({!Rsj_parallel.run} / {!Rsj_parallel.run_wor}); three or more run
    the chain walker ({!Rsj_core.Chain_sample}, §7.2). *)

open Rsj_relation
module Strategy = Rsj_core.Strategy

val strategy_of_name : string -> (Strategy.t, string) result
(** The error names the bad strategy and lists every valid one. *)

type t
(** A prepared request: inputs, sample size, semantics and strategy. *)

val prepare :
  ?cache:Rsj_cache.Structure_cache.t ->
  ?wor:bool ->
  seed:int ->
  Relation.t array ->
  join_keys:(int * int) array ->
  size:Ast.sample_size ->
  Strategy.t option ->
  t
(** Ready a linear chain of k >= 2 relations ([join_keys.(i)] pairs a
    column of relation i with one of relation i+1) and decide how to
    sample it: an env and the named or picked strategy for k = 2, the
    walker for k >= 3, which takes no strategy and draws WR only
    ([Invalid_argument] if asked otherwise). With [cache] the
    structures are the shared warm ones; without, private builds.
    [SAMPLE p%] resolves against the exact join size. Nothing is
    drawn. *)

val r : t -> int
val join_size : t -> float

val name : t -> string
(** The strategy's name, or ["chain-walk"]. *)

val decision : t -> Rsj_optimizer.Picker.decision option
(** The picker's; [None] when named or a chain. *)

type drawn = { sample : Tuple.t array; metrics : Rsj_exec.Metrics.t; elapsed_seconds : float }

val draw : domains:int -> t -> drawn
(** Each tuple is the chain's rows concatenated. Raises what the runner
    raises ({!Strategy.Wor_shortfall}, [Invalid_argument] on [r < 0] or
    [domains < 1], a strategy's [Failure]). *)

val observe : Rsj_verify.Online.t -> t -> Tuple.t array -> unit
(** The one observation hook: fold what the caller serves for [t] into
    the quality monitor, one stream per inputs, join columns, strategy
    and semantics, whatever the door. Only two-table samples over
    cached inputs are observed; chains and filtered inputs are not. *)
