(** Sampling operators as query-plan nodes.

    The paper's implementation splices its black boxes into SQL Server
    execution trees as operators ("we implemented each of these
    black-boxes as operators ... adding an operator to the query
    execution tree only requires creating a derived class ... and
    implementing Open, Close, and GetRow", §8). This module is the
    analogous integration for {!Rsj_exec.Plan}: each function wraps a
    black box as a [Plan.Transform] node, so sampling can be placed
    anywhere in an operator tree — e.g. the Naive-Sample plan is
    [u1 ~n ~r (Join ...)], and Stream-Sample's weighted filter is
    [wr2 ~r ~weight (Scan r1)] feeding a join.

    Each node draws its randomness from a generator split off the one
    supplied, so rebuilding the same plan yields the same sample. *)

open Rsj_relation
open Rsj_exec

val u1 : Rsj_util.Prng.t -> n:int -> r:int -> Plan.t -> Plan.t
(** Online unweighted WR sampling of the child's output, which must
    produce exactly [n] rows (e.g. known from statistics). *)

val u2 : Rsj_util.Prng.t -> r:int -> Plan.t -> Plan.t
(** Blocking unweighted WR reservoir over the child's output ([n] not
    needed). Output order is the reservoir's slot order. *)

val wr1 :
  Rsj_util.Prng.t -> total_weight:float -> r:int -> weight:(Tuple.t -> float) -> Plan.t -> Plan.t
(** Online weighted WR sampling (total weight known in advance). *)

val wr2 : Rsj_util.Prng.t -> r:int -> weight:(Tuple.t -> float) -> Plan.t -> Plan.t
(** Blocking weighted WR reservoir. *)

val coin_flip : Rsj_util.Prng.t -> f:float -> Plan.t -> Plan.t
(** CF semantics: keep each row independently with probability [f]. *)
