(** The experimental tables of paper §8.1.

    Each table has three columns:
    - [rid]: a unique randomly-permuted identifier in [\[1, n\]];
    - [col2]: an integer drawn from a Zipfian distribution with
      parameter z over a fixed domain, with {e the same rank order in
      every table} (rank 1 is value 1 everywhere) so that frequent
      values collide across tables, as the paper specifies;
    - [pad]: a 32-byte character field "to ensure a reasonable record
      size".

    The paper's queries are [SELECT * FROM t1, t2 WHERE t1.col2 =
    t2.col2] with t1 the smaller (outer) table. *)

open Rsj_relation

val schema : Schema.t
(** (rid int, col2 int, pad string). *)

val col_rid : int
val col2 : int
(** Column index of the join attribute (1). *)

val make : ?seed:int -> name:string -> rows:int -> z:float -> domain:int -> unit -> Relation.t
(** Generate one table. Reproducible from [seed]. Raises
    [Invalid_argument] for non-positive [rows] or [domain] or negative
    [z]. *)

type pair = {
  outer : Relation.t;  (** t1 — the paper's 100K-tuple table. *)
  inner : Relation.t;  (** t2 — the paper's 1M-tuple table. *)
  z_outer : float;
  z_inner : float;
  domain : int;
}

val make_pair :
  ?seed:int -> n1:int -> n2:int -> z1:float -> z2:float -> domain:int -> unit -> pair
(** The joinable pair for one experimental cell; outer and inner use
    decorrelated seeds derived from [seed]. *)

val string_keyed : pair -> pair
(** The same pair with [col2] stored as a string column (["17"] for
    17): the same rows match, and the join columns'
    {!Rsj_relation.Column.int_view} holds dictionary codes instead of
    the ints — the input that checks that the key representation
    never changes a sample. *)

val bag : pair -> pair
(** The same pair with [rid] set to 0 on both sides, so the rows of a
    join value are indistinguishable: value v yields m1(v)·m2(v) copies
    of one tuple. A bag join — the same join positions, far fewer
    distinct tuples — for checking that samples are samples of
    positions. *)

val join_size : pair -> int
(** Exact |outer ⋈ inner| on col2. *)

(** Experiment scale. {!from_env} reads [RSJ_N1] (default 3000),
    [RSJ_N2] (default 12000), [RSJ_DOMAIN] (default 600), [RSJ_SCALE]
    (multiplies n1 and n2) and [RSJ_SEED] through {!Rsj_obs.Config},
    so the benches can be rerun at the paper's full scale. *)
module Scale : sig
  type t = { n1 : int; n2 : int; domain : int; seed : int }

  val from_env : unit -> t
  val pp : Format.formatter -> t -> unit
end
