(* Shared machinery for the join-sampling strategies. Not part of the
   public API (not exported in the .mli-less module convention: the
   library interface file rsj_core.ml would hide it; we keep it public
   within the library but undocumented outside). *)

open Rsj_relation
open Rsj_exec

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Build a join hash table over [right], optionally keeping only tuples
   whose key satisfies [keep]. Counts one hash_build insert per retained
   tuple and one scanned tuple per row (the build scan). *)
let build_join_hash ?(keep = fun _ -> true) (metrics : Metrics.t) right ~right_key :
    Tuple.t array Vtbl.t =
  let lists : Tuple.t list ref Vtbl.t = Vtbl.create 1024 in
  Relation.iter right (fun row ->
      metrics.tuples_scanned <- metrics.tuples_scanned + 1;
      let v = Tuple.attr row right_key in
      if (not (Value.is_null v)) && keep v then begin
        metrics.hash_build_tuples <- metrics.hash_build_tuples + 1;
        match Vtbl.find_opt lists v with
        | Some cell -> cell := row :: !cell
        | None -> Vtbl.replace lists v (ref [ row ])
      end);
  let out = Vtbl.create (Vtbl.length lists) in
  Vtbl.iter (fun v cell -> Vtbl.replace out v (Array.of_list (List.rev !cell))) lists;
  out

let hash_matches tbl v : Tuple.t array =
  if Value.is_null v then [||]
  else match Vtbl.find_opt tbl v with Some rows -> rows | None -> [||]

(* The hi/lo routing pass shared by Frequency-Partition, Hybrid-Count
   and Index-Sample (paper §6 step 2): each R1 tuple either feeds the
   weighted S1 reservoir (high-frequency side, weight m2(v) from the
   end-biased histogram) while its value's Rhi1 frequency is tallied,
   or joins immediately and streams the pairs through the unweighted
   Jlo reservoir (low-frequency side). The parallel runtime runs the
   same pass per chunk over int keys (Internals_int.Partition). *)
module Partition = struct
  type t = {
    s1_res : Tuple.t Reservoir.Wr.t;
    m1_hi : int ref Vtbl.t;
    jlo_res : Tuple.t Reservoir.Wr.t;
    mutable n_lo : int;
  }

  let create ~r =
    {
      s1_res = Reservoir.Wr.create ~r;
      m1_hi = Vtbl.create 64;
      jlo_res = Reservoir.Wr.create ~r;
      n_lo = 0;
    }

  (* Route one R1 tuple. [frequency] is the histogram lookup (Some m2v
     for high-frequency values); [lo_matches] resolves a low value's R2
     matches (hash probe or index probe — the caller charges whichever
     metric applies). Does NOT count tuples_scanned: callers get that
     from the dispatch stream wrapper. *)
  let route rng (metrics : Metrics.t) acc ~left_key ~frequency
      ~(lo_matches : Metrics.t -> Value.t -> Tuple.t array) t1 =
    let open Metrics in
    let v = Tuple.attr t1 left_key in
    if Value.is_null v then ()
    else begin
      metrics.stats_lookups <- metrics.stats_lookups + 1;
      match (frequency v : int option) with
      | Some m2v ->
          Reservoir.Wr.feed rng acc.s1_res ~weight:(float_of_int m2v) t1;
          (match Vtbl.find_opt acc.m1_hi v with
          | Some cell -> incr cell
          | None -> Vtbl.replace acc.m1_hi v (ref 1))
      | None ->
          let matches = lo_matches metrics v in
          Array.iter
            (fun t2 ->
              metrics.join_output_tuples <- metrics.join_output_tuples + 1;
              acc.n_lo <- acc.n_lo + 1;
              Reservoir.Wr.feed rng acc.jlo_res ~weight:1. (Tuple.join t1 t2))
            matches
    end

  (* Exact |Jhi| from the collected Rhi1 tallies and the histogram. *)
  let n_hi acc ~frequency =
    Vtbl.fold
      (fun v m1v a ->
        match (frequency v : int option) with Some m2v -> a + (!m1v * m2v) | None -> a)
      acc.m1_hi 0

  let s1 acc = Reservoir.Wr.contents acc.s1_res
  let lo_pool acc = Reservoir.Wr.contents acc.jlo_res
  let n_lo acc = acc.n_lo
end

(* High-side pool, Frequency-Partition flavour (Group-Sample step 4):
   one uniform pick among the matches of each S1 slot. The counter
   charges the full group size — the S1 ⋈ R2hi intermediate, i.e.
   Theorem 8's alpha·|J|. *)
let fps_hi_pick rng (metrics : Metrics.t) ~(matches : Value.t -> Tuple.t array) ~left_key
    (s1 : Tuple.t array) =
  Array.map
    (fun t1 ->
      let v = Tuple.attr t1 left_key in
      let ms = matches v in
      if Array.length ms = 0 then
        failwith
          "Frequency_partition.sample: sampled hi tuple has no match in R2 (stale histogram?)"
      else begin
        metrics.Metrics.join_output_tuples <-
          metrics.Metrics.join_output_tuples + Array.length ms;
        Tuple.join t1 (Rsj_util.Prng.pick rng ms)
      end)
    s1

(* High-side pool, Index-Sample flavour (à la Stream-Sample): one
   random match per S1 slot through the R2 index. *)
let index_hi_pick rng (metrics : Metrics.t) ~right_index ~left_key (s1 : Tuple.t array) =
  Array.map
    (fun t1 ->
      let v = Tuple.attr t1 left_key in
      metrics.Metrics.index_probes <- metrics.Metrics.index_probes + 1;
      match Rsj_index.Hash_index.random_match right_index rng v with
      | Some t2 ->
          metrics.Metrics.join_output_tuples <- metrics.Metrics.join_output_tuples + 1;
          Tuple.join t1 t2
      | None ->
          failwith "Index_sample.sample: sampled hi tuple has no match in R2 (stale histogram?)")
    s1

(* The Count-Sample matching engine (paper §6.4 steps 2-4), shared by
   Count-Sample and Hybrid-Count-Sample. Groups the S1 entries by join
   value, then scans [right] running one Black-Box U1 per value with
   r := s1(v) and n := population(v); each U1 pick is matched without
   replacement to a member of the (pre-shuffled) group. Returns the
   joined pairs in random order. Raises [Failure strategy ...] when the
   claimed populations disagree with R2's actual content. *)
let count_sample_scan rng (metrics : Metrics.t) ~strategy ~(s1 : Tuple.t array) ~left_key ~right
    ~right_key ~(population : Value.t -> int) : Tuple.t array =
  if Array.length s1 = 0 then [||]
  else begin
    let module G = struct
      type t = {
        mutable outstanding : int;
        mutable seen : int;
        population : int;
        members : Tuple.t array;
        mutable next_member : int;
      }
    end in
    let member_lists : Tuple.t list ref Vtbl.t = Vtbl.create (2 * Array.length s1) in
    (* Group in S1 first-occurrence order rather than Vtbl iteration
       order, so the per-group shuffles below consume the generator in
       an order that depends only on the sample. *)
    let order = ref [] in
    Array.iter
      (fun t1 ->
        let v = Tuple.attr t1 left_key in
        match Vtbl.find_opt member_lists v with
        | Some cell -> cell := t1 :: !cell
        | None ->
            Vtbl.replace member_lists v (ref [ t1 ]);
            order := v :: !order)
      s1;
    let groups : G.t Vtbl.t = Vtbl.create (Vtbl.length member_lists) in
    List.iter
      (fun v ->
        let cell = Vtbl.find member_lists v in
        let members = Array.of_list !cell in
        Rsj_util.Prng.shuffle_in_place rng members;
        let population = population v in
        if population <= 0 then
          failwith (strategy ^ ": sampled value has no frequency in the statistics");
        Vtbl.replace groups v
          { G.outstanding = Array.length members; seen = 0; population; members; next_member = 0 })
      (List.rev !order);
    let out = ref [] in
    Relation.iter right (fun t2 ->
        metrics.tuples_scanned <- metrics.tuples_scanned + 1;
        let v = Tuple.attr t2 right_key in
        if not (Value.is_null v) then
          match Vtbl.find_opt groups v with
          | None -> ()
          | Some g ->
              if g.G.outstanding > 0 then begin
                if g.G.seen >= g.G.population then
                  failwith
                    (strategy ^ ": R2 holds more tuples of a value than the statistics claim");
                let p = 1. /. float_of_int (g.G.population - g.G.seen) in
                let copies = Rsj_util.Dist.binomial rng ~n:g.G.outstanding ~p in
                g.G.seen <- g.G.seen + 1;
                g.G.outstanding <- g.G.outstanding - copies;
                for _ = 1 to copies do
                  let t1 = g.G.members.(g.G.next_member) in
                  g.G.next_member <- g.G.next_member + 1;
                  metrics.join_output_tuples <- metrics.join_output_tuples + 1;
                  out := Tuple.join t1 t2 :: !out
                done
              end
              else g.G.seen <- g.G.seen + 1);
    Vtbl.iter
      (fun _ g ->
        if g.G.outstanding > 0 then
          failwith (strategy ^ ": statistics overstate a value's frequency (stale statistics?)"))
      groups;
    let pool = Array.of_list !out in
    Rsj_util.Prng.shuffle_in_place rng pool;
    pool
  end

(* Combine the low- and high-frequency sample pools (steps 5-7 of
   Frequency-Partition-Sample): flip r coins with heads probability
   n_hi / (n_hi + n_lo), take that many WoR *positions* from the hi pool
   and the rest from the lo pool, and shuffle the union. Pools are WR
   samples of their subdomain of size >= needed draws (pools shorter
   than the draw count indicate an empty subdomain and must only occur
   with the matching n_* equal to 0). *)
let binomial_combine rng ~r ~n_hi ~n_lo ~hi_pool ~lo_pool =
  if n_hi < 0 || n_lo < 0 then invalid_arg "binomial_combine: negative join sizes";
  let total = n_hi + n_lo in
  if total = 0 then ([||], 0, 0)
  else begin
    let r_hi =
      Rsj_util.Dist.binomial rng ~n:r ~p:(float_of_int n_hi /. float_of_int total)
    in
    let r_lo = r - r_hi in
    if r_hi > Array.length hi_pool then
      invalid_arg "binomial_combine: hi pool smaller than the draw count";
    if r_lo > Array.length lo_pool then
      invalid_arg "binomial_combine: lo pool smaller than the draw count";
    let pick pool k =
      if k = 0 then [||]
      else begin
        let idx = Rsj_util.Prng.sample_distinct rng ~k ~n:(Array.length pool) in
        Array.map (fun i -> pool.(i)) idx
      end
    in
    let out = Array.append (pick hi_pool r_hi) (pick lo_pool r_lo) in
    Rsj_util.Prng.shuffle_in_place rng out;
    (out, r_hi, r_lo)
  end
