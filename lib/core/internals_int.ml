(* Data-plane twins of the Internals machinery: the same routing,
   matching and combination passes over flat int key columns
   (Column.int_view extractions) and int row ids, with no boxed Value
   in any loop. Join outputs travel as packed (left row, right row)
   pairs until the caller rehydrates the accepted winners through
   Relation.get.

   Every function here follows the draw order of its boxed
   counterpart in Internals. The chunked runners of the parallel
   runtime are the only callers; the sequential reference is the boxed
   kernels themselves. The module is Value-free by construction
   (enforced by the @box-hygiene alias). *)

open Rsj_exec
module Prng = Rsj_util.Prng
module Dist = Rsj_util.Dist
module Wr_int = Rsj_util.Wr_int
module Int_index = Rsj_index.Int_index
module Hash_index = Rsj_index.Hash_index
module Counter = Int_index.Counter

let null_key = Int_index.null_key

(* Join outputs as packed row-id pairs: the left row in the high bits,
   the right row in the low 31. Relations are in-memory arrays well
   below 2^31 rows, and 62 bits fit the native int on every 64-bit
   target. *)
let pack i j = (i lsl 31) lor j
let unpack_left p = p asr 31
let unpack_right p = p land 0x7FFF_FFFF

(* Int twin of Internals.build_join_hash: same scan and retained-tuple
   accounting, CSR buckets in storage order (the boxed build's bucket
   order), keyed by raw int. *)
let build_join_index ?keep (metrics : Metrics.t) ~keys =
  let idx = Int_index.build ?keep ~keys () in
  metrics.tuples_scanned <- metrics.tuples_scanned + Array.length keys;
  metrics.hash_build_tuples <- metrics.hash_build_tuples + Int_index.size idx;
  idx

(* Int twin of Internals.Partition: the hi/lo routing pass with both
   reservoirs as allocation-free Wr_int kernels on one generator (the
   boxed route interleaves s1/jlo feeds on one rng, so the kernels
   must too), and the Rhi1 tallies in an int Counter. [seal] lifts a
   chunk's kernels into plain int reservoirs so Reservoir.Wr.merge
   applies unchanged. *)
module Partition = struct
  type kernels = {
    s1k : Wr_int.t;
    jlok : Wr_int.t;
    m1_hi : Counter.t;
    mutable n_lo : int;
  }

  type t = {
    s1_res : int Reservoir.Wr.t;
    m1_hi : Counter.t;
    jlo_res : int Reservoir.Wr.t;
    n_lo : int;
  }

  let create_kernels rng ~r =
    {
      s1k = Wr_int.create ~on_displace:Reservoir.note_displacements rng ~r;
      jlok = Wr_int.create ~on_displace:Reservoir.note_displacements rng ~r;
      m1_hi = Counter.create ();
      n_lo = 0;
    }

  (* Route one R1 row. [tracked] is the histogram's int plane (count
     > 0 ⟺ high-frequency); [lo_tbl] resolves a low value's R2 bucket;
     [on_lo_probe] charges whichever probe metric the caller's boxed
     twin charges (index probe for Index-Sample, nothing for the hash
     flavours). Draws and counters mirror Internals.Partition.route:
     nothing for a null key, stats lookup per non-null row, one
     weighted feed per hi row, one unit feed per lo join pair. *)
  let route (metrics : Metrics.t) kers ~tracked ~lo_tbl ~on_lo_probe row k =
    if k <> null_key then begin
      metrics.stats_lookups <- metrics.stats_lookups + 1;
      let m2v = Counter.get tracked k in
      if m2v > 0 then begin
        Wr_int.feed kers.s1k ~weight:m2v row;
        Counter.add kers.m1_hi k 1
      end
      else begin
        on_lo_probe metrics;
        match Int_index.find_gid lo_tbl k with
        | -1 -> ()
        | g ->
            let s = Int_index.gid_start lo_tbl g in
            let m = Int_index.gid_multiplicity lo_tbl g in
            for j = s to s + m - 1 do
              metrics.join_output_tuples <- metrics.join_output_tuples + 1;
              kers.n_lo <- kers.n_lo + 1;
              Wr_int.feed kers.jlok ~weight:1 (pack row (Int_index.row lo_tbl j))
            done
      end
    end

  let seal ~r kers =
    {
      s1_res =
        Reservoir.Wr.of_parts ~r ~slots:(Wr_int.contents kers.s1k)
          ~fed:(Wr_int.fed_count kers.s1k) ~total:(Wr_int.total_weight kers.s1k);
      m1_hi = kers.m1_hi;
      jlo_res =
        Reservoir.Wr.of_parts ~r ~slots:(Wr_int.contents kers.jlok)
          ~fed:(Wr_int.fed_count kers.jlok) ~total:(Wr_int.total_weight kers.jlok);
      n_lo = kers.n_lo;
    }

  let create ~r =
    {
      s1_res = Reservoir.Wr.create ~r;
      m1_hi = Counter.create ();
      jlo_res = Reservoir.Wr.create ~r;
      n_lo = 0;
    }

  let merge rng a b =
    let m1_hi = Counter.create ~capacity:(Counter.cardinal a.m1_hi + Counter.cardinal b.m1_hi) () in
    Counter.iter (fun k v -> Counter.add m1_hi k v) a.m1_hi;
    Counter.iter (fun k v -> Counter.add m1_hi k v) b.m1_hi;
    (* Explicit lets pin the generator consumption order (s1 then jlo):
       record-field evaluation order is unspecified. *)
    let s1_res = Reservoir.Wr.merge rng a.s1_res b.s1_res in
    let jlo_res = Reservoir.Wr.merge rng a.jlo_res b.jlo_res in
    { s1_res; m1_hi; jlo_res; n_lo = a.n_lo + b.n_lo }

  let n_hi acc ~tracked =
    Counter.fold
      (fun k m1v a ->
        let m2v = Counter.get tracked k in
        if m2v > 0 then a + (m1v * m2v) else a)
      acc.m1_hi 0

  let s1 acc = Reservoir.Wr.contents acc.s1_res
  let lo_pool acc = Reservoir.Wr.contents acc.jlo_res
  let n_lo acc = acc.n_lo
end

(* Int twin of Internals.fps_hi_pick: one uniform bucket pick per S1
   row, same failure diagnostic, packed output. *)
let fps_hi_pick rng (metrics : Metrics.t) ~tbl ~(keys1 : int array) (s1 : int array) =
  Array.map
    (fun row ->
      match Int_index.find_gid tbl keys1.(row) with
      | -1 ->
          failwith
            "Frequency_partition.sample: sampled hi tuple has no match in R2 (stale histogram?)"
      | g ->
          let s = Int_index.gid_start tbl g in
          let m = Int_index.gid_multiplicity tbl g in
          metrics.join_output_tuples <- metrics.join_output_tuples + m;
          pack row (Int_index.row tbl (s + Prng.int rng m)))
    s1

(* Int twin of Internals.index_hi_pick: one random match per S1 row
   through the R2 index's int plane. *)
let index_hi_pick rng (metrics : Metrics.t) ~right_index ~(keys1 : int array) (s1 : int array) =
  Array.map
    (fun row ->
      metrics.index_probes <- metrics.index_probes + 1;
      match Hash_index.random_match_row right_index rng keys1.(row) with
      | -1 ->
          failwith "Index_sample.sample: sampled hi tuple has no match in R2 (stale histogram?)"
      | r2 ->
          metrics.join_output_tuples <- metrics.join_output_tuples + 1;
          pack row r2)
    s1
