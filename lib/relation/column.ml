(* Columnar int-key views — the entry gate of the compact data plane.

   A strategy's inner loop only ever consults the join-key column; the
   rest of the tuple matters exactly once, when an accepted row is
   emitted. Extracting that column into a flat int array up front lets
   the hot loops scan unboxed ints and rehydrate winners by row id via
   Relation.get — the "sample over cheap key columns, join back the
   survivors" split of Joins-on-Samples, applied here to the sampling
   loops themselves.

   Null is mapped to a sentinel key (min_int) that indexes and counters
   treat as "matches nothing", which is exactly the boxed plane's join
   semantics for Null. A column containing a non-int value — or the
   sentinel itself as a genuine data value — cannot be represented, and
   int_view escapes to None; the sequential strategies then run their
   boxed kernels and the parallel runtime falls back to them, so the
   fast path is a pure specialisation. *)

let null_key = min_int

let int_view t ~col =
  let n = Relation.cardinality t in
  let keys = Array.make n null_key in
  let rec fill i =
    if i >= n then Some keys
    else
      match Tuple.get (Relation.get t i) col with
      | Value.Int x when x <> null_key ->
          keys.(i) <- x;
          fill (i + 1)
      | Value.Null -> fill (i + 1) (* stays null_key *)
      | _ -> None
  in
  if n = 0 then Some keys else fill 0
