(* The key encoding (Key, below Relation) and the key views of a
   relation's columns — the entry gate of the compact data plane.

   A strategy's inner loop only ever consults the join-key column; the
   rest of the tuple matters exactly once, when an accepted row is
   emitted. The sampling loops scan a column's keys as a flat int array
   and rehydrate winners by row id — the "sample over cheap key
   columns, join back the survivors" split of Joins-on-Samples, applied
   here to the sampling loops themselves. An int column is stored as
   its keys, so its view costs nothing. *)

let null_key = Key.null_key
let key = Key.key
let find_key = Key.find_key
let value_of_key = Key.value_of_key
let int_view = Relation.key_view
