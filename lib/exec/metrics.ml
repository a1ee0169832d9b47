type t = {
  mutable tuples_scanned : int;
  mutable join_output_tuples : int;
  mutable index_probes : int;
  mutable hash_build_tuples : int;
  mutable sort_tuples : int;
  mutable output_tuples : int;
  mutable random_accesses : int;
  mutable rejected_samples : int;
  mutable stats_lookups : int;
}

(* Single field-spec table. Every per-field operation below is derived
   from it, so add/to_assoc/pp cannot drift apart when a
   counter is added: the compiler forces the new field into [create]'s
   record literal, and everything else reads this list. [output_tuples]
   is the one field excluded from [total_work] (delivering the sample
   is the caller's demand, not strategy work). *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("tuples_scanned", (fun m -> m.tuples_scanned), fun m v -> m.tuples_scanned <- v);
    ("join_output_tuples", (fun m -> m.join_output_tuples), fun m v -> m.join_output_tuples <- v);
    ("index_probes", (fun m -> m.index_probes), fun m v -> m.index_probes <- v);
    ("hash_build_tuples", (fun m -> m.hash_build_tuples), fun m v -> m.hash_build_tuples <- v);
    ("sort_tuples", (fun m -> m.sort_tuples), fun m v -> m.sort_tuples <- v);
    ("output_tuples", (fun m -> m.output_tuples), fun m v -> m.output_tuples <- v);
    ("random_accesses", (fun m -> m.random_accesses), fun m v -> m.random_accesses <- v);
    ("rejected_samples", (fun m -> m.rejected_samples), fun m v -> m.rejected_samples <- v);
    ("stats_lookups", (fun m -> m.stats_lookups), fun m v -> m.stats_lookups <- v);
  ]

let create () =
  {
    tuples_scanned = 0;
    join_output_tuples = 0;
    index_probes = 0;
    hash_build_tuples = 0;
    sort_tuples = 0;
    output_tuples = 0;
    random_accesses = 0;
    rejected_samples = 0;
    stats_lookups = 0;
  }

let add a b =
  let c = create () in
  List.iter (fun (_, get, set) -> set c (get a + get b)) fields;
  c

let to_assoc m = List.map (fun (name, get, _) -> (name, get m)) fields

let total_work m =
  List.fold_left
    (fun acc (name, get, _) -> if String.equal name "output_tuples" then acc else acc + get m)
    0 fields

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-20s %d@," k v) (to_assoc m);
  Format.fprintf ppf "%-20s %d@]" "total_work" (total_work m)
