open Rsj_relation

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module End_biased = struct
  module Counter = Rsj_index.Int_index.Counter

  (* Data-plane view of the tracked set, keyed by Column.key: tracked
     counts are >= threshold >= 1, so [Counter.get plane k] = 0
     unambiguously means "not tracked" (low frequency). *)
  type t = { threshold : int; tracked : int Vtbl.t; mass : int; plane : Counter.t }

  let build freq ~threshold =
    let threshold = max threshold 1 in
    let tracked = Vtbl.create 64 in
    let plane = Counter.create () in
    let mass = ref 0 in
    Frequency.iter freq (fun v c ->
        if c >= threshold then begin
          Vtbl.replace tracked v c;
          let k = Column.key v in
          if k <> Column.null_key then Counter.add plane k c;
          mass := !mass + c
        end);
    { threshold; tracked; mass = !mass; plane }

  let int_tracked t = t.plane

  let build_fraction freq ~fraction =
    if fraction < 0. || fraction > 1. then
      invalid_arg "End_biased.build_fraction: fraction outside [0,1]";
    let n = Frequency.total freq in
    let threshold = max 1 (int_of_float (ceil (fraction *. float_of_int n))) in
    build freq ~threshold

  let threshold t = t.threshold
  let frequency t v = Vtbl.find_opt t.tracked v
  let is_high t v = Vtbl.mem t.tracked v

  let high_values t =
    let pairs = Vtbl.fold (fun v c acc -> (v, c) :: acc) t.tracked [] in
    List.sort
      (fun (v1, c1) (v2, c2) ->
        if c1 <> c2 then Int.compare c2 c1 else Value.compare v1 v2)
      pairs

  let tracked_count t = Vtbl.length t.tracked
  let tracked_mass t = t.mass
end

module Equi_depth = struct
  type bucket = { lo : Value.t; hi : Value.t; count : int; distinct : int }
  type t = { buckets : bucket array; total : int }

  let build rel ~key ~buckets:nb =
    if nb <= 0 then invalid_arg "Equi_depth.build: buckets <= 0";
    let vals =
      Relation.fold rel ~init:[] ~f:(fun acc row ->
          let v = Tuple.attr row key in
          if Value.is_null v then acc else v :: acc)
      |> Array.of_list
    in
    Array.sort Value.compare vals;
    let n = Array.length vals in
    if n = 0 then { buckets = [||]; total = 0 }
    else begin
      let nb = min nb n in
      let out = ref [] in
      let start = ref 0 in
      for b = 0 to nb - 1 do
        (* Equal-mass cut points; the last bucket absorbs rounding. *)
        let stop = if b = nb - 1 then n else (b + 1) * n / nb in
        if stop > !start then begin
          let distinct = ref 1 in
          for i = !start + 1 to stop - 1 do
            if not (Value.equal vals.(i) vals.(i - 1)) then incr distinct
          done;
          out :=
            { lo = vals.(!start); hi = vals.(stop - 1); count = stop - !start; distinct = !distinct }
            :: !out;
          start := stop
        end
      done;
      { buckets = Array.of_list (List.rev !out); total = n }
    end

  let buckets t = Array.copy t.buckets
  let total t = t.total

  let find_bucket t v =
    let rec go i =
      if i >= Array.length t.buckets then None
      else begin
        let b = t.buckets.(i) in
        if Value.compare v b.lo >= 0 && Value.compare v b.hi <= 0 then Some b else go (i + 1)
      end
    in
    go 0

  let estimate_frequency t v =
    match find_bucket t v with
    | None -> 0.
    | Some b -> float_of_int b.count /. float_of_int b.distinct

  (* Overlap estimate: for each pair of overlapping buckets, assume
     values uniform within buckets and independent, giving
     count1*count2 * overlap_distinct / (distinct1*distinct2) matches
     per common value. This is the standard coarse estimator; it is
     intentionally approximate (validated as such in benches). *)
  let estimate_join_size t1 t2 =
    let overlap b1 b2 =
      let lo = if Value.compare b1.lo b2.lo >= 0 then b1.lo else b2.lo in
      let hi = if Value.compare b1.hi b2.hi <= 0 then b1.hi else b2.hi in
      if Value.compare lo hi > 0 then None else Some (lo, hi)
    in
    let width b =
      (* Only meaningful for integer domains; fall back to distinct. *)
      match (b.lo, b.hi) with
      | Value.Int l, Value.Int h -> float_of_int (h - l + 1)
      | _ -> float_of_int b.distinct
    in
    let acc = ref 0. in
    Array.iter
      (fun b1 ->
        Array.iter
          (fun b2 ->
            match overlap b1 b2 with
            | None -> ()
            | Some (lo, hi) ->
                let ow =
                  match (lo, hi) with
                  | Value.Int l, Value.Int h -> float_of_int (h - l + 1)
                  | _ -> 1.
                in
                let w1 = width b1 and w2 = width b2 in
                let d1 = float_of_int b1.distinct *. (ow /. w1) in
                let d2 = float_of_int b2.distinct *. (ow /. w2) in
                let common = Float.min d1 d2 in
                if common > 0. then begin
                  let f1 = float_of_int b1.count /. float_of_int b1.distinct in
                  let f2 = float_of_int b2.count /. float_of_int b2.distinct in
                  acc := !acc +. (common *. f1 *. f2)
                end)
          t2.buckets)
      t1.buckets;
    !acc
end
