open Rsj_relation

module End_biased = struct
  module Counter = Rsj_index.Int_index.Counter

  (* The tracked set keyed by Column.key: tracked counts are
     >= threshold >= 1, so [Counter.get tracked k] = 0 unambiguously
     means "not tracked" (low frequency). *)
  type t = { threshold : int; tracked : Counter.t; mass : int }

  let build freq ~threshold =
    let threshold = max threshold 1 in
    let tracked = Counter.create () in
    let mass = ref 0 in
    Counter.iter
      (fun k c ->
        if c >= threshold then begin
          Counter.add tracked k c;
          mass := !mass + c
        end)
      (Frequency.int_counter freq);
    { threshold; tracked; mass = !mass }

  let int_tracked t = t.tracked

  let build_fraction freq ~fraction =
    if fraction < 0. || fraction > 1. then
      invalid_arg "End_biased.build_fraction: fraction outside [0,1]";
    let n = Frequency.total freq in
    let threshold = max 1 (int_of_float (ceil (fraction *. float_of_int n))) in
    build freq ~threshold

  let threshold t = t.threshold
  let tracked_frequency t v = Counter.get t.tracked (Column.find_key v)
  let frequency t v = match tracked_frequency t v with 0 -> None | c -> Some c
  let is_high t v = tracked_frequency t v > 0

  let high_values t =
    Counter.fold (fun k c acc -> (Column.value_of_key k, c) :: acc) t.tracked []
    |> List.sort (fun (v1, c1) (v2, c2) ->
           if c1 <> c2 then Int.compare c2 c1 else Value.compare v1 v2)

  let tracked_count t = Counter.cardinal t.tracked
  let tracked_mass t = t.mass
end
