module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Join_size = Rsj_stats.Join_size
module Strategy = Rsj_core.Strategy
module Counter = Rsj_index.Int_index.Counter

type query_shape = { r : int }

let shape ~r =
  if r < 0 then invalid_arg "Cost_model.shape: negative sample size";
  { r }

type verdict = Feasible of float | Infeasible of string list
type costing = { strategy : Strategy.t; verdict : verdict; formula : string }

let fi = float_of_int

(* Distinct-count guess when only a histogram exists: the histogram
   names its tracked (heavy) values; doubling that count is a crude but
   serviceable stand-in for the low-frequency tail. *)
let distinct_guess (c : Catalog.t) =
  match c.right_stats with
  | Some m2 -> max 1 (Frequency.distinct_count m2)
  | None -> (
      match c.histogram with
      | Some h -> max 1 (2 * Histogram.End_biased.tracked_count h)
      | None -> 1)

(* Σ_v m1(v)·m2(v)² over the tracked values of [h], together with the matching
   Σ m1·m2, using exact m1 when statistics exist and the uniform
   m1 ≈ n1/d approximation otherwise. *)
let hi_sums (c : Catalog.t) h =
  match (c.left_stats, c.right_stats) with
  | Some m1, Some m2 ->
      (* The tracked set is the small side: fold it. *)
      let m1 = Frequency.int_counter m1 and m2 = Frequency.int_counter m2 in
      Counter.fold
        (fun k _ (mm, mmsq) ->
          let m1v = fi (Counter.get m1 k) and m2v = fi (Counter.get m2 k) in
          (mm +. (m1v *. m2v), mmsq +. (m1v *. m2v *. m2v)))
        (Histogram.End_biased.int_tracked h) (0., 0.)
  | _ ->
      let m1_hat = fi c.n1 /. fi (distinct_guess c) in
      List.fold_left
        (fun (mm, mmsq) (_, m2v) ->
          let m2v = fi m2v in
          (mm +. (m1_hat *. m2v), mmsq +. (m1_hat *. m2v *. m2v)))
        (0., 0.)
        (Histogram.End_biased.high_values h)

(* Expected low-side join mass Σ_lo m1·m2 = |J| − Σ_hi m1·m2, clamped
   because an estimated |J| can undershoot the hi-side sum. *)
let lo_mass (c : Catalog.t) hi_mm = Float.max 0. (c.join_size -. hi_mm)

let cost (c : Catalog.t) ({ r } : query_shape) strategy =
  let n1 = fi c.n1 and n2 = fi c.n2 and n = c.join_size and r = fi r in
  match Strategy.missing_structures c.availability strategy with
  | _ :: _ as missing ->
      {
        strategy;
        verdict = Infeasible missing;
        formula = Printf.sprintf "requires %s" (String.concat ", " missing);
      }
  | [] ->
      let feasible value formula = { strategy; verdict = Feasible value; formula } in
      (match strategy with
      | Strategy.Naive ->
          feasible (n1 +. n2 +. n)
            (Printf.sprintf "n1 + n2 + |J| = %.0f + %.0f + %.0f" n1 n2 n)
      | Strategy.Stream ->
          (* Theorem 6: one pass over R1 plus r output lookups. *)
          feasible (n1 +. r) (Printf.sprintf "n1 + r = %.0f + %.0f" n1 r)
      | Strategy.Olken ->
          (* Theorem 5: r accepted tuples at M·n1/|J| trials each. *)
          if r = 0. then feasible 0. "r = 0"
          else if n <= 0. then
            feasible infinity "M*n1*r/|J| with |J| = 0 (never accepts)"
          else begin
            let m, m_note =
              match Catalog.max_multiplicity c with
              | Some m -> (m, Printf.sprintf "M = %.0f" m)
              | None -> (n2, "M unknown, bounded by n2")
            in
            feasible
              (r *. m *. n1 /. n)
              (Printf.sprintf "r*M*n1/|J| = %.0f*%.0f*%.0f/%.0f (%s)" r m n1 n m_note)
          end
      | Strategy.Group ->
          (* Theorem 7: α = r·Σm1m2²/|J|², work ≈ n1 + α·|J|. *)
          let moment, note =
            match (c.left_stats, c.right_stats) with
            | Some m1, Some m2 -> (Join_size.self_join_moment m1 m2, "exact moment")
            | _, Some m2 ->
                let m1_hat = n1 /. fi (distinct_guess c) in
                let sq =
                  Counter.fold
                    (fun _ m2v acc -> acc +. (fi m2v *. fi m2v))
                    (Frequency.int_counter m2) 0.
                in
                (m1_hat *. sq, "uniform-m1 moment")
            | _, None -> (0., "no statistics")
          in
          let term = if n <= 0. then 0. else r *. moment /. n in
          feasible (n1 +. term)
            (Printf.sprintf "n1 + r*Sum(m1*m2^2)/|J| = %.0f + %.1f (%s)" n1 term note)
      | Strategy.Frequency_partition -> (
          (* Theorem 8: scan R1, materialize the low side, sample the
             high side at Σ_hi m1m2²/Σ_hi m1m2 tuples per draw. *)
          match c.histogram with
          | None -> feasible (n1 +. n) "no histogram (degenerate: all low)"
          | Some h ->
              let hi_mm, hi_mmsq = hi_sums c h in
              let lo = lo_mass c hi_mm in
              let per_draw = if hi_mm > 0. then hi_mmsq /. hi_mm else 0. in
              feasible
                (n1 +. lo +. (r *. per_draw))
                (Printf.sprintf
                   "n1 + lo + r*Sum_hi(m1*m2^2)/Sum_hi(m1*m2) = %.0f + %.1f + %.0f*%.1f" n1
                   lo r per_draw))
      | Strategy.Index_sample -> (
          (* Theorem 9: scan R1, materialize the low side, r indexed
             probes on the high side. *)
          match c.histogram with
          | None -> feasible (n1 +. n +. r) "no histogram (degenerate: all low)"
          | Some h ->
              let hi_mm, _ = hi_sums c h in
              let lo = lo_mass c hi_mm in
              feasible
                (n1 +. r +. lo)
                (Printf.sprintf "n1 + r + lo = %.0f + %.0f + %.1f" n1 r lo))
      | Strategy.Count_sample | Strategy.Hybrid_count ->
          (* §6.4: one counting pass over each operand, then r draws. *)
          feasible (n1 +. n2 +. r)
            (Printf.sprintf "n1 + n2 + r = %.0f + %.0f + %.0f" n1 n2 r))

let all_costs c shape = List.map (cost c shape) Strategy.all
