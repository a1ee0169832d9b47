module Registry = Rsj_obs.Registry
module Strategy = Rsj_core.Strategy

type reason = Cheapest | Only_feasible

let reason_to_string = function
  | Cheapest -> "cheapest"
  | Only_feasible -> "only-feasible"

type decision = {
  chosen : Strategy.t;
  reason : reason;
  shape : Cost_model.query_shape;
  candidates : Cost_model.costing list;
  catalog_summary : string;
}

(* Tie-break order among equal-cost feasible strategies: prefer the one
   with the weakest runtime assumptions and the best constants in
   practice (Stream's single pass beats Count's two passes beats the
   index-dependent and rejection-prone strategies; Naive last). *)
let rank = function
  | Strategy.Stream -> 0
  | Strategy.Count_sample -> 1
  | Strategy.Hybrid_count -> 2
  | Strategy.Index_sample -> 3
  | Strategy.Frequency_partition -> 4
  | Strategy.Group -> 5
  | Strategy.Olken -> 6
  | Strategy.Naive -> 7

let count_choice decision =
  Registry.incr
    (Registry.counter "rsj_picker_choice_total"
       ~help:"Strategy-picker decisions by chosen strategy and reason"
       ~labels:
         [
           ("strategy", Strategy.name decision.chosen);
           ("reason", reason_to_string decision.reason);
         ])

let choose catalog shape =
  let candidates = Cost_model.all_costs catalog shape in
  let feasible =
    List.filter_map
      (fun (c : Cost_model.costing) ->
        match c.verdict with
        | Cost_model.Feasible cost -> Some (c.strategy, cost)
        | Cost_model.Infeasible _ -> None)
      candidates
  in
  let decision =
    match feasible with
    | [] ->
        (* Unreachable: Naive requires nothing, so it is always
           feasible. Keep a defensive arm rather than an assert so a
           future Table-1 change degrades gracefully. *)
        {
          chosen = Strategy.Naive;
          reason = Only_feasible;
          shape;
          candidates;
          catalog_summary = Catalog.describe catalog;
        }
    | [ (only, _) ] ->
        {
          chosen = only;
          reason = Only_feasible;
          shape;
          candidates;
          catalog_summary = Catalog.describe catalog;
        }
    | _ :: _ :: _ ->
        let best =
          List.fold_left
            (fun best (s, cost) ->
              match best with
              | None -> Some (s, cost)
              | Some (bs, bc) ->
                  if cost < bc || (cost = bc && rank s < rank bs) then Some (s, cost)
                  else best)
            None feasible
        in
        let chosen, _ = Option.get best in
        {
          chosen;
          reason = Cheapest;
          shape;
          candidates;
          catalog_summary = Catalog.describe catalog;
        }
  in
  (decision.chosen, decision)

let choose_counted catalog shape =
  Rsj_obs.Trace.with_span ~cat:"picker" "picker.choose" (fun () ->
      let chosen, decision = choose catalog shape in
      count_choice decision;
      Rsj_obs.Trace.instant ~cat:"picker"
        ~args:
          [
            ("strategy", Rsj_obs.Json.Str (Strategy.name chosen));
            ("reason", Rsj_obs.Json.Str (reason_to_string decision.reason));
          ]
        "picker.decision";
      (chosen, decision))

let decide env ~r = function
  | Some s -> (s, None)
  | None ->
      let catalog = Catalog.of_env ~availability:Strategy.all_available env in
      let s, d = choose_counted catalog (Cost_model.shape ~r) in
      (s, Some d)

let pp ppf d =
  Format.fprintf ppf "picker: %s (%s), r=%d@," (Strategy.name d.chosen)
    (reason_to_string d.reason) d.shape.Cost_model.r;
  Format.fprintf ppf "catalog: %s@," d.catalog_summary;
  List.iter
    (fun (c : Cost_model.costing) ->
      let marker = if c.strategy = d.chosen then "*" else " " in
      match c.verdict with
      | Cost_model.Feasible cost ->
          Format.fprintf ppf "%s %-20s %12.1f  %s@," marker (Strategy.name c.strategy)
            cost c.formula
      | Cost_model.Infeasible _ ->
          Format.fprintf ppf "%s %-20s %12s  %s@," marker (Strategy.name c.strategy)
            "infeasible" c.formula)
    d.candidates

let to_string d =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>%a@]@?" pp d;
  Buffer.contents buf
