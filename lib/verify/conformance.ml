open Rsj_relation
module Strategy = Rsj_core.Strategy
module Semantics = Rsj_core.Semantics
module Convert = Rsj_core.Convert
module Negative = Rsj_core.Negative
module Chain_sample = Rsj_core.Chain_sample
module Zipf_tables = Rsj_workload.Zipf_tables
module Report = Rsj_harness.Report
module Prng = Rsj_util.Prng
module Dist = Rsj_util.Dist
module Stats_math = Rsj_util.Stats_math
module Obs = Rsj_obs

type skew = { label : string; z1 : float; z2 : float }

let default_skews =
  [ { label = "uniform"; z1 = 0.; z2 = 0. }; { label = "zipf(1,2)"; z1 = 1.; z2 = 2. } ]

type config = {
  trials : int;
  r : int;
  n1 : int;
  n2 : int;
  domain : int;
  seed : int;
  significance : float;
  retries : int;
}

let default_config () =
  {
    trials = Rsj_obs.Config.conf_trials ();
    r = 16;
    n1 = 40;
    n2 = 80;
    domain = 6;
    seed = 0x5EED;
    significance = 0.01;
    retries = 2;
  }

type input = Int_keys | Str_keys | Bag

let input_suffix = function Int_keys -> "" | Str_keys -> "/str-keys" | Bag -> "/bag"

type cell = {
  strategy : Strategy.t;
  semantics : Semantics.t;
  skew : skew;
  domains : int;
  input : input;
}

type cell_result = {
  cell : cell;
  join_size : int;
  draws : int;
  outcome : Kernel.outcome;
}

let default_domain_counts = [ 1; 2; 4 ]

let matrix ?(strategies = Strategy.all) ?(semantics = Semantics.all) ?(skews = default_skews)
    ?(domain_counts = default_domain_counts) ?(input = Int_keys) () =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun sem ->
          List.concat_map
            (fun skew ->
              List.map
                (fun domains -> { strategy; semantics = sem; skew; domains; input })
                domain_counts)
            skews)
        semantics)
    strategies

(* Two more inputs: dictionary-coded join keys (a string-keyed copy of
   the uniform pair, whose key views hold codes instead of ints), and a
   bag join (the skewed pair with its rids zeroed, so each join value
   yields many copies of one tuple) against the multiplicity-weighted
   oracle. *)
let default_cells () =
  let sub ~skew ~domain_counts input =
    matrix ~semantics:[ Semantics.WR; Semantics.WoR ] ~skews:[ skew ] ~domain_counts ~input ()
  in
  matrix ()
  @ sub ~skew:(List.hd default_skews) ~domain_counts:[ 1; 2 ] Str_keys
  @ sub ~skew:(List.nth default_skews 1) ~domain_counts:[ 1; 4 ] Bag

(* Deterministic seed mixing: every attempt of every cell draws from its
   own reproducible stream, so retries are independent and reruns are
   bit-identical. *)
let mix a b c = abs ((a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE35)) land 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* Semantics-specific draws                                            *)

(* WoR through the runtime's own parallel path
   (Rsj_parallel.run_wor): Naive cells exercise the chunked Vitter
   reservoirs + Wor merge, every other strategy the pooled WR-batch §3
   conversion — so the domains > 1 WoR cells gate exactly what the CLI
   executes. *)
let draw_wor env strategy ~r ~domains =
  (Rsj_parallel.run_wor env strategy ~r ~domains).Strategy.sample

(* CF as Binomial(|J|, f) size + uniform WoR subset of that size — the
   exact law of independent per-tuple coin flips over the join. *)
let draw_cf rng env strategy ~f ~domains =
  let n = Strategy.env_join_size env in
  let k = Dist.binomial rng ~n ~p:f in
  if k = 0 then [||] else draw_wor env strategy ~r:k ~domains

(* ------------------------------------------------------------------ *)
(* Cell runner                                                         *)

(* A WoR trial is a set of distinct join positions: exactly min r |J|
   tuples, none more often than its multiplicity. Like a tuple outside
   the join, a violation is a correctness bug, not bias. *)
let check_wor oracle ~r sample =
  let counts = Oracle.counter oracle in
  Array.iter (Oracle.observe oracle counts) sample;
  if
    Array.length sample <> min r (Oracle.size oracle)
    || Array.exists Fun.id (Array.mapi (fun i c -> c > Oracle.multiplicity oracle i) counts)
  then failwith "Conformance: a WoR trial is not min r |J| distinct join positions";
  sample

let cf_fraction config ~join_size =
  Float.min 0.9 (float_of_int config.r /. float_of_int (max 1 join_size))

let run_cell kconfig config ~pair ~oracle ~cell_index cell =
  Obs.Trace.with_span ~cat:"verify"
    ~args:
      [
        ("strategy", Obs.Json.Str (Strategy.name cell.strategy));
        ("semantics", Obs.Json.Str (Semantics.to_string cell.semantics));
        ("skew", Obs.Json.Str cell.skew.label);
        ("domains", Obs.Json.Int cell.domains);
        ("input", Obs.Json.Str (input_suffix cell.input));
      ]
    "verify.cell"
  @@ fun () ->
  let join_size = Oracle.size oracle in
  (* Parallel cells cost ~domains× more per trial (every trial spawns
     that many domains), so scale their trial count down by the domain
     count, floored. The d=1 cell pins the strategy's law at full
     power; the d>1 cells check that the chunk-scheduled path agrees
     with it, and the bugs they exist to catch (lost chunks, double
     merges, biased ticketing) are gross, large-effect distortions. *)
  let trials = max 15 (config.trials / max 1 cell.domains) in
  let draws = ref 0 in
  let make_env attempt =
    Strategy.make_env
      ~seed:(mix config.seed (cell_index + 1) attempt)
      ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ()
  in
  let tally env draw1 =
    let counts = Oracle.counter oracle in
    let total = ref 0 in
    for _ = 1 to trials do
      let s = draw1 env in
      total := !total + Array.length s;
      Array.iter (Oracle.observe oracle counts) s
    done;
    draws := !total;
    (counts, !total)
  in
  let outcome =
    match cell.semantics with
    | Semantics.WR ->
        Kernel.run kconfig Kernel.Chi_square ~sample:(fun ~attempt ->
            let counts, total =
              tally (make_env attempt) (fun env ->
                  (Rsj_parallel.run env cell.strategy ~r:config.r ~domains:cell.domains)
                    .Strategy.sample)
            in
            (Oracle.wr_expected oracle ~draws:total, counts))
    | Semantics.WoR ->
        Kernel.run kconfig Kernel.Chi_square ~sample:(fun ~attempt ->
            let counts, _ =
              tally (make_env attempt) (fun env ->
                  check_wor oracle ~r:config.r
                    (draw_wor env cell.strategy ~r:config.r ~domains:cell.domains))
            in
            (Oracle.wor_expected oracle ~trials ~r:config.r, counts))
    | Semantics.CF ->
        (* Two laws to satisfy: uniformity of the included tuples and
           the Binomial(|J|, f) size. Bonferroni within the cell: the
           combined p doubles the smaller sub-p. *)
        let f = cf_fraction config ~join_size in
        Kernel.run_custom kconfig ~name:"chi-square+size-z" ~attempt:(fun ~attempt ->
            let rng = Prng.create ~seed:(mix config.seed (cell_index + 1) (attempt + 0x11)) () in
            let counts, total =
              tally (make_env attempt) (fun env ->
                  draw_cf rng env cell.strategy ~f ~domains:cell.domains)
            in
            let unif =
              if total = 0 then None
              else
                Some
                  (Kernel.goodness_of_fit kconfig Kernel.Chi_square
                     ~expected:(Oracle.wr_expected oracle ~draws:total)
                     ~observed:counts)
            in
            let expected_total =
              float_of_int trials *. Semantics.expected_size Semantics.CF ~n:join_size ~f
            in
            let sd = sqrt (float_of_int (trials * join_size) *. f *. (1. -. f)) in
            let z = (float_of_int total -. expected_total) /. Float.max 1e-9 sd in
            let p_size = Kernel.z_p_value z in
            match unif with
            | None -> (z, 1, Float.min 1. (2. *. p_size))
            | Some u ->
                ( u.Stats_math.statistic,
                  u.Stats_math.dof,
                  Float.min 1. (2. *. Float.min u.Stats_math.p_value p_size) ))
  in
  { cell; join_size; draws = !draws; outcome }

(* ------------------------------------------------------------------ *)
(* Aggregate-estimate KS rows                                          *)

(* Across trials, each estimator computed over a WR sample is
   asymptotically normal with exactly computable mean and variance (the
   oracle knows the population); KS-test the standardized estimates
   against Φ. This gates the paper's §1 use case — approximate
   aggregates over the sample — not just per-tuple membership:

   - SUM: the Horvitz–Thompson estimate n/r · Σ g(t), sd n·√(σ²/r);
   - COUNT: the HT estimate n/r · #{t : pred(t)} of a selection count,
     sd n·√(p(1−p)/r) with p the predicate's selectivity over J;
   - AVG: the plain sample mean of g, sd √(σ²/r). *)
type estimator = Sum | Count | Avg

let all_estimators = [ Sum; Count; Avg ]
let estimator_label = function Sum -> "HT-sum" | Count -> "HT-count" | Avg -> "AVG"
let ks_sample_size = 48

let aggregate_ks kconfig config ~pair ~oracle ~row_index strategy est ~domains =
  Obs.Trace.with_span ~cat:"verify"
    ~args:
      [
        ("strategy", Obs.Json.Str (Strategy.name strategy));
        ("estimator", Obs.Json.Str (estimator_label est));
        ("domains", Obs.Json.Int domains);
      ]
    "verify.ks"
  @@ fun () ->
  (* Like the cells: the d > 1 rows re-test the same estimator law over
     the chunk-scheduled path with trial counts scaled down by the
     width — the d = 1 row pins the law at full power. *)
  let trials = max 15 (config.trials / max 1 domains) in
  let n = Oracle.size oracle in
  let fn = float_of_int n in
  let r = ks_sample_size in
  let fr = float_of_int r in
  let g t = match Tuple.get t 0 with Value.Int i -> float_of_int i | _ -> 0. in
  let pred t = match Tuple.get t 0 with Value.Int i -> i mod 2 = 0 | _ -> false in
  let universe = Oracle.universe oracle in
  let total = Array.fold_left (fun acc t -> acc +. g t) 0. universe in
  let mean = total /. fn in
  let var = Array.fold_left (fun acc t -> acc +. ((g t -. mean) ** 2.)) 0. universe /. fn in
  let sum_g s = Array.fold_left (fun acc t -> acc +. g t) 0. s in
  let count_pred s = Array.fold_left (fun acc t -> if pred t then acc +. 1. else acc) 0. s in
  let standardize =
    match est with
    | Sum ->
        let sd = fn *. sqrt (var /. fr) in
        if sd <= 0. then invalid_arg "Conformance.aggregate_ks: degenerate SUM column";
        fun s -> ((fn /. fr *. sum_g s) -. total) /. sd
    | Count ->
        let c = count_pred universe in
        let p = c /. fn in
        let sd = fn *. sqrt (p *. (1. -. p) /. fr) in
        if sd <= 0. then invalid_arg "Conformance.aggregate_ks: degenerate COUNT predicate";
        fun s -> ((fn /. fr *. count_pred s) -. c) /. sd
    | Avg ->
        let sd = sqrt (var /. fr) in
        if sd <= 0. then invalid_arg "Conformance.aggregate_ks: degenerate AVG column";
        fun s -> ((sum_g s /. fr) -. mean) /. sd
  in
  Kernel.run_ks kconfig
    ~name:(Strategy.name strategy ^ " " ^ estimator_label est)
    ~cdf:(fun x -> 1. -. Stats_math.normal_sf x)
    ~sample:(fun ~attempt ->
      let env =
        Strategy.make_env
          ~seed:(mix config.seed (0x5113 + row_index) attempt)
          ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner ~left_key:Zipf_tables.col2
          ~right_key:Zipf_tables.col2 ()
      in
      Array.init trials (fun _ ->
          standardize (Rsj_parallel.run env strategy ~r ~domains).Strategy.sample))

(* ------------------------------------------------------------------ *)
(* Chain-join rows                                                     *)

(* The 3-relation chain walker (Chain_sample) held to the same policy
   as the 2-relation cells: chi-square of pooled WR draws against the
   uniform law over the exactly enumerated chain join, one row per
   skew. *)
let default_chain_skews = [ 0.5; 2.0 ]

let chain_spec ~seed ~z =
  let mk i rows =
    Zipf_tables.make ~seed:(seed + (31 * i)) ~name:(Printf.sprintf "chain%d" i) ~rows ~z
      ~domain:5 ()
  in
  {
    Chain_sample.relations = [| mk 0 24; mk 1 30; mk 2 36 |];
    join_keys = [| (Zipf_tables.col2, Zipf_tables.col2); (Zipf_tables.col2, Zipf_tables.col2) |];
  }

(* ------------------------------------------------------------------ *)
(* Picker-routed rows                                                  *)

(* The cost-based picker (Rsj_optimizer.Picker) is itself part of the
   sampling path now — a wrong choice that routes to a strategy whose
   requirements aren't really met, or a trace/execution mismatch, must
   fail the sweep. Each row snapshots a catalog under one availability
   profile, lets the picker choose, then holds the chosen strategy's
   WR law to the same chi-square gate as the per-strategy cells. *)

type picker_profile = {
  plabel : string;
  availability : Strategy.availability;
}

let default_picker_profiles =
  [
    { plabel = "full"; availability = Strategy.all_available };
    {
      plabel = "no-index";
      availability =
        {
          Strategy.left_index = false;
          right_index = false;
          right_stats = true;
          right_histogram = true;
        };
    };
    {
      plabel = "histogram-only";
      availability =
        {
          Strategy.left_index = false;
          right_index = false;
          right_stats = false;
          right_histogram = true;
        };
    };
    { plabel = "none"; availability = Strategy.nothing_available };
  ]

let picker_row kconfig config ~pair ~oracle ~row_index profile ~domains =
  Obs.Trace.with_span ~cat:"verify"
    ~args:
      [
        ("profile", Obs.Json.Str profile.plabel);
        ("domains", Obs.Json.Int domains);
      ]
    "verify.picker"
  @@ fun () ->
  let make_env attempt =
    Strategy.make_env
      ~seed:(mix config.seed (0x71C4 + row_index) attempt)
      ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ()
  in
  (* The choice is a deterministic function of the catalog, which only
     depends on the (attempt-independent) workload pair: decide once. *)
  let chosen =
    fst
      (Rsj_optimizer.Picker.choose
         (Rsj_optimizer.Catalog.of_env ~availability:profile.availability (make_env 0))
         (Rsj_optimizer.Cost_model.shape ~r:config.r))
  in
  let trials = max 15 (config.trials / max 1 domains) in
  let outcome =
    Kernel.run kconfig Kernel.Chi_square ~sample:(fun ~attempt ->
        let env = make_env attempt in
        let counts = Oracle.counter oracle in
        let total = ref 0 in
        for _ = 1 to trials do
          let s = (Rsj_parallel.run env chosen ~r:config.r ~domains).Strategy.sample in
          total := !total + Array.length s;
          Array.iter (Oracle.observe oracle counts) s
        done;
        (Oracle.wr_expected oracle ~draws:!total, counts))
  in
  (Printf.sprintf "picker[%s->%s]" profile.plabel (Strategy.name chosen), domains, outcome)

(* ------------------------------------------------------------------ *)
(* Negative control                                                    *)

let negative_control kconfig config ~oracle =
  Obs.Trace.with_span ~cat:"verify" "verify.control" @@ fun () ->
  let trials = max 200 (4 * config.trials) in
  Kernel.run kconfig Kernel.Chi_square ~sample:(fun ~attempt ->
      let rng = Prng.create ~seed:(mix config.seed 0xBAD (attempt + 1)) () in
      let counts = Oracle.counter oracle in
      for _ = 1 to trials do
        Array.iter
          (Oracle.observe oracle counts)
          (Negative.biased_wr_draw rng ~universe:(Oracle.universe oracle) ~r:config.r)
      done;
      (Oracle.wr_expected oracle ~draws:(trials * config.r), counts))

(* ------------------------------------------------------------------ *)
(* Full run                                                            *)

type summary = {
  config : config;
  results : cell_result list;
  aggregates : (string * int * Kernel.outcome) list;
  chains : (string * Kernel.outcome) list;
  pickers : (string * int * Kernel.outcome) list;
  control : Kernel.outcome;
  comparisons : int;
  all_pass : bool;
}

let wr_uniformity ?(config = Kernel.default) ~trials ~universe ~draw () =
  let oracle = Oracle.of_universe universe in
  Kernel.run config Kernel.Chi_square ~sample:(fun ~attempt ->
      let draw1 = draw ~attempt in
      let counts = Oracle.counter oracle in
      let total = ref 0 in
      for _ = 1 to trials do
        let s = draw1 () in
        total := !total + Array.length s;
        Array.iter (Oracle.observe oracle counts) s
      done;
      (Oracle.wr_expected oracle ~draws:!total, counts))

let chain_row kconfig config ~row_index z =
  Obs.Trace.with_span ~cat:"verify"
    ~args:[ ("z", Obs.Json.Float z) ]
    "verify.chain"
  @@ fun () ->
  let spec = chain_spec ~seed:(mix config.seed 0xC4A1 row_index) ~z in
  let universe = Oracle.universe (Oracle.of_chain spec) in
  let last, key = Chain_sample.last_level spec in
  let prepared = Chain_sample.prepare ~index:(Rsj_index.Hash_index.build last ~key) spec in
  let outcome =
    wr_uniformity ~config:kconfig ~trials:config.trials ~universe
      ~draw:(fun ~attempt ->
        let rng = Prng.create ~seed:(mix config.seed (0xC4A1 + row_index) (attempt + 1)) () in
        fun () -> Chain_sample.sample prepared rng ~r:config.r ())
      ()
  in
  (Printf.sprintf "chain walk z=%g" z, outcome)

let run ?config ?cells ?(with_aggregates = true) ?(with_chains = true) ?(with_control = true)
    ?(with_pickers = true) ?(picker_profiles = default_picker_profiles) () =
  let config = match config with Some c -> c | None -> default_config () in
  if config.trials <= 0 then invalid_arg "Conformance.run: trials <= 0";
  if config.r <= 0 then invalid_arg "Conformance.run: r <= 0";
  let cells = match cells with Some c -> c | None -> default_cells () in
  let skews =
    List.fold_left
      (fun acc cell -> if List.mem cell.skew acc then acc else cell.skew :: acc)
      [] cells
    |> List.rev
  in
  let ks_skew =
    match List.rev skews with [] -> List.hd default_skews | last :: _ -> last
  in
  let matrix_domains =
    match List.sort_uniq compare (List.map (fun c -> c.domains) cells) with
    | [] -> [ 1 ]
    | l -> l
  in
  let ks_rows =
    (* One estimator KS row per strategy × estimator × domain count in
       the matrix, so the aggregate laws are gated over the parallel
       path at the same widths as the per-tuple cells. *)
    if with_aggregates then
      List.concat_map
        (fun strategy ->
          List.concat_map
            (fun est -> List.map (fun domains -> (strategy, est, domains)) matrix_domains)
            all_estimators)
        (List.sort_uniq compare (List.map (fun c -> c.strategy) cells))
    else []
  in
  let chain_zs = if with_chains then default_chain_skews else [] in
  let picker_cells =
    if with_pickers then
      List.concat_map
        (fun profile -> List.map (fun domains -> (profile, domains)) matrix_domains)
        picker_profiles
    else []
  in
  let comparisons =
    List.length cells + List.length ks_rows + List.length chain_zs
    + List.length picker_cells
  in
  let kconfig =
    {
      Kernel.significance = config.significance;
      comparisons = max 1 comparisons;
      retries = config.retries;
      min_expected = 5.;
    }
  in
  let with_oracle pair =
    ( pair,
      Oracle.of_relations ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
        ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 )
  in
  let instances =
    List.mapi
      (fun i skew ->
        let pair =
          Zipf_tables.make_pair
            ~seed:(mix config.seed 0x7A1E i)
            ~n1:config.n1 ~n2:config.n2 ~z1:skew.z1 ~z2:skew.z2 ~domain:config.domain ()
        in
        let copy f = lazy (with_oracle (f pair)) in
        (skew.label, (with_oracle pair, copy Zipf_tables.string_keyed, copy Zipf_tables.bag)))
      skews
  in
  let instance ?(input = Int_keys) label =
    let int_keyed, str_keyed, bag = List.assoc label instances in
    match input with
    | Int_keys -> int_keyed
    | Str_keys -> Lazy.force str_keyed
    | Bag -> Lazy.force bag
  in
  let results =
    List.mapi
      (fun i cell ->
        let pair, oracle = instance ~input:cell.input cell.skew.label in
        run_cell kconfig config ~pair ~oracle ~cell_index:i cell)
      cells
  in
  let aggregates =
    List.mapi
      (fun i (strategy, est, domains) ->
        let pair, oracle = instance ks_skew.label in
        ( Strategy.name strategy ^ " " ^ estimator_label est,
          domains,
          aggregate_ks kconfig config ~pair ~oracle ~row_index:i strategy est ~domains ))
      ks_rows
  in
  let chains = List.mapi (fun i z -> chain_row kconfig config ~row_index:i z) chain_zs in
  let pickers =
    List.mapi
      (fun i (profile, domains) ->
        let pair, oracle = instance ks_skew.label in
        picker_row kconfig config ~pair ~oracle ~row_index:i profile ~domains)
      picker_cells
  in
  let control =
    if with_control then
      let _, oracle = instance ks_skew.label in
      negative_control kconfig config ~oracle
    else { Kernel.name = "disabled"; statistic = 0.; dof = 0; p_value = 1.; attempts = 0; passed = false }
  in
  let all_pass =
    List.for_all (fun r -> r.outcome.Kernel.passed) results
    && List.for_all (fun (_, _, o) -> o.Kernel.passed) aggregates
    && List.for_all (fun (_, o) -> o.Kernel.passed) chains
    && List.for_all (fun (_, _, o) -> o.Kernel.passed) pickers
    && (not with_control || not control.Kernel.passed)
  in
  { config; results; aggregates; chains; pickers; control; comparisons; all_pass }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let p_cell p = Printf.sprintf "%.2e" p

let report summary =
  let rows =
    List.map
      (fun { cell; join_size; draws; outcome } ->
        [
          Strategy.name cell.strategy;
          Semantics.to_string cell.semantics;
          cell.skew.label ^ input_suffix cell.input;
          string_of_int cell.domains;
          string_of_int join_size;
          string_of_int draws;
          outcome.Kernel.name;
          p_cell outcome.Kernel.p_value;
          string_of_int outcome.Kernel.attempts;
          (if outcome.Kernel.passed then "PASS" else "FAIL");
        ])
      summary.results
    @ List.map
        (fun (name, domains, o) ->
          [
            name;
            "with-replacement";
            "aggregate";
            string_of_int domains;
            "-";
            string_of_int
              (max 15 (summary.config.trials / max 1 domains) * ks_sample_size);
            "KS";
            p_cell o.Kernel.p_value;
            string_of_int o.Kernel.attempts;
            (if o.Kernel.passed then "PASS" else "FAIL");
          ])
        summary.aggregates
    @ List.map
        (fun (name, (o : Kernel.outcome)) ->
          [
            name;
            "with-replacement";
            "chain";
            "1";
            "-";
            string_of_int (summary.config.trials * summary.config.r);
            o.Kernel.name;
            p_cell o.Kernel.p_value;
            string_of_int o.Kernel.attempts;
            (if o.Kernel.passed then "PASS" else "FAIL");
          ])
        summary.chains
    @ List.map
        (fun (name, domains, (o : Kernel.outcome)) ->
          [
            name;
            "with-replacement";
            "picker";
            string_of_int domains;
            "-";
            string_of_int
              (max 15 (summary.config.trials / max 1 domains) * summary.config.r);
            o.Kernel.name;
            p_cell o.Kernel.p_value;
            string_of_int o.Kernel.attempts;
            (if o.Kernel.passed then "PASS" else "FAIL");
          ])
        summary.pickers
    @ [
        [
          "biased control";
          "with-replacement";
          "negative";
          "1";
          "-";
          "-";
          summary.control.Kernel.name;
          p_cell summary.control.Kernel.p_value;
          string_of_int summary.control.Kernel.attempts;
          (if summary.control.Kernel.passed then "NOT REJECTED (BUG)" else "REJECTED (expected)");
        ];
      ]
  in
  {
    Report.title =
      Printf.sprintf
        "V7: statistical conformance (trials=%d r=%d alpha=%g Bonferroni m=%d retries=%d)"
        summary.config.trials summary.config.r summary.config.significance summary.comparisons
        summary.config.retries;
    header =
      [ "strategy"; "semantics"; "skew"; "domains"; "|J|"; "draws"; "test"; "p"; "att"; "verdict" ];
    rows;
  }
