open Rsj_relation
module Strategy = Rsj_core.Strategy
module Chain_sample = Rsj_core.Chain_sample
module Cache = Rsj_cache.Structure_cache

let strategy_of_name name =
  match Strategy.of_name name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown sampling strategy %S (try: %s)" name
           (String.concat ", " (List.map Strategy.name Strategy.all)))

(* What a prepared request draws with. *)
type run = Strategy_run of Strategy.env * Strategy.t | Chain_walk of Chain_sample.t

type t = {
  run : run;
  cache : Cache.t option;
  seed : int;
  r : int;
  wor : bool;
  decision : Rsj_optimizer.Picker.decision option;
}

let env_size env = float_of_int (Strategy.env_join_size env)

let prepare ?cache ?(wor = false) ~seed relations ~join_keys ~(size : Ast.sample_size) named =
  let resolve join_size =
    match size with
    | Ast.Abs n -> n
    | Ast.Pct p ->
        let j = join_size () in
        if j <= 0. then 0 else max 1 (int_of_float (Float.ceil (p /. 100. *. j)))
  in
  let run, r, decision =
    match (relations, join_keys) with
    | [| left; right |], [| (left_key, right_key) |] ->
        let env =
          match cache with
          | Some c ->
              Rsj_obs.Trace.with_span ~cat:"cache" "cache.env" (fun () ->
                  Cache.env c ~seed ~left ~right ~left_key ~right_key ())
          | None -> Strategy.make_env ~seed ~left ~right ~left_key ~right_key ()
        in
        let r = resolve (fun () -> env_size env) in
        let s, decision = Rsj_optimizer.Picker.decide env ~r named in
        (Strategy_run (env, s), r, decision)
    | _ ->
        if named <> None then invalid_arg "Sampler.prepare: a 3+ table chain takes no strategy";
        if wor then invalid_arg "Sampler.prepare: the chain walker draws WR only";
        let spec = { Chain_sample.relations; join_keys } in
        let cs =
          match cache with
          | Some c -> Cache.chain c spec
          | None ->
              let last, key = Chain_sample.last_level spec in
              Chain_sample.prepare ~index:(Rsj_index.Hash_index.build last ~key) spec
        in
        (Chain_walk cs, resolve (fun () -> Chain_sample.join_size cs), None)
  in
  { run; cache; seed; r; wor; decision }

let join_size t =
  match t.run with Strategy_run (env, _) -> env_size env | Chain_walk cs -> Chain_sample.join_size cs

let r t = t.r
let name t = match t.run with Strategy_run (_, s) -> Strategy.name s | Chain_walk _ -> "chain-walk"
let decision t = t.decision

type drawn = Rsj_parallel.drawn = {
  relations : Relation.t array;
  rows : int array;
  metrics : Rsj_exec.Metrics.t;
  elapsed_seconds : float;
}

let draw ~domains t =
  let request =
    match t.run with
    | Strategy_run (env, strategy) -> Rsj_parallel.Pair { env; strategy; wor = t.wor }
    | Chain_walk walker -> Rsj_parallel.Chain { walker; rng = Rsj_util.Prng.create ~seed:t.seed () }
  in
  Rsj_parallel.draw request ~r:t.r ~domains

let size (d : drawn) = Array.length d.rows / Array.length d.relations
let tuples (d : drawn) = Relation.rehydrate d.relations d.rows

(* Only two-table samples over cached inputs are observed, by the left
   join key of each served tuple. *)
let observe_keys monitor t keys =
  match (t.run, t.cache) with
  | Strategy_run (env, s), Some cache ->
      Rsj_verify.Online.observe_join monitor ~frequency:(Cache.frequency cache)
        ~left:(Strategy.env_left env) ~right:(Strategy.env_right env)
        ~left_key:(Strategy.env_left_key env) ~right_key:(Strategy.env_right_key env)
        ~stream:(Strategy.name s ^ if t.wor then "/wor" else "/wr")
        (keys env)
  | _ -> ()

let observe monitor t (d : drawn) =
  observe_keys monitor t (fun env ->
      let view = Strategy.env_left_key_view env in
      Array.init (size d) (fun j -> view.(d.rows.(2 * j))))

let observe_tuples monitor t sample =
  observe_keys monitor t (fun env ->
      let col = Strategy.env_left_key env in
      Array.map (fun (tu : Tuple.t) -> Column.find_key tu.(col)) sample)
