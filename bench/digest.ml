(* Bit-identity digest of every sampling entry point. `make digest`
   prints one line per cell — the MD5 of the cell's sample, rendered
   tuple by tuple — and a TOTAL over all of them. Run it on two
   checkouts: an equal TOTAL means that every cell drew exactly the
   same tuples in the same order.

   Cells: Strategy.run / Strategy.run_wor for the 8 strategies on
   int- and string-keyed copies of each pair; Rsj_parallel.run /
   Rsj_parallel.run_wor at d ∈ {1, 2, 4} (Olken at d = 1 only: it is
   not bit-reproducible at d > 1), on both key types; every SQL
   sampling route: a two-table SAMPLE r (picked, with the picked
   strategy's name digested ahead of the rows), USING each of the 8
   strategies, SAMPLE 2%, a constant-filtered two-table query (the
   uncached env) and the 3-table chain SAMPLE, unfiltered (the cached
   walker) and constant-filtered (a private walker); and 10 successive
   Chain_sample.draw calls on the same chain. Each runs over 3 seeds × 3
   skews (uniform, zipf(1,2), zipf(2,3)). The inputs are §8.1 tables
   with unique rids, so every join is a set join. *)

open Rsj_relation
module Strategy = Rsj_core.Strategy
module Chain_sample = Rsj_core.Chain_sample
module Zipf_tables = Rsj_workload.Zipf_tables

let skews = [ ("uniform", 0., 0.); ("zipf(1,2)", 1., 2.); ("zipf(2,3)", 2., 3.) ]
let seeds = [ 1; 7; 4242 ]
let r = 40
let total = Buffer.create 4096

let cell label sample =
  let text = String.concat "\n" (List.map Tuple.to_string sample) in
  let d = Digest.to_hex (Digest.string text) in
  Buffer.add_string total d;
  Printf.printf "%-58s %4d %s\n%!" label (List.length sample) d

(* Runs [f]; a raised exception is part of the digest too. *)
let guarded label f =
  match f () with
  | sample -> cell label (Array.to_list sample)
  | exception (Failure msg | Invalid_argument msg) -> cell (label ^ " ! " ^ msg) []

let () =
  List.iter
    (fun (skew, z1, z2) ->
      List.iter
        (fun seed ->
          let pair =
            Zipf_tables.make_pair ~seed ~n1:300 ~n2:1200 ~z1 ~z2 ~domain:40 ()
          in
          List.iter
            (fun (keys, (pair : Zipf_tables.pair)) ->
              let env () =
                Strategy.make_env ~seed ~left:pair.outer ~right:pair.inner
                  ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
              in
              let label what s = Printf.sprintf "%s s=%d %s %s %s" skew seed keys what (Strategy.name s) in
              List.iter
                (fun s ->
                  guarded (label "ref-WR" s) (fun () -> (Strategy.run (env ()) s ~r).sample);
                  guarded (label "ref-WoR" s) (fun () -> (Strategy.run_wor (env ()) s ~r).sample);
                  List.iter
                    (fun domains ->
                      if s <> Strategy.Olken || domains = 1 then begin
                        let what sem = Printf.sprintf "par-%s-d%d" sem domains in
                        guarded (label (what "WR") s) (fun () ->
                            (Rsj_parallel.run (env ()) s ~r ~domains).sample);
                        guarded (label (what "WoR") s) (fun () ->
                            (Rsj_parallel.run_wor (env ()) s ~r ~domains).sample)
                      end)
                    [ 1; 2; 4 ])
                Strategy.all)
            [ ("int", pair); ("str", Zipf_tables.string_keyed pair) ];
          let t3 = Zipf_tables.make ~seed:(seed + 3) ~name:"t3" ~rows:900 ~z:z2 ~domain:40 () in
          let catalog = [ ("t1", pair.outer); ("t2", pair.inner); ("t3", t3) ] in
          let sql what query =
            guarded (Printf.sprintf "%s s=%d SQL %s" skew seed what) (fun () ->
                match Rsj_sql.Engine.run ~seed catalog query with
                | Ok res ->
                    let picked =
                      match res.Rsj_sql.Engine.decision with
                      | Some d -> [ [| Value.str (Strategy.name d.Rsj_optimizer.Picker.chosen) |] ]
                      | None -> []
                    in
                    Array.of_list (picked @ res.Rsj_sql.Engine.rows)
                | Error msg -> failwith msg)
          in
          let two = "SELECT * FROM t1, t2 WHERE t1.col2 = t2.col2" in
          sql "SAMPLE r" (Printf.sprintf "%s SAMPLE %d" two r);
          List.iter
            (fun s ->
              let using = String.map (function '-' -> '_' | c -> c) (Strategy.name s) in
              sql ("USING " ^ using) (Printf.sprintf "%s SAMPLE %d USING %s" two r using))
            Strategy.all;
          sql "SAMPLE 2%" (two ^ " SAMPLE 2%");
          sql "filtered SAMPLE r" (Printf.sprintf "%s AND t1.rid < 200 SAMPLE %d" two r);
          let chain = "SELECT * FROM t1, t2, t3 WHERE t1.col2 = t2.col2 AND t2.col2 = t3.col2" in
          sql "chain SAMPLE" (Printf.sprintf "%s SAMPLE %d" chain r);
          sql "filtered chain SAMPLE" (Printf.sprintf "%s AND t3.rid < 600 SAMPLE %d" chain r);
          let walker =
            Chain_sample.prepare
              ~index:(Rsj_index.Hash_index.build t3 ~key:Zipf_tables.col2)
              {
                Chain_sample.relations = [| pair.outer; pair.inner; t3 |];
                join_keys = [| (Zipf_tables.col2, Zipf_tables.col2); (Zipf_tables.col2, Zipf_tables.col2) |];
              }
          in
          guarded (Printf.sprintf "%s s=%d chain draw x10" skew seed) (fun () ->
              let rng = Rsj_util.Prng.create ~seed () in
              Array.init 10 (fun _ -> Option.get (Chain_sample.draw walker rng ()))))
        seeds)
    skews;
  Printf.printf "TOTAL %s\n" (Digest.to_hex (Digest.string (Buffer.contents total)))
