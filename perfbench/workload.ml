(* The benchmark's four workloads: which tables each generates, which
   requests it sends, and in what order. Everything is a function of
   the run's seed; the daemon only ever sees the generated CSVs. *)

module Z = Rsj_workload.Zipf_tables

let domain = 1000

type table = { name : string; file : string; rows : int; z : float }
(* [name] is the name the table is registered under; [file] the CSV in
   the work directory. *)

type sample = { left : string; right : string; r : int; strategy : string option; wor : bool }
(* [strategy = None] routes through the daemon's cost-based picker. *)

type op =
  | Sample of sample
  | Query of { sql : string; r : int }
  | Swap of { name : string; file : string }
      (** Re-register [name] from [file]: a write that invalidates the
          relation's cached structures. *)

type t = {
  name : string;
  tables : table list;  (** Generated and registered at set-up, in order. *)
  spare : table list;  (** Generated, registered only by [Swap] ops. *)
  kinds : (string * op) list;  (** The distinct requests; set-up sends each once. *)
  op_at : int -> string * op;  (** The timed sequence: (kind label, request) of op [i]. *)
  barrier : int -> bool;  (** Op [i] runs alone: nothing else is in flight. *)
}

let table name file rows z = { name; file; rows; z }

let sample ?strategy ?(wor = false) left right r = Sample { left; right; r; strategy; wor }

let round_robin kinds =
  let a = Array.of_list kinds in
  fun i -> a.(i mod Array.length a)

let no_barrier _ = false

let stream_scan =
  let kinds = [ ("stream", sample ~strategy:"stream" "t1" "t2" 64) ] in
  {
    name = "stream_scan";
    tables = [ table "t1" "t1.csv" 80_000 1.; table "t2" "t2.csv" 320_000 1. ];
    spare = [];
    kinds;
    op_at = round_robin kinds;
    barrier = no_barrier;
  }

let strategy_mix =
  let uniform s = (s, sample ~strategy:s "u1" "u2" 200) in
  let skewed s = (s, sample ~strategy:s "s1" "s2" 200) in
  let kinds =
    [
      uniform "naive"; skewed "olken"; uniform "stream"; uniform "group"; skewed "fps";
      skewed "index"; uniform "count";
      ("hybrid", sample ~strategy:"hybrid-count" "s1" "s2" 200);
      ("naive_wor", sample ~strategy:"naive" ~wor:true "u1" "u2" 200);
      ("stream_wor", sample ~strategy:"stream" ~wor:true "u1" "u2" 200);
      ("picker", sample "s1" "s2" 200);
    ]
  in
  {
    name = "strategy_mix";
    tables =
      [
        table "u1" "u1.csv" 10_000 0.; table "u2" "u2.csv" 10_000 0.;
        table "s1" "s1.csv" 10_000 2.; table "s2" "s2.csv" 2_500 3.;
      ];
    spare = [];
    kinds;
    op_at = round_robin kinds;
    barrier = no_barrier;
  }

let chain_r = 1000

let chain_sql =
  Printf.sprintf "SELECT * FROM t1, t2, t3 WHERE t1.col2 = t2.col2 AND t2.col2 = t3.col2 SAMPLE %d"
    chain_r

let chain_walk =
  let kinds = [ ("chain", Query { sql = chain_sql; r = chain_r }) ] in
  {
    name = "chain_walk";
    tables =
      [
        table "t1" "t1.csv" 50_000 1.; table "t2" "t2.csv" 200_000 1.;
        table "t3" "t3.csv" 200_000 1.;
      ];
    spare = [];
    kinds;
    op_at = round_robin kinds;
    barrier = no_barrier;
  }

(* One write per [churn_reads] reads; swaps alternate t2 between the
   two snapshots, starting with the spare one. *)
let churn_reads = 20

let churn_period = churn_reads + 1

let churn =
  let read = ("picker", sample "t1" "t2" 64) in
  let op_at i =
    if i mod churn_period = churn_reads then
      let file = if i / churn_period mod 2 = 0 then "t2b.csv" else "t2a.csv" in
      ("swap", Swap { name = "t2"; file })
    else read
  in
  {
    name = "churn";
    tables = [ table "t1" "t1.csv" 20_000 1.; table "t2" "t2a.csv" 40_000 1. ];
    spare = [ table "t2" "t2b.csv" 40_000 1. ];
    kinds = [ read ];
    op_at;
    barrier = (fun i -> i mod churn_period = churn_reads);
  }

let all = [ stream_scan; strategy_mix; chain_walk; churn ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Seeds: one stream of 30-bit values per purpose, mixed from the run
   seed so neighbouring run seeds share nothing. *)
let mix seed salt =
  let h = ref ((seed * 0x9E3779B1) lxor (salt * 0x85EBCA77)) in
  h := !h lxor (!h lsr 29);
  h := !h * 0x2545F4914F6CDD1D;
  h := !h lxor (!h lsr 32);
  !h land 0x3FFFFFFF

let table_seed seed (t : table) = mix seed (Hashtbl.hash t.file)

(* Set-up requests use negative op indices, so they never share a
   seed with a timed op. *)
let op_seed seed i = mix seed (i + 1_000_003)

(* Generate every table of the workload into [dir], returning the
   exact join size of each (left file, right file) pair any request
   can see. *)
let generate w ~seed ~dir =
  let freqs =
    List.map
      (fun (t : table) ->
        let rel = Z.make ~seed:(table_seed seed t) ~name:t.name ~rows:t.rows ~z:t.z ~domain () in
        Rsj_relation.Csv_io.save ~path:(Filename.concat dir t.file) rel;
        (t.file, Rsj_stats.Frequency.of_relation rel ~key:Z.col2))
      (w.tables @ w.spare)
  in
  List.concat_map
    (fun (l, fl) ->
      List.map (fun (r, fr) -> ((l, r), Rsj_stats.Frequency.join_size fl fr)) freqs)
    freqs
