(* Online statistical-quality monitor for the serving path.

   The paper's guarantees are distributional: a served WR sample of the
   join is only correct if the join-attribute value of each drawn tuple
   follows the marginal law

       P(A = v) = m1(v) * m2(v) / |J|

   where m1/m2 are the relations' frequency tables and
   |J| = sum_v m1(v) m2(v). The daemon already keeps those tables warm
   in the structure cache, so the expected law is free; this module
   folds the *served* sample output into streaming per-stream counters
   and tests each full window of observed counts against that law.

   One stream per (inputs, join columns, strategy, semantics): different
   strategies (and WoR/CF semantics) are monitored separately so a
   regression in one draw path cannot hide in another's traffic. WoR
   and CF windows are tested against the same WR marginal — exact for
   WR, and the per-draw expectation under WoR/CF for the r << |J|
   regime the daemon serves; the monitor is a drift detector, not a
   proof.

   Alert policy:
   - A join-attribute value outside the join support (m1*m2 = 0) is a
     correctness bug, not noise: the stream alerts immediately.
   - Windows use alpha spending over the unbounded window sequence:
     window k (1-based) is tested at significance / (k * (k + 1)),
     whose sum over all k is exactly [significance] — the lifetime
     false-alert budget per stream holds no matter how long the daemon
     runs.
   - The window p-value is a Chernoff bound per pooled cell with a
     Bonferroni correction over the cells, not the asymptotic
     chi-square tail. Spent thresholds fall to 1e-7 and below, far
     into the tail, and on a concentrated law (few pooled cells, each
     expecting only a few draws) the chi-square approximation there is
     much too light: an exact iid sampler on the z=2 x z=3 benchmark
     pair crossed p < 1e-5 several times as often as a valid p-value
     can. The Chernoff bound holds at every threshold, for any cell
     size.
   - Alerts latch: once tripped, a stream stays red for the monitor's
     lifetime (operators should treat an alert as "drain and
     investigate", not as a transient). *)

open Rsj_relation
module Frequency = Rsj_stats.Frequency
module Counter = Rsj_index.Int_index.Counter
module Obs = Rsj_obs

type law = {
  index : Counter.t;  (* Column.key of a join value -> cell + 1; 0 = outside the support *)
  probs : float array;  (* P(A = v) = m1(v) m2(v) / |J| per cell, sums to 1 *)
}

let law_of_frequencies ~left ~right =
  let right = Frequency.int_counter right in
  let index = Counter.create () in
  let weights = ref [] and total = ref 0. in
  Counter.iter
    (fun k m1 ->
      let m2 = Counter.get right k in
      if m2 > 0 then begin
        let w = float_of_int m1 *. float_of_int m2 in
        Counter.add index k (Counter.cardinal index + 1);
        weights := w :: !weights;
        total := !total +. w
      end)
    (Frequency.int_counter left);
  if !total <= 0. then None
  else begin
    let probs = Array.of_list (List.rev_map (fun w -> w /. !total) !weights) in
    Some { index; probs }
  end

let probability law v =
  match Counter.get law.index (Column.find_key v) with 0 -> 0. | cell -> law.probs.(cell - 1)

type stream = {
  key : string;
  law : law;
  counts : int array;  (* current window's observed cells *)
  mutable in_window : int;  (* draws accumulated in current window *)
  mutable seen : int;  (* lifetime draws *)
  mutable foreign : int;  (* lifetime draws outside the join support *)
  mutable windows : int;  (* windows completed *)
  mutable last_p : float;  (* p-value of the last completed window; nan before *)
  mutable alert : bool;  (* latched *)
  pvalue_g : Obs.Registry.gauge;
  alert_g : Obs.Registry.gauge;
}

type t = {
  window : int;  (* draws per window *)
  significance : float;  (* lifetime false-alert budget per stream *)
  min_expected : float;  (* Kernel bucketing floor *)
  streams : (string, stream) Hashtbl.t;
  laws : (int * int * int * int, law option) Hashtbl.t;
      (* join-value marginal per (left fp, right fp, left key, right key); None = empty join *)
  any_alert_g : Obs.Registry.gauge;
}

let create ?window ?significance ?(min_expected = 5.) () =
  let window = match window with Some w -> w | None -> Obs.Config.quality_window () in
  let significance =
    match significance with Some s -> s | None -> Obs.Config.quality_alpha ()
  in
  {
    window;
    significance;
    min_expected;
    streams = Hashtbl.create 8;
    laws = Hashtbl.create 8;
    any_alert_g =
      Obs.Registry.gauge ~help:"1 when any quality stream has a latched alert" "rsj_quality_alert";
  }

let stream_for t ~key ~law =
  match Hashtbl.find_opt t.streams key with
  | Some s -> s
  | None ->
      let s =
        {
          key;
          law;
          counts = Array.make (Array.length law.probs) 0;
          in_window = 0;
          seen = 0;
          foreign = 0;
          windows = 0;
          last_p = Float.nan;
          alert = false;
          pvalue_g =
            Obs.Registry.gauge ~help:"Last window's p-value per quality stream"
              ~labels:[ ("stream", key) ] "rsj_quality_pvalue";
          alert_g =
            Obs.Registry.gauge ~help:"1 when the quality stream's alert is latched"
              ~labels:[ ("stream", key) ] "rsj_quality_stream_alert";
        }
      in
      Hashtbl.replace t.streams key s;
      s

let any_alert t = Hashtbl.fold (fun _ s acc -> acc || s.alert) t.streams false

let publish_any t =
  Obs.Registry.set_gauge t.any_alert_g (if any_alert t then 1. else 0.)

let trip s =
  s.alert <- true;
  Obs.Registry.set_gauge s.alert_g 1.

(* Alpha spending: window k (1-based) gets significance / (k*(k+1));
   sum over all k is exactly the lifetime budget. *)
let window_threshold t k = t.significance /. (float_of_int k *. float_of_int (k + 1))

(* Binary relative entropy KL(q || p), with 0 ln 0 = 0. *)
let kl_bernoulli q p =
  let term a b = if a <= 0. then 0. else a *. log (a /. b) in
  term q p +. term (1. -. q) (1. -. p)

(* The window p-value: the cells are pooled as for a chi-square
   (Kernel.bucket), then each pooled cell's count x out of n draws
   with probability p gets the two-sided Chernoff bound
   P(|X/n - p| >= |x/n - p|) <= 2 exp (-n KL(x/n || p)), and the
   smallest bound is Bonferroni-corrected over the k cells. *)
let window_p_value ~min_expected ~probs ~counts ~n =
  let nf = float_of_int n in
  let expected = Array.map (fun p -> p *. nf) probs in
  let expected, observed = Kernel.bucket ~min_expected ~expected ~observed:counts in
  let k = Array.length expected in
  let smallest = ref 1. in
  for i = 0 to k - 1 do
    let p = Float.min 1. (expected.(i) /. nf) in
    let q = float_of_int observed.(i) /. nf in
    smallest := Float.min !smallest (2. *. exp (-.nf *. kl_bernoulli q p))
  done;
  Float.min 1. (float_of_int k *. !smallest)

let close_window t s =
  s.windows <- s.windows + 1;
  s.last_p <-
    window_p_value ~min_expected:t.min_expected ~probs:s.law.probs ~counts:s.counts
      ~n:s.in_window;
  Obs.Registry.set_gauge s.pvalue_g s.last_p;
  if s.last_p < window_threshold t s.windows then trip s;
  Array.fill s.counts 0 (Array.length s.counts) 0;
  s.in_window <- 0

(* Fold one served sample's join-attribute keys into the stream for
   [key], closing (and testing) windows as they fill. *)
let observe_keys t ~key ~law keys =
  let s = stream_for t ~key ~law in
  Array.iter
    (fun k ->
      s.seen <- s.seen + 1;
      match Counter.get s.law.index k - 1 with
      | cell when cell >= 0 ->
          s.counts.(cell) <- s.counts.(cell) + 1;
          s.in_window <- s.in_window + 1;
          if s.in_window >= t.window then close_window t s
      | _ ->
          (* Outside the join support: cannot be produced by a correct
             sampler — alert immediately, don't wait for a window. *)
          s.foreign <- s.foreign + 1;
          trip s)
    keys;
  publish_any t

let observe t ~key ~law values = observe_keys t ~key ~law (Array.map Column.find_key values)

(* The law is derived once per inputs and join columns (a mutation
   changes the fingerprint, so stale laws age out as new keys). *)
let observe_join t ~frequency ~left ~right ~left_key ~right_key ~stream keys =
  let fp_l = Relation.fingerprint left and fp_r = Relation.fingerprint right in
  let inputs = (fp_l, fp_r, left_key, right_key) in
  let law =
    match Hashtbl.find_opt t.laws inputs with
    | Some law -> law
    | None ->
        let law =
          law_of_frequencies ~left:(frequency left ~key:left_key)
            ~right:(frequency right ~key:right_key)
        in
        Hashtbl.replace t.laws inputs law;
        law
  in
  match law with
  | Some law when Array.length keys > 0 ->
      observe_keys t
        ~key:(Printf.sprintf "%x.%d-%x.%d/%s" fp_l left_key fp_r right_key stream)
        ~law keys
  | _ -> ()

type stream_stats = {
  st_key : string;
  st_seen : int;
  st_foreign : int;
  st_windows : int;
  st_last_p : float;
  st_alert : bool;
}

let stats t =
  Hashtbl.fold
    (fun _ s acc ->
      {
        st_key = s.key;
        st_seen = s.seen;
        st_foreign = s.foreign;
        st_windows = s.windows;
        st_last_p = s.last_p;
        st_alert = s.alert;
      }
      :: acc)
    t.streams []
  |> List.sort (fun a b -> compare a.st_key b.st_key)
