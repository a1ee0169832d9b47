open Rsj_relation
open Rsj_exec

let transform ~name ~apply child =
  Plan.Transform { Plan.transform_name = name; child; out_schema = None; apply }

let u1 rng ~n ~r child =
  let rng = Rsj_util.Prng.split rng in
  transform
    ~name:(Printf.sprintf "Sample-U1 (WR, r=%d, n=%d)" r n)
    ~apply:(fun _metrics stream -> Black_box.u1 rng ~n ~r stream)
    child

let u2 rng ~r child =
  let rng = Rsj_util.Prng.split rng in
  transform
    ~name:(Printf.sprintf "Sample-U2 (WR reservoir, r=%d)" r)
    ~apply:(fun _metrics stream -> Stream0.of_array (Black_box.u2 rng ~r stream))
    child

let wr1 rng ~total_weight ~r ~weight child =
  let rng = Rsj_util.Prng.split rng in
  transform
    ~name:(Printf.sprintf "Sample-WR1 (weighted WR, r=%d, W=%g)" r total_weight)
    ~apply:(fun metrics stream ->
      let weigh t =
        metrics.Metrics.stats_lookups <- metrics.Metrics.stats_lookups + 1;
        weight t
      in
      Black_box.wr1 rng ~total_weight ~r ~weight:weigh stream)
    child

let wr2 rng ~r ~weight child =
  let rng = Rsj_util.Prng.split rng in
  transform
    ~name:(Printf.sprintf "Sample-WR2 (weighted WR reservoir, r=%d)" r)
    ~apply:(fun metrics stream ->
      let weigh t =
        metrics.Metrics.stats_lookups <- metrics.Metrics.stats_lookups + 1;
        weight t
      in
      Stream0.of_array (Black_box.wr2 rng ~r ~weight:weigh stream))
    child

let coin_flip rng ~f child =
  let rng = Rsj_util.Prng.split rng in
  transform
    ~name:(Printf.sprintf "Sample-CF (f=%g)" f)
    ~apply:(fun _metrics stream -> Black_box.coin_flip rng ~f stream)
    child
