(* Unit tests for the benchmark's report helpers: the supported tail
   percentile and span self time. *)

open Perfbench_helpers

let close = Alcotest.float 1e-9

let ramp n = Stats.sorted (Array.init n (fun i -> float_of_int (n - i)))

let tail n =
  match Stats.tail_percentile (ramp n) with
  | Some t -> (t.Stats.q, t.value, t.beyond)
  | None -> Alcotest.fail "no supported tail"

let test_tail_ladder () =
  (* 1000 samples: p99 is rank 990 with exactly 10 samples above it. *)
  let q, v, beyond = tail 1000 in
  Alcotest.check close "q" 0.99 q;
  Alcotest.check close "value" 990. v;
  Alcotest.(check int) "beyond" 10 beyond;
  (* One sample short of that, the tail falls back to p90. *)
  let q, _, beyond = tail 999 in
  Alcotest.check close "q at 999" 0.9 q;
  Alcotest.(check int) "beyond at 999" 99 beyond;
  let q, _, _ = tail 10_000 in
  Alcotest.check close "q at 10k" 0.999 q

let test_tail_too_few () =
  Alcotest.(check bool) "19 samples support nothing" true (Stats.tail_percentile (ramp 19) = None);
  match Stats.tail_percentile (ramp 20) with
  | Some t -> Alcotest.check close "20 samples support the median" 0.5 t.Stats.q
  | None -> Alcotest.fail "20 samples should support the median"

let test_percentile () =
  let a = ramp 100 in
  Alcotest.check close "p50" 50. (Stats.percentile a 0.5);
  Alcotest.check close "p100" 100. (Stats.percentile a 1.);
  Alcotest.check close "p0" 1. (Stats.percentile a 0.);
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.percentile [||] 0.5))

let test_self_time () =
  let self children = Spans.self_time ~start:0. ~stop:10. children in
  Alcotest.check close "leaf" 10. (self []);
  Alcotest.check close "disjoint children" 6. (self [ (1., 3.); (5., 7.) ]);
  Alcotest.check close "overlapping children count once" 5. (self [ (1., 4.); (3., 6.) ]);
  Alcotest.check close "nested child inside a child" 7. (self [ (2., 5.); (3., 4.) ]);
  Alcotest.check close "children clipped to the parent" 7. (self [ (-5., 1.); (8., 20.) ]);
  Alcotest.check close "fully covered" 0. (self [ (0., 10.) ])

let test_recorder () =
  let t = Spans.create ~enabled:true in
  Spans.record t "op" (fun () ->
      Spans.record t "a" (fun () -> ());
      Spans.record t "b" (fun () -> ()));
  let spans = Spans.spans t in
  let parent name = (List.find (fun (s : Spans.span) -> s.name = name) spans).parent in
  let op = (List.find (fun (s : Spans.span) -> s.name = "op") spans).id in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "op is a root" (-1) (parent "op");
  Alcotest.(check int) "a under op" op (parent "a");
  Alcotest.(check int) "b under op" op (parent "b");
  List.iter
    (fun ((s : Spans.span), self) ->
      Alcotest.(check bool) (s.name ^ " self time within its span") true
        (self >= 0. && self <= s.stop_us -. s.start_us))
    (Spans.with_self_times spans);
  let off = Spans.create ~enabled:false in
  Alcotest.(check int) "disabled recorder passes values through" 7 (Spans.record off "x" (fun () -> 7));
  Alcotest.(check int) "and records nothing" 0 (List.length (Spans.spans off))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail ladder" `Quick test_tail_ladder;
          Alcotest.test_case "tail needs 10 beyond" `Quick test_tail_too_few;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
    ]
