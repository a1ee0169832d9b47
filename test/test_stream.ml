open Rsj_relation

let il = Alcotest.(list int)

let test_of_list_roundtrip () =
  Alcotest.(check il) "roundtrip" [ 1; 2; 3 ] (Stream0.to_list (Stream0.of_list [ 1; 2; 3 ]));
  Alcotest.(check il) "empty" [] (Stream0.to_list (Stream0.empty ()))

let test_single_pass () =
  let s = Stream0.of_list [ 1; 2 ] in
  ignore (Stream0.to_list s);
  Alcotest.(check bool) "drained stays drained" true (Stream0.next s = None)

let test_close_is_permanent_and_idempotent () =
  let closed = ref 0 in
  let s = Stream0.make ~next:(fun () -> Some 1) ~close:(fun () -> incr closed) () in
  Alcotest.(check bool) "produces" true (Stream0.next s = Some 1);
  Stream0.close s;
  Stream0.close s;
  Alcotest.(check int) "close ran once" 1 !closed;
  Alcotest.(check bool) "closed yields None" true (Stream0.next s = None)

let test_close_runs_on_natural_exhaustion () =
  let closed = ref false in
  let items = ref [ 1 ] in
  let s =
    Stream0.make
      ~next:(fun () ->
        match !items with
        | [] -> None
        | x :: tl ->
            items := tl;
            Some x)
      ~close:(fun () -> closed := true)
      ()
  in
  ignore (Stream0.to_list s);
  Alcotest.(check bool) "closed" true !closed

let test_map_filter () =
  let s = Stream0.of_list [ 1; 2; 3; 4 ] in
  let out = Stream0.to_list (Stream0.map (( * ) 10) (Stream0.filter (fun x -> x mod 2 = 0) s)) in
  Alcotest.(check il) "filter then map" [ 20; 40 ] out

let test_filter_map () =
  let out =
    Stream0.to_list
      (Stream0.filter_map
         (fun x -> if x > 2 then Some (x + 100) else None)
         (Stream0.of_list [ 1; 2; 3; 4 ]))
  in
  Alcotest.(check il) "filter_map" [ 103; 104 ] out

let test_concat_map () =
  let out =
    Stream0.to_list
      (Stream0.concat_map (fun x -> Stream0.of_list [ x; x * 10 ]) (Stream0.of_list [ 1; 2 ]))
  in
  Alcotest.(check il) "flattened in order" [ 1; 10; 2; 20 ] out

let test_concat_map_empty_inner () =
  let out =
    Stream0.to_list
      (Stream0.concat_map
         (fun x -> if x = 2 then Stream0.of_list [ 9 ] else Stream0.empty ())
         (Stream0.of_list [ 1; 2; 3 ]))
  in
  Alcotest.(check il) "skips empty inners" [ 9 ] out

let test_take () =
  Alcotest.(check il) "take 2" [ 1; 2 ] (Stream0.to_list (Stream0.take 2 (Stream0.of_list [ 1; 2; 3 ])));
  Alcotest.(check il) "take more than available" [ 1 ]
    (Stream0.to_list (Stream0.take 5 (Stream0.of_list [ 1 ])));
  Alcotest.(check il) "take 0" [] (Stream0.to_list (Stream0.take 0 (Stream0.of_list [ 1 ])))

let test_take_closes_source () =
  let closed = ref false in
  let i = ref 0 in
  let src =
    Stream0.make
      ~next:(fun () ->
        incr i;
        Some !i)
      ~close:(fun () -> closed := true)
      ()
  in
  ignore (Stream0.to_list (Stream0.take 3 src));
  Alcotest.(check bool) "source closed after take" true !closed

let test_fold_iter_length () =
  Alcotest.(check il) "to_list order" [ 1; 2; 3 ] (Stream0.to_list (Stream0.of_list [ 1; 2; 3 ]));
  Alcotest.(check int) "length" 4 (Stream0.length (Stream0.of_array [| 0; 0; 0; 0 |]));
  let acc = ref [] in
  Stream0.iter (fun x -> acc := x :: !acc) (Stream0.of_list [ 1; 2 ]);
  Alcotest.(check il) "iter order" [ 2; 1 ] !acc

let test_on_element () =
  let seen = ref [] in
  let s = Stream0.on_element (fun x -> seen := x :: !seen) (Stream0.of_list [ 1; 2 ]) in
  ignore (Stream0.to_list s);
  Alcotest.(check il) "taps every element" [ 2; 1 ] !seen

let suite =
  [
    Alcotest.test_case "of_list / to_list" `Quick test_of_list_roundtrip;
    Alcotest.test_case "single pass semantics" `Quick test_single_pass;
    Alcotest.test_case "close permanent and idempotent" `Quick test_close_is_permanent_and_idempotent;
    Alcotest.test_case "close on natural exhaustion" `Quick test_close_runs_on_natural_exhaustion;
    Alcotest.test_case "map / filter" `Quick test_map_filter;
    Alcotest.test_case "filter_map" `Quick test_filter_map;
    Alcotest.test_case "concat_map order" `Quick test_concat_map;
    Alcotest.test_case "concat_map with empty inners" `Quick test_concat_map_empty_inner;
    Alcotest.test_case "take" `Quick test_take;
    Alcotest.test_case "take closes its source" `Quick test_take_closes_source;
    Alcotest.test_case "to_list / iter / length" `Quick test_fold_iter_length;
    Alcotest.test_case "on_element tap" `Quick test_on_element;
  ]
