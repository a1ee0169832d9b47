(* Child process of the pool suite: one fresh process's pool from its
   first job to its at_exit shutdown, which the test process cannot
   observe on its own (its pool lives until the suite exits). Prints
   one line per observation; the pool suite runs this program and
   compares its output. The live-worker count is read from the
   rsj_pool_workers_live gauge. *)

let live () =
  let text =
    Rsj_obs.Registry.to_prometheus ~only:(String.equal "rsj_pool_workers_live") ()
  in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ "rsj_pool_workers_live"; v ] -> int_of_float (float_of_string v)
      | _ -> acc)
    (-1) (String.split_on_char '\n' text)

let spawned () = (Domain_pool.counters ()).Domain_pool.spawned

let squares out = String.concat " " (Array.to_list (Array.map string_of_int out))

let () =
  let pool = ref None in
  (* at_exit handlers run newest first: this one, registered before the
     pool exists, runs after the pool's own shutdown hook, on a pool
     that is closed. *)
  at_exit (fun () ->
      Option.iter
        (fun p ->
          Printf.printf "after exit: live %d\n" (live ());
          let before = spawned () in
          let out = Domain_pool.run p ~domains:4 (fun k -> k * k) in
          let spawned = spawned () - before in
          Printf.printf "closed pool: %s, spawned %d, live %d\n" (squares out) spawned (live ());
          flush stdout)
        !pool);
  Printf.printf "fresh: live %d\n" (live ());
  let p = Domain_pool.global () in
  pool := Some p;
  List.iter
    (fun domains ->
      let out = Domain_pool.run p ~domains (fun k -> k * k) in
      Printf.printf "%d-wide job: %s, live %d\n" domains (squares out) (live ()))
    [ 4; 2 ]
