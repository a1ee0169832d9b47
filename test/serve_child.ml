(* Daemon helper for the serve suite: [serve_child.exe SOCK SNAPSHOT
   BUDGET]. The tests exec this instead of forking because OCaml 5
   forbids [Unix.fork] in any process that has ever spawned a domain —
   and by the time the serve suite runs inside the monolithic test
   binary, the parallel suites have. BUDGET <= 0 keeps the default
   admission cap. *)

module Server = Rsj_server.Server

let () =
  match Sys.argv with
  | [| _; sock; snapshot; budget |] ->
      let base = Server.default_config (Server.Unix_path sock) in
      let config =
        {
          base with
          Server.snapshot_path = Some snapshot;
          Server.max_queued_work =
            (match int_of_string_opt budget with
            | Some b when b > 0 -> b
            | _ -> base.Server.max_queued_work);
        }
      in
      (try Server.run config with _ -> ());
      exit 0
  | _ ->
      prerr_endline "usage: serve_child.exe SOCK SNAPSHOT BUDGET";
      exit 2
