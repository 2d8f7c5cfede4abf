(* cschedd: the schedule-advice daemon.

   Serves the csched subcommands as a long-running service speaking
   newline-delimited JSON (see Service.Protocol): requests on stdin,
   responses on stdout, one per line, in request order — or over a
   Unix-domain socket with --socket, serving up to --max-conns clients
   concurrently.  Evaluation goes through a router that
   consistent-hashes each request's canonical key onto one of --shards
   independent shard workers, each pinning its own LRU cache of solved
   DP tables and resident game solvers to a dedicated domain — so
   repeated and nearby (c, p, L) queries cost an array read instead of
   an O(p L^2) solve, unrelated keys never contend, and a shard worker
   that dies or wedges is restarted bank-warm while its in-flight
   requests answer with a structured error instead of killing the
   daemon.  A repeated request, under any id, is answered from the
   server's byte-bounded answer cache without reaching the router.

     echo '{"op":"advise","c":30,"u":86400,"p":3}' | cschedd
     cschedd --socket /tmp/cschedd.sock --max-conns 8 --shards 4 &

   On EOF, SIGINT or SIGTERM the daemon finishes the in-flight batch,
   flushes its responses, and prints a session summary to stderr. *)

open Cmdliner

let serve socket_path batch_size domains max_conns cache_tables shards
    bank_dir quiet =
  if batch_size < 1 then `Error (false, "batch must be >= 1")
  else if domains < 1 then `Error (false, "domains must be >= 1")
  else if max_conns < 1 then `Error (false, "max-conns must be >= 1")
  else if cache_tables < 1 then `Error (false, "cache-tables must be >= 1")
  else if shards < 1 then `Error (false, "shards must be >= 1")
  else begin
    (* The persistent memo tier: the directory must already exist (a
       typo'd path should not silently start a daemon with an empty
       bank); `csched precompute` is what creates and fills one. *)
    match
      match bank_dir with
      | None -> Ok None
      | Some dir -> Result.map Option.some (Store.Bank.open_dir ~create:false dir)
    with
    | Error e -> `Error (false, Cyclesteal.Error.to_string e)
    | Ok bank ->
      (* The router owns the compute side end to end: K shard workers,
         each with its own cache, solve-pool slice of the domain budget
         and slice of the bank.  Connection workers live on a separate
         pool owned by the server, so serving slots never compete with
         compute slots. *)
      let router =
        Service.Router.create ~shards ~domains ?bank ~capacity:cache_tables ()
      in
      let warmed = Service.Router.warm_from_bank router in
      if (not quiet) && Option.is_some bank then
        Printf.eprintf "cschedd: bank %s mapped, %d dp tables warm\n%!"
          (Option.get bank_dir) warmed;
      let server = Service.Server.create ~batch_size ~max_conns ~router () in
      let stop _ = Service.Server.request_stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
       with Invalid_argument _ -> ());
      (match socket_path with
       | Some path -> Service.Server.serve_socket server ~path
       | None -> Service.Server.serve_fd server Unix.stdin Unix.stdout);
      Service.Router.shutdown router;
      if not quiet then prerr_string (Service.Server.summary server);
      `Ok ()
  end

let socket_arg =
  let doc =
    "Listen on a Unix-domain socket at $(docv) (up to $(b,--max-conns) \
     clients served concurrently) instead of stdin/stdout."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let batch_arg =
  let doc =
    "Maximum requests drained into one batch.  A batch shares DP-table \
     solves; only a shard's sub-batch with fill, grow or solver-build work \
     goes to its shard worker and fans out across the shard's solve pool, \
     a fully resident one is answered in order by the connection worker."
  in
  Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Total compute-domain budget of the router, split evenly across the \
     shards' solve pools ($(docv) / $(b,--shards) each, at least one slot \
     per shard)."
  in
  Arg.(
    value
    & opt int (Csutil.Par.available_domains ())
    & info [ "domains" ] ~docv:"N" ~doc)

let max_conns_arg =
  let doc =
    "Maximum socket clients served concurrently (only meaningful with \
     $(b,--socket)); each connection batches independently against the \
     shared cache."
  in
  Arg.(
    value
    & opt int (Csutil.Par.available_domains ())
    & info [ "max-conns" ] ~docv:"N" ~doc)

let cache_tables_arg =
  let doc =
    "Maximum solved DP tables kept resident across all shards (each shard's \
     LRU holds its share)."
  in
  Arg.(value & opt int 32 & info [ "cache-tables" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Number of independent shard workers.  Each request is routed by a \
     consistent hash of its canonical key to one shard, which pins its own \
     cache, solver pool and bank slice to a dedicated domain; composes with \
     $(b,--max-conns) (connections fan in, shards fan out) and $(b,--bank) \
     (shards partition the bank).  A shard's resident requests are answered \
     by the connection worker against that shard's cache; only fill, grow \
     and solver-build work is handed to the shard worker.  A dead or wedged \
     shard worker restarts bank-warm without taking the daemon down."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let bank_arg =
  let doc =
    "Map the persistent memo bank at $(docv) (written by $(b,csched \
     precompute)): banked DP tables are warmed at startup, banked game \
     memos load on first use, and tables solved while serving are \
     written behind.  The directory must exist."
  in
  Arg.(value & opt (some string) None & info [ "bank" ] ~docv:"DIR" ~doc)

let quiet_arg =
  let doc = "Suppress the session summary printed to stderr on shutdown." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let () =
  let doc =
    "Schedule-advice daemon for cycle-stealing opportunities (JSON lines \
     over stdin/stdout or a Unix socket)."
  in
  let info = Cmd.info "cschedd" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      ret
        (const serve $ socket_arg $ batch_arg $ domains_arg $ max_conns_arg
         $ cache_tables_arg $ shards_arg $ bank_arg $ quiet_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
