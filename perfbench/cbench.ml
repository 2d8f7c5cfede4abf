(* The cschedd benchmark: one seeded workload, end to end.

     cbench.exe --workload warm_mix --seed 1 --seconds 10 --trace 0 \
       --cschedd _build/default/bin/cschedd.exe \
       --csched _build/default/bin/csched.exe

   (perfbench/run.py builds the binaries and passes the host facts.)

   With --trace 0 it starts the shipped daemon, drives it in a closed
   loop and prints the end-to-end metrics; with --trace 1 it makes the
   same untraced run, then the in-process traced replay (Replay), and
   prints the per-layer metrics.  Every reply, from the daemon and from
   every replay pass, is checked against the oracle (Gen.oracle).  The
   last stdout line is the JSON result; the lines before it record the
   host, the configuration and each metric with its unit. *)

let now = Load.now

(* cschedd's --cache-tables default: the replay's caches match it. *)
let default_cache_tables = 32

(* Set-ups measured per run on the workloads that keep one daemon. *)
let setups = 15

(* Restarts the bank_restart metrics are taken over. *)
let min_restarts = 12

(* A slice counts as quiet when the hypervisor stole at most this share
   of the host's CPU time during it.  On a shared host, stolen time
   slows the daemon's many cross-domain wake-ups far more than it slows
   plain computation, and it comes in bursts that last seconds. *)
let max_steal = 0.05

(* Latency percentiles are taken over consecutive chunks of at least
   this many round trips (so at least 20 lie beyond a chunk's p99); a
   shorter slice is one chunk (a bank_restart pass: about 1200 round
   trips, 11 beyond its p99). *)
let chunk_min = 2000

(* Slice length on the workloads that keep one daemon. *)
let slice_ns = 1_000_000_000

type opts = {
  workload : Gen.workload;
  seed : int;
  seconds : int;
  trace : bool;
  cschedd : string;
  csched : string;
  nproc : int;
  conns : int;
  commit : string;
  clk_tck : int;
}

(* Scratch files (removed on exit) and span dumps, inside the checkout. *)
let out_dir = ".bench_out"

let usage = "cbench.exe --workload NAME --seed N --seconds S --trace 0|1 --cschedd EXE --csched EXE"

let parse_opts () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cschedd = ref "" and csched = ref "" and nproc = ref 0 and conns = ref 0 in
  let commit = ref "unknown" and clk_tck = ref 100 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "warm_mix | cold_churn | bank_restart");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed-phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--cschedd", Arg.Set_string cschedd, "EXE the daemon binary");
      ("--csched", Arg.Set_string csched, "EXE the CLI binary (bank precompute)");
      ("--nproc", Arg.Set_int nproc, "N online processors (default: domains)");
      ("--conns", Arg.Set_int conns, "N connections (default: min 2 nproc)");
      ("--commit", Arg.Set_string commit, "REV recorded with the result");
      ("--clk-tck", Arg.Set_int clk_tck, "HZ /proc/<pid>/stat tick rate");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("cbench: " ^ msg);
    exit 2
  in
  let workload =
    match Gen.workload_of_string !workload with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !cschedd = "" || !csched = "" then fail "--cschedd and --csched are required";
  let nproc = if !nproc > 0 then !nproc else Csutil.Par.available_domains () in
  let conns = if !conns > 0 then !conns else min 2 nproc in
  if conns > nproc then
    fail (Printf.sprintf "refusing %d connections on %d processors" conns nproc);
  {
    workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    cschedd = !cschedd;
    csched = !csched;
    nproc;
    conns;
    commit = !commit;
    clk_tck = !clk_tck;
  }

(* --- statistics ---------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then 0. else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median_f l = quantile (sorted (Array.of_list l)) 0.5
let median_i l = median_f (List.map float_of_int l)
let sum_i = List.fold_left ( + ) 0
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let mib b = float_of_int b /. 1048576.

(* --- the untraced run ---------------------------------------------------- *)

type e2e = {
  tally : Load.tally;
  setup_s : float list;
  hwm_kb : int list;
  daemon_stats : Service.Json.t list;
  flags : string list;
}

let fatal msg =
  prerr_endline ("cbench: " ^ msg);
  exit 1

let untraced o (s : Gen.stream) ~tmp ~pristine ~target =
  let t = Load.tally s in
  let sock = Filename.concat tmp "cschedd.sock" in
  let start flags =
    match Load.start ~exe:o.cschedd ~sock ~flags s with
    | Ok r -> r
    | Error (d, msg) ->
      Load.stop d;
      fatal msg
  in
  let sec = o.seconds * 1_000_000_000 in
  (* Measure at least [seconds] and half again as many slices as the
     metrics use; keep going, up to four times [seconds], until
     [target] of them saw little CPU stolen by the hypervisor. *)
  let enough ~since =
    let elapsed = now () - since in
    elapsed >= 4 * sec
    || elapsed >= sec
       && List.length t.Load.slices >= target * 3 / 2
       && Load.quiet_slices t ~max_steal >= target
  in
  let finish d =
    let hwm = Load.vm_hwm_kb d.Load.pid in
    let st = if o.trace then Load.stats d else None in
    Load.stop d;
    (hwm, st)
  in
  if not s.Gen.restart then begin
    let flags = [ "--quiet" ] in
    let rec set_up k acc =
      let d, setup = start flags in
      if k = 1 then (d, List.rev (setup :: acc))
      else begin
        Load.stop d;
        set_up (k - 1) (setup :: acc)
      end
    in
    let d, setup_s = set_up setups [] in
    Load.warm t d s;
    Load.reset_stats d;
    let since = now () in
    Load.drive ~slice_ns t d s ~conns:o.conns ~cycle:true
      ~stop:(fun () -> enough ~since);
    let hwm, st = finish d in
    {
      tally = t;
      setup_s;
      hwm_kb = [ hwm ];
      daemon_stats = Option.to_list st;
      flags;
    }
  end
  else begin
    (* One restart per pass over the stream, each from a fresh copy of
       the pristine bank, until [enough] holds. *)
    let bank = Filename.concat tmp "bank" in
    let flags = [ "--quiet"; "--bank"; bank ] in
    let since = now () in
    let rec cycles acc =
      Replay.remove_tree bank;
      Replay.copy_dir (Option.get pristine) bank;
      let d, setup = start flags in
      Load.reset_stats d;
      Load.drive t d s ~conns:o.conns ~cycle:false ~stop:(fun () -> false);
      let r = finish d in
      Replay.remove_tree bank;
      let acc = (setup, r) :: acc in
      if enough ~since then List.rev acc else cycles acc
    in
    let runs = cycles [] in
    {
      tally = t;
      setup_s = List.map fst runs;
      hwm_kb = List.map (fun (_, (h, _)) -> h) runs;
      daemon_stats = List.filter_map (fun (_, (_, st)) -> st) runs;
      flags = [ "--quiet"; "--bank"; "DIR" ];
    }
  end

(* The run measures half again as many slices (one second of the timed
   phase, or one restart on bank_restart) as the metrics use, and the
   metrics come from [target] of them: the quiet ones first, and of
   those the ones that answered fastest.  On a shared host, outside
   load slows the daemon in bursts that last seconds, not all of which
   show as stolen time, and a slice it hit is left out like a slow
   repetition of a timing loop.  Throughput and CPU per request are
   medians over the slices used.  Latency percentiles are medians over
   chunks of consecutive round trips in them (see [chunk_min]): pooled
   over the run, the top 1% would come from whichever one or two bursts
   the slices kept, and p99 would move with the bursts, not the code. *)
let e2e_metrics o (r : e2e) ~target =
  let t = r.tally in
  let count (sl : Load.slice) = sl.Load.last - sl.Load.first in
  let rate (sl : Load.slice) = float_of_int (count sl) /. (float_of_int sl.Load.ns *. 1e-9) in
  let measured = List.rev t.Load.slices in
  let rank (sl : Load.slice) = (sl.Load.steal > max_steal, -.rate sl) in
  let ranked = List.stable_sort (fun a b -> compare (rank a) (rank b)) measured in
  let slices = List.filteri (fun i _ -> i < target) ranked in
  let per f = median_f (List.map f slices) in
  let chunks =
    List.concat_map
      (fun (sl : Load.slice) ->
        let m = max 1 (count sl / chunk_min) in
        List.init m (fun k ->
            let lo = sl.Load.first + (k * count sl / m) and hi = sl.Load.first + ((k + 1) * count sl / m) in
            sorted (Array.map float_of_int (Array.sub t.Load.lat lo (hi - lo)))))
      slices
  in
  let lat q = median_f (List.map (fun a -> quantile a q /. 1e3) chunks) in
  let beyond_p99 a = Array.length a - int_of_float (ceil (0.99 *. float_of_int (Array.length a))) in
  let n = sum_i (List.map Array.length chunks) in
  ( [
      ("throughput_rps", per rate, "1/s");
      ("latency_p50_us", lat 0.5, "us");
      ("latency_p99_us", lat 0.99, "us");
      ("setup_s", median_f r.setup_s, "s");
      ("rss_peak_mb", median_i r.hwm_kb /. 1024., "MiB");
      ( "cpu_ms_per_kreq",
        per (fun sl ->
            float_of_int sl.Load.cpu *. 1000. /. float_of_int o.clk_tck
            /. (float_of_int (count sl) /. 1000.)),
        "ms" );
    ],
    [
      ("failed_frac", ratio t.Load.failed t.Load.attempted, "ratio");
      ("latency_samples", float_of_int n, "count");
      ( "samples_beyond_p99",
        float_of_int (List.fold_left (fun m a -> min m (beyond_p99 a)) max_int chunks),
        "count" );
      ("latency_chunks", float_of_int (List.length chunks), "count");
      ("slices_measured", float_of_int (List.length measured), "count");
      ("slices_quiet", float_of_int (Load.quiet_slices t ~max_steal), "count");
      ("slices_used", float_of_int (List.length slices), "count");
      ("steal_used_max", List.fold_left (fun m sl -> Float.max m sl.Load.steal) 0. slices, "ratio");
      ("setups", float_of_int (List.length r.setup_s), "count");
    ] )

(* --- the traced run ------------------------------------------------------ *)

let json_int path j =
  List.fold_left
    (fun j k -> Option.bind j (Service.Json.member k))
    (Some j) path
  |> Fun.flip Option.bind Service.Json.to_int
  |> Option.value ~default:0

let traced o (s : Gen.stream) (r : e2e) ~tmp ~pristine =
  let env = { Replay.stream = s; capacity = default_cache_tables; tmp; pristine } in
  Gc.full_major ();
  let passes, count =
    Replay.run_passes
      [ Replay.Traced; Replay.Plain; Replay.Batched; Replay.Routed ]
      env ~budget_ns:(o.seconds * 1_000_000_000)
  in
  let tp, pp, bp, rp =
    match passes with
    | [ tp; pp; bp; rp ] -> (tp, pp, bp, rp)
    | _ -> assert false
  in
  let tr = tp.Replay.tr in
  Replay.write_spans tr
    (Filename.concat out_dir (Gen.workload_name o.workload ^ ".spans.tsv"));
  let self = Replay.self_times tr in
  let pick ?tag ?(self_time = false) names =
    List.init tr.Replay.n Fun.id
    |> List.filter (fun i ->
           List.mem tr.Replay.name.(i) names
           && match tag with None -> true | Some t -> tr.Replay.tag.(i) = t)
    |> List.map (fun i -> if self_time then self.(i) else Replay.dur tr i)
  in
  let med_us names = median_i (pick names) /. 1e3 in
  let sum_s ?tag names = float_of_int (sum_i (pick ?tag names)) *. 1e-9 in
  let med_s names = median_i (pick names) *. 1e-9 in
  (* Replayed windows, in the order every pass saw them. *)
  let windows =
    let w = Replay.schedule s in
    if s.Gen.restart then List.concat (List.init count (fun _ -> w))
    else List.filteri (fun i _ -> i < count) w
  in
  let handoff = List.map2 ( - ) rp.Replay.window_ns bp.Replay.window_ns in
  (* Unattributed time, per window: the daemon answers a window's lines
     as one batch and writes the replies together, so the client round
     trip of a window (its last reply) is set against the self time of
     every layer span the window's replay recorded plus its router
     hand-off.  Only each window's first replay counts, matching the
     daemon run's first round trips. *)
  let covered = Array.make (List.length windows) 0 in
  let window_of = Array.make tr.Replay.n (-1) in
  let wk = ref (-1) in
  for i = 0 to tr.Replay.n - 1 do
    let p = tr.Replay.parent.(i) in
    if tr.Replay.name.(i) = Replay.n_window then begin
      incr wk;
      window_of.(i) <- !wk
    end
    else if p >= 0 then begin
      window_of.(i) <- window_of.(p);
      covered.(window_of.(i)) <- covered.(window_of.(i)) + self.(i)
    end
  done;
  let first_pass = List.length (Replay.schedule s) in
  let gaps =
    List.concat
      (List.mapi
         (fun w (lines, ho) ->
           let rtt =
             Array.fold_left (fun m l -> max m r.tally.Load.first_rtt.(l.Gen.pos)) 0 lines
           in
           let answered = Array.for_all (fun l -> r.tally.Load.first_rtt.(l.Gen.pos) >= 0) lines in
           if w < first_pass && w <= !wk && answered then [ (rtt - covered.(w) - ho, rtt) ] else [])
         (List.combine windows handoff))
  in
  let sum_pairs f = sum_i (List.map f gaps) in
  let cache_delta f =
    sum_i (List.map2 (fun a b -> f a - f b) tp.Replay.cache_after tp.Replay.cache_before)
  in
  let open Service.Cache in
  let hits = cache_delta (fun c -> c.hits) and misses = cache_delta (fun c -> c.misses) in
  let s_hits = cache_delta (fun c -> c.solver_hits)
  and s_misses = cache_delta (fun c -> c.solver_misses) in
  let bank f = sum_i (List.map f tp.Replay.bank_counters) in
  let groups =
    List.fold_left
      (fun (lines, groups) w ->
        let keys =
          Array.to_list w
          |> List.mapi (fun k l ->
                 match Service.Protocol.cache_group l.Gen.request with
                 | Some key -> key
                 | None -> "single:" ^ string_of_int k)
          |> List.sort_uniq compare
        in
        (lines + Array.length w, groups + List.length keys))
      (0, 0) windows
  in
  let stat path = sum_i (List.map (json_int path) r.daemon_stats) in
  let dp = tp.Replay.dp_work and game = tp.Replay.game_work in
  let tsum l = float_of_int (sum_i l) in
  let metrics =
    [
      ("protocol.parse_us", med_us [ Replay.n_parse ], "us");
      ("protocol.serialize_us", med_us [ Replay.n_serialize ], "us");
      ( "protocol.reply_bytes",
        float_of_int (Array.fold_left (fun a e -> a + String.length e + 1) 0 s.Gen.expected)
        /. float_of_int (Array.length s.Gen.expected),
        "bytes" );
      ("engine.advise_us", med_us [ Replay.n_advise ], "us");
      ("engine.schedule_us", med_us [ Replay.n_schedule ], "us");
      ( "cache.fetch_hit_us",
        median_i
          (pick ~tag:Replay.tag_hit [ Replay.n_fetch ]
          @ pick ~tag:Replay.tag_hit ~self_time:true [ Replay.n_solver ])
        /. 1e3,
        "us" );
      ("cache.hit_ratio", ratio hits (hits + misses), "ratio");
      ("cache.solver_hit_ratio", ratio s_hits (s_hits + s_misses), "ratio");
      ( "cache.evictions",
        float_of_int (cache_delta (fun c -> c.evictions + c.solver_evictions)),
        "count" );
      ( "cache.growths",
        float_of_int (cache_delta (fun c -> c.growths + c.solver_growths)),
        "count" );
      ( "cache.coalesced",
        float_of_int (stat [ "cache"; "coalesced" ] + stat [ "solver_cache"; "coalesced" ]),
        "count" );
      ("cache.resident_mb", mib tp.Replay.resident_bytes, "MiB");
      ("dp.fill_s", sum_s ~tag:Replay.tag_work [ Replay.n_fetch ], "s");
      ("dp.cells", float_of_int dp.(0), "count");
      ("dp.candidates_per_cell", ratio dp.(1) dp.(0), "ratio");
      ("dp.dc_splits", float_of_int dp.(2), "count");
      ("dp.answer_us", med_us [ Replay.n_dp_answer ], "us");
      ("dp.bp_lookups", float_of_int dp.(3), "count");
      ("game.build_s", sum_s ~tag:Replay.tag_work [ Replay.n_solver ], "s");
      ("game.states", float_of_int game.(0), "count");
      ("game.memo_hit_ratio", ratio game.(1) (game.(0) + game.(1)), "ratio");
      ( "game.answer_us",
        median_i (pick ~tag:Replay.tag_hit [ Replay.n_game_answer ]) /. 1e3,
        "us" );
      ("batch.run_us", median_i bp.Replay.window_ns /. 1e3, "us");
      ("batch.requests_per_group", ratio (fst groups) (snd groups), "ratio");
      ("router.handoff_us", median_i handoff /. 1e3, "us");
      ("stats.add_ns", median_i (pick [ Replay.n_stats ]), "ns");
      ("server.unattributed_us", median_i (List.map fst gaps) /. 1e3, "us");
      ( "server.batch_size",
        ratio (stat [ "requests" ])
          (stat [ "batches" ] - List.length r.daemon_stats),
        "ratio" );
      ("store.warm_s", med_s [ Replay.n_warm ], "s");
      ("store.load_s", med_s [ Replay.n_load ], "s");
      ("store.mapped_mb", mib tp.Replay.mapped_bytes /. float_of_int (max 1 (List.length tp.Replay.bank_counters)), "MiB");
      ("store.save_s", med_s [ Replay.n_save ], "s");
      ("store.bank_hits", float_of_int (bank (fun b -> b.Store.Bank.hits)), "count");
      ( "store.load_failures",
        float_of_int (bank (fun b -> b.Store.Bank.load_failures)),
        "count" );
      ("store.saves", float_of_int (bank (fun b -> b.Store.Bank.saves)), "count");
      ("trace.unattributed_frac", ratio (sum_pairs fst) (sum_pairs snd), "ratio");
      ( "trace.overhead_frac",
        (tsum tp.Replay.window_ns -. tsum pp.Replay.window_ns) /. tsum pp.Replay.window_ns,
        "ratio" );
    ]
  in
  let checked = tp.Replay.checked + pp.Replay.checked + bp.Replay.checked + rp.Replay.checked in
  let failed = tp.Replay.failed + pp.Replay.failed + bp.Replay.failed + rp.Replay.failed in
  ( metrics,
    [
      ("replayed_windows", float_of_int (List.length windows), "count");
      ("replay_checked", float_of_int checked, "count");
      ("replay_failed", float_of_int failed, "count");
    ],
    checked,
    failed )

(* --- output -------------------------------------------------------------- *)

let jstr s = Service.Json.to_string (Service.Json.String s)

let print_metric (name, v, unit) = Printf.printf "metric %-26s %16.6f %s\n" name v unit

let () =
  let o = parse_opts () in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let tmp = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Replay.remove_tree tmp;
  Sys.mkdir tmp 0o755;
  (* Every exit path stops the daemons first, then removes the socket,
     bank copies and scratch files. *)
  at_exit (fun () ->
      List.iter Load.stop !Load.live;
      Replay.remove_tree tmp);
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let name = Gen.workload_name o.workload in
  let t0 = now () in
  let s = Gen.make o.workload ~seed:o.seed ~conns:o.conns in
  let oracle_s = float_of_int (now () - t0) *. 1e-9 in
  let pristine =
    if not s.Gen.restart then None
    else begin
      let dir = Filename.concat tmp "pristine" in
      let args = Array.of_list (o.csched :: Gen.precompute_args ~dir) in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid = Unix.create_process o.csched args null null Unix.stderr in
      Unix.close null;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Some dir
      | _ -> fatal "csched precompute failed"
    end
  in
  let target = if s.Gen.restart then min_restarts else o.seconds in
  let r = untraced o s ~tmp ~pristine ~target in
  let e2e, e2e_info = e2e_metrics o r ~target in
  let per_layer, replay_info, replay_checked, replay_failed =
    if o.trace then traced o s r ~tmp ~pristine else ([], [], 0, 0)
  in
  let attempted = r.tally.Load.attempted + replay_checked in
  let failed = r.tally.Load.failed + replay_failed in
  let facts =
    Service.Json.Obj
      [
        ("workload", Service.Json.String name);
        ("seed", Service.Json.Int o.seed);
        ("seconds", Service.Json.Int o.seconds);
        ("trace", Service.Json.Bool o.trace);
        ("nproc", Service.Json.Int o.nproc);
        ("available_domains", Service.Json.Int (Csutil.Par.available_domains ()));
        ("ocaml_version", Service.Json.String Sys.ocaml_version);
        ("commit", Service.Json.String o.commit);
        ("daemon_flags", Service.Json.List (List.map (fun f -> Service.Json.String f) r.flags));
        ("connections", Service.Json.Int o.conns);
        ("load_model", Service.Json.String "closed loop, one process");
        ("window", Service.Json.Int (Array.length s.Gen.conns.(0).(0)));
        ("oracle_s", Service.Json.Float oracle_s);
      ]
  in
  print_endline (Service.Json.to_string (Service.Json.Obj [ ("host_and_config", facts) ]));
  List.iter print_metric (e2e @ e2e_info @ per_layer @ replay_info);
  let shown = if o.trace then per_layer else e2e in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (failed = 0) attempted failed
      (String.concat ", "
         (List.map
            (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (jstr n) v (jstr u))
            shown))
  in
  print_endline result;
  exit (if failed = 0 then 0 else 1)
