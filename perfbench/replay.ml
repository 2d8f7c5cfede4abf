(* The traced run: an in-process replay of a workload's stream through
   the same public functions the daemon calls, in the daemon's order,
   timed with the monotonic clock.

   Four passes replay the same windows in lockstep -- each window goes
   through every pass before the next, so drift in the host's speed
   hits all four alike -- each pass on its own fresh cache (and, on
   bank_restart, its own fresh copy of the pristine bank):
   - [Traced]: the daemon's per-batch sequence spelled out layer by
     layer (parse every line, group by cache identity, one table fetch
     or solver hold per group, answer each request, serialize, count),
     with a span around every call;
   - [Plain]: the same calls with tracing off, so the two walls give
     the tracing overhead;
   - [Batched]: [Batch.run] on a bare cache, timed per window;
   - [Routed]: [Router.run] on a one-shard router, timed per window;
     its excess over [Batch.run] on the same window is the router
     hand-off.
   Every pass checks its replies against the oracle.  Spans stay in
   memory and are written out when the run ends. *)

open Service
module Dp = Cyclesteal.Dp
module Game = Cyclesteal.Game

let now = Load.now

(* --- spans --------------------------------------------------------------- *)

let names =
  [|
    "window"; "protocol.parse"; "engine.advise"; "engine.schedule";
    "engine.other"; "cache.find_or_solve"; "cache.with_solver"; "dp.answer";
    "game.answer"; "protocol.serialize"; "stats.add"; "store.warm";
    "store.load"; "store.save";
  |]

let n_window = 0
and n_parse = 1
and n_advise = 2
and n_schedule = 3
and n_other = 4
and n_fetch = 5
and n_solver = 6
and n_dp_answer = 7
and n_game_answer = 8
and n_serialize = 9
and n_stats = 10
and n_warm = 11
and n_load = 12
and n_save = 13

(* Span tags: how the counter deltas classified a fetch or an answer. *)
let tag_hit = 1
and tag_work = 2

type tracer = {
  on : bool;
  mutable cap : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable tag : int array;
  mutable n : int;
  mutable cur : int;  (** the open span new spans nest under; -1 *)
  mutable aside : int;
      (** ns spent inside windows on measurements the daemon does not
          make (store.save); left out of the window walls *)
}

let tracer on =
  let cap = 4096 in
  let z () = Array.make cap 0 in
  {
    on;
    cap;
    name = z ();
    start = z ();
    stop = z ();
    parent = z ();
    req = z ();
    tag = z ();
    n = 0;
    cur = -1;
    aside = 0;
  }

let grow tr =
  let g a =
    let b = Array.make (2 * tr.cap) 0 in
    Array.blit a 0 b 0 tr.n;
    b
  in
  tr.name <- g tr.name;
  tr.start <- g tr.start;
  tr.stop <- g tr.stop;
  tr.parent <- g tr.parent;
  tr.req <- g tr.req;
  tr.tag <- g tr.tag;
  tr.cap <- 2 * tr.cap

(* Run [f] inside a span; returns the span index (-1 untraced). *)
let span tr name req f =
  if not tr.on then (f (), -1)
  else begin
    if tr.n = tr.cap then grow tr;
    let i = tr.n in
    tr.n <- i + 1;
    tr.name.(i) <- name;
    tr.parent.(i) <- tr.cur;
    tr.req.(i) <- req;
    tr.tag.(i) <- 0;
    tr.cur <- i;
    let finish () =
      tr.stop.(i) <- now ();
      tr.cur <- tr.parent.(i)
    in
    tr.start.(i) <- now ();
    match f () with
    | r ->
      finish ();
      (r, i)
    | exception e ->
      finish ();
      raise e
  end

let dur tr i = tr.stop.(i) - tr.start.(i)
let set_tag tr i v = if i >= 0 then tr.tag.(i) <- v

(* Self time: a span's duration minus the time its children cover
   (children never overlap: the replay is sequential). *)
let self_times tr =
  let self = Array.init tr.n (fun i -> dur tr i) in
  for i = 0 to tr.n - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - dur tr i
  done;
  self

let write_spans tr path =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "index\tname\tstart_ns\tend_ns\tparent\trequest\n";
      for i = 0 to tr.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(tr.name.(i))
          tr.start.(i) tr.stop.(i) tr.parent.(i) tr.req.(i)
      done)

(* --- passes -------------------------------------------------------------- *)

type kind = Plain | Traced | Batched | Routed

type env = {
  stream : Gen.stream;
  capacity : int;  (** cschedd's default --cache-tables *)
  tmp : string;  (** a scratch directory inside the checkout *)
  pristine : string option;  (** the pristine bank (bank_restart) *)
}

type session = {
  cache : Cache.t option;
  router : Router.t option;
  bank : Store.Bank.t option;
  stats : Stats.t;
  out : Buffer.t;
}

(* What one pass measured. *)
type pass = {
  tr : tracer;
  mutable window_ns : int list;  (** per-window wall, replay order *)
  mutable failed : int;
  mutable checked : int;
  mutable cache_before : Cache.stats list;
  mutable cache_after : Cache.stats list;
  mutable bank_counters : Store.Bank.counters list;
  mutable mapped_bytes : int;
  mutable resident_bytes : int;
  dp_work : int array;
      (** Dp.counters deltas: cells, candidates visited, dc splits,
          bp lookups *)
  game_work : int array;  (** Game.counters deltas: states, memo hits *)
}

let dp_vector () =
  let c = Dp.counters () in
  [| c.Dp.cells_filled; c.Dp.candidates_visited; c.Dp.dc_splits; c.Dp.bp_lookups |]

let game_vector () =
  let g = Game.counters () in
  [| g.Game.states; g.Game.memo_hits |]

let accumulate acc before after =
  Array.iteri (fun i b -> acc.(i) <- acc.(i) + after.(i) - b) before

let rec copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d
      else
        Out_channel.with_open_bin d (fun oc ->
            Out_channel.output_string oc (Load.read_file s)))
    (Sys.readdir src)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let bank_copy env kind =
  Filename.concat env.tmp
    (match kind with
     | Plain -> "bank_plain"
     | Traced -> "bank_traced"
     | Batched -> "bank_batched"
     | Routed -> "bank_routed")

let check pass (l : Gen.line) env reply =
  pass.checked <- pass.checked + 1;
  if not (String.equal reply env.stream.Gen.expected.(l.Gen.pos)) then
    pass.failed <- pass.failed + 1

let op_of (e : Protocol.envelope) =
  match e.Protocol.request with Ok r -> Protocol.op_name r | Error _ -> "invalid"

(* The layered path: one window through parse, group, fetch/hold,
   answer, serialize and Stats.add, exactly the daemon's call order
   for a batch. *)
let layered pass sess env (lines : Gen.line array) =
  let tr = pass.tr in
  let cache = Option.get sess.cache in
  let pos k = lines.(k).Gen.pos in
  let envs =
    Array.mapi
      (fun k l -> fst (span tr n_parse (pos k) (fun () -> Protocol.parse_line l.Gen.text)))
      lines
  in
  let results = Array.make (Array.length lines) (Ok Json.Null) in
  let latency = Array.make (Array.length lines) 0 in
  let timed k name f =
    let t0 = if tr.on then 0 else now () in
    let r, i = span tr name (pos k) f in
    latency.(k) <- (if tr.on then dur tr i else now () - t0);
    (r, i)
  in
  let req k = match envs.(k).Protocol.request with Ok r -> Some r | Error _ -> None in
  (* Groups by cache identity, first-occurrence order, as Batch does. *)
  let groups = Hashtbl.create 8 and order = ref [] in
  Array.iteri
    (fun k _ ->
      match Option.bind (req k) Protocol.cache_group with
      | None -> order := ref [ k ] :: !order
      | Some key ->
        (match Hashtbl.find_opt groups key with
         | Some cell -> cell := k :: !cell
         | None ->
           let cell = ref [ k ] in
           Hashtbl.add groups key cell;
           order := cell :: !order))
    lines;
  let states () = (Game.counters ()).Game.states in
  let eval_group members =
    match req (List.hd members) with
    | Some (Protocol.Dp_query { c_ticks = c; _ }) ->
      let max_p, max_l =
        List.fold_left
          (fun (mp, ml) k ->
            match req k with
            | Some (Protocol.Dp_query { l; p; _ }) -> (max mp p, max ml l)
            | _ -> (mp, ml))
          (0, 0) members
      in
      let before = if tr.on then Some (Cache.stats cache) else None in
      let dp, i =
        timed (List.hd members) n_fetch (fun () -> Cache.find_or_solve cache ~c ~p:max_p ~l:max_l)
      in
      (match before with
       | Some b ->
         let a = Cache.stats cache in
         let grew = a.Cache.growths > b.Cache.growths in
         set_tag tr i (if a.Cache.misses > b.Cache.misses then tag_work else tag_hit);
         (match sess.bank with
          | Some _ when grew ->
            (* The daemon saves grown tables behind; time the same save
               into a scratch bank, outside the window. *)
            let saved = tr.cur in
            tr.cur <- -1;
            let scratch = Filename.concat env.tmp "save_bank" in
            (match Store.Bank.open_dir ~create:true scratch with
             | Ok b ->
               let (), j = span tr n_save (-1) (fun () -> Store.Bank.save_dp b dp) in
               tr.aside <- tr.aside + dur tr j
             | Error _ -> ());
            tr.cur <- saved
          | _ -> ())
       | None -> ());
      List.iter
        (fun k ->
          match req k with
          | Some (Protocol.Dp_query { c_ticks; l; p }) ->
            let r, _ =
              timed k n_dp_answer (fun () ->
                  Protocol.guard (fun () -> Protocol.handle_dp_with dp ~c_ticks ~l ~p))
            in
            results.(k) <- r
          | _ -> ())
        members
    | Some (Protocol.Evaluate { c; u; p; policy; _ }) ->
      let params = Cyclesteal.Model.params ~c in
      let opp = Cyclesteal.Model.opportunity ~lifespan:u ~interrupts:p in
      let planner = Engine.Registry.find policy in
      let before = if tr.on then Some (Cache.stats cache, states ()) else None in
      let (), i =
        span tr n_solver (pos (List.hd members)) (fun () ->
            Cache.with_solver cache params opp planner (fun solver ->
                List.iter
                  (fun k ->
                    match req k with
                    | Some (Protocol.Evaluate { c; u; p; _ }) ->
                      let g0 = if tr.on then states () else 0 in
                      let r, j =
                        timed k n_game_answer (fun () ->
                            Protocol.guard (fun () -> Protocol.evaluate_with_solver ~c ~u ~p solver))
                      in
                      if tr.on then
                        set_tag tr j (if states () > g0 then tag_work else tag_hit);
                      results.(k) <- r
                    | _ -> ())
                  members))
      in
      (match before with
       | Some (b, g) ->
         let a = Cache.stats cache in
         let built =
           a.Cache.solver_misses > b.Cache.solver_misses
           || a.Cache.solver_growths > b.Cache.solver_growths
           || states () > g
         in
         set_tag tr i (if built then tag_work else tag_hit)
       | None -> ())
    | _ -> ()
  in
  List.iter
    (fun cell ->
      match List.rev !cell with
      | [ k ] when Option.bind (req k) Protocol.cache_group = None ->
        let name =
          match req k with
          | Some (Protocol.Advise _) -> n_advise
          | Some (Protocol.Schedule _) -> n_schedule
          | _ -> n_other
        in
        let r, _ =
          timed k name (fun () ->
              match envs.(k).Protocol.request with
              | Ok r -> Protocol.handle ~cache r
              | Error e -> Error e)
        in
        results.(k) <- r
      | members -> eval_group members)
    (List.rev !order);
  Array.iteri
    (fun k l ->
      let out = sess.out in
      Buffer.clear out;
      ignore
        (span tr n_serialize l.Gen.pos (fun () ->
             Protocol.add_response out ~id:envs.(k).Protocol.id results.(k)));
      let bytes = Buffer.length out + 1 in
      ignore
        (span tr n_stats l.Gen.pos (fun () ->
             Stats.add sess.stats
               {
                 Stats.op = op_of envs.(k);
                 ok = Result.is_ok results.(k);
                 latency = float_of_int latency.(k) *. 1e-9;
                 bytes;
               }));
      check pass l env (Buffer.contents out))
    lines

let outcome_check pass env (lines : Gen.line array) (outs : Batch.outcome array) =
  Array.iteri
    (fun k (o : Batch.outcome) ->
      check pass lines.(k) env
        (Protocol.response_to_string ~id:o.Batch.envelope.Protocol.id o.Batch.result))
    outs

let run_window kind pass sess env (lines : Gen.line array) =
  let texts = Array.map (fun l -> l.Gen.text) lines in
  match kind with
  | Plain | Traced ->
    (* The kernel and solver counters are process-wide: only the traced
       pass reads them, around its own windows. *)
    let t0 = now () and aside = pass.tr.aside in
    let d0 = dp_vector () and g0 = game_vector () in
    let (), i = span pass.tr n_window lines.(0).Gen.pos (fun () -> layered pass sess env lines) in
    if i < 0 then now () - t0
    else begin
      accumulate pass.dp_work d0 (dp_vector ());
      accumulate pass.game_work g0 (game_vector ());
      dur pass.tr i - (pass.tr.aside - aside)
    end
  | Batched ->
    let t0 = now () in
    let outs = Batch.run ~cache:(Option.get sess.cache) texts in
    let t = now () - t0 in
    outcome_check pass env lines outs;
    t
  | Routed ->
    let t0 = now () in
    let outs = Router.run (Option.get sess.router) texts in
    let t = now () - t0 in
    outcome_check pass env lines outs;
    t

let open_session kind pass env =
  let tr = pass.tr in
  let bank =
    match env.pristine with
    | None -> None
    | Some src ->
      let dst = bank_copy env kind in
      remove_tree dst;
      copy_dir src dst;
      (match Store.Bank.open_dir dst with
       | Ok b -> Some b
       | Error e -> failwith ("replay bank: " ^ Cyclesteal.Error.to_string e))
  in
  let stats = Stats.create () in
  let out = Buffer.create 8192 in
  let sess =
    match kind with
    | Routed ->
      let router = Router.create ?bank ~capacity:env.capacity () in
      ignore (Router.warm_from_bank router);
      { cache = None; router = Some router; bank; stats; out }
    | Plain | Traced | Batched ->
      let cache =
        Cache.create ~pool:(Csutil.Par.shared_pool ()) ?bank ~capacity:env.capacity ()
      in
      ignore (span tr n_warm (-1) (fun () -> Cache.warm_from_bank cache));
      { cache = Some cache; router = None; bank; stats; out }
  in
  (match (bank, kind) with
   | Some b, Traced ->
     (* Map each banked table once more, on a second handle, to time
        Bank.load_dp on its own. *)
     (match Store.Bank.open_dir (Store.Bank.dir b) with
      | Ok b2 ->
        List.iter
          (fun (file, descr) ->
            pass.mapped_bytes <-
              pass.mapped_bytes + (Unix.stat (Filename.concat (Store.Bank.dir b) file)).Unix.st_size;
            match descr with
            | Store.Snapshot.Dp_table { c; _ } ->
              ignore (span tr n_load (-1) (fun () -> Store.Bank.load_dp ~count:false b2 ~c))
            | _ -> ())
          (Store.Bank.entries b2)
      | Error _ -> ())
   | _ -> ());
  (* Warm-up lines (warm_mix) run untimed, as before the daemon's
     timed phase. *)
  let warm = env.stream.Gen.warmup in
  if Array.length warm > 0 then begin
    let quiet = { pass with tr = tracer false; failed = 0; checked = 0 } in
    Array.iter (fun l -> ignore (run_window kind quiet sess env [| l |])) warm;
    pass.failed <- pass.failed + quiet.failed;
    pass.checked <- pass.checked + quiet.checked
  end;
  sess

let close_session pass sess =
  Option.iter
    (fun c ->
      let s = Cache.stats c in
      pass.cache_after <- s :: pass.cache_after;
      pass.resident_bytes <- s.Cache.resident_bytes + s.Cache.solver_bytes)
    sess.cache;
  Option.iter (fun b -> pass.bank_counters <- Store.Bank.counters b :: pass.bank_counters) sess.bank;
  Option.iter Router.shutdown sess.router

(* The windows of one pass over the stream, connections interleaved. *)
let schedule (s : Gen.stream) =
  let n = Array.fold_left (fun m c -> max m (Array.length c)) 0 s.Gen.conns in
  List.concat
    (List.init n (fun k ->
         List.filter_map
           (fun c -> if k < Array.length c then Some c.(k) else None)
           (Array.to_list s.Gen.conns)))

let new_pass kind =
  {
    tr = tracer (kind = Traced);
    window_ns = [];
    failed = 0;
    checked = 0;
    cache_before = [];
    cache_after = [];
    bank_counters = [];
    mapped_bytes = 0;
    resident_bytes = 0;
    dp_work = Array.make 4 0;
    game_work = Array.make 2 0;
  }

(* Replay windows through every pass in lockstep for [budget_ns] (at
   least one window; on bank_restart, whole restarts, at least one);
   returns the passes, in [kinds] order, and the count replayed. *)
let run_passes kinds env ~budget_ns =
  let passes = List.map (fun k -> (k, new_pass k)) kinds in
  let windows = schedule env.stream in
  let t0 = now () in
  let more count = count = 0 || now () - t0 < budget_ns in
  let open_all () =
    List.map
      (fun (k, p) ->
        let sess = open_session k p env in
        Option.iter (fun c -> p.cache_before <- Cache.stats c :: p.cache_before) sess.cache;
        (k, p, sess))
      passes
  in
  let close_all sessions =
    List.iter
      (fun (k, p, sess) ->
        close_session p sess;
        remove_tree (bank_copy env k))
      sessions
  in
  (* Odd windows run the passes in reverse order, so no pass always
     comes first, on processor caches the others left cold. *)
  let step sessions i w =
    List.iter
      (fun (k, p, sess) -> p.window_ns <- run_window k p sess env w :: p.window_ns)
      (if i mod 2 = 0 then sessions else List.rev sessions)
  in
  let count =
    if env.stream.Gen.restart then begin
      let rec cycles k =
        if not (more k) then k
        else begin
          let sessions = open_all () in
          List.iteri (step sessions) windows;
          close_all sessions;
          cycles (k + 1)
        end
      in
      cycles 0
    end
    else begin
      let sessions = open_all () in
      let rec go k = function
        | w :: rest when more k ->
          step sessions k w;
          go (k + 1) rest
        | _ -> k
      in
      let k = go 0 windows in
      close_all sessions;
      k
    end
  in
  List.iter (fun (_, p) -> p.window_ns <- List.rev p.window_ns) passes;
  (List.map snd passes, count)
