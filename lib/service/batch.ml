(* Batch evaluation in phases: parse the raw lines on the calling
   domain (about 2 µs a line, far below the cost of waking another
   domain), group the parsed requests by the cache identity their
   evaluation locks (Protocol.cache_group), then answer the groups.  A
   group touching one dp table fetches it once and answers every query
   from it; a group sharing one resident solver holds it once and
   answers every budget through it — so a dup-heavy batch takes each
   cache lock once instead of once per request.

   Where the groups run is the paper's first lesson applied to our own
   dispatch: a period of length t yields t - c, so work shorter than
   the setup cost c should not be shipped at all.  A batch whose every
   group is resident — a dp table already covering the group's bounds
   (Cache.mem), a resident solver already answering at the group's
   largest budget (Cache.solver_mem), pure compute, a stats op or a
   parse error — takes microseconds a group, less than one domain
   wake-up, so the calling domain answers the groups in order and nothing goes
   to the pool.  A batch with any fill, grow or solver build fans its
   groups across domains, so large grows still run in parallel.  The
   probes are advisory: a table evicted between probe and answer is
   just filled inline, and the bytes never depend on which way a batch
   ran.  All shared state touched from worker domains is the cache
   (internally locked); everything else is pure.

   Outcomes scatter back by original index, so per-connection response
   order — and therefore the bytes a client reads — never depends on
   the grouping.  Any group-level fetch failure falls back to
   per-request evaluation, which reproduces the exact per-request
   errors.

   Every public entry point — [run] on raw lines, [run_parsed] on
   envelopes and [resident_answer], the router's inline check — funnels
   through the one [evaluate_parsed] pipeline, so the evaluation
   semantics (grouping, per-request timing, outcome alignment) cannot
   drift between them; they differ only in whether a parse phase runs
   first and in whether a batch that needs fill work is answered or
   handed back.

   In the daemon, repeats and stats ops never get here: the server
   parses each batch itself, answers the requests its answer cache
   holds (Answers) and the stats ops from its own counters, and sends
   only the rest, through Router.run_parsed.  A stats op that does get
   here answers as [Protocol.handle] does, with the no-daemon error.
   Parse errors are not evaluated, so their outcomes carry latency 0;
   the server counts them as untimed rather than as zero-latency
   answers. *)

type outcome = {
  envelope : Protocol.envelope;
  result : (Json.t, Cyclesteal.Error.t) result;
  latency : float;
}

(* Indices grouped by cache identity, groups in first-occurrence order
   and indices ascending within each — deterministic, so the fetch
   cost always lands on the same (first) request of a group.  Requests
   with no cache identity (parse errors, pure compute, custom-periods
   evaluations, stats) form singleton groups. *)
let group_indices envelopes =
  let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i (e : Protocol.envelope) ->
       let key =
         match e.Protocol.request with
         | Ok req -> Protocol.cache_group req
         | Error _ -> None
       in
       match key with
       | None -> order := ref [ i ] :: !order
       | Some k ->
         (match Hashtbl.find_opt groups k with
          | Some cell -> cell := i :: !cell
          | None ->
            let cell = ref [ i ] in
            Hashtbl.add groups k cell;
            order := cell :: !order))
    envelopes;
  Array.of_list
    (List.rev_map (fun cell -> Array.of_list (List.rev !cell)) !order)

(* The group-max bounds of a dp group: one table at these bounds
   answers every query of the group. *)
let dp_bounds envelopes idxs =
  Array.fold_left
    (fun (c, mp, ml) i ->
       match envelopes.(i).Protocol.request with
       | Ok (Protocol.Dp_query { c_ticks; l; p }) -> (c_ticks, max mp p, max ml l)
       | _ -> (c, mp, ml))
    (0, 0, 0) idxs

(* What an evaluate group holds: its resident solver, asked for at the
   group's largest budget — as a dp group fetches at its group-max
   bounds — so one hold covers every member.  Raises on invalid
   parameters or an unknown policy. *)
let solver_hold ~c ~u ~policy envelopes idxs =
  let interrupts =
    Array.fold_left
      (fun mp i ->
         match envelopes.(i).Protocol.request with
         | Ok (Protocol.Evaluate { p; _ }) -> max mp p
         | _ -> mp)
      0 idxs
  in
  ( Cyclesteal.Model.params ~c,
    Cyclesteal.Model.opportunity ~lifespan:u ~interrupts,
    Engine.Registry.find policy )

(* Can the group be answered without fill, grow or solver-build work?
   Requests that fail validation answer with an error, which is cheap,
   so a probe that raises counts as resident.  A dp group whose
   group-max bounds are refused is probed member by member: its
   members may each fit the cell budget but not together, and then
   some member needs a fill of its own. *)
let rec resident ~cache envelopes idxs =
  match envelopes.(idxs.(0)).Protocol.request with
  | Error _
  | Ok
      ( Protocol.Advise _ | Protocol.Schedule _ | Protocol.Strategies
      | Protocol.Stats _ ) ->
    true
  | Ok (Protocol.Dp_query _) -> (
    let c, p, l = dp_bounds envelopes idxs in
    match Cache.canonical ~c ~p ~l with
    | key -> Cache.mem cache key
    | exception _ when Array.length idxs > 1 ->
      Array.for_all (fun i -> resident ~cache envelopes [| i |]) idxs
    | exception _ -> true)
  | Ok (Protocol.Evaluate { periods = Some _; _ }) -> false
  | Ok (Protocol.Evaluate { c; u; policy; _ }) -> (
    match solver_hold ~c ~u ~policy envelopes idxs with
    | params, opp, planner -> Cache.solver_mem cache params opp planner
    | exception _ -> true)

(* The one evaluation pipeline: group the batch by cache identity and
   probe every group once.  [`Resident answer] answers the groups in
   order on the calling domain, [`Fill answer] fans them across
   domains; either scatters outcomes back by index. *)
let evaluate_parsed ?pool ?domains ~cache envelopes =
  let now = Csutil.Clock.now in
  let evaluate (e : Protocol.envelope) =
    match e.Protocol.request with
    | Error err -> { envelope = e; result = Error err; latency = 0. }
    | Ok req ->
      let t0 = now () in
      let result = Protocol.handle ~cache req in
      { envelope = e; result; latency = now () -. t0 }
  in
  let fallback idxs = Array.map (fun i -> (i, evaluate envelopes.(i))) idxs in
  (* One table fetch covers the whole group: grown/solved once at the
     group-max bounds, then every query answers from it directly (the
     recurrence reads only smaller indices, so payloads are
     independent of the bounds).  The fetch time is charged to the
     group's first request. *)
  let evaluate_dp_group idxs =
    let c, max_p, max_l = dp_bounds envelopes idxs in
    let t0 = now () in
    match Cache.find_or_solve cache ~c ~p:max_p ~l:max_l with
    | exception _ -> fallback idxs
    | dp ->
      Array.mapi
        (fun k i ->
           match envelopes.(i).Protocol.request with
           | Ok (Protocol.Dp_query { c_ticks; l; p }) ->
             let t1 = if k = 0 then t0 else now () in
             let result =
               Protocol.guard (fun () ->
                   Protocol.handle_dp_with dp ~c_ticks ~l ~p)
             in
             (i, { envelope = envelopes.(i); result; latency = now () -. t1 })
           | _ -> (i, evaluate envelopes.(i)))
        idxs
  in
  (* One resident-solver hold covers the whole group; the group key
     (Protocol.cache_group) embeds exactly the solver-cache identity,
     so every member resolves to the same resident solver the
     per-request path would have taken — held once instead of once per
     request.  Each member still queries its own state, so values are
     independent of the budget the hold asked for. *)
  let evaluate_solver_group idxs =
    match envelopes.(idxs.(0)).Protocol.request with
    | Ok (Protocol.Evaluate { c; u; policy; _ }) ->
      (match solver_hold ~c ~u ~policy envelopes idxs with
       | exception _ -> fallback idxs
       | params, opp, planner ->
         let t0 = now () in
         (match
            Cache.with_solver cache params opp planner (fun solver ->
                Array.mapi
                  (fun k i ->
                     match envelopes.(i).Protocol.request with
                     | Ok (Protocol.Evaluate { c; u; p; _ }) ->
                       let t1 = if k = 0 then t0 else now () in
                       let result =
                         Protocol.guard (fun () ->
                             Protocol.evaluate_with_solver ~c ~u ~p solver)
                       in
                       ( i,
                         {
                           envelope = envelopes.(i);
                           result;
                           latency = now () -. t1;
                         } )
                     | _ -> (i, evaluate envelopes.(i)))
                  idxs)
          with
          | exception _ -> fallback idxs
          | results -> results))
    | _ -> fallback idxs
  in
  let evaluate_group idxs =
    if Array.length idxs = 1 then
      let i = idxs.(0) in
      [| (i, evaluate envelopes.(i)) |]
    else
      match envelopes.(idxs.(0)).Protocol.request with
      | Ok (Protocol.Dp_query _) -> evaluate_dp_group idxs
      | Ok (Protocol.Evaluate _) -> evaluate_solver_group idxs
      | _ -> fallback idxs
  in
  let scatter results =
    let out = Array.make (Array.length envelopes) None in
    Array.iter (Array.iter (fun (i, o) -> out.(i) <- Some o)) results;
    Array.map Option.get out
  in
  let grouped = group_indices envelopes in
  if Array.for_all (resident ~cache envelopes) grouped then
    `Resident (fun () -> scatter (Array.map evaluate_group grouped))
  else
    `Fill
      (fun () -> scatter (Csutil.Par.map ?pool ?domains evaluate_group grouped))

let run_parsed ?pool ?domains ~cache envelopes =
  match evaluate_parsed ?pool ?domains ~cache envelopes with
  | `Resident answer | `Fill answer -> answer ()

let resident_answer ~cache envelopes =
  match evaluate_parsed ~cache envelopes with
  | `Resident answer -> Some answer
  | `Fill _ -> None

let run ?pool ?domains ~cache lines =
  run_parsed ?pool ?domains ~cache (Array.map Protocol.parse_line lines)
