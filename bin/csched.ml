(* csched: command-line front end for the cycle-stealing scheduling
   library.

     csched schedule  -u 1000 -p 2 --regime adaptive
     csched evaluate  -u 1000 -p 2 --policy calibrated
     csched dp        -c 10 -l 2000 -p 3
     csched table1 / csched table2
     csched sweep     -u 10000 --max-p 4
     csched simulate  -u 500 -p 2 --owner poisson --rate 0.01 --seed 7
     csched advise    -u 86400 -c 30 -p 3
     csched strategies

   Every subcommand prints human-readable tables (Csutil.Table).
   Strategy and regime names resolve through Engine.Registry — the same
   table the cschedd daemon, the bench harness and the NOW simulator
   use, so all front ends accept exactly the same names. *)

open Cyclesteal
open Cmdliner

(* --- Logging -------------------------------------------------------------- *)

(* Standard Logs/Fmt plumbing: --verbosity debug surfaces the
   simulator's per-event trace (src "nowsim.master"). *)
let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* --- Shared options ------------------------------------------------------ *)

let cost =
  let doc = "Communication-setup cost c (time units per period round trip)." in
  Arg.(value & opt float 1.0 & info [ "c"; "cost" ] ~docv:"C" ~doc)

let lifespan =
  let doc = "Usable lifespan U of the cycle-stealing opportunity." in
  Arg.(value & opt float 1000. & info [ "u"; "lifespan" ] ~docv:"U" ~doc)

let interrupts =
  let doc = "Upper bound p on the number of owner interrupts." in
  Arg.(value & opt int 1 & info [ "p"; "interrupts" ] ~docv:"P" ~doc)

let seed =
  let doc = "PRNG seed (simulations are reproducible given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* In --json mode a bad argument becomes the daemon's structured error
   object on stdout and a non-zero exit, so scripted callers parse one
   shape for success and failure alike; otherwise cmdliner reports it. *)
let fail ?(json = false) e =
  if json then begin
    print_endline (Service.Json.to_string (Service.Protocol.error_to_json e));
    exit 1
  end
  else `Error (false, Error.to_string e)

let validate ?json ~c ~u ~p k =
  if c <= 0. then fail ?json (Error.Invalid_params "c must be positive")
  else if u <= 0. then fail ?json (Error.Invalid_params "U must be positive")
  else if p < 0 then fail ?json (Error.Invalid_params "p must be non-negative")
  else k (Model.params ~c) (Model.opportunity ~lifespan:u ~interrupts:p)

(* Named strategies come from the engine registry (shared with the
   cschedd daemon, so the two front ends accept the same names). *)
let policy_of_name params opp name =
  Error.guard (fun () -> Engine.Registry.policy params opp name)

let json_flag =
  let doc =
    "Emit the result as one line of JSON (the cschedd daemon's result \
     payload for the same query, byte for byte).  Errors become the \
     daemon's structured error object and a non-zero exit."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* Run a request through the daemon's evaluation path and print the
   result payload, so CLI and daemon output cannot drift apart. *)
let print_protocol_result request =
  match Service.Protocol.handle request with
  | Ok payload ->
    print_endline (Service.Json.to_string payload);
    `Ok ()
  | Error e -> fail ~json:true e

let policy_arg =
  let doc =
    Printf.sprintf "Scheduling strategy: %s (see $(b,csched strategies))."
      (String.concat " | " (Engine.Registry.names ()))
  in
  Arg.(value & opt string "adaptive" & info [ "policy" ] ~docv:"POLICY" ~doc)

(* --- schedule ------------------------------------------------------------- *)

let print_schedule params s =
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf "%d periods covering %.6g time units" (Schedule.length s)
           (Schedule.total s))
      ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right ]
      [ "k"; "t_k"; "T_(k-1)"; "T_k"; "work if completed" ]
  in
  let m = Schedule.length s in
  let show k =
    Csutil.Table.add_row t
      [
        string_of_int k;
        Csutil.Table.cell_float ~prec:4 (Schedule.period s k);
        Csutil.Table.cell_float ~prec:4 (Schedule.start_time s k);
        Csutil.Table.cell_float ~prec:4 (Schedule.end_time s k);
        Csutil.Table.cell_float ~prec:4
          (Model.positive_sub (Schedule.period s k) (Model.c params));
      ]
  in
  if m <= 40 then
    for k = 1 to m do
      show k
    done
  else begin
    for k = 1 to 20 do
      show k
    done;
    Csutil.Table.add_row t [ "..."; "..."; "..."; "..."; "..." ];
    for k = m - 19 to m do
      show k
    done
  end;
  Csutil.Table.print t

let schedule_cmd =
  let regime =
    let doc =
      Printf.sprintf "Which schedule to print: %s."
        (String.concat " | " (Engine.Registry.regime_names ()))
    in
    Arg.(value & opt string "adaptive" & info [ "regime" ] ~docv:"REGIME" ~doc)
  in
  let run c u p regime =
    validate ~c ~u ~p (fun params _opp ->
        match
          Error.guard (fun () ->
              Engine.Registry.episode_schedule params ~u ~p regime)
        with
        | Error e -> fail e
        | Ok s ->
          print_schedule params s;
          `Ok ())
  in
  let doc = "Print the guideline schedule for an opportunity." in
  Cmd.v
    (Cmd.info "schedule" ~doc)
    Term.(ret (const run $ cost $ lifespan $ interrupts $ regime))

(* --- evaluate ------------------------------------------------------------- *)

let evaluate_cmd =
  let periods_arg =
    let doc =
      "Evaluate a custom committed schedule instead of a named policy: \
       comma-separated period lengths summing to U (non-adaptive tail \
       semantics apply)."
    in
    Arg.(value & opt (some string) None & info [ "periods" ] ~docv:"T1,T2,..." ~doc)
  in
  let parse_periods text =
    try
      Ok
        (List.map (fun x -> float_of_string (String.trim x))
           (String.split_on_char ',' text))
    with Failure _ -> Error (Error.Invalid_params "periods must be numeric")
  in
  let custom_policy u text =
    Result.bind (parse_periods text) (fun periods ->
        Error.guard (fun () ->
            let s = Schedule.of_list periods in
            if Float.abs (Schedule.total s -. u) > 1e-6 *. u then
              Error.invalidf "periods sum to %g, not U = %g" (Schedule.total s)
                u
            else Policy.rename (Policy.non_adaptive ~committed:s) "custom"))
  in
  let run c u p policy_name periods json =
    validate ~json ~c ~u ~p (fun params opp ->
        if json then begin
          let parsed =
            match periods with
            | None -> Ok None
            | Some text -> Result.map Option.some (parse_periods text)
          in
          match parsed with
          | Error e -> fail ~json e
          | Ok periods ->
            print_protocol_result
              (Service.Protocol.Evaluate
                 { c; u; p; policy = policy_name; periods })
        end
        else
        let policy =
          match periods with
          | Some text -> custom_policy u text
          | None -> policy_of_name params opp policy_name
        in
        match policy with
        | Error e -> fail e
        | Ok policy ->
          let grid = Engine.Planner.default_grid ~u in
          let solver = Game.Solver.create ?grid params opp policy in
          let g = Game.Solver.guaranteed solver in
          let adv = Game.Solver.adversary solver in
          let outcome = Game.run params opp policy adv in
          Printf.printf "policy:            %s\n" (Policy.name policy);
          Printf.printf "guaranteed work:   %.6g  (%.2f%% of U)\n" g
            (100. *. g /. u);
          Printf.printf "loss (U - W):      %.6g  (= %.3f * sqrt(2cU))\n"
            (u -. g)
            ((u -. g) /. Float.sqrt (2. *. c *. u));
          Printf.printf "episodes played:   %d\n" (List.length outcome.Game.episodes);
          Printf.printf "interrupts used:   %d of %d\n" outcome.Game.interrupts_used p;
          List.iteri
            (fun i (e : Game.episode_record) ->
               Printf.printf "  episode %d: start %.4g, %d periods, %s, work %.6g\n"
                 (i + 1) e.Game.start_elapsed
                 (Schedule.length e.Game.planned)
                 (match e.Game.outcome with
                  | Game.Completed -> "completed"
                  | Game.Interrupted { period; fraction } ->
                    Printf.sprintf "killed in period %d (fraction %.2f)" period
                      fraction)
                 e.Game.work)
            outcome.Game.episodes;
          print_newline ();
          print_string (Game.render_timeline params opp outcome);
          `Ok ())
  in
  let doc =
    "Compute a policy's guaranteed work and replay the optimal adversary."
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc)
    Term.(
      ret
        (const run $ cost $ lifespan $ interrupts $ policy_arg $ periods_arg
         $ json_flag))

(* --- dp -------------------------------------------------------------------- *)

let dp_cmd =
  let ticks =
    let doc = "Setup cost in integer grid ticks." in
    Arg.(value & opt int 10 & info [ "c-ticks" ] ~docv:"TICKS" ~doc)
  in
  let max_l =
    let doc = "Largest lifespan (in ticks) to solve." in
    Arg.(value & opt int 2000 & info [ "l"; "max-l" ] ~docv:"L" ~doc)
  in
  let run c_ticks max_l p =
    if c_ticks < 1 then fail (Error.Invalid_params "c-ticks must be >= 1")
    else if p < 0 then fail (Error.Invalid_params "p must be non-negative")
    else if max_l < 0 then fail (Error.Invalid_params "max-l must be non-negative")
    else if not (Dp.fits ~max_p:p ~max_l) then
      fail
        (Error.Invalid_params
           (Printf.sprintf "p and max-l need a table of more than %d cells"
              Dp.max_cells))
    else begin
      let dp = Dp.solve ~c:c_ticks ~max_p:p ~max_l in
      let t =
        Csutil.Table.create
          ~title:
            (Printf.sprintf "Exact optimum W(p)[L] in ticks (c = %d)" c_ticks)
          ~aligns:Csutil.Table.[ Right; Right; Right; Right ]
          [ "L"; "W(p)[L]"; "loss coeff a-hat"; "optimal episode (head)" ]
      in
      let points =
        List.filter (fun l -> l <= max_l)
          [ max_l / 10; max_l / 4; max_l / 2; (3 * max_l) / 4; max_l ]
      in
      List.iter
        (fun l ->
           if l > 0 then begin
             let w = Dp.value dp ~p ~l in
             let a =
               float_of_int (l - w)
               /. Float.sqrt (2. *. float_of_int c_ticks *. float_of_int l)
             in
             let ep = Dp.optimal_episode dp ~p ~l in
             let head =
               ep |> List.filteri (fun i _ -> i < 8)
               |> List.map string_of_int |> String.concat ","
             in
             let head = if List.length ep > 8 then head ^ ",..." else head in
             Csutil.Table.add_row t
               [
                 string_of_int l; string_of_int w;
                 Csutil.Table.cell_float ~prec:4 a; head;
               ]
           end)
        points;
      Csutil.Table.print t;
      Printf.printf "\nrecursion target a_%d = %.4f  (a_p = a_(p-1) + 1/a_p)\n" p
        (Adaptive.optimal_coefficient ~p);
      `Ok ()
    end
  in
  let doc = "Solve the exact guaranteed-output game on an integer grid." in
  Cmd.v (Cmd.info "dp" ~doc) Term.(ret (const run $ ticks $ max_l $ interrupts))

(* --- strategies ------------------------------------------------------------- *)

let strategies_cmd =
  let run json =
    if json then print_protocol_result Service.Protocol.Strategies
    else begin
      let t =
        Csutil.Table.create ~title:"Registered strategies"
          ~aligns:Csutil.Table.[ Left; Left; Left; Left; Left ]
          [ "name"; "kind"; "paper"; "aliases"; "summary" ]
      in
      List.iter
        (fun (pl : Engine.Planner.t) ->
           Csutil.Table.add_row t
             [
               pl.Engine.Planner.name;
               Engine.Planner.kind_to_string pl.Engine.Planner.kind;
               pl.Engine.Planner.paper;
               String.concat ", " pl.Engine.Planner.aliases;
               pl.Engine.Planner.summary;
             ])
        (Engine.Registry.all ());
      Csutil.Table.print t;
      Printf.printf "\nschedule regimes: %s\n"
        (String.concat " | " (Engine.Registry.regime_names ()));
      `Ok ()
    end
  in
  let doc = "List the strategy registry (names, kinds, paper sections)." in
  Cmd.v (Cmd.info "strategies" ~doc) Term.(ret (const run $ json_flag))

(* --- table1 / table2 -------------------------------------------------------- *)

let table1_cmd =
  let run c u p =
    validate ~c ~u ~p (fun params opp ->
        if p < 1 then fail (Error.Invalid_params "table1 needs p >= 1")
        else begin
          let s = Engine.Registry.episode_schedule params ~u ~p "adaptive" in
          let adaptive = Engine.Registry.policy params opp "adaptive" in
          let w_prev ~residual =
            if residual <= c then 0.
            else Game.guaranteed_at params opp adaptive ~p:(p - 1) ~residual
          in
          Csutil.Table.print (Analysis.table1 params s ~u ~w_prev);
          `Ok ()
        end)
  in
  let doc = "Reproduce the paper's Table 1 for a concrete scenario." in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(ret (const run $ cost $ lifespan $ interrupts))

let table2_cmd =
  let run c u =
    validate ~c ~u ~p:1 (fun params _ ->
        Csutil.Table.print (Analysis.table2 params ~u);
        `Ok ())
  in
  let doc = "Reproduce the paper's Table 2 (p = 1 parameter values)." in
  Cmd.v (Cmd.info "table2" ~doc) Term.(ret (const run $ cost $ lifespan))

(* --- sweep ------------------------------------------------------------------ *)

let sweep_cmd =
  let max_p =
    let doc = "Sweep p from 0 to this bound." in
    Arg.(value & opt int 4 & info [ "max-p" ] ~docv:"P" ~doc)
  in
  let run c u max_p =
    validate ~c ~u ~p:max_p (fun params _ ->
        let t =
          Csutil.Table.create
            ~title:
              (Printf.sprintf
                 "Guaranteed work by interrupt budget (U = %g, c = %g)" u c)
            ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right ]
            [ "p"; "nonadaptive"; "adaptive (printed)"; "calibrated"; "calibrated %U" ]
        in
        for p = 0 to max_p do
          let opp = Model.opportunity ~lifespan:u ~interrupts:p in
          let grid = u /. 2e5 in
          let w_of name = Engine.Registry.guarantee ~grid params opp name in
          let w_na = w_of "nonadaptive" in
          let w_ad = w_of "adaptive" in
          let w_cal = w_of "calibrated" in
          Csutil.Table.add_row t
            [
              string_of_int p;
              Csutil.Table.cell_float ~prec:2 w_na;
              Csutil.Table.cell_float ~prec:2 w_ad;
              Csutil.Table.cell_float ~prec:2 w_cal;
              Csutil.Table.cell_pct ~prec:1 (w_cal /. u);
            ]
        done;
        Csutil.Table.print t;
        `Ok ())
  in
  let doc = "Sweep the interrupt budget and compare regimes." in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(ret (const run $ cost $ lifespan $ max_p))

(* --- simulate ----------------------------------------------------------------- *)

let simulate_cmd =
  let owner_kind =
    let doc = "Owner model: adversary | poisson | shifts | none." in
    Arg.(value & opt string "adversary" & info [ "owner" ] ~docv:"OWNER" ~doc)
  in
  let rate =
    let doc = "Poisson interrupt rate (interrupts per time unit)." in
    Arg.(value & opt float 0.01 & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let stations =
    let doc = "Number of borrowed workstations in the farm." in
    Arg.(value & opt int 1 & info [ "stations" ] ~docv:"N" ~doc)
  in
  let task_size =
    let doc = "Mean task size for the synthetic data-parallel workload." in
    Arg.(value & opt float 0.1 & info [ "task-size" ] ~docv:"SIZE" ~doc)
  in
  let run c u p policy_name owner_kind rate stations task_size seed =
    validate ~c ~u ~p (fun params opp ->
        if stations < 1 then fail (Error.Invalid_params "stations must be >= 1")
        else if task_size <= 0. then
          fail (Error.Invalid_params "task-size must be positive")
        else begin
          match policy_of_name params opp policy_name with
          | Error e -> fail e
          | Ok policy ->
            let rng = Csutil.Rng.create ~seed in
            let owner_for _station =
              match owner_kind with
              | "none" -> Ok Adversary.none
              | "adversary" ->
                let grid = if u > 5_000. then Some (u /. 1e5) else None in
                Ok (Game.optimal_adversary ?grid params opp policy)
              | "poisson" ->
                let trace =
                  Workload.Interrupt_trace.poisson ~rng:(Csutil.Rng.split rng) ~u
                    ~rate ~p
                in
                Ok (Workload.Interrupt_trace.to_adversary trace)
              | "shifts" ->
                let trace =
                  Workload.Interrupt_trace.shifts ~u
                    ~fractions:(List.init p (fun i ->
                        float_of_int (i + 1) /. float_of_int (p + 1)))
                in
                Ok (Workload.Interrupt_trace.to_adversary trace)
              | other ->
                Error
                  (Error.Unknown_name
                     {
                       kind = "owner";
                       name = other;
                       known = [ "adversary"; "poisson"; "shifts"; "none" ];
                     })
            in
            let specs =
              List.init stations (fun i ->
                  match owner_for i with
                  | Ok owner ->
                    Ok
                      (Nowsim.Farm.spec
                         ~name:(Printf.sprintf "B%d" (i + 1))
                         ~opportunity:opp ~policy ~owner ())
                  | Error e -> Error e)
            in
            (match
               List.fold_right
                 (fun s acc ->
                    match (s, acc) with
                    | Ok s, Ok acc -> Ok (s :: acc)
                    | (Error e, _ | _, Error e) -> Error e)
                 specs (Ok [])
             with
             | Error e -> fail e
             | Ok specs ->
               let dist = Workload.Distribution.exponential ~mean:task_size in
               let bag =
                 Workload.Task.generate_total ~rng ~dist
                   ~total:(2. *. u *. float_of_int stations)
               in
               let report = Nowsim.Farm.run params ~bag specs in
               Format.printf "%a@." Nowsim.Metrics.pp_summary
                 report.Nowsim.Farm.summary;
               let t =
                 Csutil.Table.create ~title:"Per-station results"
                   ~aligns:
                     Csutil.Table.[ Left; Right; Right; Right; Right; Right; Right ]
                   [
                     "station"; "episodes"; "interrupts"; "model work";
                     "task work"; "tasks"; "wasted";
                   ]
               in
               List.iter
                 (fun m ->
                    Csutil.Table.add_row t
                      [
                        Nowsim.Metrics.station m;
                        string_of_int (Nowsim.Metrics.episodes m);
                        string_of_int (Nowsim.Metrics.interrupts m);
                        Csutil.Table.cell_float ~prec:2 (Nowsim.Metrics.model_work m);
                        Csutil.Table.cell_float ~prec:2 (Nowsim.Metrics.task_work m);
                        string_of_int (Nowsim.Metrics.tasks_completed m);
                        Csutil.Table.cell_float ~prec:2 (Nowsim.Metrics.wasted_time m);
                      ])
                 report.Nowsim.Farm.per_station;
               Csutil.Table.print t;
               `Ok ())
        end)
  in
  let doc = "Run the NOW discrete-event simulator on a synthetic workload." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const (fun () -> run) $ logs_term $ cost $ lifespan $ interrupts
         $ policy_arg $ owner_kind $ rate $ stations $ task_size $ seed))

(* --- advise ------------------------------------------------------------------- *)

let advise_cmd =
  let run c u p json =
    validate ~json ~c ~u ~p (fun params opp ->
        match Service.Protocol.check_advise ~p with
        | Error e -> fail ~json e
        | Ok () ->
        if json then print_protocol_result (Service.Protocol.Advise { c; u; p })
        else
        let advice = Guidelines.advise params opp in
        Printf.printf "opportunity:         U = %g, p = %d, c = %g\n" u p c;
        Printf.printf "degenerate (4.1c):   %b\n" (Model.is_degenerate params opp);
        Printf.printf "nonadaptive bound:   %.6g\n" advice.Guidelines.nonadaptive_bound;
        Printf.printf "adaptive bound:      %.6g\n" advice.Guidelines.adaptive_bound;
        Printf.printf "calibrated target:   %.6g\n"
          (Adaptive.calibrated_bound params ~u ~p);
        Format.printf "recommendation:      %a (edge %.6g)@."
          Guidelines.pp_regime advice.Guidelines.recommended
          advice.Guidelines.advantage;
        `Ok ())
  in
  let doc = "Compare regimes and recommend one for an opportunity." in
  Cmd.v (Cmd.info "advise" ~doc)
    Term.(ret (const run $ cost $ lifespan $ interrupts $ json_flag))

(* --- checkpoint ------------------------------------------------------------------ *)

let checkpoint_cmd =
  let hopt =
    let doc = "Cost of one intermediate checkpoint (0 < h <= c)." in
    Arg.(value & opt float 0.1 & info [ "checkpoint-cost" ] ~docv:"H" ~doc)
  in
  let run c u p h =
    validate ~c ~u ~p (fun params _opp ->
        if h <= 0. || h > c then
          fail (Error.Invalid_params "checkpoint cost must satisfy 0 < h <= c")
        else begin
          let cp = Checkpointing.params params ~h in
          let t =
            Csutil.Table.create
              ~title:
                (Printf.sprintf
                   "Cheap checkpoints: U = %g, c = %g, h = %g (closed forms)" u c h)
              ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right ]
              [ "p"; "segment s*"; "W with checkpoints"; "W base model"; "loss ratio" ]
          in
          for q = 1 to p do
            Csutil.Table.add_row t
              [
                string_of_int q;
                Csutil.Table.cell_float ~prec:2 (Checkpointing.optimal_segment cp ~u ~p:q);
                Csutil.Table.cell_float ~prec:2 (Checkpointing.closed_form cp ~u ~p:q);
                Csutil.Table.cell_float ~prec:2 (Checkpointing.base_model_bound cp ~u ~p:q);
                Csutil.Table.cell_float ~prec:3 (Checkpointing.loss_ratio cp ~u ~p:q);
              ]
          done;
          Csutil.Table.print t;
          `Ok ()
        end)
  in
  let doc = "Quantify the value of cheap intermediate checkpoints (h <= c)." in
  Cmd.v (Cmd.info "checkpoint" ~doc)
    Term.(ret (const run $ cost $ lifespan $ interrupts $ hopt))

(* --- expected ------------------------------------------------------------------- *)

let expected_cmd =
  let risk_kind =
    let doc = "Risk model for the reclaim time: exponential | uniform | weibull." in
    Arg.(value & opt string "exponential" & info [ "risk" ] ~docv:"RISK" ~doc)
  in
  let mean_arg =
    let doc = "Mean reclaim time (exponential) / horizon (uniform) / scale (weibull)." in
    Arg.(value & opt float 0. & info [ "mean" ] ~docv:"T" ~doc)
  in
  let shape_arg =
    let doc = "Weibull shape (< 1 decreasing hazard, > 1 increasing)." in
    Arg.(value & opt float 2. & info [ "shape" ] ~docv:"K" ~doc)
  in
  let run c u p risk_kind mean shape =
    validate ~c ~u ~p (fun params _opp ->
        let mean = if mean > 0. then mean else u /. 2. in
        let risk =
          match risk_kind with
          | "exponential" -> Ok (Expected.exponential ~rate:(1. /. mean))
          | "uniform" -> Ok (Expected.uniform ~horizon:mean)
          | "weibull" -> Ok (Expected.weibull ~scale:mean ~shape)
          | other ->
            Error
              (Error.Unknown_name
                 {
                   kind = "risk";
                   name = other;
                   known = [ "exponential"; "uniform"; "weibull" ];
                 })
        in
        match risk with
        | Error e -> fail e
        | Ok risk ->
          let s_dp, e_dp = Expected.optimal_schedule_dp params risk ~horizon:u ~steps:800 in
          let s_gua = Engine.Registry.episode_schedule params ~u ~p "nonadaptive" in
          let t =
            Csutil.Table.create
              ~title:
                (Format.asprintf
                   "Expected vs guaranteed output; risk %a, U = %g, c = %g"
                   Expected.pp_risk risk u c)
              ~aligns:Csutil.Table.[ Left; Right; Right; Right ]
              [ "schedule"; "m"; "E[W]"; "guaranteed W" ]
          in
          List.iter
            (fun (name, s) ->
               Csutil.Table.add_row t
                 [
                   name;
                   string_of_int (Schedule.length s);
                   Csutil.Table.cell_float ~prec:2 (Expected.expected_work params risk s);
                   Csutil.Table.cell_float ~prec:2
                     (fst (Nonadaptive.worst_case params ~u ~p s));
                 ])
            [
              ("expected-optimal (DP)", s_dp);
              ("guaranteed guideline", s_gua);
              ("one long period", Schedule.singleton u);
            ];
          Csutil.Table.print t;
          Printf.printf "\nexpected-optimal value (grid DP): %.2f\n" e_dp;
          `Ok ())
  in
  let doc = "Explore the expected-output facet of the model (companion paper)." in
  Cmd.v (Cmd.info "expected" ~doc)
    Term.(ret (const run $ cost $ lifespan $ interrupts $ risk_kind $ mean_arg $ shape_arg))

(* --- plan ------------------------------------------------------------------------ *)

let plan_cmd =
  let stations_arg =
    let doc =
      "A station as U,p[,c[,speed]] (lifespan, interrupt bound, optional \
       setup cost defaulting to --cost, optional relative compute speed \
       defaulting to 1).  Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "station" ] ~docv:"U,P[,C]" ~doc)
  in
  let job_arg =
    let doc = "Job size (work units) that must be guaranteed to complete." in
    Arg.(value & opt float 1000. & info [ "job" ] ~docv:"W" ~doc)
  in
  let measured =
    let doc = "Use exact minimax floors instead of the closed form." in
    Arg.(value & flag & info [ "measured" ] ~doc)
  in
  let parse_station default_c i text =
    match String.split_on_char ',' text with
    | ([ _; _ ] | [ _; _; _ ] | [ _; _; _; _ ]) as parts ->
      (try
         let nums = List.map (fun x -> float_of_string (String.trim x)) parts in
         let u, p, c, speed =
           match nums with
           | [ u; p ] -> (u, p, default_c, 1.)
           | [ u; p; c ] -> (u, p, c, 1.)
           | [ u; p; c; s ] -> (u, p, c, s)
           | _ -> assert false
         in
         let p = int_of_float p in
         if u <= 0. || p < 0 || c <= 0. || speed <= 0. then
           Error (text ^ ": out of range")
         else
           Ok
             (Capacity.station ~speed
                ~name:(Printf.sprintf "ws%d" (i + 1))
                ~params:(Model.params ~c)
                ~opportunity:(Model.opportunity ~lifespan:u ~interrupts:p)
                ())
       with Failure _ -> Error (text ^ ": not numeric"))
    | _ -> Error (text ^ ": want U,p or U,p,c or U,p,c,speed")
  in
  let run default_c job measured stations =
    if stations = [] then
      `Error (false, "need at least one --station U,p[,c]")
    else if job <= 0. then `Error (false, "job must be positive")
    else begin
      let parsed = List.mapi (parse_station default_c) stations in
      match
        List.fold_right
          (fun s acc ->
             match (s, acc) with
             | Ok s, Ok acc -> Ok (s :: acc)
             | (Error e, _ | _, Error e) -> Error e)
          parsed (Ok [])
      with
      | Error e -> `Error (false, e)
      | Ok stations ->
        let estimator = if measured then `Measured else `Closed_form in
        let plan = Capacity.plan ~estimator ~job stations in
        Format.printf "%a@." Capacity.pp_plan plan;
        if plan.Capacity.total_floor > 0. then begin
          Printf.printf "proportional shares:\n";
          List.iter
            (fun (st, share) ->
               Printf.printf "  %s: %.6g work units\n" st.Capacity.name share)
            (Capacity.shares plan)
        end;
        Printf.printf "max guaranteed job for this set: %.6g\n"
          (Capacity.max_guaranteed_job ~estimator stations);
        `Ok ()
    end
  in
  let doc = "Plan a guaranteed job across a heterogeneous set of stations." in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(ret (const run $ cost $ job_arg $ measured $ stations_arg))

(* --- precompute ------------------------------------------------------------------ *)

(* Sweep a (c, u, policy, p, L) grid through the daemon's own
   evaluation path with a bank plugged in: every table the sweep solves
   is written behind as a snapshot, so a later `cschedd --bank DIR`
   answers the same keys from mapped pages without filling a cell. *)
let precompute_cmd =
  let bank_arg =
    let doc =
      "Bank directory to fill (created, parents included, when missing)."
    in
    Arg.(
      required & opt (some string) None & info [ "bank" ] ~docv:"DIR" ~doc)
  in
  let c_ticks_arg =
    let doc = "Tick costs (comma-separated) of the DP tables to bank." in
    Arg.(value & opt (list int) [ 10 ] & info [ "c-ticks" ] ~docv:"C,..." ~doc)
  in
  let l_arg =
    let doc = "Lifespan bound L each banked DP table covers." in
    Arg.(value & opt int 4096 & info [ "dp-l" ] ~docv:"L" ~doc)
  in
  let max_p_arg =
    let doc = "Interrupt bound each banked DP table covers." in
    Arg.(value & opt int 4 & info [ "max-p" ] ~docv:"P" ~doc)
  in
  let costs_arg =
    let doc = "Setup costs c (comma-separated) of the game memos to bank." in
    Arg.(value & opt (list float) [ 1. ] & info [ "costs" ] ~docv:"C,..." ~doc)
  in
  let lifespans_arg =
    let doc =
      "Lifespans U (comma-separated) of the game memos to bank.  Only \
       gridded evaluations (U above the exact/grid threshold) are \
       banked; smaller lifespans are skipped with a note."
    in
    Arg.(
      value & opt (list float) [ 20_000. ]
      & info [ "lifespans" ] ~docv:"U,..." ~doc)
  in
  let policies_arg =
    let doc = "Strategies (comma-separated) whose game memos to bank." in
    Arg.(
      value
      & opt (list string) [ "adaptive" ]
      & info [ "policies" ] ~docv:"NAME,..." ~doc)
  in
  let game_p_arg =
    let doc = "Interrupt budgets (comma-separated) of the game memos." in
    Arg.(value & opt (list int) [ 2 ] & info [ "game-p" ] ~docv:"P,..." ~doc)
  in
  let domains_arg =
    let doc = "Maximum domains used to run the sweep in parallel." in
    Arg.(
      value
      & opt int (Csutil.Par.available_domains ())
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let run bank_dir c_ticks l max_p costs lifespans policies game_ps domains
      json =
    if l < 0 then fail ~json (Error.Invalid_params "l must be non-negative")
    else if max_p < 0 then
      fail ~json (Error.Invalid_params "max-p must be non-negative")
    else if domains < 1 then
      fail ~json (Error.Invalid_params "domains must be >= 1")
    else begin
      match Store.Bank.open_dir ~create:true bank_dir with
      | Error e -> fail ~json e
      | Ok bank ->
        let pool = Csutil.Par.Pool.create ~domains in
        let cache =
          Service.Cache.create ~pool ~bank
            ~capacity:
              (max 1
                 (List.length c_ticks
                 + List.length costs * List.length lifespans
                   * List.length policies * List.length game_ps))
            ()
        in
        let dp_jobs =
          List.map
            (fun c -> Service.Protocol.Dp_query { c_ticks = c; l; p = max_p })
            c_ticks
        in
        let game_jobs, skipped =
          List.fold_left
            (fun (jobs, skipped) (c, u, policy, p) ->
              match Engine.Planner.default_grid ~u with
              | None -> (jobs, (u, policy) :: skipped)
              | Some _ ->
                ( Service.Protocol.Evaluate { c; u; p; policy; periods = None }
                  :: jobs,
                  skipped ))
            ([], [])
            (List.concat_map
               (fun c ->
                 List.concat_map
                   (fun u ->
                     List.concat_map
                       (fun policy ->
                         List.map (fun p -> (c, u, policy, p)) game_ps)
                       policies)
                   lifespans)
               costs)
        in
        let jobs = Array.of_list (dp_jobs @ List.rev game_jobs) in
        (* Through Batch, as the daemon does: each cache identity is
           fetched or held once (every budget of a state-only policy
           shares one solver), and distinct identities fan out over
           the pool. *)
        let outcomes =
          Service.Batch.run_parsed ~pool ~cache
            (Array.mapi
               (fun i req ->
                 { Service.Protocol.id = Service.Json.Int i; request = Ok req })
               jobs)
        in
        let failed =
          Array.to_list outcomes
          |> List.filter_map (fun (o : Service.Batch.outcome) ->
                 match o.Service.Batch.result with
                 | Ok _ -> None
                 | Error e -> Some e)
        in
        let counters = Store.Bank.counters bank in
        let trouble =
          match (failed, Store.Bank.last_error bank) with
          | e :: _, _ -> Some (Error.to_string e)
          | [], Some e when counters.Store.Bank.save_failures > 0 -> Some e
          | [], _ -> None
        in
        if json then
          print_endline
            (Service.Json.to_string
               (Service.Json.Obj
                  ([
                     ("bank", Service.Json.String (Store.Bank.dir bank));
                     ("jobs", Service.Json.Int (Array.length jobs));
                     ( "skipped_ungridded",
                       Service.Json.Int (List.length skipped) );
                     ("failed", Service.Json.Int (List.length failed));
                     ( "snapshots_written",
                       Service.Json.Int counters.Store.Bank.saves );
                     ( "save_failures",
                       Service.Json.Int counters.Store.Bank.save_failures );
                   ]
                  @
                  match trouble with
                  | None -> []
                  | Some e -> [ ("error", Service.Json.String e) ])))
        else begin
          let t =
            Csutil.Table.create
              ~title:(Printf.sprintf "precomputed bank %s" (Store.Bank.dir bank))
              ~aligns:Csutil.Table.[ Left; Right ]
              [ "metric"; "value" ]
          in
          Csutil.Table.add_row t [ "jobs"; string_of_int (Array.length jobs) ];
          Csutil.Table.add_row t
            [ "snapshots written"; string_of_int counters.Store.Bank.saves ];
          Csutil.Table.add_row t
            [
              "save failures"; string_of_int counters.Store.Bank.save_failures;
            ];
          Csutil.Table.add_row t
            [ "failed jobs"; string_of_int (List.length failed) ];
          Csutil.Table.add_row t
            [ "skipped (ungridded)"; string_of_int (List.length skipped) ];
          Csutil.Table.print t;
          List.iter
            (fun (u, policy) ->
              Printf.printf
                "note: skipped %s at U = %g — exact (ungridded) evaluation \
                 is not banked\n"
                policy u)
            (List.rev skipped)
        end;
        match trouble with
        | Some e when not json ->
          `Error (false, "precompute: " ^ e)
        | Some _ -> exit 1
        | None -> `Ok ()
    end
  in
  let doc =
    "Precompute a persistent memo bank: solve a (c, u, policy, p, L) grid \
     and snapshot every table for $(b,cschedd --bank)."
  in
  Cmd.v
    (Cmd.info "precompute" ~doc)
    Term.(
      ret
        (const run $ bank_arg $ c_ticks_arg $ l_arg $ max_p_arg $ costs_arg
        $ lifespans_arg $ policies_arg $ game_p_arg $ domains_arg $ json_flag))

(* --- main ----------------------------------------------------------------------- *)

let () =
  let doc =
    "Near-optimal schedules for data-parallel cycle-stealing in NOWs \
     (Rosenberg, IPPS 1999)."
  in
  let info = Cmd.info "csched" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            schedule_cmd; evaluate_cmd; dp_cmd; strategies_cmd; table1_cmd;
            table2_cmd; sweep_cmd; simulate_cmd; advise_cmd; checkpoint_cmd;
            expected_cmd; plan_cmd; precompute_cmd;
          ]))
