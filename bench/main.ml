(* Benchmark & reproduction harness.

   Regenerates every table of Rosenberg (IPPS 1999) plus the experiment
   series E3-E7 catalogued in DESIGN.md, and runs Bechamel
   micro-benchmarks of the library's hot paths.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- tables       -- Table 1 and Table 2 only
     dune exec bench/main.exe -- series e3    -- one experiment series
     dune exec bench/main.exe -- bechamel     -- micro-benchmarks only
     dune exec bench/main.exe -- --csv DIR    -- also write tables as CSV

   EXPERIMENTS.md records the paper-vs-measured comparison for each
   section printed here. *)

open Cyclesteal

let csv_dir = ref None

let emit ?slug table =
  Csutil.Table.print table;
  print_newline ();
  match !csv_dir with
  | None -> ()
  | Some dir ->
    let slug =
      match slug with
      | Some s -> s
      | None -> Printf.sprintf "table_%08x" (Hashtbl.hash (Csutil.Table.to_csv table))
    in
    Csutil.Table.save_csv table (Filename.concat dir (slug ^ ".csv"))

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "%s\n%s\n\n" title bar

(* Durations are read on the monotonic clock: the wall clock steps
   under NTP, and an interval measured across a step is garbage. *)
let time f =
  let t0 = Csutil.Clock.now () in
  let v = f () in
  (Csutil.Clock.now () -. t0, v)

(* The fastest of [runs] timed calls, with that call's result. *)
let time_min ~runs f =
  let best = ref infinity and out = ref None in
  for _ = 1 to runs do
    let dt, v = time f in
    if dt < !best then begin
      best := dt;
      out := Some v
    end
  done;
  (!best, Option.get !out)

(* The end of a [--quick] runtest smoke started at [t0]: the seconds it
   took, or exit 1 past the generous 120 s bound that only a badly
   broken kernel (or machine) blows. *)
let quick_elapsed ~what t0 =
  let dt = Csutil.Clock.now () -. t0 in
  if dt > 120. then begin
    Printf.eprintf "bench %s exceeded its 120 s bound: %.1f s\n" what dt;
    exit 1
  end;
  dt

(* --- Table 1 ------------------------------------------------------------ *)

(* The paper's Table 1 is symbolic; we instantiate it for a concrete
   scenario (U = 100, p = 2, c = 1) with the adaptive guideline's first
   episode, using the measured guaranteed continuation W^(p-1) for the
   "opportunity work production" column. *)
let table1 () =
  heading "Table 1 -- consequences of the adversary's options (E1)";
  let params = Model.params ~c:1. in
  let u = 100. and p = 2 in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let s = Engine.Registry.episode_schedule params ~u ~p "adaptive" in
  let adaptive = Engine.Registry.policy params opp "adaptive" in
  let w_prev ~residual =
    if residual <= Model.c params then 0.
    else Game.guaranteed_at params opp adaptive ~p:(p - 1) ~residual
  in
  emit ~slug:"table1" (Analysis.table1 params s ~u ~w_prev);
  (* The paper's Observation (b): some interrupt option is at least as
     damaging as letting the episode run, so the adversary always
     interrupts (as long as p > 0 and U > c). *)
  let no_interrupt = Schedule.work_if_uninterrupted params s in
  let best_kill =
    List.fold_left
      (fun acc k ->
         Float.min acc
           (Schedule.work_before params s k
            +. w_prev ~residual:(u -. Schedule.end_time s k)))
      infinity
      (List.init (Schedule.length s) (fun i -> i + 1))
  in
  Printf.printf
    "Observation (b) check: best interrupt option %.2f <= no-interrupt %.2f\n\
     -- the optimal adversary always interrupts: %b.\n\n"
    best_kill no_interrupt (best_kill <= no_interrupt)

(* --- Table 2 ------------------------------------------------------------ *)

let table2 () =
  heading "Table 2 -- parameter values for p = 1 (E2)";
  let params = Model.params ~c:1. in
  List.iter (fun u -> emit (Analysis.table2 params ~u)) [ 1_000.; 10_000.; 100_000. ];
  let params10 = Model.params ~c:10. in
  emit (Analysis.table2 params10 ~u:10_000.);
  (* Cross-check the W(1)[U] row against the exact integer DP. *)
  let dp = Dp.solve ~c:10 ~max_p:1 ~max_l:4000 in
  let t =
    Csutil.Table.create ~title:"W(1)[U] cross-check vs exact DP (c = 10)"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right ]
      [ "U"; "DP optimum"; "S_opt measured"; "paper formula" ]
  in
  List.iter
    (fun l ->
       let u = float_of_int l in
       Csutil.Table.add_row t
         [
           Printf.sprintf "%.0f" u;
           string_of_int (Dp.value dp ~p:1 ~l);
           Csutil.Table.cell_float ~prec:1 (Opt_p1.exact_work params10 ~u);
           Csutil.Table.cell_float ~prec:1 (Opt_p1.closed_form params10 ~u);
         ])
    [ 500; 1000; 2000; 4000 ];
  emit t

(* --- E3: Theorem 5.1 guaranteed work of the adaptive schedules ----------- *)

let series_e3 () =
  heading "E3 -- guaranteed work of adaptive schedules vs Theorem 5.1";
  let params = Model.params ~c:1. in
  let t =
    Csutil.Table.create
      ~title:
        "Measured guaranteed work (optimal adversary) vs bounds; c = 1.\n\
         a-hat = (U - W) / sqrt(2cU) is the measured loss coefficient."
      ~aligns:
        Csutil.Table.[ Right; Right; Right; Right; Right; Right; Right; Right ]
      [
        "U"; "p"; "W printed S_a"; "W calibrated"; "printed bound";
        "a-hat printed"; "a-hat calibrated"; "a_p (DP recursion)";
      ]
  in
  List.iter
    (fun (u, p) ->
       let grid = u /. 2e5 in
       let opp = Model.opportunity ~lifespan:u ~interrupts:p in
       let w_pr = Engine.Registry.guarantee ~grid params opp "adaptive" in
       let w_cal = Engine.Registry.guarantee ~grid params opp "calibrated" in
       let coeff w = (u -. w) /. Float.sqrt (2. *. u) in
       Csutil.Table.add_row t
         [
           Printf.sprintf "%.0f" u;
           string_of_int p;
           Csutil.Table.cell_float ~prec:2 w_pr;
           Csutil.Table.cell_float ~prec:2 w_cal;
           Csutil.Table.cell_float ~prec:2 (Adaptive.lower_bound params ~u ~p);
           Csutil.Table.cell_float ~prec:3 (coeff w_pr);
           Csutil.Table.cell_float ~prec:3 (coeff w_cal);
           Csutil.Table.cell_float ~prec:3 (Adaptive.optimal_coefficient ~p);
         ])
    [
      (1_000., 1); (10_000., 1); (100_000., 1);
      (1_000., 2); (10_000., 2); (100_000., 2);
      (10_000., 3); (100_000., 3); (10_000., 4);
    ];
  emit t;
  Printf.printf
    "Shape: at p = 1 both constructions meet the printed bound (loss\n\
     coefficient -> 1).  For p >= 2 the printed Theorem 5.1 coefficient\n\
     (2 - 2^(1-p)) lies BELOW the exact optimum's coefficient a_p\n\
     (a_p = a_(p-1) + 1/a_p, measured by the DP), so it is unachievable as\n\
     printed; the calibrated construction tracks a_p.  See EXPERIMENTS.md.\n\n"

(* --- E4: non-adaptive guideline analysis --------------------------------- *)

let series_e4 () =
  heading "E4 -- non-adaptive guideline vs Section 3.1 closed form";
  let params = Model.params ~c:1. in
  let t =
    Csutil.Table.create
      ~title:"Worst case of S_na (exact adversary DP) vs closed forms; c = 1"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right; Right; Right ]
      [
        "U"; "p"; "m"; "measured worst"; "U-2sqrt(pcU)+pc";
        "U-sqrt(2pcU)+pc (as printed)"; "best equal-m (exhaustive)";
      ]
  in
  List.iter
    (fun (u, p) ->
       let s = Engine.Registry.episode_schedule params ~u ~p "nonadaptive" in
       let worst, _ = Nonadaptive.worst_case params ~u ~p s in
       let best_m, best_w =
         Nonadaptive.best_equal_period_count params ~u ~p
           ~max_m:(4 * Schedule.length s)
       in
       Csutil.Table.add_row t
         [
           Printf.sprintf "%.0f" u;
           string_of_int p;
           string_of_int (Schedule.length s);
           Csutil.Table.cell_float ~prec:2 worst;
           Csutil.Table.cell_float ~prec:2 (Nonadaptive.closed_form params ~u ~p);
           Csutil.Table.cell_float ~prec:2
             (Nonadaptive.closed_form_as_printed params ~u ~p);
           Printf.sprintf "%.2f (m=%d)" best_w best_m;
         ])
    [ (100., 1); (1_000., 1); (10_000., 1); (1_000., 2); (10_000., 2); (10_000., 4) ];
  emit t;
  Printf.printf
    "Shape: measured worst case matches U - 2 sqrt(pcU) + pc up to O(c)\n\
     rounding and the guideline's m is within O(1) of the exhaustive best,\n\
     confirming Section 3.1 (the abstract's sqrt(2pcU) middle term appears\n\
     to be a typo for 2 sqrt(pcU); the measurement decides).\n\n"

(* --- E5: adaptive vs non-adaptive vs baselines ---------------------------- *)

let series_e5 () =
  heading "E5 -- regime comparison: guaranteed work across schedulers";
  let params = Model.params ~c:1. in
  let u = 10_000. in
  let grid = u /. 2e5 in
  let t =
    Csutil.Table.create
      ~title:(Printf.sprintf "Guaranteed work, U = %.0f, c = 1" u)
      ~aligns:Csutil.Table.[ Left; Right; Right; Right; Right ]
      [ "scheduler"; "p=1"; "p=2"; "p=3"; "p=4" ]
  in
  (* Display label + registry name: the bench measures exactly the
     strategies every other front end resolves by these names. *)
  let strategies =
    [
      ("one-long-period", "naive");
      ("fixed-chunk(c/5%)", "fixed_chunk");
      ("geometric(0.9)", "geometric");
      ("nonadaptive guideline", "nonadaptive");
      ("adaptive guideline (printed)", "adaptive");
      ("adaptive calibrated", "calibrated");
    ]
  in
  let names = List.map fst strategies in
  let values =
    List.map
      (fun p ->
         let opp = Model.opportunity ~lifespan:u ~interrupts:p in
         List.map
           (fun (_, name) -> Engine.Registry.guarantee ~grid params opp name)
           strategies)
      [ 1; 2; 3; 4 ]
  in
  List.iteri
    (fun i name ->
       Csutil.Table.add_row t
         (name
          :: List.map
               (fun col -> Csutil.Table.cell_float ~prec:1 (List.nth col i))
               values))
    names;
  emit t;
  (* Crossover study: how large must U/c be before chunking beats the
     one-long-period gamble, and where adaptive's edge over non-adaptive
     exceeds 1% of U. *)
  let t2 =
    Csutil.Table.create
      ~title:"Adaptive edge over non-adaptive (percent of U), p = 2, c = 1"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right ]
      [ "U"; "W nonadaptive"; "W calibrated"; "edge %U" ]
  in
  List.iter
    (fun u ->
       let opp = Model.opportunity ~lifespan:u ~interrupts:2 in
       let w_na = Engine.Registry.guarantee ~grid:(u /. 1e6) params opp "nonadaptive" in
       let w_ad = Engine.Registry.guarantee ~grid:(u /. 1e6) params opp "calibrated" in
       Csutil.Table.add_row t2
         [
           Printf.sprintf "%.0f" u;
           Csutil.Table.cell_float ~prec:1 w_na;
           Csutil.Table.cell_float ~prec:1 w_ad;
           Csutil.Table.cell_float ~prec:2 (100. *. (w_ad -. w_na) /. u);
         ])
    [ 100.; 1_000.; 10_000.; 100_000. ];
  emit t2;
  Printf.printf
    "Shape: the guideline schedulers dominate every baseline at every p;\n\
     adaptivity's edge over the non-adaptive guideline is\n\
     (2 sqrt(p) - sqrt(2) a_p) sqrt(cU), largest in relative terms for\n\
     small U/c (overhead-dominated opportunities).\n\n"

(* --- E6: optimality gap vs the exact DP ----------------------------------- *)

let series_e6 () =
  heading "E6 -- optimality gaps vs the exact integer-grid optimum";
  let c_ticks = 10 in
  let max_l = 5_000 in
  let dp = Dp.solve ~c:c_ticks ~max_p:4 ~max_l in
  let params = Model.params ~c:(float_of_int c_ticks) in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "Gap to DP optimum (c = %d ticks); gaps in units of c and sqrt(cU)"
           c_ticks)
      ~aligns:Csutil.Table.[ Right; Right; Right; Left; Right; Right; Right ]
      [ "U"; "p"; "DP optimum"; "policy"; "guaranteed"; "gap/c"; "gap/sqrt(cU)" ]
  in
  List.iter
    (fun (l, p) ->
       let u = float_of_int l in
       let opp = Model.opportunity ~lifespan:u ~interrupts:p in
       let opt = float_of_int (Dp.value dp ~p ~l) in
       List.iter
         (fun pol ->
            let g = Game.guaranteed ~grid:0.5 params opp pol in
            let r = Analysis.gap_report params ~u ~p ~optimal:opt ~achieved:g in
            Csutil.Table.add_row t
              [
                Printf.sprintf "%.0f" u;
                string_of_int p;
                Printf.sprintf "%.0f" opt;
                Policy.name pol;
                Csutil.Table.cell_float ~prec:1 g;
                Csutil.Table.cell_float ~prec:2 r.Analysis.gap_in_c;
                Csutil.Table.cell_float ~prec:3 r.Analysis.gap_in_sqrt_cu;
              ])
         (Engine.Registry.policy params opp "nonadaptive"
          :: Engine.Registry.policy params opp "adaptive"
          :: Engine.Registry.policy params opp "calibrated"
          :: [ Policy.of_dp dp ]))
    [ (1_000, 1); (5_000, 1); (1_000, 2); (5_000, 2); (5_000, 3); (5_000, 4) ];
  emit t;
  Printf.printf
    "Shape: the calibrated adaptive schedules stay within a few c of the\n\
     exact optimum at every p ('optimal to within low-order additive\n\
     terms'); the printed S_a construction achieves that only at p = 1.\n\n"

(* --- E7: NOW-simulator validation ----------------------------------------- *)

let series_e7 () =
  heading "E7 -- NOW simulator vs game engine, and stochastic owners";
  let params = Model.params ~c:1. in
  let u = 200. and p = 2 in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let adaptive = Engine.Registry.policy params opp "adaptive" in
  let mk_bag () = Workload.Task.bag_of_sizes (List.init 80_000 (fun _ -> 0.005)) in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "Adversarial-oracle owner: simulated model work vs Game.guaranteed \
            (U = %.0f, p = %d, c = 1)" u p)
      ~aligns:Csutil.Table.[ Left; Right; Right; Right ]
      [ "policy"; "game engine"; "simulator"; "|diff|" ]
  in
  List.iter
    (fun pol ->
       let solver = Game.Solver.create params opp pol in
       let g = Game.Solver.guaranteed solver in
       let adv = Game.Solver.adversary solver in
       let report =
         Nowsim.Farm.run_single params ~bag:(mk_bag ()) ~opportunity:opp
           ~policy:pol ~owner:adv ()
       in
       let m = List.hd report.Nowsim.Farm.per_station in
       let sim = Nowsim.Metrics.model_work m in
       Csutil.Table.add_row t
         [
           Policy.name pol;
           Csutil.Table.cell_float ~prec:4 g;
           Csutil.Table.cell_float ~prec:4 sim;
           Csutil.Table.cell_sci ~prec:1 (Float.abs (g -. sim));
         ])
    (List.map
       (Engine.Registry.policy params opp)
       [ "nonadaptive"; "adaptive"; "calibrated" ]);
  emit t;
  (* Stochastic owners: mean simulated work across seeds, against the
     guaranteed floor and the no-interrupt ceiling. *)
  let t2 =
    Csutil.Table.create
      ~title:
        "Stochastic owners (Poisson interrupts, 40 seeds): adaptive guideline"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right ]
      [ "rate"; "mean work"; "min work"; "floor (guaranteed)"; "ceiling (U-c)" ]
  in
  let floor_w = Game.guaranteed params opp adaptive in
  List.iter
    (fun rate ->
       let acc = Csutil.Stats.Accumulator.create () in
       for seed = 1 to 40 do
         let rng = Csutil.Rng.create ~seed in
         let trace = Workload.Interrupt_trace.poisson ~rng ~u ~rate ~p in
         let owner = Workload.Interrupt_trace.to_adversary trace in
         let report =
           Nowsim.Farm.run_single params ~bag:(mk_bag ()) ~opportunity:opp
             ~policy:adaptive ~owner ()
         in
         let m = List.hd report.Nowsim.Farm.per_station in
         Csutil.Stats.Accumulator.add acc (Nowsim.Metrics.model_work m)
       done;
       Csutil.Table.add_row t2
         [
           Csutil.Table.cell_float ~prec:3 rate;
           Csutil.Table.cell_float ~prec:1 (Csutil.Stats.Accumulator.mean acc);
           Csutil.Table.cell_float ~prec:1 (Csutil.Stats.Accumulator.min acc);
           Csutil.Table.cell_float ~prec:1 floor_w;
           Csutil.Table.cell_float ~prec:1 (u -. 1.);
         ])
    [ 0.002; 0.01; 0.05 ];
  emit t2;
  (* Task granularity: packing fragmentation closes the gap between task
     work and model work as tasks shrink. *)
  let t3 =
    Csutil.Table.create
      ~title:"Task granularity vs packing fragmentation (uninterrupted run)"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right ]
      [ "task size"; "model work"; "task work"; "fragmentation %" ]
  in
  List.iter
    (fun size ->
       let n = int_of_float (2. *. u /. size) in
       let bag = Workload.Task.bag_of_sizes (List.init n (fun _ -> size)) in
       let report =
         Nowsim.Farm.run_single params ~bag ~opportunity:opp
           ~policy:adaptive ~owner:Adversary.none ()
       in
       let m = List.hd report.Nowsim.Farm.per_station in
       let mw = Nowsim.Metrics.model_work m in
       let tw = Nowsim.Metrics.task_work m in
       Csutil.Table.add_row t3
         [
           Csutil.Table.cell_float ~prec:3 size;
           Csutil.Table.cell_float ~prec:1 mw;
           Csutil.Table.cell_float ~prec:1 tw;
           Csutil.Table.cell_pct ~prec:2 ((mw -. tw) /. mw);
         ])
    [ 2.; 0.5; 0.1; 0.01 ];
  emit t3

(* --- E8: the price of paranoia (guaranteed vs expected output) ------------ *)

(* The model of [3] is two-faceted; this paper studies the guaranteed
   facet, the companion paper [9] the expected one.  E8 measures the
   trade-off: each schedule's expected work under a memoryless reclaim
   process vs its guaranteed work under the adversary. *)
let series_e8 () =
  heading "E8 -- guaranteed vs expected output (the two facets of the model)";
  let params = Model.params ~c:1. in
  let u = 2_000. in
  let p = 2 in
  let rate = 1. /. 400. in
  let risk = Expected.exponential ~rate in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let schedules =
    [
      ("one long period", Schedule.singleton u);
      ( "geometric(0.9)",
        Engine.Planner.plan
          (Engine.Registry.find "geometric")
          params opp ~p ~residual:u );
      ( "expected-optimal (DP)",
        fst (Expected.optimal_schedule_dp params risk ~horizon:u ~steps:1000) );
      ( "expected-optimal (stationary)",
        Expected.optimal_exponential_schedule params ~rate ~horizon:u );
      ( "guaranteed guideline S_na",
        Engine.Registry.episode_schedule params ~u ~p "nonadaptive" );
      ("S_opt^(1)", Engine.Registry.episode_schedule params ~u ~p:1 "opt-p1");
    ]
  in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "U = %.0f, c = 1: E[W] under exponential reclaim (mean %.0f) vs \
            guaranteed W under %d adversarial interrupts"
           u (1. /. rate) p)
      ~aligns:Csutil.Table.[ Left; Right; Right; Right; Right ]
      [ "schedule"; "m"; "E[W] (risk)"; "guaranteed W (p=2)"; "E[W] Monte Carlo" ]
  in
  let rng = Csutil.Rng.create ~seed:99 in
  List.iter
    (fun (name, s) ->
       let e = Expected.expected_work params risk s in
       let mc = Expected.monte_carlo_expected params risk s ~rng ~samples:20_000 in
       let g, _ = Nonadaptive.worst_case params ~u ~p s in
       Csutil.Table.add_row t
         [
           name;
           string_of_int (Schedule.length s);
           Csutil.Table.cell_float ~prec:1 e;
           Csutil.Table.cell_float ~prec:1 g;
           Csutil.Table.cell_float ~prec:1 mc;
         ])
    schedules;
  emit t;
  Printf.printf
    "Shape: under memoryless risk the expected optimum is near-stationary,\n\
     so the guaranteed guideline concedes almost no expected work (the\n\
     'price of paranoia' is < 1%% here), while front-loaded expected-output\n\
     shapes (geometric; one long period) have floors from weak to zero.\n\
     This is the paper's case for treating the guaranteed facet\n\
     separately.\n\n"

(* --- E9: the value of cheap checkpoints (extension) ----------------------- *)

(* The paper's interrupts kill work "since the last checkpoint"; the base
   model prices every checkpoint at a full round trip c.  E9 sweeps the
   intermediate-checkpoint cost h <= c and reports the exact guaranteed
   work of the checkpointed game, its closed form
   U - (p+1)c - a_p sqrt(2hU), and the loss relative to the base model. *)
let series_e9 () =
  heading "E9 -- the value of cheap checkpoints (extension, see DESIGN.md)";
  let c_ticks = 10 in
  let l = 4_000 in
  let base = Model.params ~c:(float_of_int c_ticks) in
  let base_dp = Dp.solve ~c:c_ticks ~max_p:3 ~max_l:l in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "Exact guaranteed work vs checkpoint cost h (c = %d, U = %d ticks)"
           c_ticks l)
      ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right; Right ]
      [ "p"; "h"; "exact W"; "closed form"; "base model W"; "loss ratio" ]
  in
  List.iter
    (fun p ->
       let base_w = Dp.value base_dp ~p ~l in
       List.iter
         (fun h_ticks ->
            let cp_dp = Checkpointing.solve ~c_ticks ~h_ticks ~max_p:p ~max_l:l in
            let w = Checkpointing.value cp_dp ~p ~l in
            let cp = Checkpointing.params base ~h:(float_of_int h_ticks) in
            let u = float_of_int l in
            Csutil.Table.add_row t
              [
                string_of_int p;
                string_of_int h_ticks;
                string_of_int w;
                Csutil.Table.cell_float ~prec:1 (Checkpointing.closed_form cp ~u ~p);
                string_of_int base_w;
                Csutil.Table.cell_float ~prec:3
                  (float_of_int (l - w) /. float_of_int (l - base_w));
              ])
         [ 1; 2; 5; 10 ])
    [ 1; 2; 3 ];
  emit t;
  Printf.printf
    "Shape: the sqrt-loss scales with the checkpoint cost h, not the full\n\
     setup cost c -- exact values match U - (p+1)c - a_p sqrt(2hU) within\n\
     a few ticks.  At h = c the checkpointed game sits within (p+1)c of\n\
     the base model, as it must.\n\n"

(* --- E10: farm scaling under a shared interface (extension) --------------- *)

(* The model prices each period's communications at c but lets A talk to
   any number of stations at once.  E10 makes A's interface exclusive
   (Nowsim.Nic) and sweeps the farm size: throughput saturates once the
   interface is busy full-time, at roughly (period length / c)
   stations. *)
let series_e10 () =
  heading "E10 -- farm scaling under a shared A-side interface (extension)";
  let params = Model.params ~c:10. in
  let u = 1_000. in
  let m = 10 in (* periods of 100: saturation expected near 100/c = 10 *)
  let opportunity = Model.opportunity ~lifespan:u ~interrupts:0 in
  let one_station_work =
    float_of_int m *. ((u /. float_of_int m) -. Model.c params)
  in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "N stations, each U = %.0f with %d equal periods, shared NIC \
            (c = %.0f per round trip)"
           u m (Model.c params))
      ~aligns:Csutil.Table.[ Right; Right; Right; Right; Right ]
      [ "N"; "total work"; "efficiency"; "NIC utilization"; "mean queueing" ]
  in
  List.iter
    (fun n ->
       let nic = Nowsim.Nic.create () in
       let bag =
         Workload.Task.bag_of_sizes
           (List.init (200 * n * m) (fun _ -> u /. 200. /. float_of_int m))
       in
       let specs =
         List.init n (fun i ->
             (* Stagger starts by one setup so the farm is not
                artificially phase-locked at the period boundaries. *)
             Nowsim.Farm.spec
               ~name:(Printf.sprintf "b%d" (i + 1))
               ~start_at:(float_of_int i *. Model.c params)
               ~opportunity
               ~policy:
                 (Policy.non_adaptive
                    ~committed:(Nonadaptive.equal_periods ~u ~m))
               ~owner:Adversary.none ())
       in
       let r = Nowsim.Farm.run ~nic params ~bag specs in
       let total = r.Nowsim.Farm.summary.Nowsim.Metrics.total_model_work in
       let acq = Nowsim.Nic.acquisitions nic in
       Csutil.Table.add_row t
         [
           string_of_int n;
           Csutil.Table.cell_float ~prec:0 total;
           Csutil.Table.cell_pct ~prec:1
             (total /. (float_of_int n *. one_station_work));
           Csutil.Table.cell_pct ~prec:1
             (Nowsim.Nic.utilization nic ~horizon:r.Nowsim.Farm.finished_at);
           Csutil.Table.cell_float ~prec:2
             (if acq = 0 then 0.
              else Nowsim.Nic.total_wait_time nic /. float_of_int acq);
         ])
    [ 1; 2; 4; 8; 10; 12; 16 ];
  emit t;
  Printf.printf
    "Shape: per-station efficiency stays near 100%% until the interface\n\
     saturates (utilization -> 100%% around N ~ period/c = %d stations),\n\
     after which added stations only queue -- the c-per-period model is\n\
     faithful for small farms and optimistic past the saturation knee.\n\n"
    (int_of_float (u /. float_of_int m /. Model.c params))

(* --- Ablations: design choices measured ----------------------------------- *)

(* A1: slack handling in the printed S_a construction.  The abstract's
   period lengths only sum to U up to rounding; our construction spreads
   the residual slack across the ramp.  The obvious alternative -- dump
   it on the first period -- costs a full low-order term: the adversary
   kills the inflated first period.  (This was a real bug found during
   development; the ablation keeps it measured.) *)
let ablation_slack () =
  let params = Model.params ~c:1. in
  let t =
    Csutil.Table.create
      ~title:"A1: S_a^(1) slack handling (guaranteed work, p = 1)"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right ]
      [ "U"; "slack spread (ours)"; "slack on first period"; "printed bound" ]
  in
  List.iter
    (fun u ->
       let opp = Model.opportunity ~lifespan:u ~interrupts:1 in
       (* Reconstruct the p = 1 ramp with the slack dumped on period 1:
          tail [1.5; 1.5], ramp increments of c. *)
       let dump_variant residual =
         let base = 3. in
         let rec grow sum next acc =
           if sum +. next <= residual then grow (sum +. next) (next +. 1.) (next :: acc)
           else (acc, sum)
         in
         let ramp, sum = grow base 2.5 [] in
         let slack = residual -. sum in
         match ramp @ [ 1.5; 1.5 ] with
         | first :: rest -> Schedule.of_list ((first +. slack) :: rest)
         | [] -> Schedule.singleton residual
       in
       let policy_dump =
         Policy.make ~name:"sa-dump" ~plan:(fun ctx ->
             if ctx.Policy.interrupts_left = 0 then
               Schedule.singleton ctx.Policy.residual
             else dump_variant ctx.Policy.residual)
       in
       let w_spread =
         Game.guaranteed params opp (Engine.Registry.policy params opp "adaptive")
       in
       let w_dump = Game.guaranteed params opp policy_dump in
       Csutil.Table.add_row t
         [
           Printf.sprintf "%.0f" u;
           Csutil.Table.cell_float ~prec:2 w_spread;
           Csutil.Table.cell_float ~prec:2 w_dump;
           Csutil.Table.cell_float ~prec:2 (Adaptive.lower_bound params ~u ~p:1);
         ])
    [ 1_000.; 10_000. ];
  emit t

(* A2: the calibrated policy's candidate selection.  The raw backward
   Theorem 4.3 build is asymptotically right but weak in the
   overhead-heavy regime, where equal-period candidates win; the shipped
   policy scores both.  *)
let ablation_candidates () =
  let params = Model.params ~c:10. in
  let t =
    Csutil.Table.create
      ~title:"A2: calibrated construction, backward build vs candidate selection"
      ~aligns:Csutil.Table.[ Right; Right; Right; Right ]
      [ "U/c"; "p"; "backward build only"; "with candidates (shipped)" ]
  in
  let backward_only =
    Policy.of_episode_family ~name:"backward-only" Adaptive.backward_build
  in
  List.iter
    (fun (u, p) ->
       let opp = Model.opportunity ~lifespan:u ~interrupts:p in
       let w_raw = Game.guaranteed params opp backward_only in
       let w_sel =
         Game.guaranteed params opp
           (Engine.Registry.policy params opp "calibrated")
       in
       Csutil.Table.add_row t
         [
           Printf.sprintf "%.0f" (u /. 10.);
           string_of_int p;
           Csutil.Table.cell_float ~prec:1 w_raw;
           Csutil.Table.cell_float ~prec:1 w_sel;
         ])
    [ (300., 2); (1_000., 2); (10_000., 2); (300., 3); (10_000., 3) ];
  emit t

(* A3: early return in the simulator.  With a finite workload the model
   timing (periods always run their planned length) wastes the tail of
   each period once the bag drains; early return finishes the job
   sooner at the price of deviating from the analytic timeline. *)
let ablation_early_return () =
  let params = Model.params ~c:1. in
  let u = 400. in
  let opportunity = Model.opportunity ~lifespan:u ~interrupts:0 in
  let t =
    Csutil.Table.create
      ~title:"A3: simulator early-return mode (finite workload, no interrupts)"
      ~aligns:Csutil.Table.[ Right; Left; Right; Right ]
      [ "tasks"; "mode"; "makespan"; "tasks done" ]
  in
  List.iter
    (fun n ->
       List.iter
         (fun early_return ->
            let bag = Workload.Task.bag_of_sizes (List.init n (fun _ -> 1.)) in
            let r =
              Nowsim.Farm.run_single ~early_return params ~bag ~opportunity
                ~policy:(Policy.non_adaptive
                           ~committed:(Nonadaptive.equal_periods ~u ~m:10))
                ~owner:Adversary.none ()
            in
            let m = List.hd r.Nowsim.Farm.per_station in
            Csutil.Table.add_row t
              [
                string_of_int n;
                (if early_return then "early return" else "model timing");
                (match r.Nowsim.Farm.summary.Nowsim.Metrics.makespan with
                 | Some x -> Printf.sprintf "%.1f" x
                 | None -> "n/a");
                string_of_int (Nowsim.Metrics.tasks_completed m);
              ])
         [ false; true ])
    [ 100; 300 ];
  emit t

let ablations () =
  heading "Ablations -- design choices measured (see DESIGN.md Section 4)";
  ablation_slack ();
  ablation_candidates ();
  ablation_early_return ()

(* --- Bechamel micro-benchmarks -------------------------------------------- *)

let bechamel () =
  heading "Micro-benchmarks (Bechamel, monotonic clock)";
  Printf.printf
    "recommended domain count on this machine: %d\n\
     (the fixed 4-domain Monte-Carlo entry only beats the 1-domain one\n\
     when more than one core is available; Par defaults to the\n\
     recommended count, i.e. sequential here)\n\n"
    (Csutil.Par.available_domains ());
  let open Bechamel in
  let params = Model.params ~c:1. in
  let u = 10_000. in
  let opp1 = Model.opportunity ~lifespan:u ~interrupts:1 in
  let opp2 = Model.opportunity ~lifespan:u ~interrupts:2 in
  let dp_small = Dp.solve ~c:10 ~max_p:2 ~max_l:500 in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      (* Table 1/2 generators and schedule constructions, one per paper
         table, plus the heavier evaluation paths. *)
      mk "table1: S_a episode + rows" (fun () ->
          let s = Engine.Registry.episode_schedule params ~u ~p:2 "adaptive" in
          ignore (Analysis.table1 params s ~u ~w_prev:(fun ~residual -> residual)));
      mk "table2: rows (S_opt + S_a)" (fun () ->
          ignore (Analysis.table2_entries params ~u));
      mk "construct: S_na guideline" (fun () ->
          ignore (Engine.Registry.episode_schedule params ~u ~p:2 "nonadaptive"));
      mk "construct: S_a printed" (fun () ->
          ignore (Engine.Registry.episode_schedule params ~u ~p:2 "adaptive"));
      mk "construct: S_a calibrated" (fun () ->
          ignore (Engine.Registry.episode_schedule params ~u ~p:2 "calibrated"));
      mk "construct: S_opt^1" (fun () ->
          ignore (Engine.Registry.episode_schedule params ~u ~p:1 "opt-p1"));
      mk "adversary DP: worst_case m~140" (fun () ->
          let s = Engine.Registry.episode_schedule params ~u ~p:2 "nonadaptive" in
          ignore (Nonadaptive.worst_case params ~u ~p:2 s));
      mk "minimax: guaranteed p=1" (fun () ->
          ignore
            (Game.guaranteed params opp1
               (Engine.Registry.policy params opp1 "adaptive")));
      mk "minimax: guaranteed p=2 (grid)" (fun () ->
          ignore
            (Game.guaranteed ~grid:1.0 params opp2
               (Engine.Registry.policy params opp2 "adaptive")));
      mk "dp: solve c=10 l=500 p<=2" (fun () ->
          ignore (Dp.solve ~c:10 ~max_p:2 ~max_l:500));
      mk "dp: episode extraction" (fun () ->
          ignore (Dp.optimal_episode dp_small ~p:2 ~l:500));
      mk "sim: opportunity U=200 p=2" (fun () ->
          let bag = Workload.Task.bag_of_sizes (List.init 500 (fun _ -> 1.)) in
          let opp = Model.opportunity ~lifespan:200. ~interrupts:2 in
          ignore
            (Nowsim.Farm.run_single params ~bag ~opportunity:opp
               ~policy:(Engine.Registry.policy params opp "adaptive")
               ~owner:Adversary.kill_last ()));
      mk "monte carlo: 100k samples, 1 domain" (fun () ->
          let risk = Expected.exponential ~rate:0.02 in
          let s = Schedule.of_list [ 20.; 15.; 10.; 5. ] in
          ignore
            (Expected.monte_carlo_expected_par ~domains:1 params risk s ~seed:3
               ~samples:100_000));
      mk "monte carlo: 100k samples, 4 domains" (fun () ->
          let risk = Expected.exponential ~rate:0.02 in
          let s = Schedule.of_list [ 20.; 15.; 10.; 5. ] in
          ignore
            (Expected.monte_carlo_expected_par ~domains:4 params risk s ~seed:3
               ~samples:100_000));
      mk "event queue: 1k add+pop" (fun () ->
          let q = Nowsim.Event_queue.create () in
          for i = 0 to 999 do
            ignore (Nowsim.Event_queue.add q ~time:(float_of_int (i * 7919 mod 1000)) i)
          done;
          while Nowsim.Event_queue.pop q <> None do () done);
    ]
  in
  let test = Test.make_grouped ~name:"cyclesteal" ~fmt:"%s %s" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Csutil.Table.create ~title:"nanoseconds per run (OLS fit)"
      ~aligns:Csutil.Table.[ Left; Right; Right ]
      [ "benchmark"; "ns/run"; "r^2" ]
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols_result) ->
       let est =
         match Analyze.OLS.estimates ols_result with
         | Some [ e ] -> Printf.sprintf "%.0f" e
         | Some es ->
           String.concat "," (List.map (Printf.sprintf "%.0f") es)
         | None -> "n/a"
       in
       let r2 =
         match Analyze.OLS.r_square ols_result with
         | Some r -> Printf.sprintf "%.3f" r
         | None -> "n/a"
       in
       Csutil.Table.add_row table [ name; est; r2 ])
    rows;
  emit table

(* --- Service: cold vs warm table-cache throughput ------------------------- *)

(* The cschedd cache exists to amortize DP solves across queries; this
   measures what that buys.  The cold pass answers every dp query with a
   direct [Dp.solve] at the query's own bounds (what the library does
   without the daemon); the warm pass answers the same queries from a
   pre-warmed canonical table cache.  The queries spread over nearby
   (p, L) so the whole set shares a handful of canonical tables. *)
let service_bench () =
  heading "Service -- cold vs warm table-cache throughput (cschedd)";
  let queries =
    List.init 60 (fun i ->
        Service.Protocol.Dp_query
          {
            c_ticks = (if i mod 2 = 0 then 10 else 8);
            l = 1500 + (17 * i mod 548);
            p = i mod 4;
          })
  in
  let n = List.length queries in
  let answer ?cache () =
    List.iter
      (fun q -> ignore (Service.Protocol.handle ?cache q))
      queries
  in
  let cold, () = time (fun () -> answer ()) in
  let cache = Service.Cache.create ~capacity:16 () in
  (* Warm the cache with one untimed pass, then measure the steady state. *)
  answer ~cache ();
  let warm, () = time (fun () -> answer ~cache ()) in
  let s = Service.Cache.stats cache in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "%d dp queries, c in {8,10}, p in 0..3, L in 1500..2047" n)
      ~aligns:Csutil.Table.[ Left; Right; Right ]
      [ "phase"; "seconds"; "queries/s" ]
  in
  List.iter
    (fun (phase, secs) ->
       Csutil.Table.add_row t
         [
           phase;
           Csutil.Table.cell_float ~prec:4 secs;
           Csutil.Table.cell_float ~prec:0 (float_of_int n /. secs);
         ])
    [ ("cold (direct Dp.solve per query)", cold);
      ("warm (canonical table cache)", warm) ];
  emit t;
  Printf.printf
    "warm/cold speedup: %.0fx (%d canonical tables cover all %d queries,\n\
     %d cache hits)\n\n"
    (cold /. warm) s.Service.Cache.resident n s.Service.Cache.hits

(* --- DP store: in-place growth vs fresh solve ----------------------------- *)

(* The flat DP store can extend its (p, L) bounds in place, computing
   only the new cells; the DP reads only smaller indices, so the solved
   prefix is reused verbatim.  This measures what growth saves over
   re-solving from scratch at the larger bounds, and spot-checks that
   the grown table agrees with a fresh solve. *)
let growth_bench () =
  heading "DP store -- in-place growth vs fresh solve";
  let c = 10 in
  let t =
    Csutil.Table.create
      ~title:(Printf.sprintf "c = %d ticks; min of 5 runs" c)
      ~aligns:Csutil.Table.[ Left; Right; Right; Right ]
      [ "scenario"; "fresh solve (s)"; "grow (s)"; "speedup" ]
  in
  let scenarios =
    [
      ("p 2 -> 4, L = 2000", (2, 2000), (4, 2000));
      ("L 2000 -> 4000, p = 2", (2, 2000), (2, 4000));
      ("both: p 2 -> 4, L 2000 -> 4000", (2, 2000), (4, 4000));
    ]
  in
  List.iter
    (fun (label, (p0, l0), (p1, l1)) ->
       let fresh, _ =
         time_min ~runs:5 (fun () -> Dp.solve ~c ~max_p:p1 ~max_l:l1)
       in
       (* Each grow needs a fresh base (growth is in place), so the base
          solve happens outside the timed window. *)
       let bases =
         List.init 5 (fun _ -> Dp.solve ~c ~max_p:p0 ~max_l:l0)
       in
       let grow =
         List.fold_left
           (fun best dp ->
              let dt, () = time (fun () -> Dp.grow dp ~max_p:p1 ~max_l:l1) in
              Float.min best dt)
           infinity bases
       in
       (* The grown table must agree with a fresh solve everywhere. *)
       let grown = Dp.solve ~c ~max_p:p0 ~max_l:l0 in
       Dp.grow grown ~max_p:p1 ~max_l:l1;
       let reference = Dp.solve ~c ~max_p:p1 ~max_l:l1 in
       List.iter
         (fun (p, l) ->
            assert (Dp.value grown ~p ~l = Dp.value reference ~p ~l))
         [ (0, l1); (p0, l0); (p1, l0); (p0, l1); (p1, l1); (p1, l1 / 3) ];
       Csutil.Table.add_row t
         [
           label;
           Csutil.Table.cell_float ~prec:4 fresh;
           Csutil.Table.cell_float ~prec:4 grow;
           Printf.sprintf "%.1fx" (fresh /. grow);
         ])
    scenarios;
  emit t;
  Printf.printf
    "Shape: growing reuses the solved prefix, so the cost is only the new\n\
     cells -- doubling p touches half the doubled table (~2x over fresh),\n\
     doubling L touches the L^2 tail (~1.3x); the daemon's cache turns\n\
     near-miss queries into these grow steps instead of full re-solves.\n\n"

(* --- DP kernel: scalar vs monotone-dc vs parallel ------------------------- *)

(* The kernel perf trajectory (DESIGN.md S17, S24).  Three fills solve
   the same instances: [Dp.Ref.solve] (the exhaustive scalar
   reference), [Dp.solve] (the equalization-crossing monotone-dc fill),
   and [Dp.solve_with ~pool] (monotone-dc + wavefront over a worker
   pool).  Results are asserted cell-identical, timed, and written as
   machine-readable BENCH_dp.json so later changes can regress-check
   the kernel against recorded numbers. *)

let assert_tables_equal ~what a b =
  let max_p = Dp.max_p a and max_l = Dp.max_l a in
  assert (Dp.max_p b = max_p && Dp.max_l b = max_l);
  for p = 0 to max_p do
    for l = 0 to max_l do
      if
        Dp.value a ~p ~l <> Dp.value b ~p ~l
        || Dp.optimal_first_period a ~p ~l <> Dp.optimal_first_period b ~p ~l
      then begin
        Printf.eprintf "kernel mismatch (%s) at p=%d l=%d\n" what p l;
        exit 1
      end
    done
  done

(* One instance through the fill kernel: the exhaustive scalar
   reference, the equalization-crossing monotone-dc fill, and
   monotone-dc under the wavefront pool.  Both fills must match the
   reference cell-for-cell, and the candidate counters say where the
   work went. *)
let dp_kernel_instance ~pool ~scalar_runs (c, max_p, max_l) =
  let cells = (max_p + 1) * (max_l + 1) in
  let fcells = float_of_int cells in
  let scalar_s, reference =
    time_min ~runs:scalar_runs (fun () -> Dp.Ref.solve ~c ~max_p ~max_l)
  in
  let runs = 3 in
  Dp.reset_counters ();
  let mono_s, mono = time_min ~runs (fun () -> Dp.solve ~c ~max_p ~max_l) in
  let kmono = Dp.counters () in
  Dp.reset_counters ();
  let par_s, par =
    time_min ~runs (fun () -> Dp.solve_with ~pool:(Some pool) ~c ~max_p ~max_l)
  in
  let kp = Dp.counters () in
  Dp.reset_counters ();
  assert_tables_equal ~what:"monotone-dc vs reference" mono reference;
  assert_tables_equal ~what:"parallel vs reference" par reference;
  let mono_visits = kmono.Dp.candidates_visited / runs in
  let exhaustive =
    (kmono.Dp.candidates_visited + kmono.Dp.candidates_pruned) / runs
  in
  let dc_splits = kmono.Dp.dc_splits / runs in
  let reduction =
    float_of_int exhaustive /. float_of_int (max 1 mono_visits)
  in
  (* Snapshot economics for this table: dense (v1) vs
     breakpoint-compressed (v2) bytes. *)
  let dense_bytes = Dp.dense_footprint_bytes reference in
  let packed_bytes =
    Bigarray.Array1.dim (Dp.to_packed reference) * (Sys.word_size / 8)
  in
  let series kernel seconds domains extra =
    Service.Json.Obj
      ([
         ("kernel", Service.Json.String kernel);
         ("seconds", Service.Json.Float seconds);
         ("cells_per_sec", Service.Json.Float (fcells /. seconds));
         ("speedup_vs_scalar", Service.Json.Float (scalar_s /. seconds));
         ("domains", Service.Json.Int domains);
       ]
       @ extra)
  in
  let instance =
    Service.Json.Obj
      [
          ("c", Service.Json.Int c);
          ("max_p", Service.Json.Int max_p);
          ("max_l", Service.Json.Int max_l);
          ("cells", Service.Json.Int cells);
          ( "snapshot",
            Service.Json.Obj
              [
                ("dense_bytes", Service.Json.Int dense_bytes);
                ("packed_bytes", Service.Json.Int packed_bytes);
                ( "compression",
                  Service.Json.Float
                    (float_of_int dense_bytes
                    /. float_of_int (max 1 packed_bytes)) );
              ] );
          ( "series",
            Service.Json.List
              [
                series "scalar" scalar_s 1
                  [ ("candidates_visited", Service.Json.Int exhaustive) ];
                series "monotone-dc" mono_s 1
                  [
                    ("candidates_visited", Service.Json.Int mono_visits);
                    ("dc_splits", Service.Json.Int dc_splits);
                    ( "reduction_vs_scalar",
                      Service.Json.Float reduction );
                  ];
                series "monotone-dc+parallel" par_s
                  (Csutil.Par.Pool.size pool)
                  [ ("parallel_fills", Service.Json.Int kp.Dp.parallel_fills) ];
              ] );
      ]
  in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf "c = %d, p <= %d, L <= %d (%d cells)" c max_p max_l
           cells)
      ~aligns:Csutil.Table.[ Left; Right; Right; Right; Right ]
      [ "kernel"; "seconds"; "cells/s"; "candidates"; "speedup" ]
  in
  List.iter
    (fun (kernel, secs, cands) ->
       Csutil.Table.add_row t
         [
           kernel;
           Csutil.Table.cell_float ~prec:4 secs;
           Printf.sprintf "%.3g" (fcells /. secs);
           string_of_int cands;
           Printf.sprintf "%.1fx" (scalar_s /. secs);
         ])
    [
      ("scalar (Dp.Ref)", scalar_s, exhaustive);
      ("monotone-dc", mono_s, mono_visits);
      ( Printf.sprintf "monotone-dc+parallel (%d domains)"
          (Csutil.Par.Pool.size pool),
        par_s, mono_visits );
    ];
  emit t;
  Printf.printf
    "monotone-dc: %.1fx fewer candidates than the exhaustive scan (%d \
     splits); snapshot: %d B packed vs %d B dense (%.1fx)\n\n"
    reduction dc_splits packed_bytes dense_bytes
    (float_of_int dense_bytes /. float_of_int (max 1 packed_bytes));
  instance

(* Quick mode: the runtest perf smoke.  Asserts the sequential and
   wavefront fills == reference on a fixed mid-size instance and
   finishes under a generous bound; no JSON is written. *)
let dp_kernel_quick () =
  let t0 = Csutil.Clock.now () in
  let c = 10 and max_p = 8 and max_l = 10000 in
  let reference = Dp.Ref.solve ~c ~max_p ~max_l in
  let mono = Dp.solve ~c ~max_p ~max_l in
  assert_tables_equal ~what:"monotone-dc vs reference" mono reference;
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      Dp.reset_counters ();
      let par = Dp.solve_with ~pool:(Some pool) ~c ~max_p ~max_l in
      (* The instance is sized above the wavefront threshold, so this
         must have exercised the parallel fill, not just fallen back. *)
      assert ((Dp.counters ()).Dp.parallel_fills = 1);
      assert_tables_equal ~what:"parallel vs reference" par reference);
  let dt = quick_elapsed ~what:"dp --quick" t0 in
  Printf.printf
    "dp --quick: sequential and wavefront monotone-dc fills match the \
     reference on\n\
     (c=%d, p<=%d, L<=%d); %.2f s\n"
    c max_p max_l dt

(* --- DP adversarial: the small-c / large-p regime ------------------------- *)

(* Where a scan-based kernel degrades: a small tick cost leaves almost
   no zero region to skip, and a deep interrupt budget multiplies the
   rows.  The equalization-crossing kernel's candidate bill is
   logarithmic per cell regardless, so the bench insists, not just
   reports, that it visits strictly fewer candidates than the
   exhaustive scan.  Lifespans here are tens of thousands of ticks —
   the paper's own proportions, c a few ticks against L in the tens of
   thousands.  At that size the exhaustive scalar fill is minutes per
   instance, so the sweep reports the scalar candidate count by the
   visited + pruned identity instead of running it, and validates the
   wavefront fill cell-for-cell against the sequential one (whose
   identity with Dp.Ref the main instances, the qcheck corpus and the
   runtest smokes already pin). *)
let dp_adversarial_instances =
  [ (1, 96, 50000); (2, 128, 30000); (3, 192, 20000) ]

let dp_adversarial_instance ~pool (c, max_p, max_l) =
  let cells = (max_p + 1) * (max_l + 1) in
  let fcells = float_of_int cells in
  let runs = 3 in
  Dp.reset_counters ();
  let mono_s, mono = time_min ~runs (fun () -> Dp.solve ~c ~max_p ~max_l) in
  let kmono = Dp.counters () in
  Dp.reset_counters ();
  let par_s, par =
    time_min ~runs (fun () -> Dp.solve_with ~pool:(Some pool) ~c ~max_p ~max_l)
  in
  Dp.reset_counters ();
  assert_tables_equal ~what:"parallel vs monotone-dc" par mono;
  let mono_visits = kmono.Dp.candidates_visited / runs in
  let exhaustive =
    (kmono.Dp.candidates_visited + kmono.Dp.candidates_pruned) / runs
  in
  let dc_splits = kmono.Dp.dc_splits / runs in
  let reduction =
    float_of_int exhaustive /. float_of_int (max 1 mono_visits)
  in
  if mono_visits >= exhaustive then begin
    Printf.eprintf
      "bench dp --adversarial: monotone-dc visited %d candidates, the \
       exhaustive scan %d (c=%d p<=%d L<=%d)\n"
      mono_visits exhaustive c max_p max_l;
    exit 1
  end;
  let series kernel seconds extra =
    Service.Json.Obj
      ([
         ("kernel", Service.Json.String kernel);
         ("seconds", Service.Json.Float seconds);
         ("cells_per_sec", Service.Json.Float (fcells /. seconds));
       ]
       @ extra)
  in
  let instance =
    Service.Json.Obj
      [
        ("workload", Service.Json.String "adversarial");
        ("c", Service.Json.Int c);
        ("max_p", Service.Json.Int max_p);
        ("max_l", Service.Json.Int max_l);
        ("cells", Service.Json.Int cells);
        ( "series",
          Service.Json.List
            [
              Service.Json.Obj
                [
                  ("kernel", Service.Json.String "scalar");
                  ("candidates_visited", Service.Json.Int exhaustive);
                  ("timed", Service.Json.Bool false);
                ];
              series "monotone-dc" mono_s
                [
                  ("candidates_visited", Service.Json.Int mono_visits);
                  ("dc_splits", Service.Json.Int dc_splits);
                  ("reduction_vs_scalar", Service.Json.Float reduction);
                ];
              series "monotone-dc+parallel" par_s
                [
                  ("domains", Service.Json.Int (Csutil.Par.Pool.size pool));
                  ( "speedup_vs_sequential",
                    Service.Json.Float (mono_s /. par_s) );
                ];
            ] );
      ]
  in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf "c = %d, p <= %d, L <= %d (%d cells)" c max_p max_l
           cells)
      ~aligns:Csutil.Table.[ Left; Right; Right ]
      [ "kernel"; "seconds"; "candidates" ]
  in
  List.iter
    (fun (kernel, secs, cands) ->
       Csutil.Table.add_row t
         [
           kernel;
           (match secs with
            | Some s -> Csutil.Table.cell_float ~prec:4 s
            | None -> "-");
           string_of_int cands;
         ])
    [
      ("scalar (not timed)", None, exhaustive);
      ("monotone-dc", Some mono_s, mono_visits);
      ( Printf.sprintf "monotone-dc+parallel (%d domains)"
          (Csutil.Par.Pool.size pool),
        Some par_s, mono_visits );
    ];
  emit t;
  Printf.printf
    "monotone-dc: %.1fx fewer candidates than the exhaustive scan (%d \
     splits)\n\n"
    reduction dc_splits;
  instance

let dp_adversarial_run ~pool =
  List.map (dp_adversarial_instance ~pool) dp_adversarial_instances

let dp_adversarial_bench () =
  heading
    "DP adversarial sweep -- small c, large p (monotone-dc must visit fewer \
     candidates than the exhaustive scan)";
  let domains = max 4 (Csutil.Par.available_domains ()) in
  Csutil.Par.Pool.with_pool ~domains (fun pool ->
      ignore (dp_adversarial_run ~pool))

(* Adversarial smoke for runtest: on a small instance of the same
   regime, monotone-dc must match the reference cell-for-cell, record
   divide-and-conquer splits and visit strictly fewer candidates than
   the exhaustive scan, inside a generous bound.  (No wall-clock
   assertion here: a loaded CI host makes sub-second timing
   comparisons flaky; the candidate counts are deterministic.) *)
let dp_adversarial_quick () =
  let t0 = Csutil.Clock.now () in
  let c = 1 and max_p = 32 and max_l = 4000 in
  let reference = Dp.Ref.solve ~c ~max_p ~max_l in
  Dp.reset_counters ();
  let mono = Dp.solve ~c ~max_p ~max_l in
  let k = Dp.counters () in
  let exhaustive = k.Dp.candidates_visited + k.Dp.candidates_pruned in
  assert_tables_equal ~what:"monotone-dc vs reference" mono reference;
  if k.Dp.candidates_visited >= exhaustive then begin
    Printf.eprintf
      "dp --adversarial --quick: monotone-dc visited %d candidates, the \
       exhaustive scan %d\n"
      k.Dp.candidates_visited exhaustive;
    exit 1
  end;
  if k.Dp.dc_splits = 0 then begin
    Printf.eprintf "dp --adversarial --quick: no dc_splits recorded\n";
    exit 1
  end;
  let dt = quick_elapsed ~what:"dp --adversarial --quick" t0 in
  Printf.printf
    "dp --adversarial --quick: monotone-dc matches the reference on (c=%d, \
     p<=%d, L<=%d)\n\
     with %d candidates vs the exhaustive scan's %d (%.1fx fewer); %.2f s\n"
    c max_p max_l k.Dp.candidates_visited exhaustive
    (float_of_int exhaustive /. float_of_int (max 1 k.Dp.candidates_visited))
    dt

(* Every parallel-schedule series records how many domains the host
   actually offers, and the degenerate single-domain host — where
   stealing and static schedules tie by construction — is flagged
   rather than left to be mistaken for a regression (the PR 8 lesson:
   a 0.96x "speedup" that was really a 1-domain container). *)
let domain_fields () =
  let avail = Csutil.Par.available_domains () in
  ("domains_available", Service.Json.Int avail)
  ::
  (if avail = 1 then [ ("single_domain_host", Service.Json.Bool true) ]
   else [])

(* --- DP skew: one giant solve among many tiny ones ------------------------ *)

(* The nested fan-out case (DESIGN.md S22, S33): a batch of solves
   dominated by one giant table.  A static schedule carves the batch
   into contiguous stripes, one per slot — whichever slot draws the
   giant solve runs it alone, inner wavefront inline, while the others
   go idle after their tiny stripes.  The pool instead fans the batch
   out as fine chunks and publishes the giant solve's nested wavefront
   on the same pool, so idle slots fill rows of the giant table instead
   of watching.  The series keeps its [work_stealing] label from the
   pool that first measured it.  Tables must be cell-identical either
   way; on a single-core host the two schedules tie and the numbers are
   recorded honestly. *)
let dp_skew_solves ~giant ~tiny =
  giant :: List.init tiny (fun i -> (2 + (i mod 8), 2, 1024))

(* Returns (static stripes seconds, pool seconds), asserting the two
   schedules produce cell-identical tables. *)
let dp_skew_run ~runs ~pool solves =
  let arr = Array.of_list solves in
  let n = Array.length arr in
  let static_s, static_tables =
    time_min ~runs (fun () ->
        let out = Array.make n None in
        let k = Csutil.Par.Pool.size pool in
        let per = (n + k - 1) / k in
        (* One contiguous stripe per slot, inner fills inline. *)
        Csutil.Par.Pool.run pool (fun slot ->
            for i = slot * per to min n ((slot + 1) * per) - 1 do
              let c, max_p, max_l = arr.(i) in
              out.(i) <- Some (Dp.solve_with ~pool:None ~c ~max_p ~max_l)
            done);
        Array.map Option.get out)
  in
  let steal_s, steal_tables =
    time_min ~runs (fun () ->
        Csutil.Par.map ~pool
          (fun (c, max_p, max_l) ->
             Dp.solve_with ~pool:(Some pool) ~c ~max_p ~max_l)
          arr)
  in
  Array.iteri
    (fun i t ->
       assert_tables_equal
         ~what:(Printf.sprintf "skew solve %d, stealing vs static" i)
         t static_tables.(i))
    steal_tables;
  (static_s, steal_s)

let dp_skew_instance ~pool =
  let giant = (1, 48, 24000) and tiny = 24 in
  let solves = dp_skew_solves ~giant ~tiny in
  let static_s, steal_s = dp_skew_run ~runs:2 ~pool solves in
  let gc, gp, gl = giant in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf
           "skewed batch -- 1 giant (c=%d, p<=%d, L<=%d) + %d tiny solves" gc
           gp gl tiny)
      ~aligns:Csutil.Table.[ Left; Right; Right ]
      [ "schedule"; "seconds"; "speedup" ]
  in
  List.iter
    (fun (name, secs) ->
       Csutil.Table.add_row t
         [
           name;
           Csutil.Table.cell_float ~prec:4 secs;
           Printf.sprintf "%.1fx" (static_s /. secs);
         ])
    [ ("static stripes", static_s); ("work stealing", steal_s) ];
  emit t;
  Service.Json.Obj
    [
      ("workload", Service.Json.String "skew");
      ("giant_c", Service.Json.Int gc);
      ("giant_max_p", Service.Json.Int gp);
      ("giant_max_l", Service.Json.Int gl);
      ("tiny_solves", Service.Json.Int tiny);
      ("domains", Service.Json.Int (Csutil.Par.Pool.size pool));
      ( "series",
        Service.Json.List
          [
            Service.Json.Obj
              ([
                 ("schedule", Service.Json.String "static_stripes");
                 ("seconds", Service.Json.Float static_s);
               ]
              @ domain_fields ());
            Service.Json.Obj
              ([
                 ("schedule", Service.Json.String "work_stealing");
                 ("seconds", Service.Json.Float steal_s);
                 ( "speedup_vs_static",
                   Service.Json.Float (static_s /. steal_s) );
               ]
              @ domain_fields ());
          ] );
    ]

let dp_skew_bench () =
  heading "DP skewed batch -- static stripes vs work stealing";
  let domains = max 4 (Csutil.Par.available_domains ()) in
  Csutil.Par.Pool.with_pool ~domains (fun pool ->
      ignore (dp_skew_instance ~pool))

(* Skew smoke for runtest: the two schedules must agree cell-for-cell
   on a small skewed batch, inside a generous bound. *)
let dp_skew_quick () =
  let t0 = Csutil.Clock.now () in
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      let solves =
        dp_skew_solves ~giant:(1, 16, 6000) ~tiny:12
      in
      ignore (dp_skew_run ~runs:1 ~pool solves));
  let dt = quick_elapsed ~what:"dp --skew --quick" t0 in
  Printf.printf
    "dp --skew --quick: stealing and static-stripe schedules cell-identical \
     on a skewed batch; %.2f s\n"
    dt

let dp_kernel_bench ?(out = "BENCH_dp.json") () =
  heading "DP kernel -- scalar vs monotone-dc vs parallel (BENCH_dp.json)";
  let domains = max 4 (Csutil.Par.available_domains ()) in
  Csutil.Par.Pool.with_pool ~domains (fun pool ->
      (* The flagship scalar solve takes minutes; time it once.  The
         mid-size instance gets the usual min-of-3. *)
      let instances =
        [
          ((10, 8, 8000), 3);
          ((1, 64, 50000), 1);
        ]
      in
      let results =
        List.map
          (fun (inst, scalar_runs) ->
             dp_kernel_instance ~pool ~scalar_runs inst)
          instances
      in
      let adversarial = dp_adversarial_run ~pool in
      let skew = dp_skew_instance ~pool in
      let doc =
        Service.Json.Obj
          [
            ("bench", Service.Json.String "dp");
            ( "domains_available",
              Service.Json.Int (Csutil.Par.available_domains ()) );
            ( "instances",
              Service.Json.List (results @ adversarial @ [ skew ]) );
          ]
      in
      let oc = open_out out in
      output_string oc (Service.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n\n" out)

(* --- Game solver: seed vs flat vs parallel -------------------------------- *)

(* The evaluate-path perf trajectory (DESIGN.md S18).  Before the shared
   solver, every evaluate ran the minimax recursion twice -- once for
   [guaranteed], once for [optimal_adversary] -- each over its own
   raw-float-keyed Hashtbl.  This times the full evaluate workload
   (value + adversary + replay through [Game.run]) under three solver
   configurations, asserts each banks the seed value and replays the
   seed episode structure bit-identically, measures the cschedd
   resident-solver cache cold vs warm, and writes BENCH_game.json. *)

let outcome_fingerprint (o : Game.outcome) =
  ( o.Game.work,
    o.Game.interrupts_used,
    List.map
      (fun (e : Game.episode_record) ->
         ( e.Game.start_elapsed,
           Schedule.to_list e.Game.planned,
           (match e.Game.outcome with
            | Game.Completed -> (0, -1.)
            | Game.Interrupted { period; fraction } -> (period, fraction)),
           e.Game.work ))
      o.Game.episodes )

let assert_evaluations_equal ~what (g_a, o_a) (g_b, o_b) =
  if g_a <> g_b || outcome_fingerprint o_a <> outcome_fingerprint o_b then begin
    Printf.eprintf "solver mismatch (%s): %.17g vs %.17g\n" what g_a g_b;
    exit 1
  end

let game_instance ~pool ~runs (c, u, p, grid) =
  let params = Model.params ~c in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let pol = Engine.Registry.policy params opp "adaptive" in
  (* The seed evaluate path: one private recursion for the value, a
     second (from scratch) for the adversary replay. *)
  let seed_eval () =
    let g = Game.Ref.guaranteed ~grid params opp pol in
    let adv = Game.Ref.optimal_adversary ~grid params opp pol in
    (g, Game.run params opp pol adv)
  in
  let shared_eval ?pool () =
    let solver = Game.Solver.create ~grid ?pool params opp pol in
    let g = Game.Solver.guaranteed solver in
    (g, Game.run params opp pol (Game.Solver.adversary solver))
  in
  let seed_s, seed = time_min ~runs seed_eval in
  let flat_s, flat = time_min ~runs (shared_eval ?pool:None) in
  Game.reset_counters ();
  let par_s, par = time_min ~runs (shared_eval ~pool) in
  let fills = (Game.counters ()).Game.parallel_fills in
  assert_evaluations_equal ~what:"shared_flat vs seed" flat seed;
  assert_evaluations_equal ~what:"shared_flat+parallel vs seed" par seed;
  if fills < runs then begin
    Printf.eprintf "parallel fan-out never fired (%d fills, %d runs)\n" fills
      runs;
    exit 1
  end;
  let series solver seconds domains extra =
    Service.Json.Obj
      ([
         ("solver", Service.Json.String solver);
         ("seconds", Service.Json.Float seconds);
         ("speedup_vs_seed", Service.Json.Float (seed_s /. seconds));
         ("domains", Service.Json.Int domains);
       ]
       @ extra)
  in
  let instance =
    Service.Json.Obj
      [
        ("c", Service.Json.Float c);
        ("u", Service.Json.Float u);
        ("p", Service.Json.Int p);
        ("grid", Service.Json.Float grid);
        ("policy", Service.Json.String "adaptive");
        ("guaranteed", Service.Json.Float (fst seed));
        ( "series",
          Service.Json.List
            [
              series "seed" seed_s 1 [];
              series "shared_flat" flat_s 1 [];
              series "shared_flat+parallel" par_s (Csutil.Par.Pool.size pool)
                [ ("parallel_fills", Service.Json.Int fills) ];
            ] );
      ]
  in
  let t =
    Csutil.Table.create
      ~title:
        (Printf.sprintf "c = %g, U = %g, p = %d, grid = %g (adaptive)" c u p
           grid)
      ~aligns:Csutil.Table.[ Left; Right; Right ]
      [ "solver"; "seconds"; "speedup" ]
  in
  List.iter
    (fun (solver, secs) ->
       Csutil.Table.add_row t
         [
           solver;
           Csutil.Table.cell_float ~prec:4 secs;
           Printf.sprintf "%.1fx" (seed_s /. secs);
         ])
    [
      ("seed (two recursions)", seed_s);
      ("shared flat", flat_s);
      (Printf.sprintf "shared flat+parallel (%d domains)"
         (Csutil.Par.Pool.size pool), par_s);
    ];
  emit t;
  instance

(* Cold vs warm through the cschedd resident-solver cache: the same
   evaluate request, first against a fresh cache (solver built and memo
   filled), then repeated (solver resident, every value a memo hit; only
   the adversary replay itself re-runs). *)
let game_service_series ~pool =
  let c = 1. and u = 20_000. and p = 2 in
  let req =
    Service.Protocol.Evaluate
      { c; u; p; policy = "adaptive"; periods = None }
  in
  let answer cache =
    match Service.Protocol.handle ~cache req with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "evaluate failed: %s\n" (Cyclesteal.Error.to_string e);
      exit 1
  in
  let cold_s, cache =
    time_min ~runs:2 (fun () ->
        let cache = Service.Cache.create ~pool ~capacity:8 () in
        answer cache;
        cache)
  in
  let warm_s, () = time_min ~runs:5 (fun () -> answer cache) in
  let s = Service.Cache.stats cache in
  Printf.printf
    "service evaluate (c=%g, U=%g, p=%d, adaptive): cold %.4f s, warm %.4f s \
     (%.0fx; %d solver hits, %d misses)\n\n"
    c u p cold_s warm_s (cold_s /. warm_s) s.Service.Cache.solver_hits
    s.Service.Cache.solver_misses;
  Service.Json.Obj
    [
      ("c", Service.Json.Float c);
      ("u", Service.Json.Float u);
      ("p", Service.Json.Int p);
      ("policy", Service.Json.String "adaptive");
      ("cold_seconds", Service.Json.Float cold_s);
      ("warm_seconds", Service.Json.Float warm_s);
      ("warm_speedup", Service.Json.Float (cold_s /. warm_s));
      ("solver_hits", Service.Json.Int s.Service.Cache.solver_hits);
      ("solver_misses", Service.Json.Int s.Service.Cache.solver_misses);
    ]

(* Quick mode: the runtest perf smoke.  Asserts the flat solver,
   sequential and parallel, reproduces the seed evaluation on a small
   instance (including at least one parallel fan-out) and finishes
   under a generous bound; no JSON is written. *)
let game_solver_quick () =
  let t0 = Csutil.Clock.now () in
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      ignore (game_instance ~pool ~runs:1 (1., 600., 2, 0.25)));
  let dt = quick_elapsed ~what:"game --quick" t0 in
  Printf.printf
    "game --quick: flat and parallel solvers replay the seed\n\
     evaluation bit-identically; %.2f s\n" dt

let game_solver_bench ?(out = "BENCH_game.json") () =
  heading "Game solver -- seed vs flat vs parallel (BENCH_game.json)";
  let domains = max 4 (Csutil.Par.available_domains ()) in
  Csutil.Par.Pool.with_pool ~domains (fun pool ->
      let instances = [ (1., 2_000., 4, 0.05); (1., 4_000., 5, 0.1) ] in
      let results = List.map (game_instance ~pool ~runs:3) instances in
      let service = game_service_series ~pool in
      let doc =
        Service.Json.Obj
          [
            ("bench", Service.Json.String "game");
            ( "domains_available",
              Service.Json.Int (Csutil.Par.available_domains ()) );
            ("instances", Service.Json.List results);
            ("service", service);
          ]
      in
      let oc = open_out out in
      output_string oc (Service.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n\n" out)

(* --- Persistent memo tier: cold vs bank-mapped startup -------------------- *)

(* What the snapshot bank buys (DESIGN.md S20): the time from an empty
   process to the first warm answer.  The cold path is a fresh cache
   paying the solve; the bank-mapped path is a fresh cache over a
   precomputed bank — open, warm, answer, with the table pages mapped
   from disk instead of computed.  Both paths must produce the same
   bytes, and the mapped path must fill no DP cell and expand no
   minimax state; the speedup is solve-vs-checksum, which widens with
   the table (solve is superlinear in the bounds, the CRC linear in the
   bytes). *)

let store_tmp_dir () =
  let dir = Filename.temp_file "csched_bank" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let store_cleanup dir =
  Array.iter
    (fun f ->
       try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ()

let store_series ~label req =
  let dir = store_tmp_dir () in
  Fun.protect
    ~finally:(fun () -> store_cleanup dir)
    (fun () ->
       let answer ?cache () =
         match Service.Protocol.handle ?cache req with
         | Ok payload -> Service.Json.to_string payload
         | Error e ->
           Printf.eprintf "bench store (%s): %s\n" label (Error.to_string e);
           exit 1
       in
       let open_bank ~create =
         match Store.Bank.open_dir ~create dir with
         | Ok b -> b
         | Error e ->
           Printf.eprintf "bench store (%s): %s\n" label (Error.to_string e);
           exit 1
       in
       (* Cold: what a fresh bankless process pays to its first answer. *)
       let cold_s, cold_out =
         time (fun () -> answer ~cache:(Service.Cache.create ~capacity:8 ()) ())
       in
       (* Precompute the bank (csched precompute's job; untimed). *)
       let pre_cache =
         Service.Cache.create ~bank:(open_bank ~create:true) ~capacity:8 ()
       in
       ignore (answer ~cache:pre_cache ());
       let bank_bytes =
         Array.fold_left
           (fun acc f ->
              acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
           0 (Sys.readdir dir)
       in
       (* Bank-mapped: a fresh process over the precomputed bank —
          open, warm, first answer. *)
       Dp.reset_counters ();
       Game.reset_counters ();
       let warm_s, (bank, warmed, warm_out) =
         time (fun () ->
             let bank = open_bank ~create:false in
             let warm_cache = Service.Cache.create ~bank ~capacity:8 () in
             let warmed = Service.Cache.warm_from_bank warm_cache in
             (bank, warmed, answer ~cache:warm_cache ()))
       in
       if not (String.equal warm_out cold_out) then begin
         Printf.eprintf
           "bench store (%s): bank-mapped answer differs from cold solve\n"
           label;
         exit 1
       end;
       let k = Dp.counters () in
       let g = Game.counters () in
       if k.Dp.cells_filled <> 0 || g.Game.states <> 0 then begin
         Printf.eprintf
           "bench store (%s): mapped path did compute work (%d cells, %d \
            states)\n"
           label k.Dp.cells_filled g.Game.states;
         exit 1
       end;
       (* Startup warming is deliberately uncounted (serving stats only),
          so a dp series proves its bank use by the warmed-table count
          and a game series by a counted serving hit. *)
       let bc = Store.Bank.counters bank in
       if (warmed < 1 && bc.Store.Bank.hits < 1)
          || bc.Store.Bank.load_failures > 0
       then begin
         Printf.eprintf
           "bench store (%s): bank not exercised (%d warmed, %d hits, %d \
            failures)\n"
           label warmed bc.Store.Bank.hits bc.Store.Bank.load_failures;
         exit 1
       end;
       Printf.printf
         "%-12s cold %8.4f s   bank-mapped %8.4f s   %6.0fx   (%d files, %.1f \
          MB, %d tables warmed)\n%!"
         label cold_s warm_s (cold_s /. warm_s)
         (Array.length (Sys.readdir dir))
         (float_of_int bank_bytes /. 1048576.)
         warmed;
       Service.Json.Obj
         [
           ("series", Service.Json.String label);
           ( "request",
             Service.Json.String
               (Service.Json.to_string
                  (Service.Protocol.request_to_json req)) );
           ("cold_seconds", Service.Json.Float cold_s);
           ("mapped_seconds", Service.Json.Float warm_s);
           ("speedup", Service.Json.Float (cold_s /. warm_s));
           ("bank_bytes", Service.Json.Int bank_bytes);
           ("tables_warmed", Service.Json.Int warmed);
           ("bank_hits", Service.Json.Int bc.Store.Bank.hits);
         ])

(* Snapshot format economics: a solved table written
   breakpoint-compressed ([save_dp], format v2) and mapped back through
   [load_dp].  The load must reproduce the table cell for cell; the
   series records the file's bytes against what the same cells take
   dense ([Dp.dense_footprint_bytes]) and the mapped-load (CRC +
   validation) seconds. *)
let store_snapshot_series ~label (c, max_p, max_l) =
  let dir = store_tmp_dir () in
  Fun.protect
    ~finally:(fun () -> store_cleanup dir)
    (fun () ->
       let dp = Dp.solve ~c ~max_p ~max_l in
       let path = Filename.concat dir "dp.snap" in
       Store.Snapshot.save_dp ~path dp;
       let v2_s, loaded =
         time_min ~runs:3 (fun () ->
             match Store.Snapshot.load_dp ~path ~c with
             | Ok t -> t
             | Error e ->
               Printf.eprintf "bench store (%s): %s\n" label
                 (Error.to_string e);
               exit 1)
       in
       assert_tables_equal ~what:(label ^ ": v2 load vs solve") loaded dp;
       let v2_bytes = (Unix.stat path).Unix.st_size
       and dense_bytes = Dp.dense_footprint_bytes dp in
       if v2_bytes >= dense_bytes then begin
         Printf.eprintf
           "bench store (%s): v2 snapshot (%d B) not smaller than dense (%d B)\n"
           label v2_bytes dense_bytes;
         exit 1
       end;
       let ratio = float_of_int dense_bytes /. float_of_int v2_bytes in
       Printf.printf
         "%-14s dense %9d B   v2 %9d B load %8.4f s   %5.1fx smaller\n%!"
         label dense_bytes v2_bytes v2_s ratio;
       Service.Json.Obj
         [
           ("series", Service.Json.String label);
           ("c", Service.Json.Int c);
           ("max_p", Service.Json.Int max_p);
           ("max_l", Service.Json.Int max_l);
           ("dense_bytes", Service.Json.Int dense_bytes);
           ("v2_bytes", Service.Json.Int v2_bytes);
           ("compression", Service.Json.Float ratio);
           ("v2_load_seconds", Service.Json.Float v2_s);
         ])

let store_dp_req ~c ~p ~l = Service.Protocol.Dp_query { c_ticks = c; l; p }

let store_game_req ~c ~u ~p ~policy =
  Service.Protocol.Evaluate { c; u; p; policy; periods = None }

(* Quick mode: the runtest smoke.  Small instances; the assertions
   (byte identity, zero fill, bank hit) are the point, not the
   speedup. *)
let store_quick () =
  let t0 = Csutil.Clock.now () in
  ignore (store_series ~label:"dp_small" (store_dp_req ~c:9 ~p:3 ~l:1800));
  ignore
    (store_series ~label:"game_small"
       (store_game_req ~c:1. ~u:8_000. ~p:2 ~policy:"adaptive"));
  ignore (store_snapshot_series ~label:"snapshot_small" (9, 3, 1800));
  let dt = quick_elapsed ~what:"store --quick" t0 in
  Printf.printf
    "store --quick: bank-mapped answers byte-identical to cold solves with\n\
     zero DP cells filled and zero minimax states expanded; %.2f s\n"
    dt

let store_bench ?(out = "BENCH_store.json") () =
  heading
    "Persistent memo tier -- cold solve vs bank-mapped startup \
     (BENCH_store.json)";
  let instances =
    [
      store_series ~label:"dp_mid" (store_dp_req ~c:10 ~p:4 ~l:4_000);
      store_series ~label:"dp_large" (store_dp_req ~c:64 ~p:32 ~l:60_000);
      store_series ~label:"game_large"
        (store_game_req ~c:1. ~u:100_000. ~p:3 ~policy:"adaptive");
      store_snapshot_series ~label:"snapshot_mid" (10, 4, 4_000);
      store_snapshot_series ~label:"snapshot_large" (1, 64, 50_000);
    ]
  in
  let doc =
    Service.Json.Obj
      [
        ("bench", Service.Json.String "store");
        ( "domains_available",
          Service.Json.Int (Csutil.Par.available_domains ()) );
        ("instances", Service.Json.List instances);
      ]
  in
  let oc = open_out out in
  output_string oc (Service.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n\n" out

(* --- Driver --------------------------------------------------------------- *)

let tables () =
  table1 ();
  table2 ()

let series = function
  | "growth" -> growth_bench ()
  | "e3" -> series_e3 ()
  | "e4" -> series_e4 ()
  | "e5" -> series_e5 ()
  | "e6" -> series_e6 ()
  | "e7" -> series_e7 ()
  | "e8" -> series_e8 ()
  | "e9" -> series_e9 ()
  | "e10" -> series_e10 ()
  | s -> Printf.eprintf "unknown series %S (want e3..e10)\n" s

let all () =
  tables ();
  series_e3 ();
  series_e4 ();
  series_e5 ();
  series_e6 ();
  series_e7 ();
  series_e8 ();
  series_e9 ();
  series_e10 ();
  ablations ();
  service_bench ();
  growth_bench ();
  bechamel ()

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> all ()
    | "--csv" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      csv_dir := Some dir;
      parse rest
    | [ "tables" ] -> tables ()
    | [ "series"; s ] -> series s
    | [ "ablations" ] -> ablations ()
    | [ "service" ] -> service_bench ()
    | [ "growth" ] -> growth_bench ()
    | [ "dp" ] -> dp_kernel_bench ()
    | [ "dp"; "--quick" ] -> dp_kernel_quick ()
    | [ "dp"; "--skew" ] -> dp_skew_bench ()
    | [ "dp"; "--skew"; "--quick" ] -> dp_skew_quick ()
    | [ "dp"; "--adversarial" ] -> dp_adversarial_bench ()
    | [ "dp"; "--adversarial"; "--quick" ] -> dp_adversarial_quick ()
    | [ "dp"; "--out"; path ] -> dp_kernel_bench ~out:path ()
    | [ "game" ] -> game_solver_bench ()
    | [ "game"; "--quick" ] -> game_solver_quick ()
    | [ "game"; "--out"; path ] -> game_solver_bench ~out:path ()
    | [ "store" ] -> store_bench ()
    | [ "store"; "--quick" ] -> store_quick ()
    | [ "store"; "--out"; path ] -> store_bench ~out:path ()
    | [ "bechamel" ] -> bechamel ()
    | other ->
      Printf.eprintf
        "usage: main.exe [--csv DIR] [tables | series eN | service | growth | \
         dp [--quick | --skew [--quick] | --adversarial [--quick] | --out \
         FILE] | \
         game [--quick | --out FILE] | \
         store [--quick | --out FILE] | bechamel]\n";
      Printf.eprintf "got: %s\n" (String.concat " " other);
      exit 2
  in
  parse (List.tl args)
