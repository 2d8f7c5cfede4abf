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
module J = Service.Json

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

let report = Series.report ~emit:(fun t -> emit t)

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Table [a] against [cell], cell by cell: the value and argmax period
   of another table, or of the reference. *)
let assert_cells ~what a ~max_p ~max_l cell =
  assert (Dp.max_p a = max_p && Dp.max_l a = max_l);
  for p = 0 to max_p do
    for l = 0 to max_l do
      if (Dp.value a ~p ~l, Dp.optimal_first_period a ~p ~l) <> cell ~p ~l then
        die "kernel mismatch (%s) at p=%d l=%d" what p l
    done
  done

let assert_tables_equal ~what a r =
  let open Oracle.Dp_ref in
  assert_cells ~what a ~max_p:(max_p r) ~max_l:(max_l r) (fun ~p ~l ->
      (value r ~p ~l, first r ~p ~l))

let assert_same_tables ~what a b =
  assert_cells ~what a ~max_p:(Dp.max_p b) ~max_l:(Dp.max_l b) (fun ~p ~l ->
      (Dp.value b ~p ~l, Dp.optimal_first_period b ~p ~l))

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

(* 512 distinct request lines shaped like perfbench's warm_mix: advise,
   schedule, dp over four tables and evaluate over 64 game identities
   (adaptive and nonadaptive, p 1 and 2), interleaved op by op, each
   under its own id. *)
let warm_mix_lines () =
  let open Service.Protocol in
  let req op i =
    match op with
    | 0 ->
      Advise
        { c = float_of_int (1 + (i mod 60)); u = float_of_int (1000 * (1 + i)); p = 1 + (i mod 6) }
    | 1 ->
      let c = 2 + (i mod 18) in
      Schedule
        {
          c = float_of_int c;
          u = float_of_int (c * (200 + i));
          p = 1 + (i mod 4);
          regime = [| "adaptive"; "nonadaptive"; "calibrated" |].(i mod 3);
        }
    | 2 -> Dp_query { c_ticks = 4 + (i mod 4); l = 1024 + (23 * i); p = 2 + (i mod 3) }
    | _ ->
      let k = i / 2 in
      let c = 1 + (k mod 8) in
      Evaluate
        {
          c = float_of_int c;
          u = float_of_int (c * (300 + (5 * k)));
          p = 1 + (i mod 2);
          policy = (if k mod 2 = 0 then "adaptive" else "nonadaptive");
          periods = None;
        }
  in
  List.init 512 (fun k -> J.to_string (request_to_json ~id:(J.Int k) (req (k mod 4) (k / 4))))

(* One wire loop, [Server.serve_fd] reading the stream from a pipe
   (filled and closed untimed, so the stream must fit the pipe's
   buffer): the whole stream answered from the answer cache, against
   the same lines as answer-cache misses (a fresh server per run on
   one router whose table and solver caches are warm).  It gives the
   no-parse hit path an in-process number beside perfbench's.  Both
   must write the same bytes. *)
let serve_hit_bench () =
  let lines = warm_mix_lines () in
  let n = List.length lines in
  let input = String.concat "\n" lines ^ "\n" in
  if String.length input >= 65536 then die "serve bench: stream outgrows a pipe";
  let router = Service.Router.create ~domains:1 ~capacity:256 () in
  let out_path = Filename.temp_file "bench_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Service.Router.shutdown router;
      try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
       let piped server =
         let r, w = Unix.pipe ~cloexec:true () in
         if Unix.write_substring w input 0 (String.length input) <> String.length input
         then die "serve bench: short pipe write";
         Unix.close w;
         (server, r, Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0)
       in
       let serve (server, r, out) =
         Service.Server.serve_fd server r out;
         Unix.close r;
         Unix.close out;
         server
       in
       let plan = Series.plan ~quick:false 9 in
       let series setup =
         let timing, server = Series.time_with plan ~setup:(fun () -> piped (setup ())) serve in
         ( timing,
           In_channel.with_open_bin out_path In_channel.input_all,
           Service.Answers.stats (Service.Server.answers server) )
       in
       let primed = serve (piped (Service.Server.create ~router ())) in
       let hits, hit_out, hit_stats = series (fun () -> primed) in
       let misses, miss_out, miss_stats = series (fun () -> Service.Server.create ~router ()) in
       if not (String.equal hit_out miss_out) then die "serve bench: hit and miss replies differ";
       if hit_stats.Service.Answers.misses <> n then
         die "serve bench: the primed pass missed %d of %d" hit_stats.Service.Answers.misses n;
       if miss_stats.Service.Answers.hits <> 0 then
         die "serve bench: a fresh server hit %d lines" miss_stats.Service.Answers.hits;
       let us_per_line t = ("us_per_line", J.Float (1e6 *. t.Series.median /. float_of_int n)) in
       ignore
         (report
            ~title:
              (Printf.sprintf
                 "Server.serve_fd over a pipe: %d distinct warm_mix-shaped lines, batches of 64" n)
            [
              Series.row ~timing:misses ~fields:[ us_per_line misses ]
                "answer-cache misses (parsed, routed, warm caches)";
              Series.row ~timing:hits
                ~fields:(us_per_line hits :: Series.speedup "speedup_vs_misses" ~base:misses hits)
                "answer-cache hits (no parse)";
            ]))

(* The cschedd cache exists to amortize DP solves across queries; this
   measures what that buys.  The cold pass answers every dp query with a
   direct [Dp.solve] at the query's own bounds (what the library does
   without the daemon); the warm pass answers the same queries from a
   canonical table cache, filled by its warm-up run.  The queries spread
   over nearby (p, L) so the whole set shares a handful of canonical
   tables. *)
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
    List.iter (fun q -> ignore (Service.Protocol.handle ?cache q)) queries
  in
  let plan = Series.plan ~quick:false 5 in
  let cold, () = Series.time plan (fun () -> answer ()) in
  let cache = Service.Cache.create ~capacity:16 () in
  let warm, () = Series.time plan (fun () -> answer ~cache ()) in
  let s = Service.Cache.stats cache in
  let qps t = ("queries_per_sec", J.Float (float_of_int n /. t.Series.median)) in
  ignore
    (report
       ~title:
         (Printf.sprintf
            "%d dp queries, c in {8,10}, p in 0..3, L in 1500..2047" n)
       [
         Series.row ~timing:cold ~fields:[ qps cold ] "cold (direct Dp.solve per query)";
         Series.row ~timing:warm
           ~fields:
             ((qps warm :: Series.speedup "speedup_vs_cold" ~base:cold warm)
              @ [
                ("canonical_tables", J.Int s.Service.Cache.resident);
                ("cache_hits", J.Int s.Service.Cache.hits);
              ])
           "warm (canonical table cache)";
       ]);
  serve_hit_bench ()

(* --- DP store: growth vs fresh solve -------------------------------------- *)

(* A table extends its (p, L) bounds by decoding its W into the fill
   scratch and computing only the new cells, whose runs it appends to
   the old rows' runs; the DP reads only smaller indices, so the solved
   prefix is reused verbatim.  This measures
   what growth saves over re-solving from scratch at the larger bounds,
   and checks that the grown table agrees with a fresh solve cell for
   cell. *)
let growth_bench () =
  heading "DP store -- growth vs fresh solve";
  let c = 10 and plan = Series.plan ~quick:false 5 in
  let scenarios =
    [
      ("p 2 -> 4, L = 2000", (2, 2000), (4, 2000));
      ("L 2000 -> 4000, p = 2", (2, 2000), (2, 4000));
      ("both: p 2 -> 4, L 2000 -> 4000", (2, 2000), (4, 4000));
    ]
  in
  let rows =
    List.concat_map
      (fun (label, (p0, l0), (p1, l1)) ->
         let fresh, reference =
           Series.time plan (fun () -> Dp.solve ~c ~max_p:p1 ~max_l:l1)
         in
         (* A grow replaces the table's pack, so each run grows a fresh
            base, solved outside the timed window. *)
         let grow, grown =
           Series.time_with plan
             ~setup:(fun () -> Dp.solve ~c ~max_p:p0 ~max_l:l0)
             (fun dp ->
                Dp.grow dp ~max_p:p1 ~max_l:l1;
                dp)
         in
         assert_same_tables ~what:("grow " ^ label) grown reference;
         [
           Series.row ~timing:fresh (label ^ ": fresh solve");
           Series.row ~timing:grow
             ~fields:(Series.speedup "speedup_vs_fresh" ~base:fresh grow)
             (label ^ ": grow");
         ])
      scenarios
  in
  ignore (report ~title:(Printf.sprintf "c = %d ticks" c) rows);
  Printf.printf
    "Shape: growing reuses the solved prefix, so the cost is only the new\n\
     cells -- doubling p touches half the doubled table (~2x over fresh),\n\
     doubling L touches the L^2 tail (~1.3x); the daemon's cache turns\n\
     near-miss queries into these grow steps instead of full re-solves.\n\n"

(* --- Timed suites: dp, game, store ---------------------------------------- *)

(* Each suite below takes [~quick] and returns the fields of its BENCH
   file.  Under [--quick] it runs the same body on its small instance
   list, each series once and cold (Series.run enforces the smoke's
   bound and writes no file); in full every series gets a warm-up and
   [reps] timed runs. *)
let reps = 5

(* The host's own domain count, but never one slot: the wavefront and
   the game fan-out run only on a pool of two or more, and the smokes
   check that they ran. *)
let with_pool f =
  Csutil.Par.Pool.with_pool ~domains:(max 2 (Csutil.Par.available_domains ())) f

(* --- DP kernel: scalar vs monotone-dc vs parallel ------------------------- *)

(* The kernel perf trajectory (DESIGN.md S17, S24).  Three fills solve
   the same instances: [Oracle.Dp_ref.solve] (the exhaustive scalar
   reference), [Dp.solve] (the equalization-crossing monotone-dc fill),
   and [Dp.solve_with ~pool] (monotone-dc + wavefront over a worker
   pool).  Both fills must match the reference cell-for-cell, and the
   candidate counters say where the work went.

   How an instance meets the scalar reference: [Timed] repeats it like
   every other series, on an instance it solves in seconds; [Counted]
   does not run it, reporting its candidate count by the visited +
   pruned identity and checking the wavefront fill against the
   sequential one, whose identity with Dp_ref the timed instance, the
   qcheck corpus and the smokes pin.  The flagship is [Counted]: its
   scalar fill took 20 minutes for one sample, too long to repeat and
   so no series at all. *)
type scalar = Timed | Counted

let dp_instance ~plan ~pool (c, max_p, max_l, scalar) =
  let what = Printf.sprintf "c=%d p<=%d L<=%d" c max_p max_l in
  let cells = (max_p + 1) * (max_l + 1) in
  let solve_ref () = Oracle.Dp_ref.solve ~c ~max_p ~max_l in
  let reference =
    match scalar with
    | Timed -> Some (Series.time plan solve_ref)
    | Counted -> None
  in
  let mono_t, mono =
    Series.time ~reset:Dp.reset_counters plan (fun () -> Dp.solve ~c ~max_p ~max_l)
  in
  let k = Dp.counters () in
  let par_t, par =
    Series.time ~reset:Dp.reset_counters plan (fun () ->
        Dp.solve_with ~pool:(Some pool) ~c ~max_p ~max_l)
  in
  let fills = (Dp.counters ()).Dp.parallel_fills in
  (match reference with
   | Some (_, r) ->
     assert_tables_equal ~what:("monotone-dc vs reference, " ^ what) mono r;
     assert_tables_equal ~what:("parallel vs reference, " ^ what) par r
   | None -> assert_same_tables ~what:("parallel vs monotone-dc, " ^ what) par mono);
  (* The crossing kernel's candidate bill is logarithmic per cell, so it
     must visit strictly fewer candidates than the exhaustive scan and
     record its bisections.  (Counts, not wall clock: a loaded host makes
     sub-second timing comparisons flaky; the counts are deterministic.)
     Every instance is sized above the wavefront threshold, so the
     parallel solve must have run the wavefront, not fallen back. *)
  let visited = k.Dp.candidates_visited in
  let exhaustive = visited + k.Dp.candidates_pruned in
  if visited >= exhaustive then
    die "bench dp (%s): monotone-dc visited %d candidates, the exhaustive scan %d"
      what visited exhaustive;
  if k.Dp.dc_splits = 0 then die "bench dp (%s): no dc_splits recorded" what;
  if fills <> 1 then die "bench dp (%s): %d wavefront fills in one solve" what fills;
  let per_sec t = ("cells_per_sec", J.Float (float_of_int cells /. t.Series.median)) in
  let vs_scalar t =
    Option.fold ~none:[]
      ~some:(fun (base, _) -> Series.speedup "speedup_vs_scalar" ~base t)
      reference
  in
  (* Snapshot economics for this table: dense bytes against the
     breakpoint-compressed form the bank stores. *)
  let dense_bytes = Dp.dense_footprint_bytes mono in
  let packed_bytes = Bigarray.Array1.dim (Dp.to_packed mono) * (Sys.word_size / 8) in
  J.Obj
    [
      ("c", J.Int c);
      ("max_p", J.Int max_p);
      ("max_l", J.Int max_l);
      ("cells", J.Int cells);
      ( "snapshot",
        J.Obj
          [
            ("dense_bytes", J.Int dense_bytes);
            ("packed_bytes", J.Int packed_bytes);
            ( "compression",
              J.Float (float_of_int dense_bytes /. float_of_int packed_bytes) );
          ] );
      ( "series",
        report ~title:(Printf.sprintf "%s (%d cells)" what cells)
          [
            Series.row
              ?timing:(Option.map fst reference)
              ~fields:
                (("candidates_visited", J.Int exhaustive)
                 :: Option.fold ~none:[] ~some:(fun (s, _) -> [ per_sec s ]) reference)
              "scalar";
            Series.row ~timing:mono_t
              ~fields:
                ([
                  per_sec mono_t;
                  ("candidates_visited", J.Int visited);
                  ("dc_splits", J.Int k.Dp.dc_splits);
                  ( "candidate_reduction",
                    J.Float (float_of_int exhaustive /. float_of_int visited) );
                ]
                 @ vs_scalar mono_t)
              "monotone-dc";
            Series.row ~timing:par_t
              ~fields:
                ([
                  per_sec par_t;
                  ("domains", J.Int (Csutil.Par.Pool.size pool));
                  ("parallel_fills", J.Int fills);
                ]
                 @ vs_scalar par_t
                 @ Series.speedup "speedup_vs_sequential" ~base:mono_t par_t)
              "monotone-dc+parallel";
          ] );
    ]

let dp_instances ~heading:title ~key instances ~quick =
  heading title;
  let plan = Series.plan ~quick reps in
  with_pool (fun pool ->
      [ (key, J.List (List.map (dp_instance ~plan ~pool) (instances ~quick))) ])

(* A mid-size table whose scalar fill is cheap enough to repeat, and the
   flagship. *)
let dp_kernel_suite =
  dp_instances ~heading:"DP kernel -- scalar vs monotone-dc vs parallel" ~key:"kernel"
    (fun ~quick ->
       if quick then [ (10, 8, 10000, Timed) ]
       else [ (10, 8, 10000, Timed); (1, 64, 50000, Counted) ])

(* Where a scan-based kernel degrades: a small tick cost leaves almost
   no zero region to skip, and a deep interrupt budget multiplies the
   rows.  Lifespans here are tens of thousands of ticks -- the paper's
   own proportions, c a few ticks against L in the tens of thousands --
   where the exhaustive scalar fill is minutes per instance. *)
let dp_adversarial_suite =
  dp_instances
    ~heading:
      "DP adversarial sweep -- small c, large p (monotone-dc must visit fewer \
       candidates than the exhaustive scan)"
    ~key:"adversarial"
    (fun ~quick ->
       if quick then [ (1, 32, 4000, Timed) ]
       else
         [ (1, 96, 50000, Counted); (2, 128, 30000, Counted); (3, 192, 20000, Counted) ])

(* --- DP skew: one giant solve among many tiny ones ------------------------ *)

(* The nested fan-out case (DESIGN.md S22, S33): a batch of solves
   dominated by one giant table.  A static schedule carves the batch
   into contiguous stripes, one per slot -- whichever slot draws the
   giant solve runs it alone, inner wavefront inline, while the others
   go idle after their tiny stripes.  The shared pool instead fans the
   batch out as fine chunks and publishes the giant solve's nested
   wavefront on the same pool, so idle slots fill rows of the giant
   table instead of watching.  Tables must be cell-identical either
   way. *)
let dp_skew_suite ~quick =
  heading "DP skewed batch -- static stripes vs shared pool";
  let plan = Series.plan ~quick reps in
  let ((gc, gp, gl) as giant), tiny =
    if quick then ((1, 16, 6000), 12) else ((1, 48, 24000), 24)
  in
  let arr = Array.of_list (giant :: List.init tiny (fun i -> (2 + (i mod 8), 2, 1024))) in
  let n = Array.length arr in
  with_pool (fun pool ->
      let static_t, static_tables =
        Series.time plan (fun () ->
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
      let pool_t, pool_tables =
        Series.time plan (fun () ->
            Csutil.Par.map ~pool
              (fun (c, max_p, max_l) -> Dp.solve_with ~pool:(Some pool) ~c ~max_p ~max_l)
              arr)
      in
      Array.iteri
        (fun i t ->
           assert_same_tables
             ~what:(Printf.sprintf "skew solve %d, shared pool vs static" i)
             t static_tables.(i))
        pool_tables;
      [
        ( "skew",
          J.Obj
            [
              ("giant_c", J.Int gc);
              ("giant_max_p", J.Int gp);
              ("giant_max_l", J.Int gl);
              ("tiny_solves", J.Int tiny);
              ("domains", J.Int (Csutil.Par.Pool.size pool));
              ( "series",
                report
                  ~title:
                    (Printf.sprintf
                       "skewed batch -- 1 giant (c=%d, p<=%d, L<=%d) + %d tiny solves"
                       gc gp gl tiny)
                  [
                    Series.row ~timing:static_t "static_stripes";
                    Series.row ~timing:pool_t
                      ~fields:(Series.speedup "speedup_vs_static" ~base:static_t pool_t)
                      "shared_pool";
                  ] );
            ] );
      ])

(* --- DP grows on the bank_restart shape ----------------------------------- *)

(* A restart of perfbench's [bank_restart] workload grows each of its
   eight banked tables (p = 4) twice, L 8192 -> 16384 -> 32768, one
   after another on the cache's shard worker.  Each step is a series
   over all eight tables, sequential, reported per table too, with the
   last run's time split by the kernel's clocks into decode (old runs
   copied, old W decoded), fill (new cells, their runs appended) and
   pack (argmax mode rule, pack written).  Every grown pack must equal
   a fresh solve's word for word, which is what keeps bank files
   byte-identical. *)
let dp_grow_suite ~quick =
  heading "DP grows -- the bank_restart shape";
  let plan = Series.plan ~quick reps in
  let cs, p, l0 =
    if quick then ([ 4; 20 ], 4, 1024) else ([ 4; 6; 8; 10; 12; 14; 16; 20 ], 4, 8192)
  in
  let n = float_of_int (List.length cs) in
  let step (from, upto) =
    let fresh = List.map (fun c -> Dp.solve ~c ~max_p:p ~max_l:upto) cs in
    let t, (grown, k0, k1) =
      Series.time_with plan
        ~setup:(fun () -> List.map (fun c -> Dp.solve ~c ~max_p:p ~max_l:from) cs)
        (fun tabs ->
           let k0 = Dp.counters () in
           List.iter (fun t -> Dp.grow t ~max_p:p ~max_l:upto) tabs;
           (tabs, k0, Dp.counters ()))
    in
    List.iter2
      (fun g f ->
         if Dp.to_packed g <> Dp.to_packed f then
           die "bench dp grow (c=%d, L %d -> %d): pack differs from a fresh solve"
             (Dp.c g) from upto)
      grown fresh;
    let secs f = J.Float (float_of_int (f k1 - f k0) *. 1e-9) in
    Series.row ~timing:t
      ~fields:
        [
          ("per_table_s", J.Float (t.Series.median /. n));
          ("decode_s", secs (fun k -> k.Dp.decode_ns));
          ("fill_s", secs (fun k -> k.Dp.fill_ns));
          ("pack_s", secs (fun k -> k.Dp.pack_ns));
        ]
      (Printf.sprintf "grow L %d -> %d" from upto)
  in
  [
    ( "grow",
      J.Obj
        [
          ("c", J.List (List.map (fun c -> J.Int c) cs));
          ("max_p", J.Int p);
          ( "series",
            report
              ~title:
                (Printf.sprintf "%d tables, p = %d, sequential; split of the last run"
                   (List.length cs) p)
              [ step (l0, 2 * l0); step (2 * l0, 4 * l0) ] );
        ] );
  ]

let dp_suite ~quick =
  let kernel = dp_kernel_suite ~quick in
  let adversarial = dp_adversarial_suite ~quick in
  let skew = dp_skew_suite ~quick in
  kernel @ adversarial @ skew @ dp_grow_suite ~quick

(* --- Game solver: seed vs flat vs parallel -------------------------------- *)

(* The evaluate-path perf trajectory (DESIGN.md S18).  Before the shared
   solver, every evaluate ran the minimax recursion twice -- once for
   [guaranteed], once for [optimal_adversary] -- each over its own
   raw-float-keyed Hashtbl.  This times the full evaluate workload
   (value + adversary + replay through [Game.run]) under three solver
   configurations, asserts each banks the seed value and replays the
   seed episode structure bit-identically, and measures the cschedd
   resident-solver cache cold vs warm. *)

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
  if g_a <> g_b || outcome_fingerprint o_a <> outcome_fingerprint o_b then
    die "solver mismatch (%s): %.17g vs %.17g" what g_a g_b

let game_instance ~plan ~pool (c, u, p, grid) =
  let params = Model.params ~c in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let pol = Engine.Registry.policy params opp "adaptive" in
  (* The seed evaluate path: one private recursion for the value, a
     second (from scratch) for the adversary replay. *)
  let seed_eval () =
    let g = Oracle.Game_ref.guaranteed ~grid params opp pol in
    let adv = Oracle.Game_ref.optimal_adversary ~grid params opp pol in
    (g, Game.run params opp pol adv)
  in
  let shared_eval ?pool () =
    let solver = Game.Solver.create ~grid ?pool params opp pol in
    let g = Game.Solver.guaranteed solver in
    (g, Game.run params opp pol (Game.Solver.adversary solver))
  in
  let seed_t, seed = Series.time plan seed_eval in
  let flat_t, flat = Series.time plan (shared_eval ?pool:None) in
  let par_t, par = Series.time ~reset:Game.reset_counters plan (shared_eval ~pool) in
  let fills = (Game.counters ()).Game.parallel_fills in
  assert_evaluations_equal ~what:"shared_flat vs seed" flat seed;
  assert_evaluations_equal ~what:"shared_flat+parallel vs seed" par seed;
  if fills < 1 then die "bench game: parallel fan-out never fired in one solve";
  let vs_seed t = Series.speedup "speedup_vs_seed" ~base:seed_t t in
  J.Obj
    [
      ("c", J.Float c);
      ("u", J.Float u);
      ("p", J.Int p);
      ("grid", J.Float grid);
      ("policy", J.String "adaptive");
      ("guaranteed", J.Float (fst seed));
      ( "series",
        report
          ~title:
            (Printf.sprintf "c = %g, U = %g, p = %d, grid = %g (adaptive)" c u p grid)
          [
            Series.row ~timing:seed_t "seed";
            Series.row ~timing:flat_t ~fields:(vs_seed flat_t) "shared_flat";
            Series.row ~timing:par_t
              ~fields:
                (("domains", J.Int (Csutil.Par.Pool.size pool))
                 :: ("parallel_fills", J.Int fills) :: vs_seed par_t)
              "shared_flat+parallel";
          ] );
    ]

(* Cold vs warm through the cschedd resident-solver cache: the same
   evaluate request, first against a fresh cache per run (solver built
   and memo filled), then repeated on the last of those caches (solver
   resident, every value a memo hit; only the adversary replay itself
   re-runs).  With [dp_exact] every state the solver expands plans its
   episode from a packed dp table, the served path that reads packs
   hardest. *)
let game_service ~plan ~pool (policy, c, u, p) =
  let req = Service.Protocol.Evaluate { c; u; p; policy; periods = None } in
  let answer cache =
    match Service.Protocol.handle ~cache req with
    | Ok _ -> ()
    | Error e -> die "evaluate failed: %s" (Error.to_string e)
  in
  let cold_t, cache =
    Series.time plan (fun () ->
        let cache = Service.Cache.create ~pool ~capacity:8 () in
        answer cache;
        cache)
  in
  let warm_t, () = Series.time plan (fun () -> answer cache) in
  let s = Service.Cache.stats cache in
  J.Obj
    [
      ("c", J.Float c);
      ("u", J.Float u);
      ("p", J.Int p);
      ("policy", J.String policy);
      ( "series",
        report
          ~title:(Printf.sprintf "service evaluate (c=%g, U=%g, p=%d, %s)" c u p policy)
          [
            Series.row ~timing:cold_t "cold";
            Series.row ~timing:warm_t
              ~fields:
                (Series.speedup "speedup_vs_cold" ~base:cold_t warm_t
                 @ [
                   ("solver_hits", J.Int s.Service.Cache.solver_hits);
                   ("solver_misses", J.Int s.Service.Cache.solver_misses);
                 ])
              "warm";
          ] );
    ]

let game_suite ~quick =
  heading "Game solver -- seed vs flat vs parallel";
  let plan = Series.plan ~quick reps in
  let instances, service =
    if quick then ([ (1., 600., 2, 0.25) ], ("adaptive", 1., 2_000., 2))
    else ([ (1., 2_000., 4, 0.05); (1., 4_000., 5, 0.1) ], ("adaptive", 1., 20_000., 2))
  in
  with_pool (fun pool ->
      let instances = List.map (game_instance ~plan ~pool) instances in
      let service = game_service ~plan ~pool service in
      let dp_exact = game_service ~plan ~pool ("dp_exact", 5., 3_000., 3) in
      [
        ("instances", J.List instances);
        ("service", service);
        ("service_dp_exact", dp_exact);
      ])

(* --- Persistent memo tier: cold vs bank-mapped startup -------------------- *)

(* What the snapshot bank buys (DESIGN.md S20): the time from an empty
   process to the first warm answer.  The cold path is a fresh cache
   paying the solve; the bank-mapped path is a fresh cache over a
   precomputed bank -- open, warm, answer, with the table pages mapped
   from disk instead of computed.  Every run of either path starts from
   a fresh cache, and every mapped run reopens the bank.  Both paths
   must produce the same bytes, and the mapped path must fill no DP
   cell and expand no minimax state; the speedup is solve-vs-checksum,
   which widens with the table (solve is superlinear in the bounds, the
   CRC linear in the bytes). *)

let with_tmp_dir f =
  let dir = Filename.temp_file "csched_bank" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f dir)

let store_bank_series ~plan (label, req) =
  with_tmp_dir (fun dir ->
      let answer cache =
        match Service.Protocol.handle ~cache req with
        | Ok payload -> J.to_string payload
        | Error e -> die "bench store (%s): %s" label (Error.to_string e)
      in
      let open_bank ~create =
        match Store.Bank.open_dir ~create dir with
        | Ok b -> b
        | Error e -> die "bench store (%s): %s" label (Error.to_string e)
      in
      (* Cold: what a fresh bankless process pays to its first answer. *)
      let cold_t, cold_out =
        Series.time plan (fun () -> answer (Service.Cache.create ~capacity:8 ()))
      in
      (* Precompute the bank (csched precompute's job; untimed).  A game
         row reports the memo states it banked beside the bytes. *)
      let bank = open_bank ~create:true in
      Game.reset_counters ();
      ignore (answer (Service.Cache.create ~bank ~capacity:8 ()));
      let banked_states = (Game.counters ()).Game.states in
      let bank_bytes =
        Array.fold_left
          (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
          0 (Sys.readdir dir)
      in
      (* Bank-mapped: a fresh process over the precomputed bank. *)
      let mapped_t, (bank, warmed, mapped_out) =
        Series.time plan
          ~reset:(fun () ->
              Dp.reset_counters ();
              Game.reset_counters ())
          (fun () ->
             let bank = open_bank ~create:false in
             let cache = Service.Cache.create ~bank ~capacity:8 () in
             let warmed = Service.Cache.warm_from_bank cache in
             (bank, warmed, answer cache))
      in
      if not (String.equal mapped_out cold_out) then
        die "bench store (%s): bank-mapped answer differs from cold solve" label;
      let cells = (Dp.counters ()).Dp.cells_filled
      and states = (Game.counters ()).Game.states in
      if cells <> 0 || states <> 0 then
        die "bench store (%s): mapped path did compute work (%d cells, %d states)" label
          cells states;
      (* Startup warming is deliberately uncounted (serving stats only),
         so a dp series proves its bank use by the warmed-table count
         and a game series by a counted serving hit. *)
      let bc = Store.Bank.counters bank in
      if (warmed < 1 && bc.Store.Bank.hits < 1) || bc.Store.Bank.load_failures > 0 then
        die "bench store (%s): bank not exercised (%d warmed, %d hits, %d failures)" label
          warmed bc.Store.Bank.hits bc.Store.Bank.load_failures;
      J.Obj
        ([
          ("instance", J.String label);
          ("request", J.String (J.to_string (Service.Protocol.request_to_json req)));
          ("bank_bytes", J.Int bank_bytes);
        ]
        @ (if banked_states > 0 then [ ("states", J.Int banked_states) ] else [])
        @ [
          ( "series",
            report ~title:(Printf.sprintf "%s -- cold solve vs bank-mapped startup" label)
              [
                Series.row ~timing:cold_t "cold";
                Series.row ~timing:mapped_t
                  ~fields:
                    (Series.speedup "speedup_vs_cold" ~base:cold_t mapped_t
                     @ [
                       ("tables_warmed", J.Int warmed);
                       ("bank_hits", J.Int bc.Store.Bank.hits);
                     ])
                  "bank_mapped";
              ] );
        ]))

(* Snapshot format economics: a solved table written
   breakpoint-compressed ([save_dp], format v2) and mapped back through
   [load_dp].  The load must reproduce the table cell for cell and the
   file must be smaller than the same cells dense
   ([Dp.dense_footprint_bytes]); the series times the mapped load (CRC +
   validation). *)
let store_snapshot_series ~plan (label, (c, max_p, max_l)) =
  with_tmp_dir (fun dir ->
      let dp = Dp.solve ~c ~max_p ~max_l in
      let path = Filename.concat dir "dp.snap" in
      Store.Snapshot.save_dp ~path dp;
      let load_t, loaded =
        Series.time plan (fun () ->
            match Store.Snapshot.load_dp ~path ~c with
            | Ok t -> t
            | Error e -> die "bench store (%s): %s" label (Error.to_string e))
      in
      assert_same_tables ~what:(label ^ ": v2 load vs solve") loaded dp;
      let v2_bytes = (Unix.stat path).Unix.st_size
      and dense_bytes = Dp.dense_footprint_bytes dp in
      if v2_bytes >= dense_bytes then
        die "bench store (%s): v2 snapshot (%d B) not smaller than dense (%d B)" label
          v2_bytes dense_bytes;
      J.Obj
        [
          ("instance", J.String label);
          ("c", J.Int c);
          ("max_p", J.Int max_p);
          ("max_l", J.Int max_l);
          ("dense_bytes", J.Int dense_bytes);
          ("v2_bytes", J.Int v2_bytes);
          ("compression", J.Float (float_of_int dense_bytes /. float_of_int v2_bytes));
          ( "series",
            report ~title:(Printf.sprintf "%s -- snapshot load" label)
              [ Series.row ~timing:load_t "v2_load" ] );
        ])

let store_suite ~quick =
  heading "Persistent memo tier -- cold solve vs bank-mapped startup";
  let plan = Series.plan ~quick reps in
  let dp ~c ~p ~l = Service.Protocol.Dp_query { c_ticks = c; l; p } in
  let game ~c ~u ~p =
    Service.Protocol.Evaluate { c; u; p; policy = "adaptive"; periods = None }
  in
  let banks, snapshots =
    if quick then
      ( [ ("dp_small", dp ~c:9 ~p:3 ~l:1800); ("game_small", game ~c:1. ~u:8_000. ~p:2) ],
        [ ("snapshot_small", (9, 3, 1800)) ] )
    else
      ( [
        ("dp_mid", dp ~c:10 ~p:4 ~l:4_000);
        ("dp_large", dp ~c:64 ~p:32 ~l:60_000);
        ("game_large", game ~c:1. ~u:100_000. ~p:3);
      ],
        [ ("snapshot_mid", (10, 4, 4_000)); ("snapshot_large", (1, 64, 50_000)) ] )
  in
  let banks = List.map (store_bank_series ~plan) banks in
  [
    ("banks", J.List banks);
    ("snapshots", J.List (List.map (store_snapshot_series ~plan) snapshots));
  ]

(* --- Driver --------------------------------------------------------------- *)

let usage () =
  prerr_string
    "usage: main.exe [--csv DIR] [tables | series (e3..e10 | growth) | ablations | \
     service | growth | dp [--quick | --out FILE] | dp (--skew | --adversarial) \
     [--quick] | game [--quick | --out FILE] | store [--quick | --out FILE] | \
     bechamel]\n";
  exit 2

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
  | s ->
    Printf.eprintf "unknown series %S\n" s;
    usage ()

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

(* [bench [--quick | --out FILE]]; [--out] only for a suite with a BENCH
   file. *)
let suite ~bench ?out run = function
  | [] -> Series.run ~bench ~quick:false ?out run
  | [ "--quick" ] -> Series.run ~bench ~quick:true run
  | [ "--out"; path ] when out <> None -> Series.run ~bench ~quick:false ~out:path run
  | _ -> usage ()

let () =
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
    | [ "dp"; "--quick" ] ->
      Series.run ~bench:"dp" ~quick:true (fun ~quick ->
          let kernel = dp_kernel_suite ~quick in
          kernel @ dp_grow_suite ~quick)
    | "dp" :: "--skew" :: rest -> suite ~bench:"dp --skew" dp_skew_suite rest
    | "dp" :: "--adversarial" :: rest ->
      suite ~bench:"dp --adversarial" dp_adversarial_suite rest
    | "dp" :: rest -> suite ~bench:"dp" ~out:"BENCH_dp.json" dp_suite rest
    | "game" :: rest -> suite ~bench:"game" ~out:"BENCH_game.json" game_suite rest
    | "store" :: rest -> suite ~bench:"store" ~out:"BENCH_store.json" store_suite rest
    | [ "bechamel" ] -> bechamel ()
    | other ->
      Printf.eprintf "got: %s\n" (String.concat " " other);
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))
