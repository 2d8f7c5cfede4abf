(* Tests for the game engine and the exact minimax evaluator (paper
   Section 4's game, Section 2.2's accounting). *)

open Cyclesteal

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let params = Model.params ~c:1.

(* --- Policy plumbing ---------------------------------------------------- *)

let test_initial_context () =
  let opp = Model.opportunity ~lifespan:100. ~interrupts:3 in
  let ctx = Policy.initial_context params opp in
  check_float "residual" 100. ctx.Policy.residual;
  Alcotest.(check int) "interrupts" 3 ctx.Policy.interrupts_left;
  check_float "elapsed" 0. (Policy.elapsed ctx);
  Alcotest.(check int) "used" 0 (Policy.interrupts_used ctx)

let test_non_adaptive_tail_resume () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:2 in
  let committed = Schedule.of_list [ 4.; 3.; 2.; 1. ] in
  let policy = Policy.non_adaptive ~committed in
  (* Initial plan is the committed schedule. *)
  let ctx0 = Policy.initial_context params opp in
  Alcotest.(check bool) "initial plan" true
    (Schedule.equal committed (Policy.plan policy ctx0));
  (* After an interrupt at T_2 = 7 (killing period 2), the tail is
     periods 3, 4. *)
  let ctx1 = { ctx0 with Policy.residual = 3.; interrupts_left = 1 } in
  let plan1 = Policy.plan policy ctx1 in
  Alcotest.(check bool) "tail" true (Schedule.equal (Schedule.of_list [ 2.; 1. ]) plan1);
  (* After the p-th interrupt: one long period of the residual. *)
  let ctx2 = { ctx0 with Policy.residual = 5.; interrupts_left = 0 } in
  let plan2 = Policy.plan policy ctx2 in
  Alcotest.(check int) "one long period" 1 (Schedule.length plan2);
  check_float "long period residual" 5. (Schedule.total plan2)

let test_non_adaptive_mid_period_resume () =
  (* Interrupt mid-period 2 at elapsed 5.5: period 2 is killed; the tail
     (3, 4) totals 3 but the residual is 4.5, so a slack period is
     appended. *)
  let opp = Model.opportunity ~lifespan:10. ~interrupts:2 in
  let committed = Schedule.of_list [ 4.; 3.; 2.; 1. ] in
  let policy = Policy.non_adaptive ~committed in
  let ctx0 = Policy.initial_context params opp in
  let ctx = { ctx0 with Policy.residual = 4.5; interrupts_left = 1 } in
  let plan = Policy.plan policy ctx in
  check_float "covers residual" 4.5 (Schedule.total plan);
  Alcotest.(check int) "tail + slack" 3 (Schedule.length plan);
  check_float "first tail period" 2. (Schedule.period plan 1)

(* --- Engine accounting -------------------------------------------------- *)

let test_run_no_adversary () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:1 in
  let policy = Policy.non_adaptive ~committed:(Schedule.of_list [ 5.; 5. ]) in
  let outcome = Game.run params opp policy Adversary.none in
  check_float "work" 8. outcome.Game.work;
  Alcotest.(check int) "episodes" 1 (List.length outcome.Game.episodes);
  Alcotest.(check int) "no interrupts" 0 outcome.Game.interrupts_used

let test_run_with_fixed_interrupt () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:1 in
  let policy = Policy.non_adaptive ~committed:(Schedule.of_list [ 5.; 5. ]) in
  (* Kill period 1 at its last instant: 0 banked; then one long period of
     the 5 remaining -> 4 work. *)
  let adv =
    Adversary.make ~name:"k1" ~decide:(fun ctx _ ->
        if ctx.Policy.interrupts_left > 0 then
          Adversary.Interrupt { period = 1; fraction = 1.0 }
        else Adversary.Let_run)
  in
  let outcome = Game.run params opp policy adv in
  check_float "work" 4. outcome.Game.work;
  Alcotest.(check int) "interrupts" 1 outcome.Game.interrupts_used;
  Alcotest.(check int) "episodes" 2 (List.length outcome.Game.episodes);
  match outcome.Game.episodes with
  | [ e1; e2 ] ->
    (match e1.Game.outcome with
     | Game.Interrupted { period = 1; fraction } -> check_float "fraction" 1.0 fraction
     | _ -> Alcotest.fail "episode 1 should be interrupted");
    check_float "e1 duration" 5. e1.Game.duration;
    check_float "e1 work" 0. e1.Game.work;
    (match e2.Game.outcome with
     | Game.Completed -> ()
     | _ -> Alcotest.fail "episode 2 should complete");
    check_float "e2 work" 4. e2.Game.work
  | _ -> Alcotest.fail "expected two episodes"

let test_run_mid_period_interrupt () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:1 in
  let policy = Policy.non_adaptive ~committed:(Schedule.of_list [ 5.; 5. ]) in
  (* Kill period 2 halfway: banked 4 from period 1; elapsed 7.5; tail is
     empty so the final 2.5 runs as one slack period -> 1.5. *)
  let adv =
    Adversary.make ~name:"k2half" ~decide:(fun ctx _ ->
        if ctx.Policy.interrupts_left > 0 then
          Adversary.Interrupt { period = 2; fraction = 0.5 }
        else Adversary.Let_run)
  in
  let outcome = Game.run params opp policy adv in
  check_float "work" 5.5 outcome.Game.work;
  Alcotest.(check int) "episodes" 2 (List.length outcome.Game.episodes)

let test_run_exhausted_budget_forces_let_run () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:0 in
  let policy = Policy.one_long_period in
  (* A hostile adversary that always wants to interrupt is neutralised by
     the zero budget. *)
  let adv =
    Adversary.make ~name:"hostile" ~decide:(fun _ _ ->
        Adversary.Interrupt { period = 1; fraction = 1.0 })
  in
  let outcome = Game.run params opp policy adv in
  check_float "full work" 9. outcome.Game.work;
  Alcotest.(check int) "no interrupts" 0 outcome.Game.interrupts_used

let test_run_rejects_overrunning_policy () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:0 in
  let policy =
    Policy.make ~name:"overrun" ~plan:(fun _ -> Schedule.singleton 20.)
  in
  (try
     ignore (Game.run params opp policy Adversary.none);
     Alcotest.fail "overrun accepted"
   with Error.Error _ -> ())

(* --- guaranteed = minimax ------------------------------------------------ *)

(* For non-adaptive schedules, Game.guaranteed must agree with the
   independent Nonadaptive.worst_case DP. *)
let test_guaranteed_matches_nonadaptive_dp () =
  List.iter
    (fun (u, p) ->
       let opp = Model.opportunity ~lifespan:u ~interrupts:p in
       let s = Nonadaptive.guideline params ~u ~p in
       let policy = Policy.non_adaptive ~committed:s in
       let w_dp, _ = Nonadaptive.worst_case params ~u ~p s in
       let w_game = Game.guaranteed params opp policy in
       check_float (Printf.sprintf "u=%g p=%d" u p) w_dp w_game)
    [ (100., 1); (100., 2); (300., 2); (144., 3) ]

(* For p = 1 adaptive play, guaranteed must agree with the closed-form
   episode evaluator. *)
let test_guaranteed_matches_opt_p1_evaluator () =
  List.iter
    (fun u ->
       let opp = Model.opportunity ~lifespan:u ~interrupts:1 in
       let policy =
         Policy.of_episode_family ~name:"opt-p1" (fun params ~p ~residual ->
             if p >= 1 then Opt_p1.schedule params ~u:residual
             else Schedule.singleton residual)
       in
       let w_eval = Opt_p1.exact_work params ~u in
       let w_game = Game.guaranteed params opp policy in
       check_float ~eps:1e-6 (Printf.sprintf "u=%g" u) w_eval w_game)
    [ 50.; 100.; 1000. ]

(* Replaying the optimal adversary through the engine reproduces the
   guaranteed value exactly. *)
let test_optimal_adversary_replay () =
  List.iter
    (fun (u, p, policy) ->
       let opp = Model.opportunity ~lifespan:u ~interrupts:p in
       let g = Game.guaranteed params opp policy in
       let adv = Game.optimal_adversary params opp policy in
       let outcome = Game.run params opp policy adv in
       check_float ~eps:1e-6
         (Printf.sprintf "u=%g p=%d %s" u p (Policy.name policy))
         g outcome.Game.work)
    [
      (100., 1, Policy.adaptive_guideline);
      (100., 2, Policy.adaptive_guideline);
      (100., 2, Policy.adaptive_calibrated);
      (100., 1, Policy.one_long_period);
    ]

(* No adversary strategy in our library beats the computed guaranteed
   floor (last-instant minimax) for the monotone policies shipped. *)
let test_guaranteed_is_floor () =
  let u = 200. in
  let p = 2 in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let policies =
    [ Policy.adaptive_guideline; Policy.adaptive_calibrated;
      Policy.nonadaptive_guideline params opp; Policy.one_long_period ]
  in
  let rng = Csutil.Rng.create ~seed:99 in
  List.iter
    (fun policy ->
       let g = Game.guaranteed params opp policy in
       let adversaries =
         [ Adversary.none; Adversary.kill_last; Adversary.kill_first;
           Adversary.eager_tail; Adversary.random ~rng ~prob_per_episode:0.7 ]
       in
       List.iter
         (fun adv ->
            let outcome = Game.run params opp policy adv in
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s" (Policy.name policy) (Adversary.name adv))
              true
              (outcome.Game.work >= g -. 1e-6))
         adversaries)
    policies

(* Prop 4.1(d): with p = 0 the single long period achieves U - c and the
   engine reports exactly that. *)
let test_p0_value () =
  let opp = Model.opportunity ~lifespan:33. ~interrupts:0 in
  check_float "U - c" 32. (Game.guaranteed params opp Policy.one_long_period)

(* The grid-rounded evaluator lower-bounds the exact one and converges
   as the grid refines. *)
let test_grid_lower_bounds_exact () =
  let u = 100. in
  let opp = Model.opportunity ~lifespan:u ~interrupts:2 in
  let exact = Game.guaranteed params opp Policy.adaptive_guideline in
  let coarse = Game.guaranteed ~grid:1.0 params opp Policy.adaptive_guideline in
  let fine = Game.guaranteed ~grid:0.01 params opp Policy.adaptive_guideline in
  Alcotest.(check bool) "coarse <= exact" true (coarse <= exact +. 1e-9);
  Alcotest.(check bool) "fine <= exact" true (fine <= exact +. 1e-9);
  Alcotest.(check bool) "fine within grid slack" true (exact -. fine <= 0.1)

let test_state_budget_exception () =
  let u = 5000. in
  let opp = Model.opportunity ~lifespan:u ~interrupts:3 in
  (try
     ignore
       (Game.guaranteed ~max_states:50 params opp Policy.adaptive_guideline);
     Alcotest.fail "expected state budget exception"
   with Error.Error (Error.Budget_exhausted _) -> ())

(* at_times adversary: trace-driven interrupts land in the right period
   with the right fraction. *)
let test_at_times_adversary () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:2 in
  let policy = Policy.non_adaptive ~committed:(Schedule.of_list [ 4.; 3.; 3. ]) in
  let adv = Adversary.at_times [ 5.5 ] in
  let outcome = Game.run params opp policy adv in
  (* Interrupt at absolute 5.5 hits period 2 (window [4,7)) at fraction
     0.5: banked (4-1) = 3; residual 4.5; tail = period 3 (len 3) then
     slack 1.5: (3-1) + (1.5-1) = 2.5. *)
  check_float "work" 5.5 outcome.Game.work;
  Alcotest.(check int) "one interrupt" 1 outcome.Game.interrupts_used

let test_at_times_validation () =
  (try
     ignore (Adversary.at_times [ 3.; 2. ]);
     Alcotest.fail "unsorted accepted"
   with Error.Error _ -> ());
  (try
     ignore (Adversary.at_times [ -1. ]);
     Alcotest.fail "negative accepted"
   with Error.Error _ -> ())

(* Adversary plumbing: named strategies behave as documented and
   malformed actions from custom strategies are rejected. *)
let test_adversary_strategies () =
  let opp = Model.opportunity ~lifespan:10. ~interrupts:2 in
  let ctx = Policy.initial_context params opp in
  let s = Schedule.of_list [ 4.; 3.; 3. ] in
  (match Adversary.decide Adversary.kill_last ctx s with
   | Adversary.Interrupt { period = 3; fraction } ->
     Alcotest.check (Alcotest.float 1e-12) "last instant" 1.0 fraction
   | _ -> Alcotest.fail "kill_last should kill the last period");
  (match Adversary.decide Adversary.kill_first ctx s with
   | Adversary.Interrupt { period = 1; _ } -> ()
   | _ -> Alcotest.fail "kill_first should kill period 1");
  (* eager_tail with budget 2 over 3 periods kills period m - p + 1 = 2. *)
  (match Adversary.decide Adversary.eager_tail ctx s with
   | Adversary.Interrupt { period = 2; _ } -> ()
   | _ -> Alcotest.fail "eager_tail should kill period m - p + 1");
  (* Budget exhausted: every strategy is forced to Let_run. *)
  let spent = { ctx with Policy.interrupts_left = 0 } in
  (match Adversary.decide Adversary.kill_last spent s with
   | Adversary.Let_run -> ()
   | _ -> Alcotest.fail "budget must gate decisions");
  (* Malformed actions are rejected at the boundary. *)
  let bad_period =
    Adversary.make ~name:"bad" ~decide:(fun _ _ ->
        Adversary.Interrupt { period = 9; fraction = 1.0 })
  in
  (try
     ignore (Adversary.decide bad_period ctx s);
     Alcotest.fail "period out of range accepted"
   with Error.Error _ -> ());
  let bad_fraction =
    Adversary.make ~name:"bad" ~decide:(fun _ _ ->
        Adversary.Interrupt { period = 1; fraction = 0. })
  in
  (try
     ignore (Adversary.decide bad_fraction ctx s);
     Alcotest.fail "zero fraction accepted"
   with Error.Error _ -> ())

let test_interrupt_at_offset () =
  let s = Schedule.of_list [ 4.; 3.; 3. ] in
  (match Adversary.interrupt_at_offset s ~offset:5.5 with
   | Adversary.Interrupt { period = 2; fraction } ->
     Alcotest.check (Alcotest.float 1e-9) "fraction" 0.5 fraction
   | _ -> Alcotest.fail "offset 5.5 lands in period 2");
  (* Boundary offset = T_1 is the last instant of period 1. *)
  (match Adversary.interrupt_at_offset s ~offset:4. with
   | Adversary.Interrupt { period = 1; fraction } ->
     Alcotest.check (Alcotest.float 1e-9) "last instant" 1.0 fraction
   | _ -> Alcotest.fail "boundary convention");
  (* Beyond the episode clamps into the final period. *)
  match Adversary.interrupt_at_offset s ~offset:11. with
  | Adversary.Interrupt { period = 3; fraction } ->
    Alcotest.check (Alcotest.float 1e-9) "clamped" 1.0 fraction
  | _ -> Alcotest.fail "clamping"

let test_render_timeline () =
  let opp = Model.opportunity ~lifespan:100. ~interrupts:1 in
  let policy = Policy.adaptive_guideline in
  let adv = Game.optimal_adversary params opp policy in
  let outcome = Game.run params opp policy adv in
  let s = Game.render_timeline params opp outcome in
  let lines = String.split_on_char '\n' (String.trim s) in
  (* Header plus one lane per episode. *)
  Alcotest.(check int) "lanes" (1 + List.length outcome.Game.episodes)
    (List.length lines);
  Alcotest.(check bool) "marks an interrupt" true (String.contains s '!');
  Alcotest.(check bool) "marks work" true (String.contains s '=');
  (try
     ignore (Game.render_timeline ~width:4 params opp outcome);
     Alcotest.fail "narrow width accepted"
   with Error.Error _ -> ())

(* The assumption behind restricting the minimax to last-instant
   placements: every shipped policy's value is monotone non-decreasing
   in the residual lifespan.  Checked on a residual grid for each
   policy. *)
let test_policy_value_monotone_in_residual () =
  let u = 300. in
  let opp = Model.opportunity ~lifespan:u ~interrupts:2 in
  List.iter
    (fun policy ->
       let value r = Game.guaranteed_at params opp policy ~p:1 ~residual:r in
       let prev = ref 0. in
       for i = 1 to 60 do
         let r = u *. float_of_int i /. 60. in
         let v = value r in
         Alcotest.(check bool)
           (Printf.sprintf "%s at r=%g: %g >= %g" (Policy.name policy) r v !prev)
           true
           (v >= !prev -. 1e-9);
         prev := v
       done)
    [
      Policy.adaptive_guideline; Policy.adaptive_calibrated;
      Policy.one_long_period;
      Policy.nonadaptive_guideline params opp;
    ]

(* --- Shared solver ------------------------------------------------------- *)

(* One solver answers guaranteed and then powers the adversary replay
   from the same memo: the replay must not re-expand the state space.
   A fresh solver answering only [guaranteed] sets the baseline. *)
let test_states_not_double_counted () =
  let opp = Model.opportunity ~lifespan:150. ~interrupts:2 in
  let pol = Policy.adaptive_guideline in
  let baseline = Game.Solver.create params opp pol in
  ignore (Game.Solver.guaranteed baseline);
  let shared = Game.Solver.create params opp pol in
  ignore (Game.Solver.guaranteed shared);
  let outcome = Game.run params opp pol (Game.Solver.adversary shared) in
  check_float ~eps:1e-6 "replay banks guaranteed"
    (Game.Solver.guaranteed shared) outcome.Game.work;
  let base = Game.Solver.states baseline in
  let total = Game.Solver.states shared in
  Alcotest.(check bool)
    (Printf.sprintf "states %d not double-counted vs %d" total base)
    true
    (total <= base + 5)

(* A solver queried past its opportunity's budget and lifespan answers
   exactly like a solver created large, and like the seed recursion. *)
let test_solver_grow_matches_fresh () =
  let opp = Model.opportunity ~lifespan:60. ~interrupts:1 in
  let big = Model.opportunity ~lifespan:240. ~interrupts:3 in
  let pol = Policy.adaptive_guideline in
  let grown = Game.Solver.create ~grid:0.5 params opp pol in
  ignore (Game.Solver.guaranteed grown);
  let v_grown = Game.Solver.value grown ~p:3 ~residual:240. in
  let fresh = Game.Solver.create ~grid:0.5 params big pol in
  let v_fresh = Game.Solver.value fresh ~p:3 ~residual:240. in
  let v_seed = Oracle.Game_ref.guaranteed_at ~grid:0.5 params big pol ~p:3 ~residual:240. in
  Alcotest.(check bool) "grown = fresh" true (v_grown = v_fresh);
  Alcotest.(check bool) "grown = seed" true (v_grown = v_seed);
  Alcotest.(check int) "answered budget grew" 3 (Game.Solver.answered_p grown)

let test_solver_counters () =
  Game.reset_counters ();
  let opp = Model.opportunity ~lifespan:80. ~interrupts:2 in
  let s = Game.Solver.create ~grid:0.5 params opp Policy.adaptive_guideline in
  ignore (Game.Solver.guaranteed s);
  ignore (Game.Solver.guaranteed s);
  let k = Game.counters () in
  Alcotest.(check bool) "states counted" true (k.Game.states > 0);
  Alcotest.(check bool) "plans counted" true (k.Game.plans_computed > 0);
  Alcotest.(check bool) "repeat query is a memo hit" true (k.Game.memo_hits > 0);
  Alcotest.(check int) "plans computed once per state" k.Game.states
    k.Game.plans_computed;
  Game.reset_counters ();
  let z = Game.counters () in
  Alcotest.(check int) "states reset" 0 z.Game.states;
  Alcotest.(check int) "hits reset" 0 z.Game.memo_hits;
  Alcotest.(check int) "plans reset" 0 z.Game.plans_computed;
  Alcotest.(check int) "fills reset" 0 z.Game.parallel_fills

(* The parallel fan-out shares the memo across domains; values must not
   depend on it. *)
let test_parallel_value_matches_sequential () =
  let opp = Model.opportunity ~lifespan:400. ~interrupts:2 in
  let pol = Policy.adaptive_guideline in
  let seq = Game.Solver.create ~grid:0.25 params opp pol in
  let v_seq = Game.Solver.guaranteed seq in
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      Game.reset_counters ();
      let par = Game.Solver.create ~grid:0.25 ~pool params opp pol in
      let v_par = Game.Solver.guaranteed par in
      Alcotest.(check bool) "parallel = sequential" true (v_par = v_seq);
      Alcotest.(check bool) "fan-out fired" true
        ((Game.counters ()).Game.parallel_fills >= 1))

(* --- QCheck: engine-level invariants ------------------------------------ *)

let arb_cfg =
  QCheck.make
    ~print:(fun (u, p, seed) -> Printf.sprintf "u=%g p=%d seed=%d" u p seed)
    QCheck.Gen.(
      triple
        (map (fun x -> 10. +. (x *. 300.)) (float_bound_exclusive 1.))
        (0 -- 3) (0 -- 1000))

let prop_work_bounded_by_lifespan =
  QCheck.Test.make ~name:"work <= U - (episodes' overhead) <= U" ~count:150
    arb_cfg (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let rng = Csutil.Rng.create ~seed in
      let adv = Adversary.random ~rng ~prob_per_episode:0.5 in
      let outcome = Game.run params opp Policy.adaptive_guideline adv in
      outcome.Game.work <= u +. 1e-9 && outcome.Game.work >= 0.)

let prop_durations_sum_to_lifespan =
  QCheck.Test.make ~name:"episode durations sum to U" ~count:150 arb_cfg
    (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let rng = Csutil.Rng.create ~seed in
      let adv = Adversary.random ~rng ~prob_per_episode:0.5 in
      let outcome = Game.run params opp Policy.adaptive_guideline adv in
      let total =
        List.fold_left (fun acc e -> acc +. e.Game.duration) 0. outcome.Game.episodes
      in
      Csutil.Float_ext.approx_eq ~rtol:1e-6 ~atol:1e-6 total u)

let prop_interrupts_within_budget =
  QCheck.Test.make ~name:"interrupts used <= p" ~count:150 arb_cfg
    (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let rng = Csutil.Rng.create ~seed in
      let adv = Adversary.random ~rng ~prob_per_episode:0.9 in
      let outcome = Game.run params opp Policy.adaptive_guideline adv in
      outcome.Game.interrupts_used <= p)

let prop_episode_work_sums_to_total =
  QCheck.Test.make ~name:"episode works sum to outcome work" ~count:150 arb_cfg
    (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let rng = Csutil.Rng.create ~seed in
      let adv = Adversary.random ~rng ~prob_per_episode:0.5 in
      let outcome = Game.run params opp Policy.adaptive_guideline adv in
      let total =
        List.fold_left
          (fun acc (e : Game.episode_record) -> acc +. e.Game.work)
          0. outcome.Game.episodes
      in
      Csutil.Float_ext.approx_eq ~rtol:1e-9 ~atol:1e-9 total outcome.Game.work)

(* Replaying the solver's adversary through the engine banks exactly the
   guaranteed value (ungridded).  With a grid the value is computed on
   floored residuals while the replay accrues exact work, so the two
   drift apart by at most a grid step per episode — in either
   direction: flooring a residual can both under-credit the replay's
   exact progress and steer the gridded recursion through states whose
   exact replay banks slightly less than the gridded value claims. *)
let prop_solver_replay_banks_guaranteed =
  QCheck.Test.make ~name:"solver adversary replay banks guaranteed" ~count:60
    arb_cfg (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let pol =
        if seed mod 2 = 0 then Policy.adaptive_guideline
        else Policy.adaptive_calibrated
      in
      let grid = if seed mod 3 = 0 then Some 0.5 else None in
      let solver = Game.Solver.create ?grid params opp pol in
      let g = Game.Solver.guaranteed solver in
      let outcome = Game.run params opp pol (Game.Solver.adversary solver) in
      let work = outcome.Game.work in
      match grid with
      | None -> Csutil.Float_ext.approx_eq ~rtol:1e-6 ~atol:1e-6 g work
      | Some gr ->
        let slack = gr *. float_of_int (p + 2) in
        work >= g -. slack -. 1e-6 && work <= g +. slack +. 1e-6)

(* On a grid, the sparse memo and the seed recursion are the same
   function, bit for bit. *)
let prop_solver_variants_agree_on_grid =
  QCheck.Test.make ~name:"flat = seed solver on a grid" ~count:60
    arb_cfg (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let pol =
        if seed mod 2 = 0 then Policy.adaptive_guideline
        else Policy.one_long_period
      in
      let grid = if seed mod 3 = 0 then 1.0 else 0.25 in
      let v_seed = Oracle.Game_ref.guaranteed ~grid params opp pol in
      let flat = Game.Solver.create ~grid params opp pol in
      Game.Solver.guaranteed flat = v_seed)

(* Ungridded, the solver's mantissa-masked keys may merge states the
   seed's raw-float keys keep apart; values agree to within the
   progress tolerance. *)
let prop_solver_matches_seed_ungridded =
  QCheck.Test.make ~name:"ungridded solver matches seed recursion" ~count:60
    arb_cfg (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let pol =
        if seed mod 2 = 0 then Policy.adaptive_guideline
        else Policy.adaptive_calibrated
      in
      let v_seed = Oracle.Game_ref.guaranteed params opp pol in
      let v = Game.Solver.guaranteed (Game.Solver.create params opp pol) in
      Csutil.Float_ext.approx_eq ~rtol:1e-9 ~atol:(1e-6 *. u) v_seed v)

(* The sparse memo against the seed recursion, on gridded and
   ungridded identities, answered sequentially and through a 2-slot
   fan-out (private overlays merged at the join): gridded values equal
   [Game_ref]'s bit for bit, ungridded ones to within the progress
   tolerance.  Each solver answers the root and then interior states
   over its partly filled memo; lifespans up to 2,000 push gridded
   memos through several rehashes. *)
let fan_pool = lazy (Csutil.Par.Pool.create ~domains:2)

let prop_memo_matches_ref =
  QCheck.Test.make ~name:"sparse memo = Ref, sequential and fanned out"
    ~count:40
    QCheck.(
      make
        ~print:(fun (u, p, seed) -> Printf.sprintf "u=%g p=%d seed=%d" u p seed)
        Gen.(
          triple
            (map (fun x -> 10. +. (x *. 1990.)) (float_bound_exclusive 1.))
            (0 -- 3) (0 -- 1000)))
    (fun (u, p, seed) ->
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let pol =
        if seed mod 2 = 0 then Policy.adaptive_guideline
        else Policy.adaptive_calibrated
      in
      let grid =
        match seed mod 3 with 0 -> None | 1 -> Some 0.5 | _ -> Some 0.25
      in
      let queries = [ (p, u); (p, 0.7 *. u); (max 0 (p - 1), 0.9 *. u) ] in
      let agree solver =
        List.for_all
          (fun (p, residual) ->
            let v = Game.Solver.value solver ~p ~residual in
            let v_ref = Oracle.Game_ref.guaranteed_at ?grid params opp pol ~p ~residual in
            match grid with
            | Some _ -> v = v_ref
            | None ->
              Csutil.Float_ext.approx_eq ~rtol:1e-9 ~atol:(1e-6 *. u) v_ref v)
          queries
      in
      agree (Game.Solver.create ?grid params opp pol)
      && agree
           (Game.Solver.create ?grid ~pool:(Lazy.force fan_pool) params opp pol))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "game"
    [
      ( "policy",
        [
          Alcotest.test_case "initial context" `Quick test_initial_context;
          Alcotest.test_case "non-adaptive tail" `Quick test_non_adaptive_tail_resume;
          Alcotest.test_case "mid-period resume" `Quick
            test_non_adaptive_mid_period_resume;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no adversary" `Quick test_run_no_adversary;
          Alcotest.test_case "fixed interrupt" `Quick test_run_with_fixed_interrupt;
          Alcotest.test_case "mid-period interrupt" `Quick
            test_run_mid_period_interrupt;
          Alcotest.test_case "budget exhausted" `Quick
            test_run_exhausted_budget_forces_let_run;
          Alcotest.test_case "overrun rejected" `Quick
            test_run_rejects_overrunning_policy;
          Alcotest.test_case "at_times adversary" `Quick test_at_times_adversary;
          Alcotest.test_case "at_times validation" `Quick test_at_times_validation;
        ] );
      ( "minimax",
        [
          Alcotest.test_case "matches non-adaptive DP" `Quick
            test_guaranteed_matches_nonadaptive_dp;
          Alcotest.test_case "matches Opt_p1 evaluator" `Quick
            test_guaranteed_matches_opt_p1_evaluator;
          Alcotest.test_case "optimal adversary replay" `Quick
            test_optimal_adversary_replay;
          Alcotest.test_case "guaranteed is a floor" `Slow test_guaranteed_is_floor;
          Alcotest.test_case "p=0 value" `Quick test_p0_value;
          Alcotest.test_case "grid lower-bounds exact" `Quick
            test_grid_lower_bounds_exact;
          Alcotest.test_case "state budget" `Quick test_state_budget_exception;
          Alcotest.test_case "policy value monotone in residual" `Slow
            test_policy_value_monotone_in_residual;
          Alcotest.test_case "render timeline" `Quick test_render_timeline;
          Alcotest.test_case "adversary strategies" `Quick test_adversary_strategies;
          Alcotest.test_case "interrupt_at_offset" `Quick test_interrupt_at_offset;
        ] );
      ( "solver",
        [
          Alcotest.test_case "states not double-counted" `Quick
            test_states_not_double_counted;
          Alcotest.test_case "grow matches fresh" `Quick
            test_solver_grow_matches_fresh;
          Alcotest.test_case "counters" `Quick test_solver_counters;
          Alcotest.test_case "parallel value" `Quick
            test_parallel_value_matches_sequential;
        ] );
      ( "props",
        qc
          [
            prop_work_bounded_by_lifespan;
            prop_durations_sum_to_lifespan;
            prop_interrupts_within_budget;
            prop_episode_work_sums_to_total;
            prop_solver_replay_banks_guaranteed;
            prop_solver_variants_agree_on_grid;
            prop_solver_matches_seed_ungridded;
            prop_memo_matches_ref;
          ] );
    ]
