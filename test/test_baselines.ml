(* Tests for the related-work baseline schedulers and the guideline
   comparisons the paper motivates (Section 1.3). *)

open Cyclesteal

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let params = Model.params ~c:1.

(* --- Fixed chunks -------------------------------------------------------- *)

let test_fixed_chunk_shape () =
  let s = Baselines.Fixed_chunk.schedule ~u:10. ~chunk:3. in
  Alcotest.(check int) "3 full + remainder" 4 (Schedule.length s);
  check_float "chunk" 3. (Schedule.period s 1);
  check_float "remainder" 1. (Schedule.period s 4);
  check_float "covers u" 10. (Schedule.total s)

let test_fixed_chunk_exact_division () =
  let s = Baselines.Fixed_chunk.schedule ~u:9. ~chunk:3. in
  Alcotest.(check int) "no remainder period" 3 (Schedule.length s)

let test_fixed_chunk_oversized () =
  let s = Baselines.Fixed_chunk.schedule ~u:2. ~chunk:5. in
  Alcotest.(check int) "single period" 1 (Schedule.length s);
  check_float "whole lifespan" 2. (Schedule.total s)

let test_fixed_chunk_validation () =
  (try
     ignore (Baselines.Fixed_chunk.schedule ~u:10. ~chunk:0.);
     Alcotest.fail "chunk 0 accepted"
   with Error.Error _ -> ())

let test_chunk_for_overhead () =
  check_float "5% overhead" 20. (Baselines.Fixed_chunk.chunk_for_overhead params ~overhead_fraction:0.05);
  (try
     ignore (Baselines.Fixed_chunk.chunk_for_overhead params ~overhead_fraction:1.5);
     Alcotest.fail "fraction > 1 accepted"
   with Error.Error _ -> ())

(* --- Geometric ----------------------------------------------------------- *)

let test_geometric_sums_to_u () =
  List.iter
    (fun (ratio, m) ->
       let s = Baselines.Geometric.schedule ~u:100. ~ratio ~m in
       check_float ~eps:1e-6 (Printf.sprintf "ratio %g m %d" ratio m) 100.
         (Schedule.total s);
       Alcotest.(check int) "m" m (Schedule.length s))
    [ (0.5, 5); (0.9, 20); (1.0, 7); (1.2, 4) ]

let test_geometric_decreasing () =
  let s = Baselines.Geometric.schedule ~u:100. ~ratio:0.8 ~m:10 in
  for k = 1 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "decreasing at %d" k)
      true
      (Schedule.period s k > Schedule.period s (k + 1))
  done;
  check_float "exact ratio" 0.8
    (Schedule.period s 2 /. Schedule.period s 1)

let test_geometric_auto_m () =
  let m = Baselines.Geometric.auto_m params ~u:100. ~ratio:0.8 in
  let s = Baselines.Geometric.schedule ~u:100. ~ratio:0.8 ~m in
  (* The smallest period stays productive-ish. *)
  Alcotest.(check bool) "last period >= 3c/2" true
    (Schedule.period s m >= 1.5 -. 1e-9);
  (* And one more period would break that. *)
  let s' = Baselines.Geometric.schedule ~u:100. ~ratio:0.8 ~m:(m + 1) in
  Alcotest.(check bool) "m maximal" true (Schedule.period s' (m + 1) < 1.5)

(* --- Naive --------------------------------------------------------------- *)

let test_naive_shapes () =
  Alcotest.(check int) "one period" 1
    (Schedule.length (Baselines.Naive.one_long_period ~u:10.));
  let s = Baselines.Naive.minimal_periods params ~u:10. in
  Alcotest.(check int) "2c periods" 5 (Schedule.length s);
  check_float "each 2c" 2. (Schedule.period s 1)

(* --- Guaranteed-output comparisons (the paper's argument) ---------------- *)

(* Under adversarial interrupts, the Section 3.1 guideline beats every
   baseline at its own game (guaranteed output). *)
let test_guideline_beats_baselines_guaranteed () =
  let u = 400. in
  let p = 2 in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let guar policy = Game.guaranteed params opp policy in
  let w_guideline = guar (Policy.nonadaptive_guideline params opp) in
  let baselines =
    [
      Baselines.Fixed_chunk.policy ~u ~chunk:100.;
      Baselines.Fixed_chunk.policy ~u ~chunk:5.;
      Baselines.Geometric.policy params ~u ~ratio:0.8;
      Baselines.Naive.one_long_period_policy;
      Baselines.Naive.minimal_policy params ~u;
    ]
  in
  List.iter
    (fun b ->
       let w = guar b in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %g <= %g" (Policy.name b) w w_guideline)
         true
         (w <= w_guideline +. 1e-6))
    baselines

(* The one-long-period baseline is wiped out by a single interrupt. *)
let test_one_long_period_zero_guarantee () =
  let opp = Model.opportunity ~lifespan:100. ~interrupts:1 in
  check_float "zero floor" 0.
    (Game.guaranteed params opp Baselines.Naive.one_long_period_policy)

(* ... but is optimal when no interrupts can occur (Prop 4.1(d)). *)
let test_one_long_period_optimal_p0 () =
  let opp = Model.opportunity ~lifespan:100. ~interrupts:0 in
  let w_one = Game.guaranteed params opp Baselines.Naive.one_long_period_policy in
  check_float "U - c" 99. w_one;
  let w_chunked = Game.guaranteed params opp (Baselines.Fixed_chunk.policy ~u:100. ~chunk:10.) in
  Alcotest.(check bool) "chunking only wastes" true (w_chunked < w_one)

(* Geometric (expected-output shape) has a weaker guaranteed floor than
   the guideline: the adversary exploits the big early periods. *)
let test_geometric_floor_weaker () =
  let u = 1000. in
  let opp = Model.opportunity ~lifespan:u ~interrupts:1 in
  let w_geo = Game.guaranteed params opp (Baselines.Geometric.policy params ~u ~ratio:0.7) in
  let w_na = Game.guaranteed params opp (Policy.nonadaptive_guideline params opp) in
  Alcotest.(check bool)
    (Printf.sprintf "geometric %g < guideline %g" w_geo w_na)
    true (w_geo < w_na)

(* Guidelines front door: advice prefers adaptivity for p >= 1 and the
   bounds it reports are consistent. *)
let test_guidelines_advice () =
  let opp = Model.opportunity ~lifespan:1000. ~interrupts:2 in
  let advice = Guidelines.advise params opp in
  (match advice.Guidelines.recommended with
   | Guidelines.Adaptive -> ()
   | Guidelines.Non_adaptive -> Alcotest.fail "adaptivity expected for p=2");
  Alcotest.(check bool) "advantage positive" true (advice.Guidelines.advantage > 0.);
  check_float "adaptive bound"
    (Adaptive.lower_bound params ~u:1000. ~p:2)
    advice.Guidelines.adaptive_bound;
  check_float "nonadaptive bound"
    (Nonadaptive.closed_form params ~u:1000. ~p:2)
    advice.Guidelines.nonadaptive_bound

let test_guidelines_p0_prefers_nonadaptive () =
  let opp = Model.opportunity ~lifespan:1000. ~interrupts:0 in
  let advice = Guidelines.advise params opp in
  match advice.Guidelines.recommended with
  | Guidelines.Non_adaptive -> ()
  | Guidelines.Adaptive -> Alcotest.fail "tie should prefer non-adaptive"

let test_guidelines_measured_work () =
  let opp = Model.opportunity ~lifespan:200. ~interrupts:1 in
  let w_na = Guidelines.guaranteed_work params opp Guidelines.Non_adaptive in
  let w_ad = Guidelines.guaranteed_work params opp Guidelines.Adaptive in
  Alcotest.(check bool) "adaptive wins measured too" true (w_ad > w_na)

(* --- QCheck -------------------------------------------------------------- *)

let arb_u =
  QCheck.make ~print:(Printf.sprintf "%g")
    QCheck.Gen.(map (fun x -> 5. +. (x *. 500.)) (float_bound_exclusive 1.))

let prop_fixed_chunk_covers =
  QCheck.Test.make ~name:"fixed chunks cover u" ~count:200
    QCheck.(pair arb_u (float_range 0.5 50.))
    (fun (u, chunk) ->
      Csutil.Float_ext.approx_eq ~rtol:1e-9 ~atol:1e-6 u
        (Schedule.total (Baselines.Fixed_chunk.schedule ~u ~chunk)))

let prop_geometric_covers =
  QCheck.Test.make ~name:"geometric covers u" ~count:200
    QCheck.(triple arb_u (float_range 0.3 0.99) (int_range 1 30))
    (fun (u, ratio, m) ->
      Csutil.Float_ext.approx_eq ~rtol:1e-6 ~atol:1e-6 u
        (Schedule.total (Baselines.Geometric.schedule ~u ~ratio ~m)))

(* The advice never claims more work than the lifespan holds, nor less
   than none, and claims none when the opportunity is degenerate
   (Proposition 4.1(c)), where the tie recommends the non-adaptive
   regime.  Lifespans run from far below (p+1)c to far above it, and p
   up to the advise budget of 2^20. *)
let prop_advice_bounds_within_lifespan =
  QCheck.Test.make ~name:"advise: 0 <= bounds <= U, 0 when degenerate" ~count:500
    QCheck.(
      triple (float_range 0.01 100.) (float_range (-3.) 7.)
        (oneof [ int_range 0 8; int_range 0 1_048_576 ]))
    (fun (c, log_u, p) ->
      let params = Model.params ~c in
      let u = 10. ** log_u in
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let a = Guidelines.advise params opp in
      let within b = 0. <= b && b <= u in
      within a.Guidelines.adaptive_bound
      && within a.Guidelines.nonadaptive_bound
      && ((not (Model.is_degenerate params opp))
          || a.Guidelines.adaptive_bound = 0.
             && a.Guidelines.nonadaptive_bound = 0.
             && a.Guidelines.recommended = Guidelines.Non_adaptive))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "baselines"
    [
      ( "fixed_chunk",
        [
          Alcotest.test_case "shape" `Quick test_fixed_chunk_shape;
          Alcotest.test_case "exact division" `Quick test_fixed_chunk_exact_division;
          Alcotest.test_case "oversized chunk" `Quick test_fixed_chunk_oversized;
          Alcotest.test_case "validation" `Quick test_fixed_chunk_validation;
          Alcotest.test_case "chunk for overhead" `Quick test_chunk_for_overhead;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "sums to u" `Quick test_geometric_sums_to_u;
          Alcotest.test_case "decreasing" `Quick test_geometric_decreasing;
          Alcotest.test_case "auto m" `Quick test_geometric_auto_m;
        ] );
      ("naive", [ Alcotest.test_case "shapes" `Quick test_naive_shapes ]);
      ( "comparisons",
        [
          Alcotest.test_case "guideline beats baselines" `Slow
            test_guideline_beats_baselines_guaranteed;
          Alcotest.test_case "one long period zero floor" `Quick
            test_one_long_period_zero_guarantee;
          Alcotest.test_case "one long period optimal at p=0" `Quick
            test_one_long_period_optimal_p0;
          Alcotest.test_case "geometric floor weaker" `Quick
            test_geometric_floor_weaker;
          Alcotest.test_case "advice" `Quick test_guidelines_advice;
          Alcotest.test_case "advice p=0" `Quick test_guidelines_p0_prefers_nonadaptive;
          Alcotest.test_case "measured work" `Quick test_guidelines_measured_work;
        ] );
      ( "props",
        qc
          [
            prop_fixed_chunk_covers; prop_geometric_covers;
            prop_advice_bounds_within_lifespan;
          ] );
    ]
