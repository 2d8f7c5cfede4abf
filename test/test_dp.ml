(* Tests for the exact integer-grid game solver (paper Section 4):
   validation against the brute-force oracle, Proposition 4.1, and the
   Theorem 4.3 structure of optimal episodes. *)

open Cyclesteal
module Dp_ref = Oracle.Dp_ref

let test_base_cases () =
  let dp = Dp.solve ~c:2 ~max_p:2 ~max_l:20 in
  (* W(0)[L] = L - c. *)
  Alcotest.(check int) "W0[10]" 8 (Dp.value dp ~p:0 ~l:10);
  Alcotest.(check int) "W0[2]" 0 (Dp.value dp ~p:0 ~l:2);
  Alcotest.(check int) "W0[0]" 0 (Dp.value dp ~p:0 ~l:0);
  (* W(p)[0] = 0. *)
  Alcotest.(check int) "W2[0]" 0 (Dp.value dp ~p:2 ~l:0)

let test_validation () =
  (try
     ignore (Dp.solve ~c:0 ~max_p:1 ~max_l:10);
     Alcotest.fail "c=0 accepted"
   with Error.Error _ -> ());
  let dp = Dp.solve ~c:1 ~max_p:1 ~max_l:10 in
  (try
     ignore (Dp.value dp ~p:2 ~l:5);
     Alcotest.fail "p out of range accepted"
   with Error.Error _ -> ());
  (try
     ignore (Dp.value dp ~p:1 ~l:11);
     Alcotest.fail "l out of range accepted"
   with Error.Error _ -> ())

(* The DP (per-period play) equals the brute-force optimum over
   *committed* episode schedules: the two formulations of the game have
   the same value. *)
let test_matches_brute_force () =
  List.iter
    (fun c ->
       let dp = Dp.solve ~c ~max_p:3 ~max_l:14 in
       for p = 0 to 3 do
         for l = 0 to 14 do
           Alcotest.(check int)
             (Printf.sprintf "c=%d p=%d l=%d" c p l)
             (Dp_ref.brute_force_committed ~c ~p ~l)
             (Dp.value dp ~p ~l)
         done
       done)
    [ 1; 2; 3 ]

(* Proposition 4.1(a): W(p)[U] non-decreasing in U. *)
let test_monotone_in_l () =
  let dp = Dp.solve ~c:2 ~max_p:3 ~max_l:100 in
  for p = 0 to 3 do
    for l = 0 to 99 do
      Alcotest.(check bool)
        (Printf.sprintf "p=%d l=%d" p l)
        true
        (Dp.value dp ~p ~l:(l + 1) >= Dp.value dp ~p ~l)
    done
  done

(* Proposition 4.1(b): W(p)[U] non-increasing in p. *)
let test_antitone_in_p () =
  let dp = Dp.solve ~c:2 ~max_p:3 ~max_l:100 in
  for p = 0 to 2 do
    for l = 0 to 100 do
      Alcotest.(check bool)
        (Printf.sprintf "p=%d l=%d" p l)
        true
        (Dp.value dp ~p:(p + 1) ~l <= Dp.value dp ~p ~l)
    done
  done

(* Proposition 4.1(c): W(p)[L] = 0 exactly up to (p+1)c... the "only if"
   direction needs enough slack; we check the stated direction. *)
let test_prop41c () =
  let c = 3 in
  let dp = Dp.solve ~c ~max_p:3 ~max_l:50 in
  for p = 0 to 3 do
    for l = 0 to (p + 1) * c do
      Alcotest.(check int) (Printf.sprintf "p=%d l=%d" p l) 0 (Dp.value dp ~p ~l)
    done
  done

(* The optimal episode covers l exactly and is consistent with the
   stored first-period choices. *)
let test_optimal_episode_covers () =
  let dp = Dp.solve ~c:2 ~max_p:2 ~max_l:200 in
  List.iter
    (fun (p, l) ->
       let ep = Dp.optimal_episode dp ~p ~l in
       Alcotest.(check int)
         (Printf.sprintf "p=%d l=%d sum" p l)
         l
         (List.fold_left ( + ) 0 ep);
       (match ep with
        | first :: _ ->
          Alcotest.(check int) "first period recorded" first
            (Dp.optimal_first_period dp ~p ~l)
        | [] -> Alcotest.fail "empty episode"))
    [ (0, 100); (1, 100); (2, 200); (1, 7) ]

(* Theorem 4.3's equalization on the exact table: along the optimal
   episode for p, the kill options g(k) = T_(k-1) - (k-1)c + W(p-1)[l - T_k]
   are all within a couple of grid ticks of each other through the ramp
   (exact equality is impossible on an integer grid). *)
let test_thm43_equalization () =
  let c = 5 in
  let l = 1000 in
  let dp = Dp.solve ~c ~max_p:2 ~max_l:l in
  List.iter
    (fun p ->
       let ep = Array.of_list (Dp.optimal_episode dp ~p ~l) in
       let m = Array.length ep in
       let values = ref [] in
       let t_k = ref 0 and banked = ref 0 in
       for k = 0 to m - 1 do
         t_k := !t_k + ep.(k);
         (* kill option at end of period k+1 *)
         let v = !banked + Dp.value dp ~p:(p - 1) ~l:(l - !t_k) in
         values := v :: !values;
         banked := !banked + max 0 (ep.(k) - c)
       done;
       (* Only compare options in the interior ramp (the last few
          periods are the immune tail where Theorem 4.2 pins lengths
          instead). *)
       let interior = List.filteri (fun i _ -> i >= 2) (List.rev !values) in
       let interior = List.filteri (fun i _ -> i < m - 4) interior in
       let lo = List.fold_left min max_int interior in
       let hi = List.fold_left max min_int interior in
       Alcotest.(check bool)
         (Printf.sprintf "p=%d spread %d-%d small" p lo hi)
         true
         (hi - lo <= 2 * c))
    [ 1; 2 ]

(* Optimal p=1 episodes on the grid have the S_opt^(1) arithmetic
   structure: increments of ~c through the ramp. *)
let test_p1_episode_structure () =
  let c = 10 in
  let dp = Dp.solve ~c ~max_p:1 ~max_l:2000 in
  let ep = Array.of_list (Dp.optimal_episode dp ~p:1 ~l:2000) in
  let m = Array.length ep in
  (* Interior increments near c (the first and last few periods absorb
     grid residue). *)
  for k = 1 to m - 4 do
    let d = ep.(k) - ep.(k + 1) in
    Alcotest.(check bool)
      (Printf.sprintf "increment %d at %d" d k)
      true
      (abs (d - c) <= 3)
  done

(* Float bridging: values and episodes mapped through params. *)
let test_float_bridge () =
  let dp = Dp.solve ~c:10 ~max_p:2 ~max_l:500 in
  let params = Model.params ~c:2.5 in
  (* tick = 2.5 / 10 = 0.25 *)
  Alcotest.(check (float 1e-9)) "tick" 0.25 (Dp.tick_of_params dp params);
  let v = Dp.float_value dp params ~p:1 ~residual:125. in
  (* 125 time units = 500 ticks. *)
  Alcotest.(check (float 1e-9)) "float value"
    (0.25 *. float_of_int (Dp.value dp ~p:1 ~l:500))
    v;
  let s = Dp.float_episode dp params ~p:1 ~residual:125. in
  Alcotest.(check (float 1e-6)) "episode covers residual" 125. (Schedule.total s)

let test_float_episode_degenerate () =
  let dp = Dp.solve ~c:10 ~max_p:1 ~max_l:100 in
  let params = Model.params ~c:10. in
  (* residual below one tick still yields a valid schedule *)
  let s = Dp.float_episode dp params ~p:1 ~residual:0.5 in
  Alcotest.(check (float 1e-9)) "covers tiny residual" 0.5 (Schedule.total s)

(* Regression: an off-grid residual (l rounds down to 0) that still
   exceeds (p+1) c must not come back as a single killable period — it
   splits into p + 1 equal periods through the same slack-absorption
   path as the on-grid case. *)
let test_float_episode_subtick_hedge () =
  (* max_l = 0: every residual rounds down to an empty grid. *)
  let dp = Dp.solve ~c:10 ~max_p:3 ~max_l:0 in
  let params = Model.params ~c:10. in
  let p = 2 and residual = 100. in
  let s = Dp.float_episode dp params ~p ~residual in
  Alcotest.(check int) "p+1 periods" (p + 1) (Schedule.length s);
  Alcotest.(check (float 1e-9)) "covers residual" residual (Schedule.total s);
  (* Each period banks positive work, so even with every interrupt spent
     the schedule guarantees more than the singleton's zero. *)
  List.iter
    (fun t ->
       Alcotest.(check bool) "period exceeds setup cost" true
         (t > Model.c params))
    (Schedule.to_list s);
  (* p = 0 and residuals the adversary can zero out anyway stay single
     periods. *)
  Alcotest.(check int) "p=0 singleton" 1
    (Schedule.length (Dp.float_episode dp params ~p:0 ~residual));
  Alcotest.(check int) "hopeless residual singleton" 1
    (Schedule.length (Dp.float_episode dp params ~p:2 ~residual:25.))

(* --- monotone-dc kernel vs reference vs brute force ----------------------- *)

(* The monotone-dc kernel must agree with the exhaustive reference
   kernel on values AND argmax periods, and both with the brute-force
   oracle over committed schedules. *)
let small_gen =
  QCheck.Gen.(triple (int_range 1 4) (int_range 0 3) (int_range 0 12))

let small_print (c, p, l) = Printf.sprintf "c=%d max_p=%d max_l=%d" c p l

let prop_kernel_matches_reference_and_oracle =
  QCheck.Test.make
    ~name:"monotone-dc = Ref = brute force (small)"
    ~count:40
    (QCheck.make small_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let mono = Dp.solve ~c ~max_p ~max_l in
       let reference = Dp_ref.solve ~c ~max_p ~max_l in
       let ok = ref true in
       for p = 0 to max_p do
         for l = 0 to max_l do
           if
             Dp.value mono ~p ~l <> Dp_ref.value reference ~p ~l
             || Dp.optimal_first_period mono ~p ~l
                <> Dp_ref.first reference ~p ~l
             || Dp.value mono ~p ~l <> Dp_ref.brute_force_committed ~c ~p ~l
           then ok := false
         done
       done;
       !ok)

(* --- the fill kernel, sequential and pooled, is bit-identical to Dp_ref --- *)

(* One pool for every pooled case (the runtime caps simultaneous
   domains), shut down at exit. *)
let pool = lazy (Csutil.Par.Pool.create ~domains:2)

let () =
  at_exit (fun () ->
      if Lazy.is_val pool then Csutil.Par.Pool.shutdown (Lazy.force pool))

(* A table against the reference, cell by cell: bounds, values and
   argmax periods. *)
let tables_identical t r =
  let ok =
    ref
      (Dp.c t = Dp_ref.c r
      && Dp.max_p t = Dp_ref.max_p r
      && Dp.max_l t = Dp_ref.max_l r)
  in
  for p = 0 to Dp.max_p t do
    for l = 0 to Dp.max_l t do
      if
        !ok
        && (Dp.value t ~p ~l <> Dp_ref.value r ~p ~l
           || Dp.optimal_first_period t ~p ~l <> Dp_ref.first r ~p ~l)
      then ok := false
    done
  done;
  !ok

let kernel_gen =
  QCheck.Gen.(triple (int_range 1 6) (int_range 0 6) (int_range 0 60))

(* The fill must reproduce the reference table exactly — values AND
   argmax periods, tie-break included (lowest t wins) — whether it runs
   sequentially or through a pool. *)
let prop_kernel_identical =
  QCheck.Test.make
    ~name:"monotone-dc = Ref, sequential and pooled"
    ~count:60
    (QCheck.make kernel_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let reference = Dp_ref.solve ~c ~max_p ~max_l in
       tables_identical (Dp.solve ~c ~max_p ~max_l) reference
       && tables_identical
            (Dp.solve_with ~pool:(Some (Lazy.force pool)) ~c ~max_p ~max_l)
            reference)

(* ...and growing a table keeps the identity, sequential or pooled
   (the grown region is filled against cells the first fill
   produced). *)
let prop_kernels_identical_after_grow =
  QCheck.Test.make ~name:"kernels bit-identical to reference after grow"
    ~count:30
    (QCheck.make kernel_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let reference =
         Dp_ref.solve ~c ~max_p:(max_p + 2) ~max_l:((2 * max_l) + 5)
       in
       List.for_all
         (fun pool_opt ->
            let t = Dp.solve_with ~pool:pool_opt ~c ~max_p ~max_l in
            Dp.grow ?pool:pool_opt t ~max_p:(max_p + 2)
              ~max_l:((2 * max_l) + 5);
            tables_identical t reference)
         [ None; Some (Lazy.force pool) ])

(* The qcheck instances are too small for the wavefront (below
   [par_threshold] new cells the pooled fill runs sequentially), so one
   wide, shallow instance — many rows, short lifespan, cheap for
   [Dp_ref] — pins the wavefront solve and the wavefront grow to the
   reference. *)
let test_wavefront_matches_reference () =
  let pool = Lazy.force pool in
  Dp.reset_counters ();
  let t = Dp.solve_with ~pool:(Some pool) ~c:3 ~max_p:64 ~max_l:1100 in
  Alcotest.(check int) "solve ran the wavefront" 1
    (Dp.counters ()).Dp.parallel_fills;
  Alcotest.(check bool) "wavefront solve = reference" true
    (tables_identical t (Dp_ref.solve ~c:3 ~max_p:64 ~max_l:1100));
  Dp.grow ~pool t ~max_p:66 ~max_l:2200;
  Alcotest.(check int) "grow ran the wavefront" 2
    (Dp.counters ()).Dp.parallel_fills;
  Alcotest.(check bool) "wavefront grow = reference" true
    (tables_identical t (Dp_ref.solve ~c:3 ~max_p:66 ~max_l:2200))

(* --- the monotone structure the equalization kernel stands on ------------- *)

(* The monotone-dc kernel does NOT assume the argmax is monotone in l —
   it is not.  It assumes the value structure below, and derives each
   cell from the crossing point of the two monotone branches of
   cand(t) = min(K(t), S(t)).  These properties are the kernel's
   correctness premises, so they get their own qcheck props. *)
let prop_value_structure =
  QCheck.Test.make
    ~name:"value structure: monotone in l, antitone in p, 1-Lipschitz"
    ~count:60
    (QCheck.make kernel_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let dp = Dp_ref.solve ~c ~max_p ~max_l in
       let ok = ref true in
       for p = 0 to max_p do
         for l = 0 to max_l do
           (* W(p)[l] nondecreasing in l, and by at most 1 per tick. *)
           if l > 0 then begin
             let d = Dp_ref.value dp ~p ~l - Dp_ref.value dp ~p ~l:(l - 1) in
             if d < 0 || d > 1 then ok := false
           end;
           (* W(p)[l] <= W(p-1)[l]: an extra interrupt never helps the
              thief. *)
           if p > 0 && Dp_ref.value dp ~p ~l > Dp_ref.value dp ~p:(p - 1) ~l then
             ok := false
         done
       done;
       !ok)

(* The two branches of cand(t) = min(K(t), S(t)) are monotone over
   t in [c, l]: the kill branch K(t) = W(p-1)[l-t] non-increasing, the
   survive branch S(t) = (t - c) + W(p)[l-t] nondecreasing.  (Both
   follow from the value structure; checked directly because the
   kernel bisects on exactly these.) *)
let prop_branch_monotonicity =
  QCheck.Test.make ~name:"kill branch non-increasing, survive nondecreasing"
    ~count:40
    (QCheck.make kernel_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let dp = Dp_ref.solve ~c ~max_p ~max_l in
       let ok = ref true in
       for p = 1 to max_p do
         for l = 0 to max_l do
           for t = c to l - 1 do
             let k_t = Dp_ref.value dp ~p:(p - 1) ~l:(l - t)
             and k_t1 = Dp_ref.value dp ~p:(p - 1) ~l:(l - t - 1) in
             if k_t1 > k_t then ok := false;
             let s_t = t - c + Dp_ref.value dp ~p ~l:(l - t)
             and s_t1 = t + 1 - c + Dp_ref.value dp ~p ~l:(l - t - 1) in
             if s_t1 < s_t then ok := false
           done
         done
       done;
       !ok)

(* The property the kernel must NOT rely on, pinned as a regression
   test: the argmax (lowest optimal first period) is not monotone in l,
   even between cells of positive value.  At c = 1, first(1, 4) = 2 but
   first(1, 5) = 1.  A divide-and-conquer over argmax ranges would
   return 2 at l = 5 — wrong under the lowest-t tie-break — which is
   why the kernel tracks the equalization crossing instead. *)
let test_argmax_not_monotone () =
  let dp = Dp_ref.solve ~c:1 ~max_p:1 ~max_l:5 in
  Alcotest.(check bool) "both cells positive" true
    (Dp_ref.value dp ~p:1 ~l:4 > 0 && Dp_ref.value dp ~p:1 ~l:5 > 0);
  Alcotest.(check int) "first(1,4)" 2 (Dp_ref.first dp ~p:1 ~l:4);
  Alcotest.(check int) "first(1,5)" 1 (Dp_ref.first dp ~p:1 ~l:5)

(* --- resident packs against the reference --------------------------------- *)

(* Every table is resident only as a breakpoint pack, filled through one
   reused dense scratch.  Each fill path must land on the reference
   table cell by cell — values, argmax and the episode chain the
   galloping cursor walks — and the table must show Prop 4.1: W
   nondecreasing in L, nonincreasing in p, and W^(p)[L] = 0 for
   L <= (p+1)c. *)
let prop41 t =
  let c = Dp.c t and ok = ref true in
  for p = 0 to Dp.max_p t do
    for l = 0 to Dp.max_l t do
      let w = Dp.value t ~p ~l in
      if l > 0 && w < Dp.value t ~p ~l:(l - 1) then ok := false;
      if p > 0 && w > Dp.value t ~p:(p - 1) ~l then ok := false;
      if l <= (p + 1) * c && w <> 0 then ok := false
    done
  done;
  !ok

let episodes_identical t r =
  let ok = ref true in
  for p = 0 to Dp.max_p t do
    for l = 0 to Dp.max_l t do
      if Dp.optimal_episode t ~p ~l <> Dp_ref.episode r ~p ~l then
        ok := false
    done
  done;
  !ok

let matches_ref t =
  let reference =
    Dp_ref.solve ~c:(Dp.c t) ~max_p:(Dp.max_p t) ~max_l:(Dp.max_l t)
  in
  tables_identical t reference && episodes_identical t reference && prop41 t

let grow_gen =
  QCheck.Gen.(pair kernel_gen (pair (int_range 0 3) (int_range 0 40)))

let grow_print ((c, p, l), (dp, dl)) =
  Printf.sprintf "%s grow by p+%d l+%d" (small_print (c, p, l)) dp dl

(* The sequential fill paths: a solve; a grow of a solve (a reader
   holding the pack from before the grow still reads the old cells); a
   grow of a pack loaded through of_packed; two grows in a row; and a
   grow right after a larger fill at another c left the spare scratch
   full of foreign cells. *)
let prop_fill_paths_match_ref =
  QCheck.Test.make
    ~name:"every fill path = Ref cell by cell, Prop 4.1" ~count:40
    (QCheck.make grow_gen ~print:grow_print)
    (fun ((c, max_p, max_l), (dp, dl)) ->
       let p1 = max_p + dp and l1 = max_l + dl in
       let solved = Dp.solve ~c ~max_p ~max_l in
       let grown = Dp.solve ~c ~max_p ~max_l in
       let held = Dp.of_packed ~c ~max_p ~max_l (Dp.to_packed grown) in
       Dp.grow grown ~max_p:p1 ~max_l:l1;
       let loaded =
         Dp.of_packed ~c ~max_p ~max_l (Dp.to_packed (Dp.solve ~c ~max_p ~max_l))
       in
       Dp.grow loaded ~max_p:p1 ~max_l:l1;
       let twice = Dp.solve ~c ~max_p ~max_l in
       Dp.grow twice ~max_p:(max_p + 1) ~max_l:(max_l + (dl / 2));
       Dp.grow twice ~max_p:p1 ~max_l:l1;
       let dirty = Dp.solve ~c ~max_p ~max_l in
       ignore (Dp.solve ~c:(c + 1) ~max_p:(p1 + 2) ~max_l:(l1 + 50));
       Dp.grow dirty ~max_p:p1 ~max_l:l1;
       List.for_all matches_ref [ solved; grown; held; loaded; twice; dirty ])

(* A pack carried through to_packed and of_packed must answer exactly
   like the reference, whose rows Dp_ref fills densely cell by cell;
   so must the table it was packed from. *)
let prop_packed_roundtrip =
  QCheck.Test.make ~name:"packed rows = dense rows (values and argmax)"
    ~count:60
    (QCheck.make kernel_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let solved = Dp.solve ~c ~max_p ~max_l in
       let loaded = Dp.of_packed ~c ~max_p ~max_l (Dp.to_packed solved) in
       let reference = Dp_ref.solve ~c ~max_p ~max_l in
       tables_identical loaded reference && tables_identical solved reference)

(* Growing a pack loaded through of_packed keeps every answer: the
   bank-warm daemon path (map a snapshot, grow on the first bigger
   query). *)
let prop_packed_grow =
  QCheck.Test.make ~name:"grow after packed load = reference" ~count:30
    (QCheck.make kernel_gen ~print:small_print)
    (fun (c, max_p, max_l) ->
       let solved = Dp.solve ~c ~max_p ~max_l in
       let loaded = Dp.of_packed ~c ~max_p ~max_l (Dp.to_packed solved) in
       Dp.grow loaded ~max_p:(max_p + 1) ~max_l:(max_l + 7);
       tables_identical loaded
         (Dp_ref.solve ~c ~max_p:(max_p + 1) ~max_l:(max_l + 7)))

(* The episode walk strides and gallops down the argmax runs; on a
   solved table each step falls only a dozen runs or so.  A hand-built
   one-row pack with short runs and arbitrary first periods makes the
   chain fall anywhere from zero to thousands of runs per step, and
   the walk must follow the same chain as cell-by-cell
   optimal_first_period reads (an independent bisection). *)
let prop_episode_walk_any_fall =
  QCheck.Test.make ~name:"episode walk = first-period chain, any fall" ~count:60
    QCheck.(pair (int_range 1 3000) int)
    (fun (max_l, seed) ->
       let rng = Random.State.make [| seed |] in
       let starts = ref [] and s = ref 1 in
       while !s <= max_l do
         starts := !s :: !starts;
         s := !s + 1 + Random.State.int rng 3
       done;
       let starts = Array.of_list (List.rev !starts) in
       let n = Array.length starts in
       let words = 1 + 4 + 2 + (2 * n) in
       let pack = Bigarray.(Array1.create int c_layout words) in
       let set i x = Bigarray.Array1.set pack i x in
       (* Row 0: zero prefix through l = 0, W(l) = l - 1 past it, and
          run k's first period anywhere in [1, its start]. *)
       List.iteri set [ 1; 0; 0; 1; n; 1; 1 ];
       Array.iteri
         (fun k st ->
            set (7 + k) st;
            set (7 + n + k) (1 + Random.State.int rng st))
         starts;
       let t = Dp.of_packed ~c:1 ~max_p:0 ~max_l pack in
       let rec chain l =
         if l = 0 then []
         else
           let tk = Dp.optimal_first_period t ~p:0 ~l in
           tk :: chain (l - tk)
       in
       let ok = ref true in
       for l = 0 to max_l do
         if Dp.optimal_episode t ~p:0 ~l <> chain l then ok := false
       done;
       !ok)

(* --- grown packs = fresh packs ------------------------------------------- *)

(* Whether a loss run of the row whose block starts at [b] begins at
   column [l] (the pack layout of [Dp.to_packed]). *)
let loss_run_starts (pk : Dp.mat) b l =
  let n = pk.{b + 2} in
  let rec go i = i < n && (pk.{b + 4 + i} = l || go (i + 1)) in
  go 0

(* Solve at [start], grow through the absolute bounds [steps], and
   check every grown pack word for word against a fresh solve at its
   bounds.  Also counts the old rows (those with runs) whose argmax mode
   flipped and those whose last loss run the new cells continued, so a
   caller can tell that the property met both cases. *)
let grow_chain ?pool ~c (p0, l0) steps =
  let t = Dp.solve_with ~pool ~c ~max_p:p0 ~max_l:l0 in
  List.fold_left
    (fun (ok, flips, merges) (p, l) ->
       let old = Dp.to_packed t and op = Dp.max_p t and ol = Dp.max_l t in
       Dp.grow ?pool t ~max_p:p ~max_l:l;
       let grown = Dp.to_packed t in
       let fresh = Dp.solve ~c ~max_p:(Dp.max_p t) ~max_l:(Dp.max_l t) in
       let flips = ref flips and merges = ref merges in
       for r = 0 to op do
         let ob = old.{r} and gb = grown.{r} in
         if old.{ob + 3} > 0 then begin
           if old.{ob + 1} <> grown.{gb + 1} then incr flips;
           if Dp.max_l t > ol && not (loss_run_starts grown gb (ol + 1)) then
             incr merges
         end
       done;
       (ok && grown = Dp.to_packed fresh, !flips, !merges))
    (true, 0, 0) steps

(* Chains of 1-3 grows in p and in l, as increments; [scale] stretches
   the columns, so a pooled chain is large enough for the wavefront. *)
let chain_gen =
  QCheck.Gen.(
    triple (int_range 1 6)
      (pair (int_range 0 4) (int_range 0 60))
      (list_size (int_range 1 3) (pair (int_range 0 3) (int_range 0 60))))

let chain_print (c, (p0, l0), steps) =
  Printf.sprintf "c=%d start=(%d,%d) steps=[%s]" c p0 l0
    (String.concat ";" (List.map (fun (dp, dl) -> Printf.sprintf "+%d,+%d" dp dl) steps))

let prop_grown_pack_is_fresh ~name ~count ~scale pool =
  QCheck.Test.make ~name ~count (QCheck.make chain_gen ~print:chain_print)
    (fun (c, (p0, l0), steps) ->
       let _, steps =
         List.fold_left_map
           (fun (p, l) (dp, dl) -> ((p + dp, l + (dl * scale)), (p + dp, l + (dl * scale))))
           (p0, l0 * scale) steps
       in
       let ok, _, _ = grow_chain ?pool:(Option.map Lazy.force pool) ~c (p0, l0 * scale) steps in
       ok)

(* The pinned chains meet a flip (row 0 holds one argmax run at
   l = c + 1, in mode 0 by the tie rule, and two cells later mode 1
   wins), boundary merges (row 0's loss run continues past every old
   bound), and the wavefront, grown on a two-slot pool. *)
let test_grown_pack_pinned () =
  let pool = Lazy.force pool in
  Dp.reset_counters ();
  let ok, flips, merges =
    List.fold_left
      (fun (ok, f, m) (pool, c, start, steps) ->
         let ok', f', m' = grow_chain ?pool ~c start steps in
         (ok && ok', f + f', m + m'))
      (true, 0, 0)
      [
        (None, 3, (0, 4), [ (0, 5); (2, 9) ]);
        (None, 4, (4, 800), [ (4, 1600); (4, 3200) ]);
        (Some pool, 2, (3, 20_000), [ (5, 40_000) ]);
      ]
  in
  Alcotest.(check bool) "grown packs = fresh packs" true ok;
  Alcotest.(check bool) "an argmax mode flipped" true (flips > 0);
  Alcotest.(check bool) "a boundary run merged" true (merges > 0);
  Alcotest.(check bool) "a grow ran the wavefront" true
    ((Dp.counters ()).Dp.parallel_fills > 0)

(* Dropping the spare scratch (as a cache eviction does) changes
   nothing but where the next fill's buffer comes from. *)
let test_trim_scratch () =
  let big = Dp.solve ~c:3 ~max_p:6 ~max_l:900 in
  Dp.trim_scratch ~max_bytes:(Dp.dense_footprint_bytes big);
  let a = Dp.solve ~c:2 ~max_p:2 ~max_l:120 in
  Dp.trim_scratch ~max_bytes:0;
  let b = Dp.solve ~c:4 ~max_p:3 ~max_l:200 in
  Dp.grow a ~max_p:4 ~max_l:300;
  Dp.trim_scratch ~max_bytes:0;
  Dp.grow b ~max_p:5 ~max_l:260;
  List.iter
    (fun t ->
       Alcotest.(check bool)
         (Printf.sprintf "c=%d p=%d l=%d" (Dp.c t) (Dp.max_p t) (Dp.max_l t))
         true (matches_ref t))
    [ a; b ]

(* Two domains filling different tables at once each take their own
   scratch (one wins the spare, the other allocates), so neither sees
   the other's cells. *)
let test_concurrent_fills_match_ref () =
  let work ~c ~p0 ~l0 () =
    List.init 6 (fun i ->
        let t = Dp.solve ~c ~max_p:p0 ~max_l:(l0 + (37 * i)) in
        Dp.grow t ~max_p:(p0 + 2) ~max_l:((2 * l0) + (53 * i));
        t)
  in
  let a = Domain.spawn (work ~c:2 ~p0:3 ~l0:150)
  and b = Domain.spawn (work ~c:5 ~p0:4 ~l0:220) in
  List.iter
    (fun t ->
       Alcotest.(check bool)
         (Printf.sprintf "c=%d p=%d l=%d" (Dp.c t) (Dp.max_p t) (Dp.max_l t))
         true (matches_ref t))
    (Domain.join a @ Domain.join b)

(* of_packed is a validating boundary: structurally broken pack words
   must come back as structured errors, never Fatal or a crash. *)
let test_of_packed_validation () =
  let dense = Dp.solve ~c:2 ~max_p:2 ~max_l:30 in
  let pack = Dp.to_packed dense in
  let dim = Bigarray.Array1.dim pack in
  let copy () =
    let fresh =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout dim
    in
    Bigarray.Array1.blit pack fresh;
    fresh
  in
  (* Baseline sanity: the untouched pack loads. *)
  ignore (Dp.of_packed ~c:2 ~max_p:2 ~max_l:30 pack);
  (* Wrong bounds for the pack. *)
  (try
     ignore (Dp.of_packed ~c:2 ~max_p:3 ~max_l:30 pack);
     Alcotest.fail "max_p mismatch accepted"
   with Error.Error _ -> ());
  (* Corrupt every word in turn: each must be rejected or answer
     within bounds — never crash.  (Most single-word corruptions break
     an offset, a header range or run monotonicity; a few survive as a
     different valid table, which the snapshot layer's CRC catches.) *)
  for i = 0 to dim - 1 do
    let bad = copy () in
    Bigarray.Array1.set bad i (-7);
    match Dp.of_packed ~c:2 ~max_p:2 ~max_l:30 bad with
    | (_ : Dp.t) -> ()
    | exception Error.Error _ -> ()
  done;
  (* Truncated pack: drop the trailing word. *)
  let short =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (dim - 1)
  in
  Bigarray.Array1.blit (Bigarray.Array1.sub pack 0 (dim - 1)) short;
  try
    ignore (Dp.of_packed ~c:2 ~max_p:2 ~max_l:30 short);
    Alcotest.fail "truncated pack accepted"
  with Error.Error _ -> ()

(* Counter bookkeeping: visited + pruned must equal the exhaustive
   candidate count, and the kernel must actually skip work. *)
let test_kernel_counters () =
  Dp.reset_counters ();
  let max_p = 2 and max_l = 400 in
  ignore (Dp.solve ~c:3 ~max_p ~max_l);
  let k = Dp.counters () in
  Alcotest.(check int) "cells filled"
    ((max_p + 1) * (max_l + 1))
    k.Dp.cells_filled;
  let exhaustive = max_p * (max_l * (max_l + 1) / 2) in
  Alcotest.(check int) "visited + pruned = exhaustive" exhaustive
    (k.Dp.candidates_visited + k.Dp.candidates_pruned);
  Alcotest.(check bool) "prune skipped most candidates" true
    (k.Dp.candidates_pruned > exhaustive / 2);
  Alcotest.(check int) "no parallel fill without a pool" 0 k.Dp.parallel_fills;
  Dp.reset_counters ();
  Alcotest.(check int) "reset" 0 (Dp.counters ()).Dp.cells_filled

(* Cross-check between the two independent evaluators: the DP policy
   played through the game engine's minimax must reproduce the DP's own
   value exactly (the grid schedules land on grid-aligned residuals, so
   no rounding intervenes). *)
let test_dp_policy_through_game_engine () =
  let c_ticks = 5 in
  let dp = Dp.solve ~c:c_ticks ~max_p:2 ~max_l:400 in
  let params = Model.params ~c:(float_of_int c_ticks) in
  List.iter
    (fun (l, p) ->
       let u = float_of_int l in
       let opp = Model.opportunity ~lifespan:u ~interrupts:p in
       let g = Game.guaranteed params opp (Policy.of_dp dp) in
       Alcotest.check (Alcotest.float 1e-6)
         (Printf.sprintf "l=%d p=%d" l p)
         (float_of_int (Dp.value dp ~p ~l))
         g)
    [ (100, 0); (100, 1); (400, 1); (100, 2); (400, 2) ]

(* The asymptotic loss coefficient of the exact optimum matches the
   a_p = a_(p-1) + 1/a_p recursion (the empirical discovery documented
   in DESIGN.md) within a few percent at moderate grid sizes. *)
let test_loss_coefficients_match_recursion () =
  let l = 4000 in
  let dp = Dp.solve ~c:1 ~max_p:3 ~max_l:l in
  List.iter
    (fun p ->
       let w = Dp.value dp ~p ~l in
       let a = float_of_int (l - w) /. Float.sqrt (2. *. float_of_int l) in
       let target = Adaptive.optimal_coefficient ~p in
       Alcotest.(check bool)
         (Printf.sprintf "p=%d: measured %.3f vs %.3f" p a target)
         true
         (Float.abs (a -. target) /. target < 0.05))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "dp"
    [
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_matches_reference_and_oracle;
          QCheck_alcotest.to_alcotest prop_kernel_identical;
          QCheck_alcotest.to_alcotest prop_kernels_identical_after_grow;
          Alcotest.test_case "wavefront fill = reference" `Quick
            test_wavefront_matches_reference;
          QCheck_alcotest.to_alcotest prop_value_structure;
          QCheck_alcotest.to_alcotest prop_branch_monotonicity;
          Alcotest.test_case "argmax not monotone in l" `Quick
            test_argmax_not_monotone;
          Alcotest.test_case "work counters" `Quick test_kernel_counters;
        ] );
      ( "packed",
        [
          QCheck_alcotest.to_alcotest prop_packed_roundtrip;
          QCheck_alcotest.to_alcotest prop_packed_grow;
          QCheck_alcotest.to_alcotest prop_fill_paths_match_ref;
          QCheck_alcotest.to_alcotest prop_episode_walk_any_fall;
          QCheck_alcotest.to_alcotest
            (prop_grown_pack_is_fresh ~name:"grown pack = fresh pack, sequential"
               ~count:100 ~scale:1 None);
          QCheck_alcotest.to_alcotest
            (prop_grown_pack_is_fresh ~name:"grown pack = fresh pack, 2-slot pool"
               ~count:8 ~scale:150 (Some pool));
          Alcotest.test_case "grown pack = fresh pack, pinned" `Quick
            test_grown_pack_pinned;
          Alcotest.test_case "fills after trim_scratch = Ref" `Quick
            test_trim_scratch;
          Alcotest.test_case "two domains fill at once = Ref" `Quick
            test_concurrent_fills_match_ref;
          Alcotest.test_case "of_packed validation" `Quick
            test_of_packed_validation;
        ] );
      ( "dp",
        [
          Alcotest.test_case "base cases" `Quick test_base_cases;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "matches brute force" `Slow test_matches_brute_force;
          Alcotest.test_case "Prop 4.1(a) monotone in L" `Quick test_monotone_in_l;
          Alcotest.test_case "Prop 4.1(b) antitone in p" `Quick test_antitone_in_p;
          Alcotest.test_case "Prop 4.1(c)" `Quick test_prop41c;
          Alcotest.test_case "episode covers l" `Quick test_optimal_episode_covers;
          Alcotest.test_case "Thm 4.3 equalization" `Quick test_thm43_equalization;
          Alcotest.test_case "p=1 episode structure" `Quick
            test_p1_episode_structure;
          Alcotest.test_case "float bridge" `Quick test_float_bridge;
          Alcotest.test_case "float episode degenerate" `Quick
            test_float_episode_degenerate;
          Alcotest.test_case "float episode sub-tick hedge" `Quick
            test_float_episode_subtick_hedge;
          Alcotest.test_case "DP policy through game engine" `Quick
            test_dp_policy_through_game_engine;
          Alcotest.test_case "loss coefficients" `Slow
            test_loss_coefficients_match_recursion;
        ] );
    ]
