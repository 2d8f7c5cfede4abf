(* Tests for the domain-parallel helpers and their users. *)

open Cyclesteal

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

(* --- Par.map --------------------------------------------------------------- *)

let test_map_matches_sequential () =
  let a = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
       Alcotest.(check (array int))
         (Printf.sprintf "domains=%d" domains)
         (Array.map f a)
         (Csutil.Par.map ~domains f a))
    [ 1; 2; 3; 7; 16 ]

let test_map_empty_and_small () =
  Alcotest.(check (array int)) "empty" [||] (Csutil.Par.map ~domains:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |]
    (Csutil.Par.map ~domains:8 succ [| 1 |]);
  (* More domains than elements is fine. *)
  Alcotest.(check (array int)) "n < domains" [| 2; 3 |]
    (Csutil.Par.map ~domains:16 succ [| 1; 2 |])

let test_map_validation () =
  (try
     ignore (Csutil.Par.map ~domains:0 succ [| 1 |]);
     Alcotest.fail "domains=0 accepted"
   with Invalid_argument _ -> ())

let test_map_actually_spans_domains () =
  (* Each element records the executing domain id; with 4 domains over
     4000 elements at least 2 distinct ids must appear (skipped on a
     single-core host).  On a small host the caller can drain every
     chunk before a parked worker wakes, so every element but the first
     checks in its domain and waits — bounded by one shared deadline —
     until a second domain has checked in.  The first element is the
     seed [map] computes on the caller before it dispatches any chunk,
     so it must not wait. *)
  if Csutil.Par.available_domains () >= 2 then begin
    let first = Atomic.make (-1) and second = Atomic.make false in
    let deadline = Csutil.Clock.now () +. 10. in
    let check_in () =
      let me = (Domain.self () :> int) in
      if not (Atomic.compare_and_set first (-1) me) then begin
        if Atomic.get first <> me then Atomic.set second true;
        while (not (Atomic.get second)) && Csutil.Clock.now () < deadline do
          Domain.cpu_relax ()
        done
      end;
      me
    in
    let ids =
      Csutil.Par.map ~domains:4 (fun _ -> check_in ()) (Array.make 4000 ())
    in
    let distinct = List.sort_uniq compare (Array.to_list ids) in
    Alcotest.(check bool) "multiple domains used" true (List.length distinct >= 2)
  end

let test_init_and_map_reduce () =
  Alcotest.(check (array int)) "init" [| 0; 2; 4; 6 |]
    (Csutil.Par.init ~domains:2 4 (fun i -> 2 * i));
  let total =
    Csutil.Par.map_reduce ~domains:4 ~map:(fun x -> x * x) ~combine:( + )
      ~init:0
      (Array.init 100 succ)
  in
  Alcotest.(check int) "sum of squares" 338350 total

(* map_reduce promises chunk-order combining, so with an associative but
   NON-commutative combine (string concatenation) the result must be
   identical for every domain count.  Array sizes that do and do not
   divide evenly exercise the chunk-boundary arithmetic. *)
let test_map_reduce_deterministic_across_domains () =
  List.iter
    (fun n ->
       let input = Array.init n (fun i -> i) in
       let map x = Printf.sprintf "%x." x in
       let expected =
         Array.fold_left (fun acc x -> acc ^ map x) "" input
       in
       List.iter
         (fun domains ->
            Alcotest.(check string)
              (Printf.sprintf "n=%d domains=%d" n domains)
              expected
              (Csutil.Par.map_reduce ~domains ~map ~combine:( ^ ) ~init:""
                 input))
         [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ 0; 1; 7; 64; 103 ]

(* --- Pool ------------------------------------------------------------------- *)

let test_pool_runs_every_slot () =
  Csutil.Par.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "size" 4 (Csutil.Par.Pool.size pool);
      let hits = Array.make 4 0 in
      (* Disjoint slots: no synchronization needed. *)
      Csutil.Par.Pool.run pool (fun slot -> hits.(slot) <- hits.(slot) + 1);
      Alcotest.(check (array int)) "each slot exactly once" [| 1; 1; 1; 1 |]
        hits;
      (* The pool is reusable: a second job goes through the same
         parked workers. *)
      Csutil.Par.Pool.run pool (fun slot -> hits.(slot) <- hits.(slot) + 1);
      Alcotest.(check (array int)) "reusable" [| 2; 2; 2; 2 |] hits)

let test_pool_nested_run_completes () =
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      let outer = Atomic.make 0 and inner = Atomic.make 0 in
      Csutil.Par.Pool.run pool (fun _ ->
          ignore (Atomic.fetch_and_add outer 1);
          (* The pool is busy with this very job: the nested run is
             published like any other and must still execute every call
             (on whichever domain claims it), never deadlock. *)
          Csutil.Par.Pool.run pool (fun _ ->
              ignore (Atomic.fetch_and_add inner 1)));
      Alcotest.(check int) "outer slots" 3 (Atomic.get outer);
      Alcotest.(check int) "inner slots (3 nested runs x 3 slots)" 9
        (Atomic.get inner))

(* The nested fan-out regression: a nested run from inside a worker must
   be able to span multiple workers once the others go idle — an
   engine that inlines all nested work on the caller cannot.  Each nested task
   rendezvouses until a second task is in flight; only a second worker
   claiming a task of the nested job can provide it, so a pure-inline
   engine times out the first task's wait and fails the check. *)
let test_pool_nested_run_is_stolen () =
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      let arrived = Atomic.make 0 in
      let all_met = Atomic.make true in
      let rendezvous () =
        ignore (Atomic.fetch_and_add arrived 1);
        let rec wait spins =
          if Atomic.get arrived >= 2 then true
          else if spins = 0 then false
          else begin
            Domain.cpu_relax ();
            wait (spins - 1)
          end
        in
        (* Generous bound: ~seconds of cpu_relax, only ever reached by
           an engine that runs nested tasks one by one. *)
        if not (wait 200_000_000) then Atomic.set all_met false
      in
      Csutil.Par.Pool.run pool (fun slot ->
          (* Slots 1 and 2 return at once, freeing their workers to
             help; the remaining slot fans out nested tasks. *)
          if slot = 0 then
            Csutil.Par.Pool.run pool (fun _ -> rendezvous ()));
      Alcotest.(check int) "every nested task ran" 3 (Atomic.get arrived);
      Alcotest.(check bool) "nested tasks overlapped across workers" true
        (Atomic.get all_met))

let test_pool_propagates_failure () =
  Csutil.Par.Pool.with_pool ~domains:2 (fun pool ->
      (try
         Csutil.Par.Pool.run pool (fun slot ->
             if slot = 1 then failwith "worker boom");
         Alcotest.fail "worker exception swallowed"
       with Failure m -> Alcotest.(check string) "message" "worker boom" m);
      (* The failed job must not wedge the pool. *)
      let n = Atomic.make 0 in
      Csutil.Par.Pool.run pool (fun _ -> ignore (Atomic.fetch_and_add n 1));
      Alcotest.(check int) "pool usable after failure" 2 (Atomic.get n))

(* Several outside domains share one 2-slot pool: every run still calls
   each slot exactly once, and none of them hangs waiting on another's
   job. *)
let test_pool_concurrent_submitters () =
  Csutil.Par.Pool.with_pool ~domains:2 (fun pool ->
      let callers = 3 and runs = 300 in
      let wrong = Atomic.make 0 in
      let submit () =
        for _ = 1 to runs do
          let hits = Array.init 2 (fun _ -> Atomic.make 0) in
          Csutil.Par.Pool.run pool (fun slot -> Atomic.incr hits.(slot));
          if Array.exists (fun h -> Atomic.get h <> 1) hits then
            Atomic.incr wrong
        done
      in
      List.iter Domain.join (List.init callers (fun _ -> Domain.spawn submit));
      Alcotest.(check int) "every run called each slot once" 0
        (Atomic.get wrong);
      Alcotest.(check int) "dispatched" (callers * runs * 2)
        (Csutil.Par.Pool.dispatched pool))

(* A failure inside a nested run surfaces in the task that ran it; the
   outer job, which catches it, completes normally. *)
let test_pool_nested_failure () =
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      let outer = Atomic.make 0 and caught = Atomic.make 0 in
      Csutil.Par.Pool.run pool (fun _ ->
          (try
             Csutil.Par.Pool.run pool (fun slot ->
                 if slot = 1 then failwith "nested boom")
           with Failure m when String.equal m "nested boom" ->
             Atomic.incr caught);
          Atomic.incr outer);
      Alcotest.(check int) "every nested caller saw the failure" 3
        (Atomic.get caught);
      Alcotest.(check int) "outer job completed" 3 (Atomic.get outer))

let test_pool_run_after_shutdown () =
  let pool = Csutil.Par.Pool.create ~domains:3 in
  Csutil.Par.Pool.shutdown pool;
  let me = (Domain.self () :> int) in
  let ran = Array.make 3 (-1) in
  Csutil.Par.Pool.run pool (fun slot -> ran.(slot) <- (Domain.self () :> int));
  Alcotest.(check (array int)) "every slot ran on the caller" [| me; me; me |]
    ran

(* The channel's contract: FIFO order; a close refuses pushes but still
   drains what was queued; [migrate] appends the old queue to the new
   one; a blocked [pop] wakes on a push from another domain. *)
let test_chan_contract () =
  let open Csutil.Par in
  let a = Chan.create () and b = Chan.create () in
  List.iter (fun x -> ignore (Chan.push a x)) [ 1; 2; 3 ];
  ignore (Chan.push b 0);
  Alcotest.(check (option int)) "FIFO" (Some 1) (Chan.pop a);
  Chan.migrate ~from:a ~into:b;
  Alcotest.(check bool) "migrate closes the old channel" false (Chan.push a 9);
  Alcotest.(check (option int)) "old channel drained" None (Chan.pop a);
  Chan.close b;
  Alcotest.(check bool) "closed refuses a push" false (Chan.push b 9);
  let drained = List.init 4 (fun _ -> Chan.pop b) in
  Alcotest.(check (list (option int))) "closed channel still drains"
    [ Some 0; Some 2; Some 3; None ] drained;
  let c = Chan.create () in
  Pool.with_pool ~domains:2 (fun pool ->
      let got = ref None in
      Pool.run pool (fun slot ->
          if slot = 0 then got := Chan.pop c
          else ignore (Chan.push c 42));
      Alcotest.(check (option int)) "pop wakes on a push" (Some 42) !got)

let test_map_over_explicit_pool () =
  Csutil.Par.Pool.with_pool ~domains:3 (fun pool ->
      let a = Array.init 500 (fun i -> i) in
      let f x = (2 * x) - 7 in
      Alcotest.(check (array int)) "map via pool" (Array.map f a)
        (Csutil.Par.map ~pool ~domains:3 f a);
      Alcotest.(check (array int)) "init via pool" (Array.init 100 f)
        (Csutil.Par.init ~pool ~domains:3 100 f))

(* The pool's scheduling must be invisible in results: map_reduce with an
   associative, NON-commutative combine agrees with the sequential fold
   and with a static schedule (one contiguous block per slot, combined
   in slot order) on random sizes and domain counts — whichever domain
   claimed which chunk. *)
let prop_map_reduce_schedule_invariant =
  QCheck.Test.make ~name:"map_reduce = sequential = static-stride" ~count:30
    QCheck.(pair (int_range 0 400) (int_range 1 5))
    (fun (n, domains) ->
      let input = Array.init n (fun i -> i) in
      let map x = Printf.sprintf "%x." x in
      let seq = Array.fold_left (fun acc x -> acc ^ map x) "" input in
      let stolen =
        Csutil.Par.map_reduce ~domains ~map ~combine:( ^ ) ~init:"" input
      in
      let static =
        Csutil.Par.Pool.with_pool ~domains (fun pool ->
            let k = Csutil.Par.Pool.size pool in
            let per = (n + k - 1) / k in
            let parts = Array.make k "" in
            Csutil.Par.Pool.run pool (fun slot ->
                let acc = ref "" in
                for i = slot * per to min n ((slot + 1) * per) - 1 do
                  acc := !acc ^ map input.(i)
                done;
                parts.(slot) <- !acc);
            Array.fold_left ( ^ ) "" parts)
      in
      String.equal seq stolen && String.equal seq static)

(* --- Parallel Monte Carlo ---------------------------------------------------- *)

let params = Model.params ~c:1.

let test_mc_par_deterministic () =
  let risk = Expected.exponential ~rate:0.02 in
  let s = Schedule.of_list [ 20.; 15.; 10.; 5. ] in
  let a = Expected.monte_carlo_expected_par ~domains:4 params risk s ~seed:9 ~samples:10_000 in
  let b = Expected.monte_carlo_expected_par ~domains:4 params risk s ~seed:9 ~samples:10_000 in
  check_float "same seed, same estimate" a b

let test_mc_par_matches_exact () =
  let risk = Expected.exponential ~rate:0.02 in
  let s = Schedule.of_list [ 20.; 15.; 10.; 5. ] in
  let exact = Expected.expected_work params risk s in
  List.iter
    (fun domains ->
       let est =
         Expected.monte_carlo_expected_par ~domains params risk s ~seed:5
           ~samples:60_000
       in
       Alcotest.(check bool)
         (Printf.sprintf "domains=%d: %g ~ %g" domains est exact)
         true
         (Float.abs (est -. exact) < 0.05 *. exact))
    [ 1; 2; 4 ]

let test_mc_par_small_samples () =
  let risk = Expected.uniform ~horizon:50. in
  let s = Schedule.of_list [ 10.; 10. ] in
  (* samples < domains must still work. *)
  let est = Expected.monte_carlo_expected_par ~domains:8 params risk s ~seed:1 ~samples:3 in
  Alcotest.(check bool) "finite" true (Float.is_finite est && est >= 0.)

let () =
  Alcotest.run "par"
    [
      ( "par",
        [
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty and small" `Quick test_map_empty_and_small;
          Alcotest.test_case "validation" `Quick test_map_validation;
          Alcotest.test_case "spans domains" `Quick test_map_actually_spans_domains;
          Alcotest.test_case "init / map_reduce" `Quick test_init_and_map_reduce;
          Alcotest.test_case "map_reduce domain invariance" `Quick
            test_map_reduce_deterministic_across_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs every slot, reusable" `Quick
            test_pool_runs_every_slot;
          Alcotest.test_case "nested run completes every call" `Quick
            test_pool_nested_run_completes;
          Alcotest.test_case "nested run is stolen" `Quick
            test_pool_nested_run_is_stolen;
          Alcotest.test_case "propagates worker failure" `Quick
            test_pool_propagates_failure;
          Alcotest.test_case "map/init over explicit pool" `Quick
            test_map_over_explicit_pool;
          Alcotest.test_case "concurrent outside submitters" `Quick
            test_pool_concurrent_submitters;
          Alcotest.test_case "failure in a nested run" `Quick
            test_pool_nested_failure;
          Alcotest.test_case "run after shutdown runs on the caller" `Quick
            test_pool_run_after_shutdown;
        ] );
      ("chan", [ Alcotest.test_case "contract" `Quick test_chan_contract ]);
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_map_reduce_schedule_invariant ] );
      ( "monte carlo",
        [
          Alcotest.test_case "deterministic" `Quick test_mc_par_deterministic;
          Alcotest.test_case "matches exact" `Slow test_mc_par_matches_exact;
          Alcotest.test_case "samples < domains" `Quick test_mc_par_small_samples;
        ] );
    ]
