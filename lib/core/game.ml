(* The cycle-stealing game (paper Section 4): play a policy against an
   adversary, and compute a policy's exact guaranteed work against the
   optimal adversary.

   The engine is the analytic counterpart of the NOW simulator; both
   drive the same Policy interface, and experiment E7 checks that they
   agree action for action. *)

type episode_outcome =
  | Completed
  | Interrupted of { period : int; fraction : float }

type episode_record = {
  start_elapsed : float;   (* opportunity time when the episode began *)
  planned : Schedule.t;
  outcome : episode_outcome;
  work : float;            (* work banked by this episode *)
  duration : float;        (* lifespan consumed by this episode *)
}

type outcome = {
  work : float;
  interrupts_used : int;
  episodes : episode_record list; (* in play order *)
}

let progress_eps opp = 1e-9 *. opp.Model.lifespan

(* Validate a plan against the current state: it must make progress and
   must not exceed the residual lifespan. *)
let check_plan ~policy_name ~eps ctx s =
  let tot = Schedule.total s in
  if tot > ctx.Policy.residual +. eps then
    Error.invalid
      (Printf.sprintf "Game: policy %s planned %g exceeding residual %g"
         policy_name tot ctx.Policy.residual);
  if tot <= eps then
    Error.invalid
      (Printf.sprintf "Game: policy %s planned a zero-length episode" policy_name)

let run params opportunity policy adversary =
  let eps = progress_eps opportunity in
  let rec loop ctx episodes work interrupts_used =
    if ctx.Policy.residual <= eps then (episodes, work, interrupts_used)
    else begin
      let s = Policy.plan policy ctx in
      check_plan ~policy_name:(Policy.name policy) ~eps ctx s;
      match Adversary.decide adversary ctx s with
      | Adversary.Let_run ->
        let w = Schedule.work_if_uninterrupted params s in
        let duration = Schedule.total s in
        let record =
          {
            start_elapsed = Policy.elapsed ctx;
            planned = s;
            outcome = Completed;
            work = w;
            duration;
          }
        in
        let ctx = { ctx with Policy.residual = ctx.Policy.residual -. duration } in
        loop ctx (record :: episodes) (work +. w) interrupts_used
      | Adversary.Interrupt { period; fraction } ->
        let duration =
          Schedule.start_time s period +. (fraction *. Schedule.period s period)
        in
        let w = Schedule.work_before params s period in
        let record =
          {
            start_elapsed = Policy.elapsed ctx;
            planned = s;
            outcome = Interrupted { period; fraction };
            work = w;
            duration;
          }
        in
        let ctx =
          {
            ctx with
            Policy.residual = ctx.Policy.residual -. duration;
            Policy.interrupts_left = ctx.Policy.interrupts_left - 1;
          }
        in
        loop ctx (record :: episodes) (work +. w) (interrupts_used + 1)
    end
  in
  let episodes, work, interrupts_used =
    loop (Policy.initial_context params opportunity) [] 0. 0
  in
  { work; interrupts_used; episodes = List.rev episodes }

(* --- Timeline rendering ------------------------------------------------ *)

(* An ASCII timeline of the opportunity: one lane per episode, '=' for
   completed-period time, '.' for the setup share, 'x' for the killed
   stretch, '!' at the interrupt.  Used by the CLI's evaluate command. *)
let render_timeline ?(width = 72) params opportunity outcome =
  if width < 16 then Error.invalid "Game.render_timeline: width too small";
  let u = opportunity.Model.lifespan in
  let c = Model.c params in
  let col t = int_of_float (t /. u *. float_of_int (width - 1)) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "0%s%s\n" (String.make (width - 2) ' ')
       (Printf.sprintf "%g" u));
  List.iteri
    (fun i (e : episode_record) ->
       let line = Bytes.make width ' ' in
       let mark a b ch =
         for x = max 0 (col a) to min (width - 1) (col b) do
           Bytes.set line x ch
         done
       in
       let pos = ref e.start_elapsed in
       let m = Schedule.length e.planned in
       let last_full =
         match e.outcome with
         | Completed -> m
         | Interrupted { period; _ } -> period - 1
       in
       for k = 1 to last_full do
         let t = Schedule.period e.planned k in
         (* Draw the setup share then the work share of the period. *)
         mark !pos (!pos +. Float.min c t) '.';
         if t > c then mark (!pos +. c) (!pos +. t) '=';
         pos := !pos +. t
       done;
       (match e.outcome with
        | Completed -> ()
        | Interrupted { period; fraction } ->
          let killed = fraction *. Schedule.period e.planned period in
          mark !pos (!pos +. killed) 'x';
          let bang = col (!pos +. killed) in
          if bang >= 0 && bang < width then Bytes.set line bang '!');
       Buffer.add_string buf
         (Printf.sprintf "%s  ep%d %s (%.4g work)\n"
            (Bytes.to_string line) (i + 1)
            (match e.outcome with
             | Completed -> "ran out the lifespan"
             | Interrupted { period; _ } ->
               Printf.sprintf "killed in period %d" period)
            e.work))
    outcome.episodes;
  Buffer.contents buf

(* --- Exact guaranteed work (minimax) ----------------------------------- *)

(* The recursion considers, per planned episode, the adversary's
   last-instant options (Observation (a)) plus letting the episode run.
   For policies whose value is monotone non-decreasing in the residual
   lifespan -- every policy in this library -- last-instant placements
   dominate mid-period ones, so the result is the exact minimax value.

   States are (interrupts_left, residual) with the residual snapped to
   a canonical representative: rounded down to the caller's [~grid]
   when given (making the state space finite, and the value a lower
   bound off by at most one grid step per episode), or -- ungridded --
   with the low 12 mantissa bits masked off, which folds [-0.0] and
   float-noise twins of a state (residuals equal to within ~2^-40
   relative, far inside [progress_eps]) into one key without ever
   moving an exactly-representable residual.  Snapping to an integer
   key makes the value a pure function of the state -- independent of
   query order -- which is what lets one memo serve [guaranteed],
   [guaranteed_at] and the adversary replay, and lets the service keep
   solvers resident. *)

(* Process-wide counters, surfaced through cschedd's stats op. *)
type counters = {
  states : int;           (* distinct states expanded (memo misses) *)
  memo_hits : int;        (* value lookups answered from the memo *)
  plans_computed : int;   (* Policy.plan invocations *)
  parallel_fills : int;   (* top-level fan-outs dispatched to a pool *)
}

let states_ctr = Atomic.make 0
let hits_ctr = Atomic.make 0
let plans_ctr = Atomic.make 0
let parfill_ctr = Atomic.make 0

let counters () =
  {
    states = Atomic.get states_ctr;
    memo_hits = Atomic.get hits_ctr;
    plans_computed = Atomic.get plans_ctr;
    parallel_fills = Atomic.get parfill_ctr;
  }

let reset_counters () =
  Atomic.set states_ctr 0;
  Atomic.set hits_ctr 0;
  Atomic.set plans_ctr 0;
  Atomic.set parfill_ctr 0

module Solver = struct
  type mat =
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* Immutable capacity snapshot, republished on [grow] (the Dp.t
     discipline): readers grab one [body] and index it consistently
     even while a grow is building the replacement. *)
  type body = {
    cap_p : int;  (* rows 0 .. cap_p *)
    cap_l : int;  (* columns 0 .. cap_l; row stride is cap_l + 1 *)
    mat : mat;    (* NaN = not yet computed *)
  }

  type backend =
    | Flat of { mutable body : body }
    | Tbl of (int * int, float) Hashtbl.t  (* keyed (p, index) *)

  type t = {
    params : Model.params;
    opportunity : Model.opportunity;
    policy : Policy.t;
    grid : float option;
    c : float;
    eps : float;
    max_states : int;
    backend : backend;
    plans : (int * int, Schedule.t) Hashtbl.t;
    plans_lock : Mutex.t;
    grow_lock : Mutex.t;
    states : int Atomic.t;  (* this solver's expansions, budget-checked *)
    pool : Csutil.Par.Pool.t option;
  }

  let with_lock m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

  let alloc_body ~cap_p ~cap_l =
    let mat =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
        ((cap_p + 1) * (cap_l + 1))
    in
    Bigarray.Array1.fill mat Float.nan;
    { cap_p; cap_l; mat }

  (* Ungridded canonicalisation: zero the low 12 mantissa bits, a
     ~2^-40 relative quantum.  Exactly-representable residuals (round
     numbers, grid multiples) are fixed points, so snapping never moves
     a state across a policy's plan-structure boundary; only the
     float-noise low bits are folded.  Non-positive residuals (incl.
     [-0.0]) all map to the base case.  The masked bits double as the
     integer memo key: residuals are non-negative, so bit 63 is clear
     and [Int64.to_int] is lossless. *)
  let mantissa_mask = 0xFFFF_FFFF_FFFF_F000L

  (* [(key, canonical)] for a residual: the integer memo key and the
     representative residual every computation at this state uses. *)
  let snap t residual =
    match t.grid with
    | Some g ->
      let l = int_of_float (Float.floor (residual /. g)) in
      (l, float_of_int l *. g)
    | None ->
      if residual <= 0. then (0, 0.)
      else
        let bits = Int64.logand (Int64.bits_of_float residual) mantissa_mask in
        (Int64.to_int bits, Int64.float_of_bits bits)

  let create ?grid ?(max_states = 4_000_000) ?pool params opportunity policy =
    let eps = progress_eps opportunity in
    (match grid with
     | Some g when g <= 0. ->
       Error.invalid "Game.Solver: grid must be positive"
     | _ -> ());
    let backend =
      match grid with
      | Some g ->
        let cap_l =
          int_of_float (Float.floor (opportunity.Model.lifespan /. g))
        in
        Flat { body = alloc_body ~cap_p:opportunity.Model.interrupts ~cap_l }
      | None -> Tbl (Hashtbl.create 4096)
    in
    {
      params;
      opportunity;
      policy;
      grid;
      c = Model.c params;
      eps;
      max_states;
      backend;
      plans = Hashtbl.create 256;
      plans_lock = Mutex.create ();
      grow_lock = Mutex.create ();
      states = Atomic.make 0;
      pool;
    }

  let params t = t.params
  let opportunity t = t.opportunity
  let policy t = t.policy
  let grid t = t.grid
  let states t = Atomic.get t.states

  (* --- snapshots ---------------------------------------------------------- *)

  (* The disk-tier exchange format for gridded (flat-memo) solvers: the
     whole memo matrix, NaN cells included.  Hashtbl solvers are not
     snapshotable ([to_snapshot] = None) — their keys are masked float
     bits, not a dense grid.  A solver rebuilt by [of_snapshot] around a
     privately mapped file writes only the cells it newly expands
     (copy-on-write pages), so the solved prefix stays physically shared
     across processes mapping the same bank file. *)
  type snapshot = {
    s_grid : float;
    s_cap_p : int;
    s_cap_l : int;
    s_states : int;
    s_mat : mat;
  }

  (* The snapshot's state count is the memo's filled-cell count, not
     [t.states]: a cell raced by two fan-out slots is expanded (and
     counted) twice, so the live counter depends on scheduling, while
     the set of filled cells — every state reachable from the queries
     answered — does not.  Equal memos thus write equal files. *)
  let filled_cells (mat : mat) =
    let n = ref 0 in
    for i = 0 to Bigarray.Array1.dim mat - 1 do
      if not (Float.is_nan (Bigarray.Array1.unsafe_get mat i)) then incr n
    done;
    !n

  let to_snapshot t =
    match (t.backend, t.grid) with
    | Flat f, Some g ->
      let b = f.body in
      Some
        {
          s_grid = g;
          s_cap_p = b.cap_p;
          s_cap_l = b.cap_l;
          s_states = filled_cells b.mat;
          s_mat = b.mat;
        }
    | _ -> None

  let of_snapshot ?(max_states = 4_000_000) ?pool params opportunity policy s =
    if s.s_grid <= 0. then
      Error.invalid "Game.Solver.of_snapshot: grid must be positive";
    if s.s_cap_p < 0 || s.s_cap_l < 0 then
      Error.invalid "Game.Solver.of_snapshot: capacities must be non-negative";
    if s.s_states < 0 then
      Error.invalid "Game.Solver.of_snapshot: states must be non-negative";
    let cells = (s.s_cap_p + 1) * (s.s_cap_l + 1) in
    if Bigarray.Array1.dim s.s_mat <> cells then
      Error.invalidf
        "Game.Solver.of_snapshot: capacities (%d, %d) imply %d cells, \
         payload has %d"
        s.s_cap_p s.s_cap_l cells
        (Bigarray.Array1.dim s.s_mat);
    {
      params;
      opportunity;
      policy;
      grid = Some s.s_grid;
      c = Model.c params;
      eps = progress_eps opportunity;
      max_states;
      backend =
        Flat { body = { cap_p = s.s_cap_p; cap_l = s.s_cap_l; mat = s.s_mat } };
      plans = Hashtbl.create 256;
      plans_lock = Mutex.create ();
      grow_lock = Mutex.create ();
      states = Atomic.make s.s_states;
      pool;
    }

  let capacity t =
    match t.backend with
    | Flat f -> (f.body.cap_p, f.body.cap_l)
    | Tbl _ -> (max_int, max_int)

  let footprint_bytes t =
    let plans = 64 * Hashtbl.length t.plans in
    match t.backend with
    | Flat f -> (8 * Bigarray.Array1.dim f.body.mat) + plans
    | Tbl tbl -> (48 * Hashtbl.length tbl) + plans

  (* Ensure the flat memo covers row [p] and column [l].  Solved cells
     never invalidate (each holds a pure function of its state), so
     growing is an allocate-and-blit with no refill. *)
  let grow_to t ~p ~l =
    match t.backend with
    | Tbl _ -> ()
    | Flat f ->
      with_lock t.grow_lock (fun () ->
          let b = f.body in
          if p > b.cap_p || l > b.cap_l then begin
            let cap_p = if p > b.cap_p then max p (2 * b.cap_p) else b.cap_p in
            let cap_l = if l > b.cap_l then max l (2 * b.cap_l) else b.cap_l in
            let nb = alloc_body ~cap_p ~cap_l in
            for row = 0 to b.cap_p do
              let src = Bigarray.Array1.sub b.mat (row * (b.cap_l + 1)) (b.cap_l + 1) in
              let dst = Bigarray.Array1.sub nb.mat (row * (cap_l + 1)) (b.cap_l + 1) in
              Bigarray.Array1.blit src dst
            done;
            f.body <- nb
          end)

  let grow t ~p ~residual = grow_to t ~p ~l:(max 0 (fst (snap t residual)))

  (* The plan for canonical state (p, l).  Double-checked under the
     plans lock; racing fills may plan the same state twice (policies
     are deterministic, so both compute the same schedule) but the
     expensive Policy.plan runs outside the lock. *)
  let plan_at t ~p ~l ~residual =
    let key = (p, l) in
    match with_lock t.plans_lock (fun () -> Hashtbl.find_opt t.plans key) with
    | Some s -> s
    | None ->
      let ctx =
        { Policy.params = t.params; opportunity = t.opportunity; residual;
          interrupts_left = p }
      in
      let s = Policy.plan t.policy ctx in
      check_plan ~policy_name:(Policy.name t.policy) ~eps:t.eps ctx s;
      ignore (Atomic.fetch_and_add plans_ctr 1);
      with_lock t.plans_lock (fun () ->
          match Hashtbl.find_opt t.plans key with
          | Some s -> s
          | None -> Hashtbl.replace t.plans key s; s)

  (* Raw memo read, NaN = unsolved.  The recursion performs millions of
     lookups per solve, so the hot path must not allocate (no option, no
     tuple): minor-GC pressure is what would serialize the
     domain-parallel fan-out behind stop-the-world collections. *)
  let[@inline] lookup_raw t ~p ~l =
    match t.backend with
    | Flat f ->
      let b = f.body in
      Bigarray.Array1.unsafe_get b.mat ((p * (b.cap_l + 1)) + l)
    | Tbl tbl -> (
        match Hashtbl.find_opt tbl (p, l) with
        | Some v -> v
        | None -> Float.nan)

  let lookup t ~p ~l =
    let v = lookup_raw t ~p ~l in
    if Float.is_nan v then None else Some v

  let store t ~p ~l v =
    match t.backend with
    | Flat f ->
      let b = f.body in
      Bigarray.Array1.unsafe_set b.mat ((p * (b.cap_l + 1)) + l) v
    | Tbl tbl -> Hashtbl.replace tbl (p, l) v

  (* The value recursion.  [hits] is a per-entry accumulator flushed to
     the process counter when the top-level call returns, so the hot
     memo-hit path costs no atomic traffic. *)
  let rec value_rec t hits ~p ~residual =
    match t.grid with
    | Some g ->
      (* [snap]'s gridded arm, inlined so the common case allocates no
         intermediate tuple. *)
      let l = int_of_float (Float.floor (residual /. g)) in
      let canon = float_of_int l *. g in
      if canon <= t.c +. t.eps then 0.
      else
        let v = lookup_raw t ~p ~l in
        if Float.is_nan v then expand t hits ~p ~l ~residual:canon
        else begin
          incr hits;
          v
        end
    | None ->
      let l, canon = snap t residual in
      if canon <= t.c +. t.eps then 0.
      else
        let v = lookup_raw t ~p ~l in
        if Float.is_nan v then expand t hits ~p ~l ~residual:canon
        else begin
          incr hits;
          v
        end

  and expand t hits ~p ~l ~residual =
    let n = 1 + Atomic.fetch_and_add t.states 1 in
    ignore (Atomic.fetch_and_add states_ctr 1);
    if n > t.max_states then
      Error.budget_exhausted ~states:n ~budget:t.max_states;
    let s = plan_at t ~p ~l ~residual in
    let leftover = residual -. Schedule.total s in
    let completed =
      Schedule.work_if_uninterrupted t.params s
      +. (if leftover > t.eps then value_rec t hits ~p ~residual:leftover else 0.)
    in
    let v =
      if p <= 0 then completed
      else begin
        (* banked accumulates work_before incrementally: O(m) total
           rather than O(m^2). *)
        let best = ref completed in
        let banked = ref 0. in
        let m = Schedule.length s in
        for k = 1 to m do
          let rem = residual -. Schedule.end_time s k in
          let cand = !banked +. value_rec t hits ~p:(p - 1) ~residual:rem in
          if cand < !best then best := cand;
          banked := !banked +. Model.positive_sub (Schedule.period s k) t.c
        done;
        !best
      end
    in
    store t ~p ~l v;
    v

  let flush_hits hits =
    if !hits > 0 then ignore (Atomic.fetch_and_add hits_ctr !hits)

  (* Fan the top-level episode's continuation states out across the
     pool: the leftover branch plus one (p-1) subtree per period.  Each
     slot runs the ordinary sequential recursion; slots share the flat
     memo, and a cell raced by two slots is merely computed twice with
     the identical result (aligned 64-bit stores, pure per-state
     values).  The Hashtbl backend is not domain-safe, so only Flat
     solvers fan out.  Under a batch fan-out on the same pool this is a
     nested run, which idle domains help with (as in Dp.fill). *)
  let par_fan_out t pool ~p ~l ~residual =
    let s = plan_at t ~p ~l ~residual in
    let m = Schedule.length s in
    let slots = Csutil.Par.Pool.size pool in
    if m >= 2 * slots then begin
      ignore (Atomic.fetch_and_add parfill_ctr 1);
      let leftover = residual -. Schedule.total s in
      let tasks = Array.make (m + 1) None in
      if leftover > t.eps then tasks.(0) <- Some (p, leftover);
      for k = 1 to m do
        tasks.(k) <- Some (p - 1, residual -. Schedule.end_time s k)
      done;
      Csutil.Par.Pool.run pool (fun slot ->
          let hits = ref 0 in
          Fun.protect ~finally:(fun () -> flush_hits hits) (fun () ->
              let i = ref slot in
              while !i <= m do
                (match tasks.(!i) with
                 | Some (p, residual) when p >= 0 ->
                   ignore (value_rec t hits ~p ~residual)
                 | _ -> ());
                i := !i + slots
              done))
    end

  let value t ~p ~residual =
    if p < 0 then Error.invalid "Game.Solver.value: p must be >= 0";
    let l, snapped = snap t residual in
    grow_to t ~p ~l:(max l 0);
    (if snapped > t.c +. t.eps then
       match (t.pool, t.backend) with
       | Some pool, Flat _
         when p >= 1 && Csutil.Par.Pool.size pool > 1
              && lookup t ~p ~l = None ->
         par_fan_out t pool ~p ~l ~residual:snapped
       | _ -> ());
    (* The sequential pass computes the root exactly as the seed
       recursion would: children are memo hits after a fan-out, and the
       argmin scan order (ties to the lowest period) is unchanged. *)
    let hits = ref 0 in
    Fun.protect ~finally:(fun () -> flush_hits hits) (fun () ->
        value_rec t hits ~p ~residual)

  let guaranteed t =
    value t ~p:t.opportunity.Model.interrupts
      ~residual:t.opportunity.Model.lifespan

  let plan t ~p ~residual =
    let l, residual = snap t residual in
    grow_to t ~p ~l:(max l 0);
    plan_at t ~p ~l ~residual

  (* The minimax adversary over this solver's memo: replays the
     value-recursion's argmin choice for the episode at hand.  After a
     [guaranteed] call every value query below is a memo hit, so the
     replay adds (next to) no states. *)
  let adversary t =
    let decide ctx s =
      let p = ctx.Policy.interrupts_left in
      if p <= 0 then Adversary.Let_run
      else begin
        let hits = ref 0 in
        Fun.protect ~finally:(fun () -> flush_hits hits) (fun () ->
            let residual = ctx.Policy.residual in
            grow_to t ~p ~l:(max 0 (fst (snap t residual)));
            let leftover = residual -. Schedule.total s in
            let completed =
              Schedule.work_if_uninterrupted t.params s
              +. (if leftover > t.eps then value_rec t hits ~p ~residual:leftover
                  else 0.)
            in
            let best = ref completed and best_k = ref 0 in
            let banked = ref 0. in
            let m = Schedule.length s in
            for k = 1 to m do
              let rem = residual -. Schedule.end_time s k in
              let cand = !banked +. value_rec t hits ~p:(p - 1) ~residual:rem in
              if cand < !best then begin
                best := cand;
                best_k := k
              end;
              banked := !banked +. Model.positive_sub (Schedule.period s k) t.c
            done;
            if !best_k = 0 then Adversary.Let_run
            else Adversary.Interrupt { period = !best_k; fraction = 1.0 })
      end
    in
    Adversary.make ~name:"optimal" ~decide
end

let guaranteed_at ?grid ?max_states params opportunity policy ~p ~residual =
  let solver = Solver.create ?grid ?max_states params opportunity policy in
  Solver.value solver ~p ~residual

let guaranteed ?grid ?max_states params opportunity policy =
  guaranteed_at ?grid ?max_states params opportunity policy
    ~p:opportunity.Model.interrupts ~residual:opportunity.Model.lifespan

let optimal_adversary ?grid ?max_states params opportunity policy =
  Solver.adversary (Solver.create ?grid ?max_states params opportunity policy)

(* --- The seed recursion, retained as the reference ---------------------- *)

(* The pre-Solver implementation, kept verbatim (raw-float memo keys,
   one private Hashtbl per call) as the correctness and performance
   baseline for bench/test.  Production call sites go through
   {!Solver}; game.mli exports only the three answers from [Ref], so
   [make_solver] cannot be called outside this file. *)
module Ref = struct
  let make_solver ?grid ?(max_states = 4_000_000) params opportunity policy =
    let c = Model.c params in
    let eps = progress_eps opportunity in
    let memo : (int * float, float) Hashtbl.t = Hashtbl.create 4096 in
    let states = ref 0 in
    let rec value ~p ~residual =
      let residual =
        match grid with
        | None -> residual
        | Some g -> Csutil.Float_ext.round_down_to ~grid:g residual
      in
      if residual <= c +. eps then 0.
      else begin
        let key = (p, residual) in
        match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
          incr states;
          if !states > max_states then
            Error.budget_exhausted ~states:!states ~budget:max_states;
          let ctx =
            { Policy.params; opportunity; residual; interrupts_left = p }
          in
          let s = Policy.plan policy ctx in
          check_plan ~policy_name:(Policy.name policy) ~eps ctx s;
          let leftover = residual -. Schedule.total s in
          let completed =
            Schedule.work_if_uninterrupted params s
            +. (if leftover > eps then value ~p ~residual:leftover else 0.)
          in
          let v =
            if p <= 0 then completed
            else begin
              let best = ref completed in
              let banked = ref 0. in
              let m = Schedule.length s in
              for k = 1 to m do
                let rem = residual -. Schedule.end_time s k in
                let cand = !banked +. value ~p:(p - 1) ~residual:rem in
                if cand < !best then best := cand;
                banked := !banked +. Model.positive_sub (Schedule.period s k) c
              done;
              !best
            end
          in
          Hashtbl.replace memo key v;
          v
      end
    in
    value

  let guaranteed_at ?grid ?max_states params opportunity policy ~p ~residual =
    let value = make_solver ?grid ?max_states params opportunity policy in
    value ~p ~residual

  let guaranteed ?grid ?max_states params opportunity policy =
    guaranteed_at ?grid ?max_states params opportunity policy
      ~p:opportunity.Model.interrupts ~residual:opportunity.Model.lifespan

  let optimal_adversary ?grid ?max_states params opportunity policy =
    let value = make_solver ?grid ?max_states params opportunity policy in
    let decide ctx s =
      let p = ctx.Policy.interrupts_left in
      if p <= 0 then Adversary.Let_run
      else begin
        let eps = progress_eps opportunity in
        let leftover = ctx.Policy.residual -. Schedule.total s in
        let completed =
          Schedule.work_if_uninterrupted params s
          +. (if leftover > eps then value ~p ~residual:leftover else 0.)
        in
        let best = ref completed and best_k = ref 0 in
        let banked = ref 0. in
        let m = Schedule.length s in
        for k = 1 to m do
          let rem = ctx.Policy.residual -. Schedule.end_time s k in
          let cand = !banked +. value ~p:(p - 1) ~residual:rem in
          if cand < !best then begin
            best := cand;
            best_k := k
          end;
          banked :=
            !banked +. Model.positive_sub (Schedule.period s k) (Model.c params)
        done;
        if !best_k = 0 then Adversary.Let_run
        else Adversary.Interrupt { period = !best_k; fraction = 1.0 }
      end
    in
    Adversary.make ~name:"optimal" ~decide
end
