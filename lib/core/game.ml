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
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* The memo: an open-addressed, linearly probed table from canonical
     state (p, l) to its value.  Slot [i] keeps p in [keys.{2i}] ([-1]
     = empty), l in [keys.{2i+1}] and the value in [vals.{i}]; the slot
     count is a power of two.  Only the states the queries reach are
     stored, so a memo is sized by its entries, never by the grid.  A
     bank-loaded memo starts on the file's privately mapped pages:
     inserting dirties copy-on-write pages, and a rehash moves the
     table to fresh anonymous arrays. *)
  type memo = {
    mutable keys : ints;
    mutable vals : floats;
    mutable shift : int;  (* 63 - log2 slots: [home] keeps the top bits *)
    mutable count : int;
  }

  let empty = -1

  (* The load bounds, so a probe always meets an empty slot.  A resident
     table rehashes before an insertion would fill more than three
     quarters of it, keeping probes short; a saved table is packed up
     to seven eighths, halving some files for a few more probes per
     hit, and its first insertion after a load rehashes it. *)
  let over_load ~count ~slots = 4 * count > 3 * slots
  let over_packed ~count ~slots = 8 * count > 7 * slots

  (* The smallest saved table (of at least 8 slots) for [count]. *)
  let rec slots_for ?(s = 8) count =
    if over_packed ~count ~slots:s then slots_for ~s:(2 * s) count else s

  let rec log2 s = if s <= 1 then 0 else 1 + log2 (s lsr 1)

  let alloc_memo slots =
    let keys = Bigarray.(Array1.create int c_layout (2 * slots)) in
    let vals = Bigarray.(Array1.create float64 c_layout slots) in
    Bigarray.Array1.(fill keys empty; fill vals 0.);
    { keys; vals; shift = 63 - log2 slots; count = 0 }

  (* A key's home slot, Fibonacci hashing: the top bits of the key
     times 2^63 / phi.  They depend on every key bit, so residual keys
     with long runs of trailing zeros spread, and consecutive grid
     indices land far apart; keeping the product's low bits instead
     made a cold gridded solve about 15% slower. *)
  let[@inline] home ~p ~l shift = ((l + (p * 0x9E3779B9)) * -0x30E44323405AC1F5) lsr shift

  (* The slot holding [(p, l)], or the empty slot where it would go.
     Allocation-free: the recursion runs millions of probes per solve,
     and minor-GC pressure is what would serialize the fan-out. *)
  let[@inline] probe (keys : ints) mask shift ~p ~l =
    let i = ref (home ~p ~l shift) in
    let kp = ref (Bigarray.Array1.unsafe_get keys (2 * !i)) in
    while
      !kp <> empty
      && not (!kp = p && Bigarray.Array1.unsafe_get keys ((2 * !i) + 1) = l)
    do
      i := (!i + 1) land mask;
      kp := Bigarray.Array1.unsafe_get keys (2 * !i)
    done;
    !i

  (* The slot holding [(p, l)], or [-1]. *)
  let[@inline] find m ~p ~l =
    let keys = m.keys in
    let i = probe keys (Bigarray.Array1.dim m.vals - 1) m.shift ~p ~l in
    if Bigarray.Array1.unsafe_get keys (2 * i) = empty then -1 else i

  let iter m f =
    for i = 0 to Bigarray.Array1.dim m.vals - 1 do
      let p = m.keys.{2 * i} in
      if p <> empty then f ~p ~l:m.keys.{(2 * i) + 1} m.vals.{i}
    done

  (* Insert or overwrite; [add] first rehashes into a table twice the
     size when the new entry would pass the resident load bound. *)
  let insert m ~p ~l v =
    let keys = m.keys in
    let i = probe keys (Bigarray.Array1.dim m.vals - 1) m.shift ~p ~l in
    if Bigarray.Array1.unsafe_get keys (2 * i) = empty then begin
      Bigarray.Array1.unsafe_set keys (2 * i) p;
      Bigarray.Array1.unsafe_set keys ((2 * i) + 1) l;
      m.count <- m.count + 1
    end;
    Bigarray.Array1.unsafe_set m.vals i v

  (* Rehash into the smallest doubling that holds [count] entries
     within the resident bound. *)
  let reserve m count =
    let rec fit s = if over_load ~count ~slots:s then fit (2 * s) else s in
    let slots = fit (Bigarray.Array1.dim m.vals) in
    if slots > Bigarray.Array1.dim m.vals then begin
      let bigger = alloc_memo slots in
      iter m (insert bigger);
      m.keys <- bigger.keys;
      m.vals <- bigger.vals;
      m.shift <- bigger.shift
    end

  let add m ~p ~l v =
    reserve m (m.count + 1);
    insert m ~p ~l v

  type t = {
    params : Model.params;
    opportunity : Model.opportunity;
    policy : Policy.t;
    grid : float option;
    c : float;
    eps : float;
    max_states : int;
    memo : memo;
    mutable answered_p : int;  (* largest budget [value] has returned *)
    plans : (int * int, Schedule.t) Hashtbl.t;
    plans_lock : Mutex.t;
    states : int Atomic.t;  (* this solver's expansions, budget-checked *)
    pool : Csutil.Par.Pool.t option;
  }

  let with_lock m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

  (* Ungridded canonicalisation: zero the low 12 mantissa bits, a
     ~2^-40 relative quantum.  Exactly-representable residuals (round
     numbers, grid multiples) are fixed points, so snapping never moves
     a state across a policy's plan-structure boundary; only the
     float-noise low bits are folded.  Non-positive residuals (incl.
     [-0.0]) all map to the base case.  The kept bits, shifted down,
     are the integer memo key: residuals are non-negative, so bit 63 is
     clear and the key is a non-negative 51-bit int. *)
  let mantissa_mask = 0xFFFF_FFFF_FFFF_F000L

  (* The integer memo key of a residual, and the canonical residual of
     a key that every computation at the state uses.  Two functions, not
     one returning a pair, so the recursion's hot path builds no tuple. *)
  let[@inline] key t residual =
    match t.grid with
    | Some g -> int_of_float (Float.floor (residual /. g))
    | None ->
      if residual <= 0. then 0
      else
        Int64.(to_int (shift_right_logical (logand (bits_of_float residual) mantissa_mask) 12))

  let[@inline] canon t l =
    match t.grid with
    | Some g -> float_of_int l *. g
    | None -> Int64.(float_of_bits (shift_left (of_int l) 12))

  let make ~grid ~max_states ~pool ~memo ~answered_p ~states params opportunity
      policy =
    { params; opportunity; policy; grid; c = Model.c params;
      eps = progress_eps opportunity; max_states; memo; answered_p;
      plans = Hashtbl.create 256; plans_lock = Mutex.create ();
      states = Atomic.make states; pool }

  let create ?grid ?(max_states = 4_000_000) ?pool params opportunity policy =
    (match grid with
     | Some g when g <= 0. ->
       Error.invalid "Game.Solver: grid must be positive"
     | _ -> ());
    make ~grid ~max_states ~pool ~memo:(alloc_memo 1024) ~answered_p:(-1)
      ~states:0 params opportunity policy

  let policy t = t.policy
  let states t = Atomic.get t.states
  let answered_p t = t.answered_p

  let footprint_bytes t =
    (24 * Bigarray.Array1.dim t.memo.vals) + (64 * Hashtbl.length t.plans)

  (* --- snapshots ---------------------------------------------------------- *)

  (* The disk-tier exchange format for gridded solvers: the memo table
     verbatim.  Ungridded solvers are not snapshotable ([to_snapshot] =
     None); the bank keys memos by their grid. *)
  type snapshot = {
    s_grid : float;
    s_answered_p : int;
    s_states : int;
    s_keys : ints;
    s_vals : floats;
  }

  (* Validate a table read from outside (a mapped bank file) before any
     probe runs over it: a CRC-valid but hand-made table that broke an
     invariant would otherwise answer wrong values or probe forever. *)
  let snapshot ~grid ~answered_p ~states ~(keys : ints) ~(vals : floats) =
    let bad fmt = Error.invalidf ("Game.Solver.snapshot: " ^^ fmt) in
    let slots = Bigarray.Array1.dim vals in
    if not (grid > 0.) || answered_p < -1 then bad "bad grid or budget";
    if slots < 8 || slots land (slots - 1) <> 0 || Bigarray.Array1.dim keys <> 2 * slots
    then
      bad "%d slots (%d key words) is not a power-of-two table of 8 or more" slots
        (Bigarray.Array1.dim keys);
    if states < 0 || over_packed ~count:states ~slots then
      bad "%d entries do not fit %d slots" states slots;
    let occupied = ref 0 in
    for i = 0 to slots - 1 do
      let p = keys.{2 * i} and l = keys.{(2 * i) + 1} in
      if p <> empty then begin
        if p < 0 || l < 0 then bad "slot %d holds negative key (%d, %d)" i p l;
        incr occupied;
        (* A lookup walks from the home slot; it must reach slot [i]
           before any empty slot or any other copy of the key. *)
        let j = ref (home ~p ~l (63 - log2 slots)) in
        while !j <> i do
          let q = keys.{2 * !j} in
          if q = empty then bad "key (%d, %d) in slot %d is unreachable" p l i;
          if q = p && keys.{(2 * !j) + 1} = l then bad "key (%d, %d) is held twice" p l;
          j := (!j + 1) land (slots - 1)
        done
      end
    done;
    if !occupied <> states then
      bad "header says %d entries, table holds %d" states !occupied;
    { s_grid = grid; s_answered_p = answered_p; s_states = states; s_keys = keys;
      s_vals = vals }

  (* A save is canonical: the entries go, in key order, into a fresh
     table sized by their count alone.  Equal memos thus write equal
     bytes however the resident table grew or a fan-out raced, and the
     state count is the entry count, not the racy expansion counter. *)
  let to_snapshot t =
    match t.grid with
    | None -> None
    | Some g ->
      let entries = ref [] in
      iter t.memo (fun ~p ~l v -> entries := (p, l, v) :: !entries);
      let canon = alloc_memo (slots_for t.memo.count) in
      List.iter (fun (p, l, v) -> insert canon ~p ~l v) (List.sort compare !entries);
      Some { s_grid = g; s_answered_p = t.answered_p; s_states = canon.count;
             s_keys = canon.keys; s_vals = canon.vals }

  let of_snapshot ?(max_states = 4_000_000) ?pool params opportunity policy s =
    make ~grid:(Some s.s_grid) ~max_states ~pool
      ~memo:
        { keys = s.s_keys; vals = s.s_vals; count = s.s_states;
          shift = 63 - log2 (Bigarray.Array1.dim s.s_vals) }
      ~answered_p:s.s_answered_p ~states:s.s_states params opportunity policy

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

  (* The value recursion.  [w] is the table expansions write to: the
     solver's own memo, or a fan-out slot's private overlay, which is
     read after the shared memo misses.  [hits] is a per-entry
     accumulator flushed to the process counter when the top-level call
     returns, so the hot memo-hit path costs no atomic traffic. *)
  let rec value_rec t w hits ~p ~residual =
    let l = key t residual in
    let canon = canon t l in
    if canon <= t.c +. t.eps then 0.
    else
      let i = find t.memo ~p ~l in
      if i >= 0 then (incr hits; Bigarray.Array1.unsafe_get t.memo.vals i)
      else
        let j = if w == t.memo then -1 else find w ~p ~l in
        if j >= 0 then (incr hits; Bigarray.Array1.unsafe_get w.vals j)
        else expand t w hits ~p ~l ~residual:canon

  and expand t w hits ~p ~l ~residual =
    let n = 1 + Atomic.fetch_and_add t.states 1 in
    ignore (Atomic.fetch_and_add states_ctr 1);
    if n > t.max_states then
      Error.budget_exhausted ~states:n ~budget:t.max_states;
    let s = plan_at t ~p ~l ~residual in
    let leftover = residual -. Schedule.total s in
    let completed =
      Schedule.work_if_uninterrupted t.params s
      +. (if leftover > t.eps then value_rec t w hits ~p ~residual:leftover
          else 0.)
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
          let cand = !banked +. value_rec t w hits ~p:(p - 1) ~residual:rem in
          if cand < !best then best := cand;
          banked := !banked +. Model.positive_sub (Schedule.period s k) t.c
        done;
        !best
      end
    in
    add w ~p ~l v;
    v

  let flush_hits hits =
    if !hits > 0 then ignore (Atomic.fetch_and_add hits_ctr !hits)

  (* Fan the top-level episode's continuation states out across the
     pool: the leftover branch plus one (p-1) subtree per period.  Each
     slot runs the ordinary sequential recursion against the shared
     memo, read-only meanwhile, and writes its expansions to a private
     overlay; the join merges the overlays into the memo.  Two slots
     that expand one state compute the identical value (values are pure
     per state), so the merge keeps the first.  Only gridded solvers
     fan out.  Under a batch fan-out on the same pool this is a nested
     run, which idle domains help with (as in Dp.fill). *)
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
      let overlays = Array.init slots (fun _ -> alloc_memo 1024) in
      Csutil.Par.Pool.run pool (fun slot ->
          let hits = ref 0 in
          Fun.protect ~finally:(fun () -> flush_hits hits) (fun () ->
              let i = ref slot in
              while !i <= m do
                (match tasks.(!i) with
                 | Some (p, residual) when p >= 0 ->
                   ignore (value_rec t overlays.(slot) hits ~p ~residual)
                 | _ -> ());
                i := !i + slots
              done));
      (* Size the memo for every overlay entry before merging: an
         overlay iterates in the order of its keys' top hash bits, and
         into a smaller table those keys would pile into one probe
         run, making the merge quadratic. *)
      reserve t.memo (Array.fold_left (fun n ov -> n + ov.count) t.memo.count overlays);
      Array.iter
        (fun ov ->
           iter ov (fun ~p ~l v -> if find t.memo ~p ~l < 0 then insert t.memo ~p ~l v))
        overlays
    end

  let value t ~p ~residual =
    if p < 0 then Error.invalid "Game.Solver.value: p must be >= 0";
    let l = key t residual in
    let snapped = canon t l in
    (if snapped > t.c +. t.eps then
       match t.pool with
       | Some pool
         when Option.is_some t.grid && p >= 1
              && Csutil.Par.Pool.size pool > 1
              && find t.memo ~p ~l < 0 ->
         par_fan_out t pool ~p ~l ~residual:snapped
       | _ -> ());
    (* The sequential pass computes the root exactly as the seed
       recursion would: children are memo hits after a fan-out, and the
       argmin scan order (ties to the lowest period) is unchanged. *)
    let hits = ref 0 in
    let v =
      Fun.protect ~finally:(fun () -> flush_hits hits) (fun () ->
          value_rec t t.memo hits ~p ~residual)
    in
    if p > t.answered_p then t.answered_p <- p;
    v

  let guaranteed t =
    value t ~p:t.opportunity.Model.interrupts
      ~residual:t.opportunity.Model.lifespan

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
            let leftover = residual -. Schedule.total s in
            let completed =
              Schedule.work_if_uninterrupted t.params s
              +. (if leftover > t.eps then
                    value_rec t t.memo hits ~p ~residual:leftover
                  else 0.)
            in
            let best = ref completed and best_k = ref 0 in
            let banked = ref 0. in
            let m = Schedule.length s in
            for k = 1 to m do
              let rem = residual -. Schedule.end_time s k in
              let cand =
                !banked +. value_rec t t.memo hits ~p:(p - 1) ~residual:rem
              in
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
