(* LRU cache of solved Dp tables, keyed by the tick cost c.

   One table per c: a query whose bounds exceed the resident table's
   GROWS the table (Dp.grow) instead of solving a fresh one —
   the recurrence only reads smaller indices, so the solved prefix is
   reused verbatim and only the new cells are paid for.  Bounds are
   still canonicalized (l to a power of two, p to an even bound) so a
   ramp of slightly-growing queries does not trigger a grow per query.

   The table map is a Hashtbl guarded by one mutex with a logical-clock
   LRU: every hit stamps the entry with a fresh tick, eviction scans for
   the minimum stamp.  Capacities are small (a handful of tables), so
   the O(size) eviction scan is cheaper than maintaining an intrusive
   list, and far simpler.

   A cache used to carry its own lock-shard array; that moved out when
   the Router took ownership of placement.  Each Router shard now owns
   one whole cache, so the cross-key concurrency that lock shards
   bought is supplied by running K caches side by side — and a single
   lock per cache keeps the metadata discipline trivial.  Placement
   (which requests share a cache) is a serving-topology question the
   cache cannot answer; see Router.

   Growth happens under the lock — Dp.grow requires a single writer —
   and readers that obtained the table earlier stay safe: a grow
   publishes a fresh pack and never mutates a published one.  A
   cold solve runs OUTSIDE the lock and publishes under it; the first
   published entry for an identity wins.  The cache does not stop two
   concurrent callers from solving the same cold identity — that is
   the callers' structure: Batch fetches each identity once per batch,
   and in the daemon one shard worker owns each cache, so a race needs
   a stale residency probe plus a concurrent cold job for the same c,
   and costs at most one redundant solve, never different bytes.
   Resident game-solver builds follow the same rule.

   The same locking discipline is what lets the concurrent server hand
   one cache to every connection worker: the mutex serializes the
   metadata, published tables are immutable, so cross-connection
   sharing needs no extra coordination and a table solved for one
   client is a hit for the next. *)

open Cyclesteal

type key = { c : int; max_p : int; max_l : int }

let min_l = 256
let min_p = 2

let next_pow2 n =
  let rec go acc = if acc >= n then acc else go (acc * 2) in
  go 1

let canonical ~c ~p ~l =
  if c < 1 then Error.invalid "Cache.canonical: c must be >= 1";
  if p < 0 then Error.invalid "Cache.canonical: p must be non-negative";
  if l < 0 then Error.invalid "Cache.canonical: l must be non-negative";
  let max_l = max min_l (next_pow2 l) in
  let max_p = max min_p (if p mod 2 = 0 then p else p + 1) in
  { c; max_p; max_l }

type entry = { dp : Dp.t; mutable used : int }

type tables = {
  lock : Mutex.t;
  table : (int, entry) Hashtbl.t; (* keyed by the table's c *)
  capacity : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable growths : int;
}

(* --- resident game solvers --------------------------------------------

   The evaluate op's analogue of the Dp table map: one Game.Solver kept
   warm per (c, u, p, policy), so a repeated evaluation answers from the
   solver's memo instead of re-expanding the minimax tree.  Policies
   whose Policy.t ignores the opportunity (Planner.state_only) are keyed
   with p = -1: one solver serves every interrupt budget at that
   lifespan, its memo taking the larger budget's states as they come.

   Identity must pin everything the solver bakes in: c and the policy
   (they change the game), u (it fixes both the evaluation grid and the
   progress tolerance) and — unless state_only — p (the policy was
   constructed for that budget).  Values are pure functions of canonical
   states, so a warm solver answers bit-identically to a fresh one.

   One lock guards the whole map (solver traffic is per-request, far
   lighter than per-query Dp lookups); each entry carries its own mutex
   so evaluations on distinct solvers run concurrently while two
   requests hitting the same resident solver — whose memo takes one
   writer — serialize. *)

type solver_key = { sc : float; su : float; sp : int; spolicy : string }

type solver_entry = {
  solver : Game.Solver.t;
  slock : Mutex.t;
  mutable sused : int;
  mutable saved_states : int;
      (* expanded-state count last persisted to (or loaded from) the
         bank; the write-behind threshold compares against it so a
         handful of fringe expansions does not rewrite the memo file
         per request *)
}

type solvers = {
  sollock : Mutex.t;
  entries : (solver_key, solver_entry) Hashtbl.t;
  scapacity : int;
  mutable sclock : int;
  mutable shits : int;
  mutable smisses : int;
  mutable sevictions : int;
  mutable sgrowths : int;
}

type t = {
  tables : tables;
  pool : Csutil.Par.Pool.t option;
  solvers : solvers;
  bank : Store.Bank.t option;
      (* The persistent memo tier.  Cold misses fall through to the
         bank's mapped snapshots before paying a solve; tables that were
         solved or grown here are written behind (outside the table
         lock, before the reply) so the next process starts warm. *)
}

let create ?pool ?bank ~capacity () =
  if capacity < 1 then Error.invalid "Cache.create: capacity must be >= 1";
  {
    tables =
      {
        lock = Mutex.create ();
        table = Hashtbl.create 16;
        capacity;
        clock = 0;
        hits = 0;
        misses = 0;
        evictions = 0;
        growths = 0;
      };
    pool;
    bank;
    solvers =
      {
        sollock = Mutex.create ();
        entries = Hashtbl.create 16;
        scapacity = capacity;
        sclock = 0;
        shits = 0;
        smisses = 0;
        sevictions = 0;
        sgrowths = 0;
      };
  }

let with_lock tb f =
  Mutex.lock tb.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tb.lock) f

let covers dp key = Dp.max_p dp >= key.max_p && Dp.max_l dp >= key.max_l

let evict_lru tb =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
       match !victim with
       | Some (_, best) when best.used <= e.used -> ()
       | _ -> victim := Some (k, e))
    tb.table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove tb.table k;
    tb.evictions <- tb.evictions + 1
  | None -> ()

(* Under the lock: publish [dp] for [c], evicting least-recently-used
   tables to make room.  After an eviction the spare fill scratch is
   trimmed to the largest table now held, [dp] included, so a victim's
   scratch does not stay resident after it. *)
let insert tb c dp =
  let evicting = Hashtbl.length tb.table >= tb.capacity in
  while Hashtbl.length tb.table >= tb.capacity do
    evict_lru tb
  done;
  Hashtbl.add tb.table c { dp; used = tb.clock };
  if evicting then
    Dp.trim_scratch
      ~max_bytes:
        (Hashtbl.fold (fun _ e m -> max m (Dp.dense_footprint_bytes e.dp)) tb.table 0)

(* Under the lock: stamp a resident entry and serve it, growing it in
   place when it falls short of [key].  A grow counts as both a miss
   (solve work was paid) and a growth (the prefix was reused).  The
   second component says whether solve work changed the table. *)
let serve_resident ~pool tb e key ~count =
  e.used <- tb.clock;
  if covers e.dp key then begin
    if count then tb.hits <- tb.hits + 1;
    (e.dp, false)
  end
  else begin
    if count then tb.misses <- tb.misses + 1;
    tb.growths <- tb.growths + 1;
    Dp.grow ?pool e.dp ~max_p:key.max_p ~max_l:key.max_l;
    (e.dp, true)
  end

(* The resident table for [key.c], grown or solved so it covers [key],
   plus whether solve work changed it (the write-behind cue).

   A cold miss looks the identity up under the lock, pays the bank
   load (open + CRC scan of the whole payload, tens of ms for a large
   table) or the solve OUTSIDE it, so other keys keep answering, and
   publishes under the lock again.  Nothing here stops two callers
   racing one cold identity from both solving: one solve per identity
   is the callers' structure — Batch fetches each identity once per
   batch, and in the daemon one shard worker owns each cache.  When
   two callers do race, the first published entry wins: the second is
   served it as a resident entry (a hit when it covers) and its own
   table is dropped, never written behind.  Answers cannot differ
   either way, since published tables are immutable and dp payloads
   do not depend on table bounds.

   Solve and grow take the cache's pool: fills large enough for the
   wavefront use it, nested under a batch fan-out on the same pool or
   not. *)
let obtain ~pool ~bank tb key ~count =
  let resident =
    with_lock tb (fun () ->
        tb.clock <- tb.clock + 1;
        Option.map
          (fun e -> serve_resident ~pool tb e key ~count)
          (Hashtbl.find_opt tb.table key.c))
  in
  match resident with
  | Some r -> r
  | None ->
    let dp, changed, grew =
      match Option.bind bank (fun b -> Store.Bank.load_dp b ~c:key.c) with
      | Some dp when covers dp key -> (dp, false, false)
      | Some dp ->
        Dp.grow ?pool dp ~max_p:key.max_p ~max_l:key.max_l;
        (dp, true, true)
      | None ->
        (Dp.solve_with ~pool ~c:key.c ~max_p:key.max_p ~max_l:key.max_l, true, false)
    in
    with_lock tb (fun () ->
        tb.clock <- tb.clock + 1;
        match Hashtbl.find_opt tb.table key.c with
        | Some e ->
          (* Lost a race (or startup warming inserted meanwhile): the
             published entry wins, ours is dropped. *)
          serve_resident ~pool tb e key ~count
        | None ->
          if count then
            if changed then tb.misses <- tb.misses + 1
            else tb.hits <- tb.hits + 1;
          if grew then tb.growths <- tb.growths + 1;
          insert tb key.c dp;
          (dp, changed))

(* Write-behind: persist a freshly solved or grown table, outside the
   lock but on the caller — in the daemon the shard worker, before the
   reply is written.  The save writes the pack the fill published (no
   re-pack); published packs are immutable, so reading one here races
   nothing.  The bank dedups by solved size and swallows I/O failures
   (they surface in its counters). *)
let persist_dp t dp =
  match t.bank with None -> () | Some b -> Store.Bank.save_dp b dp

let find_or_solve t ~c ~p ~l =
  let key = canonical ~c ~p ~l in
  let dp, changed =
    obtain ~pool:t.pool ~bank:t.bank t.tables key ~count:true
  in
  if changed then persist_dp t dp;
  dp

(* Presence probe ("is there a resident table covering these bounds?")
   that neither stamps the LRU clock nor counts. *)
let mem t key =
  let tb = t.tables in
  with_lock tb (fun () ->
      match Hashtbl.find_opt tb.table key.c with
      | Some e -> covers e.dp key
      | None -> false)

(* A gridded memo loaded from the bank, rebuilt into a solver around
   the mapped (copy-on-write) pages; [None] on miss, on any load
   failure, or for ungridded evaluations (the bank keys memos by their
   grid). *)
let solver_from_bank t key params opp (planner : Engine.Planner.t) =
  match (t.bank, Engine.Planner.default_grid ~u:key.su) with
  | Some b, Some grid -> (
    match
      Store.Bank.load_game b ~c:key.sc ~u:key.su ~grid ~policy:key.spolicy
        ~p_key:key.sp
    with
    | None -> None
    | Some snap -> (
      match
        Error.guard (fun () ->
            Game.Solver.of_snapshot ?pool:t.pool params opp
              (Engine.Planner.policy planner params opp)
              snap)
      with
      | Ok solver -> Some solver
      | Error _ -> None))
  | _ -> None

(* Under the solvers lock: stamp and serve a resident entry. *)
let serve_resident_solver s e ~p =
  e.sused <- s.sclock;
  s.shits <- s.shits + 1;
  (* A state-only hit past the largest budget the memo has answered
     expands a new budget level when evaluated. *)
  if p > Game.Solver.answered_p e.solver then s.sgrowths <- s.sgrowths + 1

(* The resident-solver identity of an evaluation; state-only policies
   collapse the budget to -1. *)
let solver_key params opp (planner : Engine.Planner.t) =
  {
    sc = Model.c params;
    su = opp.Model.lifespan;
    sp =
      (if planner.Engine.Planner.state_only then -1
       else opp.Model.interrupts);
    spolicy = planner.Engine.Planner.name;
  }

(* The resident (or bank-loaded, or fresh) entry for the key, plus the
   key itself (the write-behind needs the identity the entry is filed
   under).  A miss follows [obtain]: look up under the global solvers
   lock, pay the bank load (a CRC and structure check of the sparse
   table, proportional to the states it holds) or the fresh solver
   build OUTSIDE it, so lookups for other solvers never stall behind
   it, then publish under the lock — the first published entry wins a
   race, and the loser's solver is dropped. *)
let obtain_solver t params opp (planner : Engine.Planner.t) =
  let u = opp.Model.lifespan in
  let p = opp.Model.interrupts in
  let key = solver_key params opp planner in
  let s = t.solvers in
  let locked f =
    Mutex.lock s.sollock;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.sollock) f
  in
  let resident =
    locked (fun () ->
        s.sclock <- s.sclock + 1;
        let found = Hashtbl.find_opt s.entries key in
        Option.iter (fun e -> serve_resident_solver s e ~p) found;
        found)
  in
  match resident with
  | Some e -> (e, key)
  | None ->
    let banked = solver_from_bank t key params opp planner in
    let solver =
      match banked with
      | Some solver -> solver
      | None ->
        let grid = Engine.Planner.default_grid ~u in
        Engine.Planner.solver ?grid ?pool:t.pool planner params opp
    in
    locked (fun () ->
        s.sclock <- s.sclock + 1;
        match Hashtbl.find_opt s.entries key with
        | Some e ->
          serve_resident_solver s e ~p;
          (e, key)
        | None ->
          (match banked with
          | Some _ ->
            (* No minimax state was expanded: the bank answered. *)
            s.shits <- s.shits + 1
          | None -> s.smisses <- s.smisses + 1);
          while Hashtbl.length s.entries >= s.scapacity do
            let victim = ref None in
            Hashtbl.iter
              (fun k e ->
                match !victim with
                | Some (_, best) when best.sused <= e.sused -> ()
                | _ -> victim := Some (k, e))
              s.entries;
            match !victim with
            | Some (k, _) ->
              Hashtbl.remove s.entries k;
              s.sevictions <- s.sevictions + 1
            | None -> ()
          done;
          let e =
            {
              solver;
              slock = Mutex.create ();
              sused = s.sclock;
              (* A bank-loaded memo is already on disk at exactly its
                 rebuilt state count. *)
              saved_states =
                (if Option.is_some banked then Game.Solver.states solver
                 else 0);
            }
          in
          Hashtbl.add s.entries key e;
          (e, key))

(* The evaluate-side twin of [mem]: a resident solver for this
   evaluation that has already answered at this budget or a larger
   one, so answering expands no new budget level.  Same rules as
   [mem] — no LRU stamp, no counters.  The solver's answered budget is
   read outside the entry lock: an evaluation racing the probe only
   makes it stale, and the probe is advisory anyway. *)
let solver_mem t params opp planner =
  let key = solver_key params opp planner in
  let s = t.solvers in
  Mutex.lock s.sollock;
  let covered =
    match Hashtbl.find_opt s.entries key with
    | Some e -> Game.Solver.answered_p e.solver >= opp.Model.interrupts
    | None -> false
  in
  Mutex.unlock s.sollock;
  covered

(* Persist when the memo was never banked by this entry (the seed save
   precompute and warm restarts rely on), or when it grew by at least
   an eighth since the last save: a save sorts every entry into a
   canonical table and rewrites the whole file, so a warm solver
   expanding a handful of fringe states per request must not pay (and
   hold the entry lock for) a full rewrite each time.  The states lost
   to the threshold are just memo entries — re-expanded on demand
   after a restart. *)
let game_save_due ~saved ~states =
  saved = 0 || states - saved >= max 1 (saved / 8)

let with_solver t params opp planner f =
  let e, key = obtain_solver t params opp planner in
  Mutex.lock e.slock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock e.slock)
    (fun () ->
      let result = f e.solver in
      (* Write-behind, under the entry lock (so the memo is quiescent)
         but only when enough growth accrued; the bank additionally
         dedups by expanded-state count. *)
      (match t.bank with
      | None -> ()
      | Some b ->
        let states = Game.Solver.states e.solver in
        if game_save_due ~saved:e.saved_states ~states then (
          match Game.Solver.to_snapshot e.solver with
          | None -> ()
          | Some snap ->
            Store.Bank.save_game b ~c:key.sc ~u:key.su ~policy:key.spolicy
              ~p_key:key.sp snap;
            e.saved_states <- states));
      result)

(* Map every banked Dp table this cache owns (without disturbing LRU
   or hit/miss counters — `count:false` keeps startup warming out of
   the serving stats) so the first query after startup is already
   warm; game memos stay on disk until the first evaluation names
   their policy — rebuilding a solver needs the live params/policy
   objects only the evaluate path has.  [owns] is the placement slice
   (the Router hands each shard's cache a predicate over c so K
   shards partition one bank instead of each mapping all of it); a
   table already resident is skipped before any file is touched, so
   re-warming never pays a load + CRC scan just to discard the
   result.  Returns the number of tables warmed. *)
let warm_from_bank ?owns t =
  match t.bank with
  | None -> 0
  | Some b ->
    let owns = match owns with Some f -> f | None -> fun _ -> true in
    let tb = t.tables in
    List.fold_left
      (fun warmed (_, descr) ->
        match descr with
        | Store.Snapshot.Game_memo -> warmed
        | Store.Snapshot.Dp_table { c; _ } -> (
          if not (owns c) then warmed
          else
            let resident =
              with_lock tb (fun () -> Hashtbl.mem tb.table c)
            in
            if resident then warmed
            else
              match Store.Bank.load_dp ~count:false b ~c with
              | None -> warmed
              | Some dp ->
                with_lock tb (fun () ->
                    if Hashtbl.mem tb.table c then warmed
                    else begin
                      tb.clock <- tb.clock + 1;
                      insert tb c dp;
                      warmed + 1
                    end)))
      0 (Store.Bank.entries b)

let bank t = t.bank

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  growths : int;
  resident : int;
  resident_bytes : int;
  resident_compressed_bytes : int;
  resident_dense_bytes : int;
  kernel : Dp.counters;
  solver_hits : int;
  solver_misses : int;
  solver_evictions : int;
  solver_growths : int;
  solvers_resident : int;
  solver_bytes : int;
  game : Game.counters;
  bank : Store.Bank.counters option;
  bank_last_error : string option;
}

let stats t =
  let solver_part =
    let s = t.solvers in
    Mutex.lock s.sollock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.sollock)
      (fun () ->
        {
          hits = 0;
          misses = 0;
          evictions = 0;
          growths = 0;
          resident = 0;
          resident_bytes = 0;
          resident_compressed_bytes = 0;
          resident_dense_bytes = 0;
          (* Process-wide: every solve/grow in this daemon goes through
             a cache, so the kernel (and game-solver) counters read as
             solve work.  With several shard caches, each snapshot
             carries the same globals; [merge] keeps exactly one copy. *)
          kernel = Dp.counters ();
          solver_hits = s.shits;
          solver_misses = s.smisses;
          solver_evictions = s.sevictions;
          solver_growths = s.sgrowths;
          solvers_resident = Hashtbl.length s.entries;
          solver_bytes =
            Hashtbl.fold
              (fun _ e b -> b + Game.Solver.footprint_bytes e.solver)
              s.entries 0;
          game = Game.counters ();
          bank = Option.map Store.Bank.counters t.bank;
          bank_last_error = Option.bind t.bank Store.Bank.last_error;
        })
  in
  let tb = t.tables in
  with_lock tb (fun () ->
      (* Every resident table is a breakpoint pack, so the compressed
         bytes are all of them; the dense-equivalent size sits alongside
         so the saving reads off the stats directly. *)
      let bytes, dense_equiv =
        Hashtbl.fold
          (fun _ e (b, de) ->
            (b + Dp.footprint_bytes e.dp, de + Dp.dense_footprint_bytes e.dp))
          tb.table (0, 0)
      in
      {
        solver_part with
        hits = tb.hits;
        misses = tb.misses;
        evictions = tb.evictions;
        growths = tb.growths;
        resident = Hashtbl.length tb.table;
        resident_bytes = bytes;
        resident_compressed_bytes = bytes;
        resident_dense_bytes = dense_equiv;
      })

(* The merged aggregate view over K shard caches: per-cache families
   sum; the process-wide kernel/game counters and the (shared) bank
   counters are kept from exactly one snapshot — summing them would
   report every solve K times. *)
let merge = function
  | [] -> Error.invalid "Cache.merge: need at least one stats snapshot"
  | first :: rest ->
    List.fold_left
      (fun acc s ->
        {
          s with
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          evictions = acc.evictions + s.evictions;
          growths = acc.growths + s.growths;
          resident = acc.resident + s.resident;
          resident_bytes = acc.resident_bytes + s.resident_bytes;
          resident_compressed_bytes =
            acc.resident_compressed_bytes + s.resident_compressed_bytes;
          resident_dense_bytes =
            acc.resident_dense_bytes + s.resident_dense_bytes;
          solver_hits = acc.solver_hits + s.solver_hits;
          solver_misses = acc.solver_misses + s.solver_misses;
          solver_evictions = acc.solver_evictions + s.solver_evictions;
          solver_growths = acc.solver_growths + s.solver_growths;
          solvers_resident = acc.solvers_resident + s.solvers_resident;
          solver_bytes = acc.solver_bytes + s.solver_bytes;
        })
      first rest

let reset_counters t =
  (let tb = t.tables in
   with_lock tb (fun () ->
       tb.hits <- 0;
       tb.misses <- 0;
       tb.evictions <- 0;
       tb.growths <- 0));
  (let s = t.solvers in
   Mutex.lock s.sollock;
   Fun.protect
     ~finally:(fun () -> Mutex.unlock s.sollock)
     (fun () ->
       s.shits <- 0;
       s.smisses <- 0;
       s.sevictions <- 0;
       s.sgrowths <- 0));
  Dp.reset_counters ();
  Game.reset_counters ();
  (* The bank group resets with everything else: [stats reset] is one
     atomic zeroing of every counter family the daemon reports. *)
  Option.iter Store.Bank.reset_counters t.bank
