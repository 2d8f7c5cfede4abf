(* LRU cache of solved Dp tables, keyed by the tick cost c, and of
   resident game solvers, keyed by their evaluation identity.

   One table per c: a query whose bounds exceed the resident table's
   GROWS the table (Dp.grow) instead of solving a fresh one —
   the recurrence only reads smaller indices, so the solved prefix is
   reused verbatim and only the new cells are paid for.  Bounds are
   still canonicalized (l to a power of two, p to an even bound) so a
   ramp of slightly-growing queries does not trigger a grow per query.
   Two queries on one c that each fit Dp.max_cells need not fit
   together; then the later one's table replaces the held one, so
   whether a query answers never depends on what came before it.

   Both families are instances of one LRU core ([Lru] below): a
   Hashtbl guarded by one mutex with a logical clock — every hit stamps
   the entry with a fresh tick, eviction scans for the minimum stamp.
   Capacities are small (a handful of entries), so the O(size) eviction
   scan is cheaper than maintaining an intrusive list, and far simpler.

   Each Router shard owns one whole cache, so cross-key concurrency
   comes from K caches side by side and one lock per family is
   enough.  Which requests share a cache is decided by Router, not
   here.

   Growth happens under the lock — Dp.grow requires a single writer —
   and readers that obtained the table earlier stay safe: a grow
   publishes a fresh pack and never mutates a published one.  With a
   bank open, that fresh pack (and a cold solve's) is written straight
   into the snapshot file it will be saved as and served from that
   mapping; the save after the lock only stamps and renames the file
   (write-through, DESIGN.md S43).  A cold
   solve, bank load or solver build runs OUTSIDE the lock and publishes
   under it; the first published entry for an identity wins.  The
   cache does not stop two concurrent callers from building the same
   cold identity — that is the callers' structure: Batch fetches each
   identity once per batch, and in the daemon one shard worker owns
   each cache, so a race needs a stale residency probe plus a
   concurrent cold job for the same identity, and costs at most one
   redundant build, never different bytes.

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
  let too_big () =
    Error.invalidf "p = %d and l = %d need a dp table of more than %d cells" p
      l Dp.max_cells
  in
  (* The query itself first: [next_pow2] must not run past max_int. *)
  if not (Dp.fits ~max_p:p ~max_l:l) then too_big ();
  let max_l = max min_l (next_pow2 l) in
  let max_p = max min_p (if p mod 2 = 0 then p else p + 1) in
  if not (Dp.fits ~max_p ~max_l) then too_big ();
  { c; max_p; max_l }

(* --- the LRU core --------------------------------------------------------

   One family of resident entries and its counters.  Functions marked
   "under the lock" expect the caller to hold it (through [locked] or
   [obtain]'s callbacks). *)
module Lru = struct
  type 'v slot = { value : 'v; mutable used : int }

  type ('k, 'v) t = {
    lock : Mutex.t;
    table : ('k, 'v slot) Hashtbl.t;
    capacity : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable growths : int;
  }

  let create capacity =
    {
      lock = Mutex.create ();
      table = Hashtbl.create 16;
      capacity;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      growths = 0;
    }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let hit t = t.hits <- t.hits + 1
  let miss t = t.misses <- t.misses + 1
  let grew t = t.growths <- t.growths + 1

  (* Under the lock: [k]'s value, stamped with a fresh tick. *)
  let find t k =
    t.clock <- t.clock + 1;
    Option.map
      (fun s ->
        s.used <- t.clock;
        s.value)
      (Hashtbl.find_opt t.table k)

  let mem t k = Hashtbl.mem t.table k

  let fold t f init = Hashtbl.fold (fun _ s acc -> f s.value acc) t.table init

  (* Under the lock: file [v] under [k] with a fresh tick, evicting
     least-recently-used entries to make room.  True when it evicted. *)
  let add t k v =
    let evicting = Hashtbl.length t.table >= t.capacity in
    while Hashtbl.length t.table >= t.capacity do
      Hashtbl.fold
        (fun k s victim ->
          match victim with
          | Some (_, used) when used <= s.used -> victim
          | _ -> Some (k, s.used))
        t.table None
      |> Option.iter (fun (k, _) ->
          Hashtbl.remove t.table k;
          t.evictions <- t.evictions + 1)
    done;
    t.clock <- t.clock + 1;
    Hashtbl.add t.table k { value = v; used = t.clock };
    evicting

  (* Under the lock: put [v] in place of [k]'s held value, with a fresh
     tick. *)
  let replace t k v =
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table k { value = v; used = t.clock }

  (* [f] on [k]'s value, false when absent; stamps nothing and counts
     nothing, so polling cannot save an entry from eviction. *)
  let probe t k f =
    locked t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some s -> f s.value
        | None -> false)

  (* The entry for [k]: a held one goes to [serve] under the lock;
     otherwise [build] runs OUTSIDE it, so other keys keep answering,
     and its result goes to [publish] under the lock again — unless a
     racing caller published first, in which case that entry wins and
     is served, and the build goes to [drop] once the lock is
     released (also when serving raises). *)
  let obtain t k ~serve ~build ~publish ~drop =
    match locked t (fun () -> Option.map serve (find t k)) with
    | Some r -> r
    | None ->
      let built = build () and published = ref false in
      Fun.protect
        ~finally:(fun () -> if not !published then drop built)
        (fun () ->
          locked t (fun () ->
              match find t k with
              | Some v -> serve v
              | None ->
                published := true;
                publish built))

  type 'a reading = {
    hits : int;
    misses : int;
    evictions : int;
    growths : int;
    size : int;
    total : 'a;  (* [f] folded over the held values *)
  }

  let read t f init =
    locked t (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          evictions = t.evictions;
          growths = t.growths;
          size = Hashtbl.length t.table;
          total = fold t f init;
        })

  let reset t =
    locked t (fun () ->
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0;
        t.growths <- 0)
end

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

   The family lock guards the map only; each entry carries its own
   mutex so evaluations on distinct solvers run concurrently while two
   requests hitting the same resident solver — whose memo takes one
   writer — serialize. *)

type solver_key = { sc : float; su : float; sp : int; spolicy : string }

type solver_entry = {
  solver : Game.Solver.t;
  slock : Mutex.t;
  mutable saved_states : int;
      (* expanded-state count last persisted to (or loaded from) the
         bank; the write-behind threshold compares against it so a
         handful of fringe expansions does not rewrite the memo file
         per request *)
}

type t = {
  tables : (int, Dp.t) Lru.t;  (* keyed by the table's c *)
  pool : Csutil.Par.Pool.t option;
  solvers : (solver_key, solver_entry) Lru.t;
  bank : Store.Bank.t option;
      (* The persistent memo tier.  Cold misses fall through to the
         bank's mapped snapshots before paying a solve; tables that were
         solved or grown here are written through (the fill writes the
         snapshot's payload, the commit runs outside the table lock,
         before the reply) so the next process starts warm. *)
}

let create ?pool ?bank ~capacity () =
  if capacity < 1 then Error.invalid "Cache.create: capacity must be >= 1";
  { tables = Lru.create capacity; pool; bank; solvers = Lru.create capacity }

let covers dp key = Dp.max_p dp >= key.max_p && Dp.max_l dp >= key.max_l

(* Under the lock, after [tb] dropped a table: the spare fill scratch
   (one W int a cell, half the dense footprint) is trimmed to the
   largest table now held, so a dropped table's scratch does not stay
   resident after it. *)
let trim tb =
  Dp.trim_scratch
    ~max_bytes:(Lru.fold tb (fun dp m -> max m (Dp.dense_footprint_bytes dp / 2)) 0)

(* Under the lock: publish [dp] for [c]. *)
let insert tb c dp = if Lru.add tb c dp then trim tb

(* With a bank open, a solve or grow writes its pack straight into
   the snapshot file it will be saved as, and the table reads that
   mapping: [w] is the writer, [None] without a bank.  A fill that
   fails removes the file. *)
let writer t ~c ~max_p ~max_l =
  Option.map (fun b -> Store.Bank.dp_writer b ~c ~max_p ~max_l) t.bank

let filling w fill =
  let pack = match w with Some w -> Store.Bank.dp_pack w | None -> Dp.heap_pack in
  match fill pack with
  | r -> r
  | exception e ->
    Option.iter Store.Bank.abort_dp w;
    raise e

(* A table at [key]'s bounds, and its writer. *)
let solve t key =
  let w = writer t ~c:key.c ~max_p:key.max_p ~max_l:key.max_l in
  ( filling w (fun pack ->
        Dp.solve_into ~pack ~pool:t.pool ~c:key.c ~max_p:key.max_p ~max_l:key.max_l),
    w )

(* A held or bank-loaded table brought up to [key]: [`Covered] as it
   is, [`Grown] in place, or — when the grown table would be over
   Dp.max_cells, as two queries on one c that each fit can be together
   — [`Fresh] table at [key]'s bounds to take its place.  Every key
   [canonical] returns is answered, whatever the cache held before.
   Grown and fresh tables come with their writers. *)
let cover t dp key =
  if covers dp key then `Covered
  else begin
    let max_p = max (Dp.max_p dp) key.max_p and max_l = max (Dp.max_l dp) key.max_l in
    if Dp.fits ~max_p ~max_l then begin
      let w = writer t ~c:key.c ~max_p ~max_l in
      filling w (fun pack -> Dp.grow ?pool:t.pool ~pack dp ~max_p ~max_l);
      `Grown w
    end
    else `Fresh (solve t key)
  end

(* Under the lock: serve a resident table, growing or replacing it when
   it falls short of [key].  A grow counts as both a miss (solve work
   was paid) and a growth (the prefix was reused), a replacement as a
   miss.  The second component is the writer of a table solve work
   changed. *)
let serve_table t key dp =
  let tb = t.tables in
  match cover t dp key with
  | `Covered ->
    Lru.hit tb;
    (dp, None)
  | `Grown w ->
    Lru.miss tb;
    Lru.grew tb;
    (dp, w)
  | `Fresh (fresh, w) ->
    Lru.miss tb;
    Lru.replace tb key.c fresh;
    trim tb;
    (fresh, w)

(* Write-through: commit the snapshot of a freshly solved or grown
   table, outside the lock but on the caller — in the daemon the shard
   worker, before the reply is written.  The pack is already in the
   file, so the commit checksums it in place, writes the header and
   renames; it maps and copies nothing.  The bank dedups by solved size
   and swallows I/O failures (they surface in its counters). *)
let persist_dp w = Option.iter Store.Bank.commit_dp w

(* The resident table for [c], grown or solved so it covers the
   canonical bounds.  A cold miss pays the bank load (open + CRC scan
   of the whole payload, tens of ms for a large table) or the solve
   outside the lock.  A racing loser is served the winner's table (a
   hit when it covers) and its own is dropped and its file removed,
   never committed; answers cannot differ either way, since published
   tables are immutable and dp payloads do not depend on table bounds.

   Solve and grow take the cache's pool: fills large enough for the
   wavefront use it, nested under a batch fan-out on the same pool or
   not. *)
let find_or_solve t ~c ~p ~l =
  let key = canonical ~c ~p ~l in
  let tb = t.tables in
  let dp, w =
    Lru.obtain tb key.c ~serve:(serve_table t key)
      ~build:(fun () ->
        match Option.bind t.bank (fun b -> Store.Bank.load_dp b ~c:key.c) with
        | Some dp -> (
          match cover t dp key with
          | `Covered -> (dp, false, false, None)
          | `Grown w -> (dp, true, true, w)
          | `Fresh (fresh, w) -> (fresh, true, false, w))
        | None ->
          let dp, w = solve t key in
          (dp, true, false, w))
      ~publish:(fun (dp, changed, grown, w) ->
        if changed then Lru.miss tb else Lru.hit tb;
        if grown then Lru.grew tb;
        insert tb key.c dp;
        (dp, w))
      ~drop:(fun (_, _, _, w) -> Option.iter Store.Bank.abort_dp w)
  in
  persist_dp w;
  dp

let mem t key = Lru.probe t.tables key.c (fun dp -> covers dp key)

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

(* The resident (or bank-loaded, or fresh) entry for the evaluation,
   plus its key (the write-behind needs the identity the entry is filed
   under).  The bank load (a CRC and structure check of the sparse
   table, proportional to the states it holds) or the fresh build runs
   outside the family lock. *)
let obtain_solver t params opp (planner : Engine.Planner.t) =
  let p = opp.Model.interrupts in
  let key = solver_key params opp planner in
  let s = t.solvers in
  let serve e =
    Lru.hit s;
    (* A state-only hit past the largest budget the memo has answered
       expands a new budget level when evaluated. *)
    if p > Game.Solver.answered_p e.solver then Lru.grew s;
    e
  in
  let e =
    Lru.obtain s key ~serve
      ~build:(fun () ->
        match solver_from_bank t key params opp planner with
        | Some solver -> (solver, true)
        | None ->
          let grid = Engine.Planner.default_grid ~u:key.su in
          (Engine.Planner.solver ?grid ?pool:t.pool planner params opp, false))
      ~publish:(fun (solver, banked) ->
        (* A bank-loaded memo expanded no minimax state, and is already
           on disk at exactly its rebuilt state count. *)
        if banked then Lru.hit s else Lru.miss s;
        let e =
          {
            solver;
            slock = Mutex.create ();
            saved_states = (if banked then Game.Solver.states solver else 0);
          }
        in
        ignore (Lru.add s key e);
        e)
      ~drop:ignore
  in
  (e, key)

(* The solver's answered budget is read outside the entry lock: an
   evaluation racing the probe only makes it stale, and the probe is
   advisory anyway. *)
let solver_mem t params opp planner =
  Lru.probe t.solvers (solver_key params opp planner) (fun e ->
      Game.Solver.answered_p e.solver >= opp.Model.interrupts)

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

(* Map every banked Dp table this cache owns (without counting: startup
   warming stays out of the serving stats) so the first query after
   startup is already warm; game memos stay on disk until the first
   evaluation names their policy — rebuilding a solver needs the live
   params/policy objects only the evaluate path has.  [owns] is the
   placement slice (the Router hands each shard's cache a predicate
   over c so K shards partition one bank instead of each mapping all
   of it); a table already resident is skipped before any file is
   touched, so re-warming never pays a load + CRC scan just to discard
   the result.  Returns the number of tables warmed. *)
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
          if (not (owns c)) || Lru.probe tb c (fun _ -> true) then warmed
          else
            match Store.Bank.load_dp ~count:false b ~c with
            | None -> warmed
            | Some dp ->
              Lru.locked tb (fun () ->
                  if Lru.mem tb c then warmed
                  else begin
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
  let s =
    Lru.read t.solvers (fun e b -> b + Game.Solver.footprint_bytes e.solver) 0
  in
  let d =
    Lru.read t.tables
      (fun dp (b, de) ->
        (b + Dp.footprint_bytes dp, de + Dp.dense_footprint_bytes dp))
      (0, 0)
  in
  {
    hits = d.Lru.hits;
    misses = d.Lru.misses;
    evictions = d.Lru.evictions;
    growths = d.Lru.growths;
    resident = d.Lru.size;
    resident_bytes = fst d.Lru.total;
    resident_dense_bytes = snd d.Lru.total;
    (* Process-wide: every solve/grow in this daemon goes through a
       cache, so the kernel (and game-solver) counters read as solve
       work.  With several shard caches, each snapshot carries the same
       globals; [merge] keeps exactly one copy. *)
    kernel = Dp.counters ();
    solver_hits = s.Lru.hits;
    solver_misses = s.Lru.misses;
    solver_evictions = s.Lru.evictions;
    solver_growths = s.Lru.growths;
    solvers_resident = s.Lru.size;
    solver_bytes = s.Lru.total;
    game = Game.counters ();
    bank = Option.map Store.Bank.counters t.bank;
    bank_last_error = Option.bind t.bank Store.Bank.last_error;
  }

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
  Lru.reset t.tables;
  Lru.reset t.solvers;
  Dp.reset_counters ();
  Game.reset_counters ();
  (* The bank group resets with everything else: [stats reset] is one
     atomic zeroing of every counter family the daemon reports. *)
  Option.iter Store.Bank.reset_counters t.bank
