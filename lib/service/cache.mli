(** LRU cache of solved {!Cyclesteal.Dp} tables, one per tick cost
    [c].

    Solving a table costs [O(max_p * max_l^2)]; answering a query from a
    solved table costs a binary search over its breakpoint runs.  The cache keeps at most one table
    per [c]: a query whose bounds exceed the resident table's {e grows}
    the table ({!Cyclesteal.Dp.grow}) — the solved prefix is reused
    verbatim, only the new cells are computed, and a fresh breakpoint
    pack replaces the old one — unless the grown table would be over
    {!Cyclesteal.Dp.max_cells}, when a table solved at the query's
    bounds replaces the resident one instead.  Query bounds
    are canonicalized first ([max_l] rounds up to the next power of two,
    at least {!min_l}; [max_p] to the next even bound, at least
    {!min_p}) so a ramp of slightly-growing queries does not pay a grow
    per query.

    One mutex guards the table map with a logical-clock LRU.  Growth
    happens under the lock (single writer); previously obtained tables
    stay valid throughout — growth publishes a fresh snapshot and never
    mutates published cells.  A cold solve runs outside the lock and
    publishes under it, so other keys keep answering meanwhile.  The
    cache does not deduplicate concurrent cold solves of one identity:
    one solve per identity comes from the callers' structure —
    {!Batch} fetches each identity once per batch, and in the daemon
    one {!Router} shard worker owns each cache.  If two callers do race
    one cold identity, the first published entry wins, the second
    caller is served that entry, and its own result is dropped
    unpersisted (its snapshot file removed); answers are the same
    either way.

    With a bank, every solve and grow writes its pack straight into
    the temporary snapshot file it will be saved as, and the cache
    serves the table from that mapping (write-through,
    {!Store.Bank.dp_writer}): the save after the lock checksums the
    words in place, writes the header and renames, copying nothing.
    A pack whose file cannot be made lives on the heap and counts a
    save failure; answers never depend on the bank.  Concurrent lookups
    are safe from any domain; cross-key concurrency at scale comes
    from running several caches side by side, one per {!Router} shard
    — placement (which requests share a cache) belongs to the router,
    not here.

    The cache also keeps {!Cyclesteal.Game.Solver}s resident for the
    evaluate op ({!with_solver}): one per (c, u, p, policy) — with [p]
    collapsed for {!Engine.Planner.t}[.state_only] policies, whose one
    solver serves every interrupt budget at that lifespan.  Solver
    values are pure functions of canonical
    states, so a warm solver answers bit-identically to a fresh one. *)

type t

type key = private { c : int; max_p : int; max_l : int }
(** Canonicalized query bounds; build one with {!canonical}.  Cache
    identity is [c] alone — the bounds say how far the resident table
    must cover. *)

val min_l : int
(** Smallest canonical [max_l] bound (256). *)

val min_p : int
(** Smallest canonical [max_p] bound (2). *)

val canonical : c:int -> p:int -> l:int -> key
(** The canonical table bounds covering query [(c, p, l)].  [c] is kept
    exact (it changes the game), [l] rounds up to a power of two [>=
    min_l], [p] rounds up to an even number [>= min_p].
    @raise Error.Error when [c < 1], [p < 0] or [l < 0], or when the
    canonical table would be over {!Cyclesteal.Dp.max_cells} cells
    (message ["p = P and l = L need a dp table of more than N cells"]). *)

val create :
  ?pool:Csutil.Par.Pool.t ->
  ?bank:Store.Bank.t ->
  capacity:int ->
  unit ->
  t
(** [create ~capacity ()] holds at most [capacity] solved tables (and
    at most [capacity] resident game solvers), evicting
    least-recently-used entries beyond that.  [pool] is handed to every
    solve and grow so large fills run the domain-parallel wavefront
    kernel.  A solve under a {!Batch} fan-out on the same pool is a
    nested fan-out: idle domains help fill its rows, and when none is
    idle the calling domain fills them all, so sharing one pool is
    always safe.

    [bank] plugs in the persistent memo tier: a cold miss (Dp table or
    gridded game solver alike) falls through to the bank's mapped
    snapshots before paying a solve — a covering snapshot counts as a
    cache hit, since no cell is computed, and the load's checks (the
    payload CRC; for game memos, the sparse table's structure) run
    outside the table and solver locks so concurrent lookups for other
    keys never stall behind it — and tables solved or grown here are
    written through, committed outside the locks but on the calling
    domain before {!find_or_solve} returns, so the next process starts
    warm (game memos are written behind, and re-persist only after
    enough growth since the last save; see {!with_solver}).  Bank load failures (corrupt,
    truncated, mismatched files) silently fall through to a fresh
    solve and are reported in {!stats}[.bank].
    @raise Error.Error when [capacity < 1]. *)

val warm_from_bank : ?owns:(int -> bool) -> t -> int
(** Map every banked Dp table up front (LRU and bank hit/miss counters
    untouched, so post-start [stats] reflect serving traffic; load
    failures are still counted), so the daemon's first query is warm
    without even the first-request mapping cost; tables already
    resident are skipped without touching their file.  [owns] filters
    by tick cost [c] — the router hands each shard's cache its
    placement slice so K shards partition one bank (default: own
    everything).  Game memos load lazily on the first evaluation that
    names their identity, which is when the live policy objects exist.
    Returns the number of tables warmed. *)

val bank : t -> Store.Bank.t option

val find_or_solve : t -> c:int -> p:int -> l:int -> Cyclesteal.Dp.t
(** The resident table for [c], guaranteed to cover the canonical
    bounds of [(c, p, l)]: served as-is on a hit, grown (a fresh pack
    published on the same [Dp.t]) when the bounds exceed it, solved
    fresh (evicting the least-recently-used table if full) when
    absent.  When the table grown to cover both the held bounds and
    the query's would be over {!Cyclesteal.Dp.max_cells}, a table
    solved at the query's canonical bounds replaces the held one (a
    miss, not a growth), so every query {!canonical} accepts is
    answered, whatever the cache held before it.  A table loaded
    from the bank is brought up to the query the same way.  An
    eviction or a replacement also drops the spare fill scratch (one
    [W] int a cell, half a table's dense footprint) when no table still
    held needs one as large ({!Cyclesteal.Dp.trim_scratch}).
    Thread- and domain-safe.  Two
    concurrent calls for the same cold [c] may both solve; the first
    to publish wins and the other is served the published table (a
    hit when it covers), so [hits + misses] still counts one per
    call. *)

val mem : t -> key -> bool
(** Presence probe: is a resident table covering [key] held right now?
    Neither stamps the LRU clock nor counts as a hit or miss — safe to
    poll from outside the owning shard (the router's inline decision,
    made on a connection worker through {!Batch.resident_answer}).
    Advisory by nature: the table can be evicted between the probe and
    a subsequent {!find_or_solve}, which then just solves. *)

val solver_mem :
  t ->
  Cyclesteal.Model.params ->
  Cyclesteal.Model.opportunity ->
  Engine.Planner.t ->
  bool
(** The {!with_solver} twin of {!mem}: is a resident solver for this
    evaluation held right now that has already answered at the
    opportunity's interrupt budget or a larger one (a bank-loaded memo
    counts from its snapshot's budget), so answering expands no new
    budget level?  Same contract as {!mem}: no LRU stamp, no counters,
    advisory only. *)

val with_solver :
  t ->
  Cyclesteal.Model.params ->
  Cyclesteal.Model.opportunity ->
  Engine.Planner.t ->
  (Cyclesteal.Game.Solver.t -> 'a) -> 'a
(** Run [f] on the resident game solver for this evaluation (created —
    evicting the least-recently-used solver if the cache is full — on
    first use, with the shared evaluation grid
    {!Engine.Planner.default_grid} and the cache's pool).  Evaluations
    on distinct solvers run concurrently; two requests hitting the same
    solver serialize on its mutex, since the memo takes one writer.
    With a bank, the memo is written behind on its first evaluation and
    thereafter only once its expanded-state count grew by at least an
    eighth since the last save — a save sorts and rewrites every entry,
    so fringe expansions must not pay one per request. *)

type stats = {
  hits : int;  (** lookups fully served from a resident table *)
  misses : int;
      (** solve work paid, whether a fresh solve or a grow *)
  evictions : int;
  growths : int;
      (** grows: misses that reused a solved prefix instead of
          re-solving it *)
  resident : int;  (** tables currently cached *)
  resident_bytes : int;  (** bytes of the cached tables' packs *)
  resident_dense_bytes : int;
      (** what the resident tables would occupy densified; every
          resident table is a breakpoint pack, so the saving is
          [resident_dense_bytes - resident_bytes] *)
  kernel : Cyclesteal.Dp.counters;
      (** DP kernel work counters (cells filled, candidates visited /
          pruned, parallel fills).  Process-wide — in the daemon every
          solve and grow goes through a cache — so {!merge} keeps one
          copy instead of summing. *)
  solver_hits : int;  (** evaluations served by a resident solver *)
  solver_misses : int;  (** evaluations that created a solver *)
  solver_evictions : int;
  solver_growths : int;
      (** state-only hits past the largest budget the memo answered *)
  solvers_resident : int;
  solver_bytes : int;  (** approximate heap bytes of resident solvers *)
  game : Cyclesteal.Game.counters;
      (** game-solver work counters (states expanded, memo hits, plans
          computed, parallel fills); process-wide, like [kernel]. *)
  bank : Store.Bank.counters option;
      (** persistent-tier accounting ([None] when no bank is plugged
          in): snapshot loads served, misses, files rejected, snapshots
          written. *)
  bank_last_error : string option;
      (** the most recent bank load/save failure, verbatim *)
}

val stats : t -> stats
(** Current counters (a consistent-enough snapshot: each family is
    read under its lock). *)

val merge : stats list -> stats
(** The merged aggregate view over several shard caches: per-cache
    families sum; the process-wide [kernel]/[game] counters and the
    shared [bank] counters are kept from exactly one snapshot, so a
    solve is never reported K times.
    @raise Error.Error on an empty list. *)

val reset_counters : t -> unit
(** Zero the hit/miss/eviction/growth counters (Dp and solver alike),
    the process-wide kernel and game-solver counters, and the bank
    counters when a bank is plugged in — every counter family the
    daemon reports resets together — keeping the resident tables and
    solvers; backs the daemon's [stats reset] sub-op. *)
