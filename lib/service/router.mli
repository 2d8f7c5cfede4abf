(** The request-routing seam: one placement function, K shard workers.

    A router places every parsed request by its cache identity
    ({!Protocol.cache_group}, the key {!Batch} groups by) —
    consistent-hashing that key onto one of K shards.  A custom-periods
    evaluation has no identity but carries a game's work, so it is
    placed by a hash of its parameters; every other request without an
    identity (pure compute, unknown policies, [strategies], parse
    errors) goes to shard 0.  Each
    shard is an independent serving runtime pinned to its own
    dedicated domain: its own {!Cache.t} (DP tables and resident game
    solvers), its own solve pool, its own {!Stats.t} family and its
    own slice of the persistent bank.  Resident state therefore
    {e shards} instead of duplicating — a dp table or a resident
    solver lives on exactly one shard, however many clients ask for
    it — and K shards solve unrelated keys with zero lock contention
    between them.  Every request is counted by exactly one shard.

    {b Inline rule.}  A sub-batch whose every group is resident
    (covering dp table, resident solver, pure compute, an error) is
    answered by the calling connection worker itself, in order, against
    the owner shard's cache ({!Batch.resident_answer}); it never enters
    the shard's job channel, because it takes less time than the two
    cross-domain wake-ups a hand-off costs.  Only a sub-batch with fill,
    grow or solver-build work is submitted to the owner's worker, which
    fans it out over the shard's solve pool ({!Batch}) — so cold solves,
    solver growth and bank write-behind stay with the owner.  Inline
    outcomes count in the owner's stats family, so per-shard counts
    reflect placement wherever a sub-batch ran.

    Serial, concurrent and sharded serving are this one code path: a
    single-shard router is the serial daemon's evaluation engine, and
    {!Server} always talks to a router through {!run_parsed}, whatever
    K is, sending it only the requests its answer cache misses.

    {b Placement} uses rendezvous (highest-random-weight) hashing:
    every (key, shard) pair gets a deterministic 64-bit score and the
    key lives on the highest-scoring shard.  Growing K to K+1 moves
    only the keys whose new shard wins — an expected 1/(K+1) fraction,
    each moving {e to} the new shard — so resizing a fleet reshuffles
    almost nothing (contrast mod-K hashing, which moves nearly
    everything).

    {b Failure is a first-class event, never a daemon crash.}  A shard
    worker that dies (an escaped exception) fails its in-flight
    sub-batch with a structured [Error.Unavailable] (a parse error in
    it keeps its own error) — clients get an error {e response}, not a
    dropped connection — and the shard restarts with a fresh,
    bank-warm cache under a bumped generation;
    queued sub-batches migrate to the replacement worker untouched.  A
    worker that {e wedges} (stuck past [hang_timeout] on one batch) is
    detected by a watchdog domain and restarted the same way; the
    stale worker's late results are discarded by generation check, so
    it can never answer a request the replacement already failed.
    The watchdog times shard-worker jobs only; inline answers are
    resident-only work.  [stats] reports restarts per shard and in
    total.  Job queues need no bound: each connection worker has at
    most one job per shard outstanding, since {!run} awaits every job it
    submits. *)

type t

val create :
  ?shards:int ->
  ?domains:int ->
  ?bank:Store.Bank.t ->
  ?hang_timeout:float ->
  capacity:int ->
  unit ->
  t
(** [create ~capacity ()] starts [shards] (default 1) shard workers,
    each pinned to a dedicated domain with its own cache holding up to
    [ceil (capacity / shards)] tables.  [domains] (default
    {!Csutil.Par.available_domains}) is the total compute-domain
    budget, split evenly across shard solve pools (each shard gets at
    least one slot).  [bank] is shared: each shard's cache maps and
    writes behind only the tables its placement owns (warm them with
    {!warm_from_bank}).  [hang_timeout]
    (default 30 s) is how long one sub-batch may run, on the monotonic
    clock, before the watchdog declares the worker wedged and restarts
    it.
    @raise Error.Error when [shards < 1], [capacity < 1],
    [domains < 1] or [hang_timeout <= 0]. *)

val shard_count : t -> int

val place : shards:int -> string -> int
(** [place ~shards key] is the shard a placement key lives on, in
    [0 .. shards - 1]: pure, deterministic rendezvous hashing, the
    same in every process, so external routers and bank slicing agree
    with serving placement.
    @raise Error.Error when [shards < 1]. *)

val run : t -> string array -> Batch.outcome array
(** Parse and evaluate one connection's batch: lines parse on the
    calling domain and each well-formed request is routed to its
    shard.  An all-resident sub-batch is answered on the calling domain
    against its shard's cache; one with fill work is submitted to the
    shard's worker, which fans it over its solve pool (see {!Batch}),
    and such jobs run concurrently across shards.  The outcomes come
    back index-aligned with the input — so per-connection
    response order, and therefore the bytes a client reads, are
    identical to a serial server's.  A [stats] op answers with
    {!Protocol.handle}'s no-daemon error; the server answers its own. *)

val run_parsed : t -> Protocol.envelope array -> Batch.outcome array
(** {!run} without its parse phase, for callers that already hold
    parsed envelopes — the server parses a batch itself to probe its
    answer cache and answer its [stats] ops, and sends only the rest
    here. *)

val warm_from_bank : t -> int
(** Warm every shard cache from the shared bank, each mapping only the
    tables its placement owns — K shards partition the bank instead of
    each duplicating all of it.  Returns the total tables warmed.
    Idempotent: resident tables are skipped. *)

val cache_stats : t -> Cache.stats
(** The merged aggregate view ({!Cache.merge}) over every shard's
    cache: per-cache families sum, process-wide kernel/game counters
    appear once. *)

val shards_json : t -> Json.t list
(** Per-shard [stats] sections ({!Stats.shard_json}): what was
    evaluated for each shard (by its worker or inline), its cache
    families and its restart count. *)

val restarts : t -> int
(** Total shard-worker restarts (death or wedge) since start or the
    last {!reset_counters}. *)

val reset_counters : t -> unit
(** Zero every shard's stats family, cache counters and restart count;
    backs the daemon's [stats reset]
    together with the server-level {!Stats.reset_counters}. *)

type failure =
  | Die  (** the worker raises mid-batch on its next sub-batch *)
  | Wedge of float  (** the worker stalls that many seconds first *)

val inject_failure : t -> shard:int -> failure -> unit
(** Fault injection for tests: arm the shard's worker to fail exactly
    once, on the next sub-batch it picks up.  While armed, the shard's
    sub-batches go to its worker even when resident, so the failure
    fires there.  The armed batch's requests are answered with
    [Error.Unavailable], carrying the time from submit to failure as
    their latency, and the shard restarts bank-warm, as with a real
    failure. *)

val shutdown : t -> unit
(** Stop and join every shard worker (queued sub-batches are still
    evaluated and delivered first) and the watchdog, and release the
    shard pools.  It wakes the watchdog instead of waiting out its
    poll, so it returns in milliseconds.  Idempotent.  Sub-batches
    submitted afterwards fail
    with [Error.Unavailable] (a parse error keeps its own error);
    all-resident sub-batches never reach a worker, so they still
    answer on the calling domain. *)
