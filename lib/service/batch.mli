(** Batched request evaluation.

    A batch is processed in phases.  {!run} first parses the raw
    request lines on the calling domain — a line parses in about 2 µs,
    far less than waking another domain costs.  The parsed requests are
    then grouped by the cache identity their evaluation locks
    ({!Protocol.cache_group}): a group of [dp] queries against one
    table fetches it once (grown to the group-max bounds) and answers
    every query from it, and a group of evaluations sharing one
    resident solver holds it once and answers every budget through it —
    so a batch of a hundred requests over one identity takes that
    cache lock once, not a hundred times.  Requests with no cache
    identity evaluate as singleton groups through {!Protocol.handle},
    exactly as before.

    {b Where the groups run.}  When every group is {e resident} — a dp
    group whose group-max bounds a resident table covers ({!Cache.mem}),
    an evaluate group whose resident solver already answered at the
    group's largest budget ({!Cache.solver_mem}), pure compute
    ([advise], [schedule], [strategies]), a [stats] op or a parse
    error — the calling domain answers the groups in order and nothing
    is submitted to the pool: such a group takes microseconds, less
    than one cross-domain hand-off.  A batch with any fill, grow or
    solver build (including an [evaluate] with explicit periods, which
    builds a fresh solver) fans its groups across domains with
    {!Csutil.Par.map}, so large grows still run in parallel.  The rule
    reads only cache state, and the probes are advisory: when one is
    stale the fill simply runs inline, and replies are byte-identical
    either way.

    Outcomes scatter back by original index, so response order always
    matches request order regardless of grouping or domain count, and
    every payload is byte-identical to per-request evaluation (dp
    payloads are independent of table bounds; solver queries go
    through the request's own state).  A group-level fetch failure
    falls back to per-request evaluation, reproducing the exact
    per-request errors.

    {!run}, {!run_parsed} and {!resident_answer} share one internal
    evaluation pipeline — they differ only in whether the parse phase
    runs first and in whether a batch with fill work is answered or
    handed back — so the entry points cannot drift apart
    semantically. *)

type outcome = {
  envelope : Protocol.envelope;
  result : (Json.t, Cyclesteal.Error.t) result;
  latency : float;
      (** seconds spent evaluating, on the monotonic clock
          ({!Csutil.Clock}); a group's shared fetch is charged to its
          first request.  [0.] for parse errors, which are not
          evaluated: the server counts those replies as untimed
          ({!Stats.add_untimed}). *)
}

val run :
  ?pool:Csutil.Par.Pool.t ->
  ?domains:int ->
  cache:Cache.t ->
  string array ->
  outcome array
(** Parse and evaluate a batch of raw request lines.  Parse errors
    become [Error] outcomes with zero latency.  [Stats] requests answer
    with {!Protocol.handle}'s no-daemon error: the daemon's counters
    are the server's to report, and it answers [stats] ops itself.
    The result array is index-aligned with the input.  [pool] and [domains] shape the
    group fan-out of a batch with fill work (default: the shared pool,
    {!Csutil.Par.map}'s domain rule); cold solves inside it fan their
    fills out on the same pool, helped by whichever domains are idle.
    Parsing and all-resident batches never touch the pool. *)

val run_parsed :
  ?pool:Csutil.Par.Pool.t ->
  ?domains:int ->
  cache:Cache.t ->
  Protocol.envelope array ->
  outcome array
(** The evaluation phases alone (grouping, then in-order answers or
    the fan-out), for callers that already hold parsed envelopes. *)

val resident_answer :
  cache:Cache.t ->
  Protocol.envelope array ->
  (unit -> outcome array) option
(** The router's inline check.  Groups the envelopes and probes every
    group once.  [Some answer] when all groups are resident: [answer ()]
    answers them in order on the calling domain, exactly as
    {!run_parsed} would, and fans nothing out.  [None] when any group
    needs fill, grow or solver-build work; the caller then hands the
    batch to a domain that owns that work.  The probes are advisory: a
    table evicted between the probe and [answer ()] is filled by the
    calling domain under the cache's own locks, and the bytes are the
    same.  If the owner is filling the same identity meanwhile, both
    solve and the first published table wins: one redundant solve at
    most, never different bytes. *)
