(** Per-request accounting for the cschedd daemon: request counts by
    operation, outcome, latency distribution, bytes served, batch sizes,
    per-connection I/O failures.

    Records are produced by the batch engine (pure values computed in
    worker domains) and folded in by the connection workers.  The
    accumulator is shared by every concurrent connection: a mutex
    guards the scalar counters (each add is a few field bumps), and the
    latency histogram is lock-free (one atomic fetch-and-add per
    record).  Cache hit/miss counters live with the cache
    ({!Cache.stats}); {!to_json} merges both views. *)

type t

val create : unit -> t

type record = {
  op : string;       (** "advise" | "schedule" | "evaluate" | "dp" | ... *)
  ok : bool;
  latency : float;   (** seconds spent evaluating the request *)
  bytes : int;       (** response line length, newline included *)
}

val add : t -> record -> unit

val add_untimed : t -> record -> unit
(** Count a reply that was never timed — an overlong line, a parse
    error, a [stats] op — in every family but latency: it goes to the
    {!untimed} count instead of the histogram, so "fast" and "not
    timed" stay apart.  [latency] is ignored. *)

val add_batch : t -> size:int -> unit
(** Record that one batch of [size] requests was dispatched. *)

val add_served : t -> size:int -> record array -> timed:bool array -> unit
(** One served batch under one lock: {!add_batch} of [size] when
    [size > 0], then each record as {!add} when [timed.(i)], else as
    {!add_untimed}.  Each record keeps its own latency, so the
    histogram resolves single lines. *)

val add_io_error : t -> unit
(** Record a per-connection I/O failure (client disconnected
    mid-batch, reset the connection, ...); the server counts these and
    keeps accepting instead of dying. *)

val reset_counters : t -> unit
(** Zero every counter family together: the scalar counters, the by-op
    table, the latency accumulator {e and} the latency histogram
    buckets — stale histogram counts would keep reporting old
    percentiles against zeroed request counts.  Backs the daemon's
    [stats reset] sub-op (cache counters reset separately via
    {!Cache.reset_counters}). *)

val requests : t -> int

val untimed : t -> int
(** Replies counted by {!add_untimed}; {!requests} includes them. *)

val bytes_served : t -> int
val io_errors : t -> int

val percentiles : t -> (float * float * float) option
(** [(p50, p90, p99)] request latency in seconds, estimated from a
    log-bucketed histogram (factor-2 buckets from 1 microsecond, so
    each estimate is the geometric midpoint of its bucket — accurate to
    a factor of sqrt 2).  [None] before any request was recorded. *)

val shard_json :
  t ->
  shard:int ->
  restarts:int ->
  cache:Cache.stats ->
  Json.t
(** One shard's section of the stats payload: what was evaluated for
    the shard, by its worker or inline (requests, errors, by-op counts,
    latency), plus its own cache and solver-cache families and its
    restart count.  The process-wide kernel/game counters stay
    out of shard sections — they appear exactly once, in the merged
    view. *)

val to_json :
  ?shards:Json.t list ->
  ?restarts:int ->
  ?answers:Answers.stats ->
  t ->
  cache:Cache.stats ->
  Json.t
(** The [stats] request payload: request/error/batch counts, per-op
    counts, latency quantiles (mean/min/max and histogram
    p50/p90/p99) with the [untimed] count beside them, bytes served, cache counters and resident-table
    footprint over the merged [cache] view, and the process-wide
    [Gc.quick_stat] allocation counters (a [gc] object that a reset
    does not zero).  [shards] appends the
    per-shard sections ({!shard_json}) and [restarts] the total shard
    restart count; both are omitted by single-shard daemons that never
    restarted, so the serial payload shape is unchanged.  [answers]
    appends the answer cache family ({!Answers.stats}); the daemon
    always passes it. *)

val summary : Json.t -> string
(** Human-readable shutdown summary (an ASCII {!Csutil.Table}) of a
    stats payload ({!to_json}): one [path value] row per leaf, the path
    joining object keys and list indices with dots. *)
