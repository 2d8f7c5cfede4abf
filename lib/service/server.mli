(** The cschedd serving loop: newline-delimited JSON over file
    descriptors (stdin/stdout or a Unix-domain socket).

    The loop blocks for one request, then opportunistically drains
    whatever further lines are already readable — up to the batch size —
    so a client streaming queries gets batching (shared table solves,
    parallel evaluation) while an interactive client still gets an
    answer per line without waiting for a full batch.  Responses are
    written in request order and flushed once per batch.

    Every line of a batch first probes the server's answer cache
    ({!Answers}), shared by every connection, under one lock per
    batch.  A line that opens with [{"id":<value>,] is keyed by the
    bytes after that comma ({!Protocol.split_id}), any other line by
    its whole bytes; a hit is answered from stored bytes without
    parsing its line.  Only the misses are parsed, on the connection's
    own domain with no per-line fan-out, and only they go to the
    router.  Successful cacheable answers are stored on the way out;
    errors, [stats] and [strategies] replies never are.  A batch's
    stats records are added under one lock, each line keeping its own
    latency.  Responses serialize into one
    reused per-connection buffer, which is copied into a
    per-connection [Bytes] (doubled when a batch outgrows it) for the
    write.  The server answers [stats] ops itself, from one snapshot
    per batch taken before the batch's outcomes are recorded, and only
    for batches carrying one.

    The socket front end serves up to [max_conns] clients concurrently:
    each of [max_conns] pool slots accepts a client and serves it to
    its end, then accepts the next, every slot submitting its batches
    to the one {!Router.t}; further clients wait in the listen
    backlog.  Batches never cross
    connections and the router returns outcomes index-aligned, so each
    client reads exactly the bytes a serial server would have sent it.
    A client that disconnects mid-batch costs one {!Stats.io_errors}
    tick, never the daemon.

    This module owns accept, framing, per-connection ordering and the
    answer cache.  Request placement, evaluation, the table and solver
    caches and shard-failure recovery all live behind the router seam
    ({!Router}).

    Shutdown is graceful: on EOF or {!request_stop} (cschedd's SIGINT
    and SIGTERM handler) the in-flight batch completes and its
    responses are flushed before the loop returns. *)

type t

val create :
  ?batch_size:int ->
  ?max_conns:int ->
  router:Router.t ->
  unit ->
  t
(** [batch_size] (default 64) caps how many requests one batch drains.
    [max_conns] (default 1) is the number of clients {!serve_socket}
    serves concurrently, one per slot of a dedicated pool (slot 0 on
    the calling domain) separate from the router's shard pools, so
    serving slots never compete with compute slots.  [router] is the evaluation engine
    every connection submits to; the caller owns it (and its
    {!Router.shutdown}) — one router can outlive many serve calls.
    The server owns its answer cache, at the default 8 MiB budget;
    replies are byte-identical to direct {!Protocol.handle} whether
    they come from it or not.

    @raise Error.Error when [batch_size < 1] or [max_conns < 1]. *)

val stats : t -> Stats.t
val router : t -> Router.t

val answers : t -> Answers.t
(** The server's answer cache, for inspection ([stats] reports it as
    [answers]). *)

val request_stop : t -> unit
(** Ask the serving loops to stop after the current batch, waking the
    socket slots waiting for a client and ending the read of every
    client a slot is serving, idle or not.  Safe to call from a signal
    handler. *)

val stopped : t -> bool

val serve_fd : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve one connection: read request lines from the first descriptor,
    write response lines to the second, until EOF or {!request_stop}.
    A request line longer than the 64 KiB read buffer is discarded
    through its terminating newline and answered with a single
    [invalid_params] error response; the lines after it parse
    normally. *)

val serve_socket : t -> path:string -> unit
(** Listen on a Unix-domain socket at [path] (replacing any stale
    socket file) and serve clients — [max_conns] at a time, the rest
    waiting in the listen backlog — until {!request_stop}, after which
    each slot stops at the end of its batch in flight; the socket file
    is removed on exit.  SIGPIPE is
    ignored process-wide on first use so client disconnects surface as
    countable errors instead of killing the daemon. *)

val summary : t -> string
(** The shutdown summary: {!Stats.summary} of the [stats] payload. *)
