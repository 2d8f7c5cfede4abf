(** The cschedd serving loop: newline-delimited JSON over file
    descriptors (stdin/stdout or a Unix-domain socket).

    The loop blocks for one request, then opportunistically drains
    whatever further lines are already readable — up to the batch size —
    so a client streaming queries gets batching (shared table solves,
    parallel evaluation) while an interactive client still gets an
    answer per line without waiting for a full batch.  Responses are
    written in request order and flushed once per batch.

    Each batch's lines parse on the connection's own domain, with no
    per-line fan-out; responses serialize into one reused
    per-connection buffer, the stats snapshot is computed only for
    batches carrying a [stats] op, and writes go out without an
    intermediate [Bytes] copy.

    The socket front end serves up to [max_conns] clients concurrently:
    an acceptor feeds a bounded worker pool, every worker submitting
    its batches to the one {!Router.t}.  Batches never cross
    connections and the router returns outcomes index-aligned, so each
    client reads exactly the bytes a serial server would have sent it.
    A client that disconnects mid-batch costs one {!Stats.io_errors}
    tick, never the daemon.

    This module owns accept, framing and per-connection ordering only.
    Request placement, evaluation, caching and shard-failure recovery
    all live behind the router seam ({!Router}).

    Shutdown is graceful: on EOF or {!request_stop} (the SIGINT handler)
    the in-flight batch completes and its responses are flushed before
    the loop returns. *)

type t

val create :
  ?batch_size:int ->
  ?max_conns:int ->
  ?resp_cache:Resp_cache.t ->
  router:Router.t ->
  unit ->
  t
(** [batch_size] (default 64) caps how many requests one batch drains.
    [max_conns] (default 1) is the number of clients {!serve_socket}
    serves concurrently; connection workers live on a dedicated pool
    separate from the router's shard pools, so serving slots never
    compete with compute slots.  [router] is the evaluation engine
    every connection submits to; the caller owns it (and its
    {!Router.shutdown}) — one router can outlive many serve calls.

    [resp_cache] plugs in the serialized-response hot tier: each
    request line probes it before parsing, hits replay their stored
    reply bytes, and fresh cacheable replies are stored on the way
    out.  The caller should wire the same cache into the
    router's [on_grow] hook so dp replies are invalidated when their
    backing table grows.  Responses are byte-identical with and
    without it.

    @raise Error.Error when [batch_size < 1] or [max_conns < 1]. *)

val stats : t -> Stats.t
val router : t -> Router.t

val request_stop : t -> unit
(** Ask the serving loops to stop after the current batch.  Safe to call
    from a signal handler. *)

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
    socket file) and serve clients — [max_conns] at a time — until
    {!request_stop}; the socket file is removed on exit.  SIGPIPE is
    ignored process-wide on first use so client disconnects surface as
    countable errors instead of killing the daemon. *)

val summary : t -> string
(** The shutdown summary ({!Stats.summary} over current counters). *)
