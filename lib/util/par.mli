(** Minimal data-parallel helpers on OCaml 5 domains (stdlib only).

    A small reusable worker {!Pool}, a blocking channel {!Chan} for
    handing work between domains, and chunked parallel maps built on
    the pool.  The maps share no mutable state: each slot computes
    disjoint slices of the result.  Closures must not share mutable state across chunks
    (give each chunk its own {!Rng.t}). *)

val available_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

module Pool : sig
  (** A reusable fork-join pool: [domains - 1] domains spawned once and
      parked until a job is published on the pool's one shared list.  A
      {!run} — from outside or from inside one of the pool's own tasks —
      publishes its calls as one job whose tasks any idle domain claims,
      so nested fan-out spreads across idle workers too.  It cannot
      deadlock: a submitter waits only for tasks already running, and
      when every worker is busy it claims all of its tasks itself. *)

  type t

  val create : domains:int -> t
  (** A pool with [domains] slots: the calling domain plus
      [domains - 1] spawned workers.
      @raise Invalid_argument when [domains < 1]. *)

  val size : t -> int
  (** The slot count [domains] the pool was created with. *)

  val run : t -> (int -> unit) -> unit
  (** [run t f] calls [f slot] exactly once for every
      [slot = 0 .. size t - 1].  The submitting domain runs slot 0
      itself (so a long-lived slot-0 task — a socket connection slot —
      stays on the calling domain, where signals interrupt its blocking
      syscalls); with idle workers every other call lands on its own
      domain, so [size t] mutually blocking calls all run concurrently.
      Under load, calls 1 .. size-1 run wherever a domain goes idle —
      possibly all on the caller.  Returns when every call has
      finished; re-raises the first exception any call raised (every
      call still runs). *)

  val dispatched : t -> int
  (** Tasks submitted to this pool (by {!run}, or as the chunks of a
      {!map}/{!init} fanned out over it) since {!create}, however they
      were executed — monotonic, so a caller can check that some work
      never touched the pool. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains.  The pool must be idle; a
      {!run} afterwards executes every call on the caller. *)

  val with_pool : domains:int -> (t -> 'a) -> 'a
  (** [create], run the function, [shutdown] (also on exception). *)
end

module Chan : sig
  (** An unbounded blocking FIFO between domains: the router's shard
      job queues. *)

  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> bool
  (** Enqueue and wake one popper; [false] (nothing enqueued) once the
      channel is closed. *)

  val pop : 'a t -> 'a option
  (** The oldest item, blocking while the channel is empty and open.
      Keeps draining after {!close}, so items pushed just before a
      shutdown are still handed out; [None] once closed and empty. *)

  val close : 'a t -> unit
  (** Refuse further pushes and wake every blocked popper. *)

  val migrate : from:'a t -> into:'a t -> unit
  (** Close [from] and move its queued items to the back of [into], so
      a replacement consumer loses none of them. *)
end

val shared_pool : unit -> Pool.t
(** The process-wide default pool, created on first use with
    {!available_domains} slots and never shut down.  {!map} and
    {!init} fan out over it when not handed an explicit pool. *)

val min_chunk : int
(** Minimum elements per domain (32) below which {!map} and {!init}
    stay sequential when [?domains] is not given: dispatch overhead
    dwarfs sub-chunk work.  An explicit [~domains] bypasses the
    threshold and fans out even two elements, so pass one only for
    elements each worth a domain wake-up. *)

val map : ?pool:Pool.t -> ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], computed on up to [domains] domains (default: the
    recommended count, and only when each domain gets at least
    {!min_chunk} elements).  Chunks are cut finer than one per domain
    so that a domain finishing early claims more of a skewed load; each
    chunk writes a
    disjoint slice, so the result is identical to the sequential map
    for any domain count and any schedule.
    @raise Invalid_argument when [domains < 1]. *)

val init : ?pool:Pool.t -> ?domains:int -> int -> (int -> 'a) -> 'a array
(** Like [Array.init], parallel across chunks; indices are generated in
    place (no intermediate index array). *)

val map_reduce :
  ?pool:Pool.t ->
  ?domains:int ->
  map:('a -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'a array ->
  'b
(** Fold the mapped values left to right in index order, so [combine]
    need not be commutative. *)
