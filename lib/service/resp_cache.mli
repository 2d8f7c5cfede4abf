(** Serialized-response hot cache: a bounded LRU from the exact raw
    request line to the exact reply bytes the wire loop produced.

    A hit skips parse -> plan -> serialize entirely.  Keying by the
    verbatim line (id included) makes a stored reply byte-identical to
    re-serving the line: the cacheable ops' results are pure functions
    of the request, and the id round-trips through the key.  The
    {e server} decides what to store — stats/reset/strategies replies
    (server state) and error replies never enter the cache; dp replies
    are tagged with their backing table identity and dropped by
    {!invalidate} when that table grows, so byte identity with a
    cache-off run holds by construction, not by a value-stability
    argument.

    Opt-in: the daemon builds one only under [cschedd --resp-cache N].
    Domain-safe (one mutex, logical-clock LRU). *)

type t

val create : capacity:int -> t
(** A cache holding at most [capacity] replies, evicting the least
    recently served beyond that.
    @raise Error.Error when [capacity < 1]. *)

val capacity : t -> int

val find : t -> string -> (string * string) option
(** [find t line] is [Some (reply, op)] when the exact line has a
    stored reply ([op] is the request's op name, for per-op stats
    accounting at the serving site); counts a hit or a miss. *)

val store : t -> line:string -> op:string -> ?dp_c:int -> reply:string -> unit -> unit
(** Store the reply bytes served for [line] (first writer wins; a
    duplicate store is a no-op).  [dp_c] tags a dp reply with the
    backing table's identity so {!invalidate} can drop it. *)

val invalidate : t -> c:int -> unit
(** Drop every stored dp reply backed by table [c]; wired to
    {!Cache.create}'s [on_grow] hook so replies never outlive the
    table state they were computed against. *)

type stats = {
  hits : int;  (** requests served straight from stored bytes *)
  misses : int;  (** probes that fell through to the full pipeline *)
  insertions : int;
  evictions : int;
  invalidations : int;  (** entries dropped because their table grew *)
  entries : int;  (** replies currently stored *)
  bytes : int;  (** approximate bytes held (keys + replies) *)
}

val stats : t -> stats

val reset_counters : t -> unit
(** Zero the counters, keeping stored replies; part of the daemon's
    [stats reset] sub-op. *)
