(** The daemon's answer cache: reply bytes keyed on the request line's
    own bytes, shared by every connection.

    The server keys a line that opens with [{"id":<value>,] by the bytes
    after that comma ({!Protocol.split_id}), so a repeat under any id is
    answered from stored bytes without parsing, planning, answering or
    serializing it again; any other line is keyed by its whole bytes and
    hits only when it repeats exactly.  Keys are opaque here: the server
    builds them, tagged by shape.  Two spellings of one request (its
    fields in another order, [2] against [2.0]) are two keys, so each
    spelling misses once before it hits; the router's table and solver
    caches still answer that miss, with the same bytes.

    Only {!cacheable} requests enter: their payloads are pure functions
    of the decoded request.  The server stores successful results only;
    errors, [stats] and [strategies] replies never enter.

    Resident bytes are bounded by a fixed budget, held as two
    generations of half the budget each: a full young generation
    replaces the old one, which is dropped whole, and a hit in the old
    generation moves its entry back to the young one.  Domain-safe
    (one mutex, taken once per batch of probes). *)

type t

val create : ?budget_bytes:int -> unit -> t
(** An empty cache holding at most [budget_bytes] resident bytes,
    counted per entry from the lengths of its key and payload strings
    plus a fixed overhead for the entry and its table bucket.  The
    default, 8 MiB, is the daemon's budget; tests pass smaller ones to
    exercise eviction.
    @raise Error.Error when [budget_bytes < 2]. *)

val cacheable : Protocol.request -> bool
(** [advise], [schedule], [dp], and [evaluate] without [periods], when
    no float field is NaN. *)

type entry = {
  op : string;  (** the request's {!Protocol.op_name}, for [stats] *)
  payload : string;  (** the stored reply bytes *)
}

val probe : t -> ((string -> entry option) -> 'a) -> 'a
(** [probe t f] runs [f find] under the cache's lock, so a batch of
    lines takes it once: [find key] is the entry stored under [key],
    counting a hit, or [None], counting nothing — a line's miss is
    counted by {!add_misses} once its parse shows it cacheable.  [f]
    must not call back into [t]. *)

val add_misses : t -> int -> unit
(** Count [n] cacheable requests that were not answered from the
    cache, so [hits + misses] is the number of cacheable requests
    served. *)

val store : t -> string -> op:string -> string -> unit
(** [store t key ~op payload] keeps [payload] under [key].  The first
    writer wins; an entry larger than half the budget is not kept. *)

type stats = {
  hits : int;  (** requests answered from stored payloads *)
  misses : int;  (** cacheable requests that were not *)
  insertions : int;
  evictions : int;  (** entries dropped with the old generation *)
  entries : int;  (** payloads resident now *)
  bytes : int;  (** resident bytes, never more than [budget_bytes] *)
  budget_bytes : int;
}

val stats : t -> stats

val reset_counters : t -> unit
(** Zero the counters, keeping the entries; part of the daemon's
    [stats reset]. *)
