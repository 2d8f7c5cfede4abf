(** The daemon's answer cache: serialized [result] payloads keyed on
    the decoded request, shared by every connection.

    A repeated request — under a new [id], with its fields in another
    order or its numbers spelled differently — is answered from stored
    payload bytes without planning, answering or serializing again.
    Keys compare floats by their bits, so [0.0] and [-0.0] (and any two
    adjacent doubles) are distinct keys.  Only {!cacheable} requests
    enter: their payloads are pure functions of the decoded request.
    The server stores successful results only; errors, [stats] and
    [strategies] replies never enter.

    Resident bytes are bounded by a fixed budget, held as two
    generations of half the budget each: a full young generation
    replaces the old one, which is dropped whole, and a hit in the old
    generation moves its entry back to the young one.  Domain-safe
    (one mutex). *)

type t

val create : ?budget_bytes:int -> unit -> t
(** An empty cache holding at most [budget_bytes] resident bytes,
    counted per entry as the heap words of its key, payload and table
    bucket.  The default, 8 MiB, is the daemon's budget; tests pass
    smaller ones to exercise eviction.
    @raise Error.Error when [budget_bytes < 2]. *)

module Key : Hashtbl.HashedType with type t = Protocol.request
(** The cache's key equality and hash: floats compare by their bits,
    and a custom-periods [evaluate] equals nothing. *)

val cacheable : Protocol.request -> bool
(** [advise], [schedule], [dp], and [evaluate] without [periods], when
    no float field is NaN. *)

val find : t -> Protocol.request -> string option
(** The stored payload for an equal request; counts a hit or a miss
    when the request is {!cacheable}, and is [None] without counting
    otherwise. *)

val store : t -> Protocol.request -> string -> unit
(** [store t req payload] keeps [payload] (the serialized [result] of a
    successful answer to [req]).  The first writer wins; a non-cacheable
    request, or an entry larger than half the budget, is not kept. *)

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
