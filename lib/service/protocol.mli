(** The [cschedd] wire protocol: newline-delimited JSON requests and
    responses mirroring the [csched] subcommands.

    One request per line:

    {v
    {"id":1,"op":"advise","c":30,"u":86400,"p":3}
    {"id":2,"op":"schedule","c":1,"u":1000,"p":2,"regime":"calibrated"}
    {"id":3,"op":"evaluate","c":1,"u":200,"p":1,"policy":"nonadaptive"}
    {"id":4,"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5]}
    {"id":5,"op":"dp","c_ticks":10,"l":2000,"p":3}
    {"id":6,"op":"strategies"}
    {"id":7,"op":"stats","reset":true}
    v}

    One response per line, in request order, [id] echoed verbatim:
    [{"id":...,"ok":true,"result":{...}}] on success,
    [{"id":...,"ok":false,"error":{"code":...,"message":...}}] on a
    malformed or failing request (the daemon never dies on bad input).

    Strategy ([evaluate]'s [policy]) and regime ([schedule]'s [regime])
    names resolve through {!Engine.Registry}; the [strategies] op lists
    them.

    {!handle} is the single evaluation path: the daemon, the batch
    engine and [csched --json] all serialize through it, so a daemon
    response is byte-identical to a direct library call. *)

type request =
  | Advise of { c : float; u : float; p : int }
  | Schedule of { c : float; u : float; p : int; regime : string }
  | Evaluate of {
      c : float;
      u : float;
      p : int;
      policy : string;
      periods : float list option;
          (** when present, evaluate this committed schedule instead of
              the named policy (the [csched evaluate --periods] path) *)
    }
  | Dp_query of { c_ticks : int; l : int; p : int }
  | Strategies  (** list the planner registry and the schedule regimes *)
  | Stats of { reset : bool }
      (** daemon counters; with [reset], zero them after responding *)

type envelope = {
  id : Json.t;  (** echoed in the response; [Null] when absent *)
  request : (request, Cyclesteal.Error.t) result;
      (** [Error] carries the parse/validation error for the error
          response *)
}

val op_name : request -> string
(** The wire name of the operation ("advise", "schedule", ...). *)

val cache_group : request -> string option
(** The cache-state identity the request's evaluation takes a lock
    for: one key per dp table ([c_ticks]) and per resident-solver
    identity ([(c, u)], the planner's canonical name — so aliases
    share a group — plus [p] unless the planner is state-only,
    mirroring {!Cache}'s solver key).  It is the one key that decides
    which requests share state: the batch engine groups a batch by it,
    so each group takes the cache once — one table fetch, one
    resident-solver hold — instead of once per request, and the
    {!Router} places each request on the shard its key hashes to and
    slices the bank by the dp key.  [None] for requests that take no
    cache lock (pure compute, custom-periods evaluations, unknown
    policies, [strategies], [stats]): those evaluate as singletons,
    and the router sends them to shard 0, a custom-periods evaluation
    excepted (it is spread by a hash of its parameters). *)

val check_advise : p:int -> (unit, Cyclesteal.Error.t) result
(** The advise budget: [p] at most 2{^20} (1,048,576), else
    [budget_exhausted].  The calibrated target's coefficient is a
    recursion of [p] steps. *)

val parse_line : string -> envelope
(** Parse one request line.  Total: malformed JSON, a non-object, an
    unknown [op] or bad argument types yield an [Error] envelope, never
    an exception.  A [dp] query whose canonical table
    ({!Cache.canonical}) would be over {!Cyclesteal.Dp.max_cells}
    cells is refused here with [invalid_params], and an [advise] past
    {!check_advise} or a [schedule] whose closed-form period count is
    over 2{^20} with [budget_exhausted], so no line can start an
    unbounded computation.

    One pass over the line, building no JSON tree except the [id]
    (and the values of unknown, repeated or wrong-kind fields):
    keys are matched and integers read in place, floats of at most 15
    significant digits and decimal exponent within ±22 take Clinger's
    exact fast path (other numbers go through [int_of_string_opt] /
    [float_of_string], as in {!Json.of_string}), and op, regime and
    policy names that spell a known name come back as shared
    constants.  The envelope equals that of the tree-based decoder
    the tests hold as its oracle, errors included: a syntax error
    anywhere in the line wins (offset and message as
    {!Json.of_string} gives them), then field errors in order (op, the
    op's fields in turn, then the range checks); the first of repeated
    keys wins.
    A warm request line allocates a few dozen words. *)

val split_id : string -> (Json.t * int) option
(** [split_id line] is [Some (id, off)] when [line] starts with exactly
    [{"id":], an id value follows (blanks around it allowed) that reads
    as {!parse_line} reads a first member, and a [,] ends that member;
    [off] is the offset just after the comma.  Otherwise [None].

    For every JSON value [V] and bytes [T], {!parse_line} of
    [{"id":V,] ^ [T] yields the id [V] and the request [T]'s members
    decode to, whatever [V] is: the daemon's answer cache ({!Answers})
    keys a line by the bytes from [off], so a repeat under any id is
    answered without parsing it. *)

val request_to_json : ?id:Json.t -> request -> Json.t
(** Re-serialize a request (round-trips through {!parse_line}). *)

val handle :
  ?cache:Cache.t -> request -> (Json.t, Cyclesteal.Error.t) result
(** Evaluate one request to its [result] payload.  [Dp_query] solves
    through [cache] when given (canonicalized, growable, LRU), directly
    otherwise.  [Evaluate] likewise draws its game solver from the
    cache's resident-solver pool when [cache] is given (warm repeats
    answer from the shared memo; custom [periods] always solve fresh).
    [Stats] is served by the daemon, not here: without a daemon context
    it returns [Error]. *)

val guard :
  (unit -> (Json.t, Cyclesteal.Error.t) result) ->
  (Json.t, Cyclesteal.Error.t) result
(** Run an evaluation with {!handle}'s exception discipline: library
    validation errors ([Error.Error], [Invalid_argument], [Failure])
    become error results, so the daemon never dies on a request.  The
    batch engine wraps its grouped evaluation paths in this. *)

val handle_dp_with :
  Cyclesteal.Dp.t ->
  c_ticks:int ->
  l:int ->
  p:int ->
  (Json.t, Cyclesteal.Error.t) result
(** Answer a [dp] query from an already-fetched table covering its
    bounds.  The recurrence at [(p, l)] reads only smaller indices, so
    the payload is independent of the table's bounds — the batch
    engine fetches one group-max table and answers every query of a
    group from it, byte-identically to per-request fetches. *)

val evaluate_with_solver :
  c:float ->
  u:float ->
  p:int ->
  Cyclesteal.Game.Solver.t ->
  (Json.t, Cyclesteal.Error.t) result
(** Answer an [evaluate] request against a given game solver (queried
    at the request's own state, never the solver's baked root, so a
    shared resident solver answers every budget correctly).  The batch
    engine holds one resident solver and answers a whole group through
    this. *)

val error_to_json : Cyclesteal.Error.t -> Json.t
(** The structured error object of an error response:
    [{"code":...,"message":...}].  Shared with [csched --json] so CLI
    and daemon errors render identically. *)

val response_to_string :
  id:Json.t -> (Json.t, Cyclesteal.Error.t) result -> string
(** The response envelope as one line (no trailing newline). *)

val add_response :
  Buffer.t -> id:Json.t -> (Json.t, Cyclesteal.Error.t) result -> unit
(** Append {!response_to_string}'s bytes (no trailing newline) to a
    buffer — the wire loop serializes a whole batch into one
    reused per-connection buffer. *)

val add_payload_response : Buffer.t -> id:Json.t -> string -> unit
(** [add_payload_response buf ~id payload] appends
    [{"id":<id>,"ok":true,"result":<payload>}] for a [result] payload
    serialized earlier: byte-identical to [add_response buf ~id (Ok v)]
    when [payload] is [Json.to_string v].  The daemon answers repeated
    requests this way from its answer cache ({!Answers}). *)
