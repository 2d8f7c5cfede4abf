(** The cycle-stealing game (paper Section 4): play a policy against an
    adversary, or compute the policy's exact guaranteed work against the
    optimal adversary. *)

type episode_outcome =
  | Completed
  | Interrupted of { period : int; fraction : float }

type episode_record = {
  start_elapsed : float;  (** opportunity time when the episode began *)
  planned : Schedule.t;
  outcome : episode_outcome;
  work : float;           (** work banked by this episode *)
  duration : float;       (** lifespan consumed by this episode *)
}

type outcome = {
  work : float;
  interrupts_used : int;
  episodes : episode_record list;  (** in play order *)
}

val run :
  Model.params -> Model.opportunity -> Policy.t -> Adversary.t -> outcome
(** Play the opportunity out: repeatedly plan an episode, let the
    adversary react, account the work.  Terminates when the residual
    lifespan is exhausted.
    @raise Error.Error if the policy plans a zero-length episode or
    overruns the residual. *)

(** A reusable minimax solver: one memo shared between {!Solver.value}
    (= {!guaranteed_at}), {!Solver.guaranteed} and the
    {!Solver.adversary} replay, so an evaluate call site solves the
    game once instead of once per question.

    States [(interrupts_left, residual)] are memoised on an {e integer}
    key from a canonical residual: rounded down to the caller's
    [~grid] when given, or -- ungridded -- the residual with its low 12
    mantissa bits masked off, folding [-0.0] and float-noise twins of a
    state (equal to within ~2^-40 relative, far inside the progress
    tolerance) into one key without ever moving an exactly-representable
    residual.  Every computation at a state uses the canonical residual,
    so values are pure functions of their key, independent of query
    order.  The memo is one open-addressed [(p, key) -> value] table,
    gridded or not, holding only the states the queries reach.

    Gridded solvers are bit-identical in value and argmin to the seed
    recursion (the test oracle [Game_ref]); the ungridded path may differ from the seed by
    at most the progress tolerance where snapping merges states. *)
module Solver : sig
  type t

  val create :
    ?grid:float ->
    ?max_states:int ->
    ?pool:Csutil.Par.Pool.t ->
    Model.params ->
    Model.opportunity ->
    Policy.t ->
    t
  (** A fresh solver (cheap: the memo fills lazily).  [max_states]
      bounds the states this solver may expand over its lifetime
      (default 4e6).  With [~pool], top-level {!value} queries on a
      gridded solver fan the episode's continuation subtrees out across
      the pool's domains; each domain writes a private overlay that the
      join merges.  Under the service's batch fan-out on the same pool
      this is a nested fan-out: idle domains help with
      it, and when none is idle the calling domain runs every subtree
      itself, so sharing the pool stays safe.
      @raise Error.Error when [grid <= 0]. *)

  val value : t -> p:int -> residual:float -> float
  (** The guaranteed work from state [(p, residual)]; memo hits are
      O(1) across repeated and nested queries.
      @raise Error.Error ([Budget_exhausted]) past [max_states]. *)

  val guaranteed : t -> float
  (** {!value} at the opportunity's root state. *)

  val adversary : t -> Adversary.t
  (** The minimax adversary replaying this solver's argmin choices;
      after {!guaranteed}, its value queries are memo hits, so the
      replay expands (next to) no new states. *)

  val policy : t -> Policy.t
  (** The policy the solver was built over — hand this to {!run} so a
      replay reuses e.g. an expensive DP-table policy instead of
      rebuilding it. *)

  val states : t -> int
  (** States this solver has expanded (counted against [max_states]). *)

  val answered_p : t -> int
  (** The largest interrupt budget a {!value} call has returned for
      ([-1] before the first; a bank-loaded memo starts at its
      snapshot's).  A query within it expands no new budget level. *)

  val footprint_bytes : t -> int
  (** Approximate resident size of memo plus plan cache. *)

  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type snapshot = private {
    s_grid : float;
    s_answered_p : int;  (** {!answered_p} when the snapshot was taken *)
    s_states : int;
        (** memo entries — the distinct states expanded, so equal memos
            carry equal counts however a parallel fill raced;
            {!of_snapshot} charges them against [max_states] *)
    s_keys : ints;  (** per slot: [p] ([-1] = empty), then the residual key *)
    s_vals : floats;  (** per slot its value; slots are a power of two *)
  }
  (** The disk-tier exchange format for gridded solvers: the memo table
      verbatim ([Store.Snapshot] writes these as they are). *)

  val snapshot :
    grid:float ->
    answered_p:int ->
    states:int ->
    keys:ints ->
    vals:floats ->
    snapshot
  (** A snapshot around a table read from outside (a mapped bank file),
      after checking its structure: a power-of-two slot count within
      the load bound, [states] occupied slots, non-negative keys, each
      held once and reachable by a probe from its home slot.
      @raise Error.Error on the first broken invariant. *)

  val to_snapshot : t -> snapshot option
  (** The memo of a gridded solver in canonical form: its entries
      inserted in key order into a fresh table sized by their count, so
      equal memos give equal snapshots however they were filled.
      [None] for ungridded solvers, which the bank does not keep. *)

  val of_snapshot :
    ?max_states:int ->
    ?pool:Csutil.Par.Pool.t ->
    Model.params ->
    Model.opportunity ->
    Policy.t ->
    snapshot ->
    t
  (** A solver over the snapshot's table, shared without copying:
      stored states answer as memo hits, others expand as usual
      (inserts land on the caller's pages — map bank files privately so
      expansion dirties copy-on-write pages, never the file — until the
      first rehash moves the table to fresh memory).  The caller pins the
      identity: [params], [policy] and the grid must be the ones the
      memo was filled under, or the values answer a different game — the
      store layer checks them against the file header. *)
end

type counters = {
  states : int;          (** distinct states expanded (memo misses) *)
  memo_hits : int;       (** value lookups answered from the memo *)
  plans_computed : int;  (** [Policy.plan] invocations *)
  parallel_fills : int;  (** top-level fan-outs dispatched to a pool *)
}
(** Process-wide solver counters, summed over every {!Solver.t} (the
    service surfaces them through cschedd's [stats] op). *)

val counters : unit -> counters
val reset_counters : unit -> unit

val guaranteed :
  ?grid:float ->
  ?max_states:int ->
  Model.params ->
  Model.opportunity ->
  Policy.t ->
  float
(** The policy's guaranteed work: the minimax value against an optimal
    adversary restricted to last-instant interrupt placements
    (Observation (a)); exact for policies whose value is monotone in the
    residual lifespan, which covers every policy in this library.  With
    [~grid] residuals are rounded down to the grid: the state space
    becomes finite and the result is a lower bound on the exact value
    (off by at most one grid step per episode).

    Convenience wrapper over a one-shot {!Solver}; call sites that also
    need the adversary or interior values should build one {!Solver.t}
    and share it.
    @raise Error.Error ([Budget_exhausted]) when the memoised state
    space grows past [max_states]; pass [~grid] to bound it. *)

val guaranteed_at :
  ?grid:float ->
  ?max_states:int ->
  Model.params ->
  Model.opportunity ->
  Policy.t ->
  p:int ->
  residual:float ->
  float
(** {!guaranteed} evaluated at an arbitrary interior state, e.g. to
    tabulate [W^(p-1)] continuations for Table 1. *)

val optimal_adversary :
  ?grid:float ->
  ?max_states:int ->
  Model.params ->
  Model.opportunity ->
  Policy.t ->
  Adversary.t
(** The minimax adversary as a playable strategy (shares the recursion
    with {!guaranteed}); running it through {!run} against the same
    policy reproduces the {!guaranteed} value.  Builds its own private
    {!Solver}: prefer {!Solver.adversary} when a solver is already in
    hand. *)

val render_timeline :
  ?width:int -> Model.params -> Model.opportunity -> outcome -> string
(** An ASCII timeline of the played opportunity, one lane per episode:
    ['.'] setup, ['='] productive work, ['x'] the killed stretch, ['!']
    the interrupt instant.  [width] defaults to 72 columns.
    @raise Error.Error when [width < 16]. *)
