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
    order.  With [~grid] the memo is a flat p-stratified [Bigarray]
    (NaN = unsolved) that grows in place on larger [p] or residual;
    without it, an int-keyed [Hashtbl].

    Gridded solvers are bit-identical in value and argmin to the seed
    recursion ({!Ref}); the ungridded path may differ from the seed by
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
      flat-memo solver fan the episode's continuation subtrees out
      across the pool's domains.  Under the service's batch fan-out on
      the same pool this is a nested fan-out: idle domains help with
      it, and when none is idle the calling domain runs every subtree
      itself, so sharing the pool stays safe.
      The memo backend follows [grid]: flat with it, Hashtbl without.
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

  val plan : t -> p:int -> residual:float -> Schedule.t
  (** The policy's episode schedule at the canonical (snapped) state,
      computed once per state and cached. *)

  val grow : t -> p:int -> residual:float -> unit
  (** Extend a flat memo to cover [(p, residual)] in place (allocate
      and blit; solved cells keep their values).  Happens implicitly on
      out-of-range queries; a no-op on Hashtbl solvers. *)

  val params : t -> Model.params
  val opportunity : t -> Model.opportunity
  val policy : t -> Policy.t
  (** The policy the solver was built over — hand this to {!run} so a
      replay reuses e.g. an expensive DP-table policy instead of
      rebuilding it. *)

  val grid : t -> float option

  val states : t -> int
  (** States this solver has expanded (counted against [max_states]). *)

  val capacity : t -> int * int
  (** Current [(max_p, max_index)] of a flat memo;
      [(max_int, max_int)] for Hashtbl solvers. *)

  val footprint_bytes : t -> int
  (** Approximate resident size of memo plus plan cache. *)

  type mat =
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** The flat memo's backing store (row stride [s_cap_l + 1], NaN =
      unsolved). *)

  type snapshot = {
    s_grid : float;
    s_cap_p : int;
    s_cap_l : int;
    s_states : int;
        (** filled memo cells — the distinct states expanded, so equal
            memos carry equal counts however a parallel fill raced;
            {!of_snapshot} charges them against [max_states] *)
    s_mat : mat;  (** (cap_p + 1) * (cap_l + 1) cells, NaN included *)
  }
  (** The disk-tier exchange format for gridded (flat-memo) solvers
      ([Store.Snapshot] writes these verbatim). *)

  val to_snapshot : t -> snapshot option
  (** The whole memo of a gridded solver; [None] for Hashtbl-backed
      (ungridded) solvers, whose masked-float keys have no dense layout
      to dump. *)

  val of_snapshot :
    ?max_states:int ->
    ?pool:Csutil.Par.Pool.t ->
    Model.params ->
    Model.opportunity ->
    Policy.t ->
    snapshot ->
    t
  (** A solver over the snapshot's memo, shared without copying: solved
      cells answer as memo hits, NaN cells expand as usual (writes land
      on the caller's pages — map bank files privately so expansion
      dirties copy-on-write pages, never the file).  The caller pins the
      identity: [params], [policy] and the grid must be the ones the
      memo was filled under, or the values answer a different game — the
      store layer checks them against the file header.
      @raise Error.Error on a non-positive grid, negative capacities or
      states, or array dimensions that do not match the capacities. *)
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

(** The seed minimax recursion, retained verbatim (raw-float memo keys,
    one private table per call) as the correctness and performance
    baseline for bench and test.  Production code goes through
    {!Solver}. *)
module Ref : sig
  val guaranteed :
    ?grid:float ->
    ?max_states:int ->
    Model.params ->
    Model.opportunity ->
    Policy.t ->
    float

  val guaranteed_at :
    ?grid:float ->
    ?max_states:int ->
    Model.params ->
    Model.opportunity ->
    Policy.t ->
    p:int ->
    residual:float ->
    float

  val optimal_adversary :
    ?grid:float ->
    ?max_states:int ->
    Model.params ->
    Model.opportunity ->
    Policy.t ->
    Adversary.t
end

val render_timeline :
  ?width:int -> Model.params -> Model.opportunity -> outcome -> string
(** An ASCII timeline of the played opportunity, one lane per episode:
    ['.'] setup, ['='] productive work, ['x'] the killed stretch, ['!']
    the interrupt instant.  [width] defaults to 72 columns.
    @raise Error.Error when [width < 16]. *)
