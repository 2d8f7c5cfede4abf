(** The library's front door: craft near-optimal schedules for a
    cycle-stealing opportunity and compare the two regimes. *)

type regime = Non_adaptive | Adaptive

val pp_regime : Format.formatter -> regime -> unit

val nonadaptive_schedule : Model.params -> Model.opportunity -> Schedule.t
(** The committed Section 3.1 schedule for the opportunity. *)

val policy : Model.params -> Model.opportunity -> regime -> Policy.t
(** The policy to run under each regime. *)

val predicted_work : Model.params -> Model.opportunity -> regime -> float
(** Closed-form predicted guaranteed work (Sections 3.1 and 5.1). *)

val guaranteed_work :
  ?grid:float ->
  ?max_states:int ->
  Model.params ->
  Model.opportunity ->
  regime ->
  float
(** Measured guaranteed work against the optimal adversary
    ({!Game.guaranteed} of the regime's policy). *)

type advice = {
  recommended : regime;
  adaptive_bound : float;
  nonadaptive_bound : float;
  advantage : float;  (** [adaptive_bound - nonadaptive_bound] *)
}

val advise : Model.params -> Model.opportunity -> advice
(** Compare the regimes' closed-form guarantees; adaptivity wins whenever
    its bound is strictly larger (always for [p >= 1] outside the
    degenerate regime), otherwise the simpler non-adaptive regime is
    recommended.  Each bound is its regime's {!predicted_work} held to
    [[0, U]], and both are 0 when the opportunity is degenerate
    ({!Model.is_degenerate}: U <= (p+1)c guarantees no work), so the
    non-adaptive regime is recommended there. *)
