(** The seed minimax recursion (raw-float memo keys, one private table
    per call): the reference {!Cyclesteal.Game.Solver} is checked
    against, in tests and bench.  Each function answers as the
    [Cyclesteal.Game] function of the same name. *)

open Cyclesteal

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
