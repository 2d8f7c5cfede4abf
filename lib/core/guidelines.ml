(* The library's front door: craft near-optimal schedules for a
   cycle-stealing opportunity, in either regime, and compare the regimes'
   guarantees.  This is the API the examples and the CLI use. *)

type regime = Non_adaptive | Adaptive

let pp_regime fmt = function
  | Non_adaptive -> Format.pp_print_string fmt "non-adaptive"
  | Adaptive -> Format.pp_print_string fmt "adaptive"

(* The committed schedule for the non-adaptive regime (Section 3.1). *)
let nonadaptive_schedule params (opp : Model.opportunity) =
  Nonadaptive.guideline params ~u:opp.Model.lifespan ~p:opp.Model.interrupts

(* The policy to run, per regime. *)
let policy params opp = function
  | Non_adaptive -> Policy.nonadaptive_guideline params opp
  | Adaptive -> Policy.adaptive_guideline

(* Closed-form predicted guaranteed work per regime (Sections 3.1, 5.1). *)
let predicted_work params (opp : Model.opportunity) = function
  | Non_adaptive ->
    Nonadaptive.closed_form params ~u:opp.Model.lifespan ~p:opp.Model.interrupts
  | Adaptive ->
    Adaptive.lower_bound params ~u:opp.Model.lifespan ~p:opp.Model.interrupts

(* Measured guaranteed work per regime, against the optimal adversary. *)
let guaranteed_work ?grid ?max_states params opp regime =
  Game.guaranteed ?grid ?max_states params opp (policy params opp regime)

type advice = {
  recommended : regime;
  adaptive_bound : float;
  nonadaptive_bound : float;
  advantage : float; (* adaptive_bound - nonadaptive_bound *)
}

(* Compare the regimes' closed-form guarantees.  Adaptivity always wins
   on the bound for p >= 1 (loss coefficient (2 - 2^(1-p)) sqrt 2 vs
   2 sqrt p); non-adaptivity is recommended only when they tie, since it
   needs no mid-opportunity re-planning machinery.  No schedule does
   more than U work, and none guarantees any when U <= (p+1)c
   (Proposition 4.1(c)), so the reported bounds are the closed forms
   held to [0, U], and both are 0 in the degenerate regime, where the
   tie recommends the non-adaptive regime.  The closed forms themselves
   ([predicted_work]) are left as the paper states them. *)
let advise params (opp : Model.opportunity) =
  let bound regime =
    if Model.is_degenerate params opp then 0.
    else
      Float.max 0. (Float.min opp.Model.lifespan (predicted_work params opp regime))
  in
  let adaptive_bound = bound Adaptive in
  let nonadaptive_bound = bound Non_adaptive in
  let advantage = adaptive_bound -. nonadaptive_bound in
  let recommended = if advantage > 0. then Adaptive else Non_adaptive in
  { recommended; adaptive_bound; nonadaptive_bound; advantage }
