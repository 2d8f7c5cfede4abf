(* The seed minimax recursion, the reference [Game.Solver] is checked
   against: raw-float memo keys, one private Hashtbl per call.  It
   restates the two helpers it used to borrow from [Game]: the progress
   threshold and the plan check. *)

open Cyclesteal

let progress_eps opp = 1e-9 *. opp.Model.lifespan

(* A plan must make progress and must not exceed the residual. *)
let check_plan ~policy_name ~eps ctx s =
  let tot = Schedule.total s in
  if tot > ctx.Policy.residual +. eps then
    Error.invalid
      (Printf.sprintf "Game: policy %s planned %g exceeding residual %g"
         policy_name tot ctx.Policy.residual);
  if tot <= eps then
    Error.invalid
      (Printf.sprintf "Game: policy %s planned a zero-length episode" policy_name)

let make_solver ?grid ?(max_states = 4_000_000) params opportunity policy =
  let c = Model.c params in
  let eps = progress_eps opportunity in
  let memo : (int * float, float) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 in
  let rec value ~p ~residual =
    let residual =
      match grid with
      | None -> residual
      | Some g -> Csutil.Float_ext.round_down_to ~grid:g residual
    in
    if residual <= c +. eps then 0.
    else begin
      let key = (p, residual) in
      match Hashtbl.find_opt memo key with
      | Some v -> v
      | None ->
        incr states;
        if !states > max_states then
          Error.budget_exhausted ~states:!states ~budget:max_states;
        let ctx =
          { Policy.params; opportunity; residual; interrupts_left = p }
        in
        let s = Policy.plan policy ctx in
        check_plan ~policy_name:(Policy.name policy) ~eps ctx s;
        let leftover = residual -. Schedule.total s in
        let completed =
          Schedule.work_if_uninterrupted params s
          +. (if leftover > eps then value ~p ~residual:leftover else 0.)
        in
        let v =
          if p <= 0 then completed
          else begin
            let best = ref completed in
            let banked = ref 0. in
            let m = Schedule.length s in
            for k = 1 to m do
              let rem = residual -. Schedule.end_time s k in
              let cand = !banked +. value ~p:(p - 1) ~residual:rem in
              if cand < !best then best := cand;
              banked := !banked +. Model.positive_sub (Schedule.period s k) c
            done;
            !best
          end
        in
        Hashtbl.replace memo key v;
        v
    end
  in
  value

let guaranteed_at ?grid ?max_states params opportunity policy ~p ~residual =
  let value = make_solver ?grid ?max_states params opportunity policy in
  value ~p ~residual

let guaranteed ?grid ?max_states params opportunity policy =
  guaranteed_at ?grid ?max_states params opportunity policy
    ~p:opportunity.Model.interrupts ~residual:opportunity.Model.lifespan

let optimal_adversary ?grid ?max_states params opportunity policy =
  let value = make_solver ?grid ?max_states params opportunity policy in
  let decide ctx s =
    let p = ctx.Policy.interrupts_left in
    if p <= 0 then Adversary.Let_run
    else begin
      let eps = progress_eps opportunity in
      let leftover = ctx.Policy.residual -. Schedule.total s in
      let completed =
        Schedule.work_if_uninterrupted params s
        +. (if leftover > eps then value ~p ~residual:leftover else 0.)
      in
      let best = ref completed and best_k = ref 0 in
      let banked = ref 0. in
      let m = Schedule.length s in
      for k = 1 to m do
        let rem = ctx.Policy.residual -. Schedule.end_time s k in
        let cand = !banked +. value ~p:(p - 1) ~residual:rem in
        if cand < !best then begin
          best := cand;
          best_k := k
        end;
        banked :=
          !banked +. Model.positive_sub (Schedule.period s k) (Model.c params)
      done;
      if !best_k = 0 then Adversary.Let_run
      else Adversary.Interrupt { period = !best_k; fraction = 1.0 }
    end
  in
  Adversary.make ~name:"optimal" ~decide
