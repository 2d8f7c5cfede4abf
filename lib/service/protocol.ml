(* Request parsing and response serialization for cschedd.

   Field defaults mirror the csched CLI (c = 1, u = 1000, p = 1,
   regime/policy = "adaptive", c_ticks = 10, l = 2000), and the
   evaluation logic mirrors the corresponding subcommands — including
   the grid heuristic — so a daemon response is byte-identical to what
   the CLI computes for the same query.  Strategy and regime names are
   resolved through Engine.Registry: the daemon accepts exactly the
   registry's planners, nothing more. *)

open Cyclesteal

type request =
  | Advise of { c : float; u : float; p : int }
  | Schedule of { c : float; u : float; p : int; regime : string }
  | Evaluate of {
      c : float;
      u : float;
      p : int;
      policy : string;
      periods : float list option;
    }
  | Dp_query of { c_ticks : int; l : int; p : int }
  | Strategies
  | Stats of { reset : bool }

type envelope = { id : Json.t; request : (request, Error.t) result }

let op_name = function
  | Advise _ -> "advise"
  | Schedule _ -> "schedule"
  | Evaluate _ -> "evaluate"
  | Dp_query _ -> "dp"
  | Strategies -> "strategies"
  | Stats _ -> "stats"

(* --- shard placement keys ------------------------------------------------

   The canonical identity a request's cached state lives under, as a
   string the router consistent-hashes.  Two requests share a key
   exactly when they can share residency: dp queries share a table per
   c (bounds only say how far it must cover), point ops share solvers
   per (c, u, policy) — p stays out of the key because state_only
   policies collapse it, and keeping all budgets of one (c, u, policy)
   together is what lets the resident solver grow in place instead of
   duplicating across shards.  Floats print with %h (exact hex), so no
   two distinct parameters ever collide by formatting.  Strategies and
   stats have no placement: the router answers them itself (strategies
   is pure; stats aggregates across shards). *)

let dp_shard_key ~c_ticks = Printf.sprintf "dp:%d" c_ticks

let shard_key = function
  | Advise { c; u; _ } -> Some (Printf.sprintf "cu:%h:%h:advise" c u)
  | Schedule { c; u; regime; _ } ->
    Some (Printf.sprintf "cu:%h:%h:%s" c u regime)
  | Evaluate { c; u; policy; _ } ->
    (* The canonical planner name, so aliases ("fixed-chunk",
       "fixed_chunk") land on the shard of the one solver they share. *)
    let name =
      match Engine.Registry.find_opt policy with
      | Some planner -> planner.Engine.Planner.name
      | None -> policy
    in
    Some (Printf.sprintf "cu:%h:%h:%s" c u name)
  | Dp_query { c_ticks; _ } -> Some (dp_shard_key ~c_ticks)
  | Strategies | Stats _ -> None

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let invalid msg = Result.Error (Error.Invalid_params msg)

let field_float obj name default =
  match Json.member name obj with
  | None -> Ok default
  | Some v ->
    (match Json.to_float v with
     | Some x -> Ok x
     | None -> invalid (Printf.sprintf "field %S must be a number" name))

let field_int obj name default =
  match Json.member name obj with
  | None -> Ok default
  | Some v ->
    (match Json.to_int v with
     | Some n -> Ok n
     | None -> invalid (Printf.sprintf "field %S must be an integer" name))

let field_string obj name default =
  match Json.member name obj with
  | None -> Ok default
  | Some v ->
    (match Json.to_str v with
     | Some s -> Ok s
     | None -> invalid (Printf.sprintf "field %S must be a string" name))

let field_bool obj name default =
  match Json.member name obj with
  | None -> Ok default
  | Some v ->
    (match Json.to_bool v with
     | Some b -> Ok b
     | None -> invalid (Printf.sprintf "field %S must be a boolean" name))

let field_float_list obj name =
  match Json.member name obj with
  | None -> Ok None
  | Some v ->
    (match Json.to_list v with
     | None -> invalid (Printf.sprintf "field %S must be an array" name)
     | Some items ->
       let rec go acc = function
         | [] -> Ok (Some (List.rev acc))
         | x :: rest ->
           (match Json.to_float x with
            | Some f -> go (f :: acc) rest
            | None ->
              invalid (Printf.sprintf "field %S must contain only numbers" name))
       in
       go [] items)

let validate_cup ~c ~u ~p =
  if c <= 0. then invalid "c must be positive"
  else if u <= 0. then invalid "U must be positive"
  else if p < 0 then invalid "p must be non-negative"
  else Ok ()

let decode_request obj =
  let* op =
    match Json.member "op" obj with
    | None -> invalid "missing field \"op\""
    | Some v ->
      (match Json.to_str v with
       | Some s -> Ok s
       | None -> invalid "field \"op\" must be a string")
  in
  match op with
  | "advise" ->
    let* c = field_float obj "c" 1.0 in
    let* u = field_float obj "u" 1000. in
    let* p = field_int obj "p" 1 in
    let* () = validate_cup ~c ~u ~p in
    Ok (Advise { c; u; p })
  | "schedule" ->
    let* c = field_float obj "c" 1.0 in
    let* u = field_float obj "u" 1000. in
    let* p = field_int obj "p" 1 in
    let* regime = field_string obj "regime" "adaptive" in
    let* () = validate_cup ~c ~u ~p in
    Ok (Schedule { c; u; p; regime })
  | "evaluate" ->
    let* c = field_float obj "c" 1.0 in
    let* u = field_float obj "u" 1000. in
    let* p = field_int obj "p" 1 in
    let* policy = field_string obj "policy" "adaptive" in
    let* periods = field_float_list obj "periods" in
    let* () = validate_cup ~c ~u ~p in
    Ok (Evaluate { c; u; p; policy; periods })
  | "dp" ->
    let* c_ticks = field_int obj "c_ticks" 10 in
    let* l = field_int obj "l" 2000 in
    let* p = field_int obj "p" 1 in
    if c_ticks < 1 then invalid "c_ticks must be >= 1"
    else if p < 0 then invalid "p must be non-negative"
    else if l < 0 then invalid "l must be non-negative"
    else Ok (Dp_query { c_ticks; l; p })
  | "strategies" -> Ok Strategies
  | "stats" ->
    let* reset = field_bool obj "reset" false in
    Ok (Stats { reset })
  | other ->
    Result.Error
      (Error.Unknown_name
         {
           kind = "op";
           name = other;
           known = [ "advise"; "schedule"; "evaluate"; "dp"; "strategies"; "stats" ];
         })

let parse_line line =
  match Json.of_string line with
  | Error e -> { id = Json.Null; request = invalid e }
  | Ok (Json.Obj _ as obj) ->
    let id = Option.value ~default:Json.Null (Json.member "id" obj) in
    { id; request = decode_request obj }
  | Ok _ -> { id = Json.Null; request = invalid "request must be a JSON object" }

(* --- encoding ----------------------------------------------------------- *)

let request_to_json ?(id = Json.Null) req =
  let with_id fields =
    match id with Json.Null -> fields | _ -> ("id", id) :: fields
  in
  Json.Obj
    (with_id
       (match req with
        | Advise { c; u; p } ->
          [
            ("op", Json.String "advise"); ("c", Json.Float c);
            ("u", Json.Float u); ("p", Json.Int p);
          ]
        | Schedule { c; u; p; regime } ->
          [
            ("op", Json.String "schedule"); ("c", Json.Float c);
            ("u", Json.Float u); ("p", Json.Int p);
            ("regime", Json.String regime);
          ]
        | Evaluate { c; u; p; policy; periods } ->
          [
            ("op", Json.String "evaluate"); ("c", Json.Float c);
            ("u", Json.Float u); ("p", Json.Int p);
            ("policy", Json.String policy);
          ]
          @ (match periods with
             | None -> []
             | Some ts ->
               [ ("periods", Json.List (List.map (fun t -> Json.Float t) ts)) ])
        | Dp_query { c_ticks; l; p } ->
          [
            ("op", Json.String "dp"); ("c_ticks", Json.Int c_ticks);
            ("l", Json.Int l); ("p", Json.Int p);
          ]
        | Strategies -> [ ("op", Json.String "strategies") ]
        | Stats { reset } ->
          ("op", Json.String "stats")
          :: (if reset then [ ("reset", Json.Bool true) ] else [])))

(* --- evaluation --------------------------------------------------------- *)

let regime_name = function
  | Guidelines.Non_adaptive -> "nonadaptive"
  | Guidelines.Adaptive -> "adaptive"

let handle_advise ~c ~u ~p =
  let params = Model.params ~c in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let advice = Guidelines.advise params opp in
  Ok
    (Json.Obj
       [
         ("c", Json.Float c); ("u", Json.Float u); ("p", Json.Int p);
         ("degenerate", Json.Bool (Model.is_degenerate params opp));
         ("nonadaptive_bound", Json.Float advice.Guidelines.nonadaptive_bound);
         ("adaptive_bound", Json.Float advice.Guidelines.adaptive_bound);
         ( "calibrated_target",
           Json.Float (Adaptive.calibrated_bound params ~u ~p) );
         ( "recommended",
           Json.String (regime_name advice.Guidelines.recommended) );
         ("advantage", Json.Float advice.Guidelines.advantage);
       ])

let handle_schedule ~c ~u ~p ~regime =
  let params = Model.params ~c in
  let s = Engine.Registry.episode_schedule params ~u ~p regime in
  Ok
    (Json.Obj
       [
         ("regime", Json.String regime);
         ("length", Json.Int (Schedule.length s));
         ("total", Json.Float (Schedule.total s));
         ( "work_if_uninterrupted",
           Json.Float (Schedule.work_if_uninterrupted params s) );
         ( "periods",
           Json.List
             (List.map (fun t -> Json.Float t) (Schedule.to_list s)) );
       ])

let custom_policy ~u periods =
  let s = Schedule.of_list periods in
  if Float.abs (Schedule.total s -. u) > 1e-6 *. u then
    Error.invalidf "periods sum to %g, not U = %g" (Schedule.total s) u
  else Policy.rename (Policy.non_adaptive ~committed:s) "custom"

let episode_to_json (e : Game.episode_record) =
  Json.Obj
    [
      ("start", Json.Float e.Game.start_elapsed);
      ("periods", Json.Int (Schedule.length e.Game.planned));
      ( "outcome",
        match e.Game.outcome with
        | Game.Completed -> Json.Obj [ ("kind", Json.String "completed") ]
        | Game.Interrupted { period; fraction } ->
          Json.Obj
            [
              ("kind", Json.String "interrupted");
              ("period", Json.Int period);
              ("fraction", Json.Float fraction);
            ] );
      ("work", Json.Float e.Game.work);
    ]

(* One solver answers guaranteed, the adversary replay, and any interior
   value the replay touches; cached solvers stay resident across
   requests and answer warm queries from their memo.  Factored out so
   the batch engine can answer a whole group of evaluations holding
   one resident solver: queries go through the request's own state,
   not [Solver.guaranteed]'s baked root, because a resident state-only
   solver (and a bank-loaded memo) is shared across interrupt budgets,
   so its baked opportunity may be another request's. *)
let evaluate_with_solver ~c ~u ~p solver =
  let params = Model.params ~c in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let g = Game.Solver.value solver ~p ~residual:u in
  let adv = Game.Solver.adversary solver in
  let pol = Game.Solver.policy solver in
  let outcome = Game.run params opp pol adv in
  Ok
    (Json.Obj
       [
         ("policy", Json.String (Policy.name pol));
         ("c", Json.Float c); ("u", Json.Float u); ("p", Json.Int p);
         ("guaranteed", Json.Float g);
         ("guaranteed_fraction", Json.Float (g /. u));
         ("loss", Json.Float (u -. g));
         ( "loss_coefficient",
           Json.Float ((u -. g) /. Float.sqrt (2. *. c *. u)) );
         ("interrupts_used", Json.Int outcome.Game.interrupts_used);
         ( "episodes",
           Json.List (List.map episode_to_json outcome.Game.episodes) );
       ])

let handle_evaluate ?cache ~c ~u ~p ~policy ~periods () =
  let params = Model.params ~c in
  let opp = Model.opportunity ~lifespan:u ~interrupts:p in
  let eval = evaluate_with_solver ~c ~u ~p in
  (* Same grid heuristic as csched evaluate: exact below U = 5000,
     200k-point grid above. *)
  let grid = Engine.Planner.default_grid ~u in
  match periods with
  | Some ts -> eval (Game.Solver.create ?grid params opp (custom_policy ~u ts))
  | None ->
    let planner = Engine.Registry.find policy in
    (match cache with
     | Some cache -> Cache.with_solver cache params opp planner eval
     | None -> eval (Engine.Planner.solver ?grid planner params opp))

(* Answer a dp query from an already-fetched table covering its
   bounds.  The recurrence at (p, l) only reads entries at smaller p
   and l, so the value and episode are independent of the table
   bounds: cached (canonical, larger, possibly grown) and direct
   (exact) tables answer identically — which is also what lets the
   batch engine fetch one group-max table and answer every query of
   the group from it. *)
let handle_dp_with dp ~c_ticks ~l ~p =
  let w = Dp.value dp ~p ~l in
  let a_hat =
    if l = 0 then 0.
    else
      float_of_int (l - w)
      /. Float.sqrt (2. *. float_of_int c_ticks *. float_of_int l)
  in
  Ok
    (Json.Obj
       [
         ("c_ticks", Json.Int c_ticks); ("l", Json.Int l); ("p", Json.Int p);
         ("value", Json.Int w);
         ("loss_coefficient", Json.Float a_hat);
         ("target_coefficient", Json.Float (Adaptive.optimal_coefficient ~p));
         ( "episode",
           Json.List
             (List.map (fun t -> Json.Int t) (Dp.optimal_episode dp ~p ~l)) );
       ])

let handle_dp ?cache ~c_ticks ~l ~p () =
  let dp =
    match cache with
    | Some cache -> Cache.find_or_solve cache ~c:c_ticks ~p ~l
    | None -> Dp.solve ~c:c_ticks ~max_p:p ~max_l:l
  in
  handle_dp_with dp ~c_ticks ~l ~p

let planner_to_json (pl : Engine.Planner.t) =
  Json.Obj
    [
      ("name", Json.String pl.Engine.Planner.name);
      ("kind", Json.String (Engine.Planner.kind_to_string pl.Engine.Planner.kind));
      ("paper", Json.String pl.Engine.Planner.paper);
      ("summary", Json.String pl.Engine.Planner.summary);
      ( "aliases",
        Json.List
          (List.map (fun a -> Json.String a) pl.Engine.Planner.aliases) );
      ( "params",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.String v))
             pl.Engine.Planner.params) );
    ]

let handle_strategies () =
  Ok
    (Json.Obj
       [
         ( "strategies",
           Json.List (List.map planner_to_json (Engine.Registry.all ())) );
         ( "regimes",
           Json.List
             (List.map
                (fun r -> Json.String r)
                (Engine.Registry.regime_names ())) );
       ])

(* The daemon must never die on a request, so evaluation failures
   (including library validation errors on adversarial inputs) become
   error responses.  [guard] is the one conversion, shared with the
   batch engine's grouped evaluation paths so a request answered
   against a pre-fetched table or resident solver fails exactly like
   one answered through [handle]. *)
let guard f =
  match f () with
  | result -> result
  | exception Error.Error e -> Result.Error e
  | exception Invalid_argument e -> Result.Error (Error.Invalid_params e)
  | exception Failure e -> Result.Error (Error.Invalid_params e)

let handle ?cache req =
  guard (fun () ->
      match req with
      | Advise { c; u; p } -> handle_advise ~c ~u ~p
      | Schedule { c; u; p; regime } -> handle_schedule ~c ~u ~p ~regime
      | Evaluate { c; u; p; policy; periods } ->
        handle_evaluate ?cache ~c ~u ~p ~policy ~periods ()
      | Dp_query { c_ticks; l; p } -> handle_dp ?cache ~c_ticks ~l ~p ()
      | Strategies -> handle_strategies ()
      | Stats _ ->
        Result.Error
          (Error.Invalid_params "stats is served by the cschedd daemon"))

(* The cache-state identity a request's evaluation takes a lock for —
   finer than [shard_key] (which keeps all ops of one (c, u) together
   for residency): dp queries group per table [c], named-policy
   evaluations group per resident-solver identity, which is
   (c, u, planner name) plus p unless the planner is state_only — the
   mirror of [Cache]'s solver key, so policy aliases ("fixed-chunk",
   "fixed_chunk") share one group as they share one solver.  [None]
   for everything else — pure compute, custom-periods evaluations
   (fresh solver per request), unknown policies (they error
   per-request), placement-free ops — which the batch engine
   evaluates as singletons. *)
let cache_group = function
  | Dp_query { c_ticks; _ } -> Some (dp_shard_key ~c_ticks)
  | Evaluate { periods = None; c; u; p; policy } ->
    (match Engine.Registry.find policy with
     | planner ->
       let sp = if planner.Engine.Planner.state_only then -1 else p in
       Some
         (Printf.sprintf "ev:%h:%h:%s:%d" c u planner.Engine.Planner.name sp)
     | exception _ -> None)
  | Advise _ | Schedule _ | Evaluate _ | Strategies | Stats _ -> None

let error_to_json e =
  Json.Obj
    [
      ("code", Json.String (Error.code e));
      ("message", Json.String (Error.to_string e));
    ]

let response_to_json ~id result =
  Json.Obj
    (match result with
     | Ok payload ->
       [ ("id", id); ("ok", Json.Bool true); ("result", payload) ]
     | Error e ->
       [ ("id", id); ("ok", Json.Bool false); ("error", error_to_json e) ])

let add_response buf ~id result = Json.add_to_buffer buf (response_to_json ~id result)

(* The success envelope around a payload serialized earlier: the same
   bytes [add_response] writes for [Ok v] when [payload] is
   [Json.to_string v], since an object renders as its fields in order
   with no spaces. *)
let add_payload_response buf ~id payload =
  Buffer.add_string buf {|{"id":|};
  Json.add_to_buffer buf id;
  Buffer.add_string buf {|,"ok":true,"result":|};
  Buffer.add_string buf payload;
  Buffer.add_char buf '}'

let response_to_string ~id result = Json.to_string (response_to_json ~id result)
