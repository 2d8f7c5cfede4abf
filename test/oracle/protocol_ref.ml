(* The tree-based request decoder the one-pass scanner
   [Protocol.parse_line] replaced: [Json.of_string]'s tree, read field
   by field.  It restates the range checks, the dp table budget and
   the unknown-op error, with the scanner's messages, instead of
   calling the scanner's own. *)

open Service

let ( let* ) = Result.bind
let invalid msg = Result.Error (Cyclesteal.Error.Invalid_params msg)

let unknown_op name =
  Result.Error
    (Cyclesteal.Error.Unknown_name
       {
         kind = "op";
         name;
         known = [ "advise"; "schedule"; "evaluate"; "dp"; "strategies"; "stats" ];
       })

let validate_cup ~c ~u ~p =
  if c <= 0. then invalid "c must be positive"
  else if u <= 0. then invalid "U must be positive"
  else if p < 0 then invalid "p must be non-negative"
  else Ok ()

(* The dp table budget, restated: the cache's table for (p, l) has
   rows 0 .. p rounded up to even (at least 2) and columns 0 .. l
   rounded up to a power of two (at least 256), and may hold at most
   2^25 cells.  Bounds past the budget on their own are refused before
   any rounding. *)
let max_cells = 1 lsl 25

let dp_table_fits ~p ~l =
  p <= max_cells && l <= max_cells
  &&
  let rows = max 2 (p + (p mod 2)) + 1 in
  let cols = ref 256 in
  while !cols < l do
    cols := 2 * !cols
  done;
  rows * (!cols + 1) <= max_cells

(* The schedule budget, restated: at most 2^20 periods by the regime's
   closed form.  opt-p1 has about sqrt(2U/c) + 2 whatever p; with p = 0
   the others have one period; nonadaptive sqrt(pU/c) + 1; calibrated
   2 a (sqrt(2U/c) + a) + 3 sqrt(pU/c) + p + 6 with a = 1 + sqrt(2p);
   adaptive U/(3c/2) + 1 when its ramp has less than delta = 4^(1-p) c of
   room past the ceil(2p/3) tail periods of 3c/2 and the pivot, and
   otherwise that tail, the pivot and at most
   min(sqrt(2 room / delta), room / (pivot + delta)) ramp periods.  An
   unknown regime and a non-finite c pass: the engine refuses them by
   name. *)
let max_periods = 1 lsl 20

let schedule_periods ~c ~u ~p regime =
  let ratio = u /. c and pf = float_of_int p in
  if not (Float.is_finite c) then 0.
  else if regime = "opt-p1" then Float.sqrt (2. *. ratio) +. 2.
  else if p = 0 then 1.
  else if regime = "nonadaptive" then Float.sqrt (pf *. ratio) +. 1.
  else if regime = "calibrated" then begin
    let a = 1. +. Float.sqrt (2. *. pf) in
    (2. *. a *. (Float.sqrt (2. *. ratio) +. a)) +. (3. *. Float.sqrt (pf *. ratio)) +. pf +. 6.
  end
  else if regime = "adaptive" then begin
    let params = Cyclesteal.Model.params ~c in
    let delta = Cyclesteal.Adaptive.delta params ~p in
    let pivot = Cyclesteal.Adaptive.pivot params ~p in
    let tail = Float.floor ((2. *. pf +. 2.) /. 3.) in
    let room = u -. (1.5 *. c *. tail) -. pivot in
    if room < delta then (ratio /. 1.5) +. 1.
    else
      tail +. 1. +. Float.min (Float.sqrt (2. *. room /. delta)) (room /. (pivot +. delta))
  end
  else 0.

(* The advise budget, restated: the calibrated target's coefficient
   a_p takes p steps of its recursion, so p past 2^20 (the schedule
   budget's bound) is refused. *)
let max_advise_p = max_periods

let field read what obj name default =
  match Json.member name obj with
  | None -> Ok default
  | Some v ->
    (match read v with
     | Some x -> Ok x
     | None -> invalid (Printf.sprintf "field %S must be %s" name what))

let field_float = field Json.to_float "a number"
let field_int = field Json.to_int "an integer"
let field_string = field Json.to_str "a string"
let field_bool = field Json.to_bool "a boolean"

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
    if p > max_advise_p then
      Result.Error (Cyclesteal.Error.Budget_exhausted { states = p; budget = max_advise_p })
    else Ok (Protocol.Advise { c; u; p })
  | "schedule" ->
    let* c = field_float obj "c" 1.0 in
    let* u = field_float obj "u" 1000. in
    let* p = field_int obj "p" 1 in
    let* regime = field_string obj "regime" "adaptive" in
    let* () = validate_cup ~c ~u ~p in
    let n = schedule_periods ~c ~u ~p regime in
    if n > float_of_int max_periods then
      Result.Error
        (Cyclesteal.Error.Budget_exhausted
           { states = (if n < 1e18 then int_of_float n else max_int); budget = max_periods })
    else Ok (Protocol.Schedule { c; u; p; regime })
  | "evaluate" ->
    let* c = field_float obj "c" 1.0 in
    let* u = field_float obj "u" 1000. in
    let* p = field_int obj "p" 1 in
    let* policy = field_string obj "policy" "adaptive" in
    let* periods = field_float_list obj "periods" in
    let* () = validate_cup ~c ~u ~p in
    Ok (Protocol.Evaluate { c; u; p; policy; periods })
  | "dp" ->
    let* c_ticks = field_int obj "c_ticks" 10 in
    let* l = field_int obj "l" 2000 in
    let* p = field_int obj "p" 1 in
    if c_ticks < 1 then invalid "c_ticks must be >= 1"
    else if p < 0 then invalid "p must be non-negative"
    else if l < 0 then invalid "l must be non-negative"
    else if not (dp_table_fits ~p ~l) then
      invalid
        (Printf.sprintf "p = %d and l = %d need a dp table of more than %d cells"
           p l max_cells)
    else Ok (Protocol.Dp_query { c_ticks; l; p })
  | "strategies" -> Ok Protocol.Strategies
  | "stats" ->
    let* reset = field_bool obj "reset" false in
    Ok (Protocol.Stats { reset })
  | other -> unknown_op other

let parse_line line : Protocol.envelope =
  match Json.of_string line with
  | Error e -> { id = Json.Null; request = invalid e }
  | Ok (Json.Obj _ as obj) ->
    let id = Option.value ~default:Json.Null (Json.member "id" obj) in
    { id; request = decode_request obj }
  | Ok _ -> { id = Json.Null; request = invalid "request must be a JSON object" }
