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

(* --- decoding ----------------------------------------------------------- *)

let invalid msg = Result.Error (Error.Invalid_params msg)

let op_names = [ "advise"; "schedule"; "evaluate"; "dp"; "strategies"; "stats" ]

let unknown_op name =
  Result.Error (Error.Unknown_name { kind = "op"; name; known = op_names })

let validate_cup ~c ~u ~p =
  if c <= 0. then invalid "c must be positive"
  else if u <= 0. then invalid "U must be positive"
  else if p < 0 then invalid "p must be non-negative"
  else Ok ()

(* The schedule budget: a reply lists every period, and a list of
   billions exhausts the heap, which no handler survives.  A request is
   refused at parse time, [budget_exhausted], when its regime's
   closed-form period count passes 2^20: nonadaptive sqrt(pU/c) (Sec.
   3.1), opt-p1 sqrt(2U/c) (Sec. 5.2), adaptive its tail, pivot and ramp
   (Sec. 3.2) or else U/(3c/2) periods, calibrated every candidate it
   scores (a_(p-1) <= sqrt(2p)).  An unknown regime and a non-finite c
   pass, to fail by name. *)
let max_periods = 1 lsl 20

let check_schedule ~c ~u ~p regime =
  let r = u /. c and pf = float_of_int p in
  let a = 1. +. Float.sqrt (2. *. pf) in
  let n =
    match regime with
    | _ when not (Float.is_finite c) -> 0.
    | "opt-p1" -> Float.sqrt (2. *. r) +. 2.
    | _ when p = 0 -> 1.
    | "nonadaptive" -> Float.sqrt (pf *. r) +. 1.
    | "calibrated" ->
      (2. *. a *. (Float.sqrt (2. *. r) +. a)) +. (3. *. Float.sqrt (pf *. r)) +. pf +. 6.
    | "adaptive" ->
      let d = Adaptive.delta (Model.params ~c) ~p and pv = Adaptive.pivot (Model.params ~c) ~p in
      let ell = Float.floor ((2. *. pf +. 2.) /. 3.) in
      let ramp = u -. (1.5 *. c *. ell) -. pv in
      if ramp < d then (r /. 1.5) +. 1.
      else ell +. 1. +. Float.min (Float.sqrt (2. *. ramp /. d)) (ramp /. (pv +. d))
    | _ -> 0.
  in
  if n <= float_of_int max_periods then Ok ()
  else
    let states = if n < 1e18 then int_of_float n else max_int in
    Result.Error (Error.Budget_exhausted { states; budget = max_periods })

(* The advise budget: the calibrated target's coefficient a_p is a
   recursion of p steps (Adaptive.optimal_coefficient), so an advise
   whose p is past the schedule budget's 2^20 is refused at parse time,
   [budget_exhausted]; 2^20 steps take a few milliseconds. *)
let check_advise ~p =
  if p <= max_periods then Ok ()
  else Result.Error (Error.Budget_exhausted { states = p; budget = max_periods })

(* The request scanner (DESIGN.md §S36).  Every line that misses the
   answer cache is parsed, so the line is read in one pass over its
   top-level object, with one cursor record and no closures, into the
   fields a request can carry; a well-formed request builds no JSON
   tree except for the id, which is echoed back as it came.  Keys are
   matched in place.  Integers are read in place; a float with at most
   15 significant digits and a decimal exponent within ±22 is one exact
   IEEE multiply or divide (Clinger's fast path), so it reads the same
   double as [float_of_string]; any other number goes to
   [int_of_string_opt] / [float_of_string] on its bytes, as
   [Json.of_string] does.  Op,
   regime and policy names that spell a known name come back as that
   constant.  What the scanner does not decode (an id other than a
   number, escaped strings, unknown fields, values of the wrong kind,
   a line that is not an object) it hands to [Json]'s own grammar,
   which parses it and drops the value, so a line fails at the offset
   and with the message [Json.of_string] gives.

   The result is that of the test oracle [Protocol_ref.parse_line],
   which decodes [Json.of_string]'s tree: a syntax error anywhere wins
   over a field error; field errors come in the oracle's order (op,
   then the op's fields in turn, then the range checks); the first of
   repeated keys wins. *)

type field =
  | Id
  | Op
  | C
  | U
  | P
  | Regime
  | Policy
  | Periods
  | C_ticks
  | L
  | Reset
  | Other

let field_name = function
  | Id -> "id"
  | Op -> "op"
  | C -> "c"
  | U -> "u"
  | P -> "p"
  | Regime -> "regime"
  | Policy -> "policy"
  | Periods -> "periods"
  | C_ticks -> "c_ticks"
  | L -> "l"
  | Reset -> "reset"
  | Other -> ""

let bit = function
  | Id -> 0x1
  | Op -> 0x2
  | C -> 0x4
  | U -> 0x8
  | P -> 0x10
  | Regime -> 0x20
  | Policy -> 0x40
  | Periods -> 0x80
  | C_ticks -> 0x100
  | L -> 0x200
  | Reset -> 0x400
  | Other -> 0

let op_table = Array.of_list op_names

(* Regime and planner names, aliases included. *)
let registry_names =
  Array.of_list
    (Engine.Registry.regime_names ()
     @ List.concat_map
         (fun (pl : Engine.Planner.t) ->
            pl.Engine.Planner.name :: pl.Engine.Planner.aliases)
         (Engine.Registry.all ()))

type scan = {
  s : string;
  n : int;
  mutable pos : int;
  mutable seen : int;  (** fields whose first value has been read *)
  mutable bad : int;  (** fields whose first value has the wrong kind *)
  mutable items_bad : bool;  (** [periods] is an array, not all numbers *)
  mutable id : Json.t;
  mutable op : string;
  mutable regime : string;
  mutable policy : string;
  mutable p : int;
  mutable c_ticks : int;
  mutable l : int;
  mutable reset : bool;
  mutable periods : float list option;
  mutable is_int : bool;  (** the number just read is [int_v], not [num.(2)] *)
  mutable int_v : int;
  num : float array;  (** [c], [u], the number just read as a float *)
}

let fail sc msg = raise (Json.Syntax (sc.pos, msg))
let at sc ch = sc.pos < sc.n && String.unsafe_get sc.s sc.pos = ch

let rec skip_ws_from sc =
  if sc.pos < sc.n then
    match String.unsafe_get sc.s sc.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      sc.pos <- sc.pos + 1;
      skip_ws_from sc
    | _ -> ()

(* Inlined: most tokens follow the last one directly. *)
let skip_ws sc =
  if sc.pos < sc.n && String.unsafe_get sc.s sc.pos <= ' ' then skip_ws_from sc

(* Check the value at [sc.pos] and step over it: [Json]'s own grammar
   parses it, so an error has [Json.of_string]'s offset and message. *)
let skip sc = sc.pos <- snd (Json.value_at sc.s sc.pos)

let number_start sc =
  sc.pos < sc.n
  && match String.unsafe_get sc.s sc.pos with '-' | '0' .. '9' -> true | _ -> false

let is_digit s n i =
  i < n && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false

let digit s i = Char.code (String.unsafe_get s i) - 48

(* 10^0 .. 10^22, every one exact in a double. *)
let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* Read the number at [sc.pos] (its first byte is '-' or a digit) into
   [is_int] / [int_v] / [num.(2)], as [Json.of_string] would: an
   integer when there is no fraction or exponent and the value fits,
   else a float.  [m] keeps the first 18 significant digits,
   [sig_digits] counts them all and [e10] is the decimal exponent of
   [m]'s last digit, so the value is m * 10^e10 when sig_digits <= 18. *)
let number sc =
  let s = sc.s and n = sc.n and start = sc.pos in
  let neg = String.unsafe_get s start = '-' in
  let i = ref (if neg then start + 1 else start) in
  let m = ref 0 and sig_digits = ref 0 and e10 = ref 0 in
  let d0 = !i in
  while is_digit s n !i do
    let d = digit s !i in
    if !sig_digits > 0 || d > 0 then begin
      if !sig_digits < 18 then m := (!m * 10) + d;
      incr sig_digits
    end;
    incr i
  done;
  if !i = d0 then raise (Json.Syntax (!i, "expected digit"));
  let is_float = ref false in
  if !i < n && String.unsafe_get s !i = '.' then begin
    is_float := true;
    incr i;
    let f0 = !i in
    while is_digit s n !i do
      let d = digit s !i in
      if !sig_digits > 0 || d > 0 then begin
        if !sig_digits < 18 then m := (!m * 10) + d;
        incr sig_digits
      end;
      decr e10;
      incr i
    done;
    if !i = f0 then raise (Json.Syntax (!i, "expected digit"))
  end;
  if !i < n && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
  then begin
    is_float := true;
    incr i;
    let eneg = !i < n && String.unsafe_get s !i = '-' in
    if !i < n && (String.unsafe_get s !i = '-' || String.unsafe_get s !i = '+')
    then incr i;
    let x0 = !i and x = ref 0 in
    while is_digit s n !i do
      if !x < 100_000 then x := (!x * 10) + digit s !i;
      incr i
    done;
    if !i = x0 then raise (Json.Syntax (!i, "expected digit"));
    e10 := if eneg then !e10 - !x else !e10 + !x
  end;
  sc.pos <- !i;
  let m = !m and e10 = !e10 in
  if not !is_float && !sig_digits <= 18 then begin
    sc.is_int <- true;
    sc.int_v <- (if neg then -m else m)
  end
  else if not !is_float then begin
    let text = String.sub s start (!i - start) in
    match int_of_string_opt text with
    | Some v ->
      sc.is_int <- true;
      sc.int_v <- v
    | None ->
      sc.is_int <- false;
      sc.num.(2) <- float_of_string text
  end
  else begin
    sc.is_int <- false;
    sc.num.(2) <-
      (if !sig_digits <= 15 && e10 >= -22 && e10 <= 22 then begin
         let x =
           if e10 >= 0 then float_of_int m *. exact_pow10.(e10)
           else float_of_int m /. exact_pow10.(-e10)
         in
         if neg then -.x else x
       end
       else float_of_string (String.sub s start (!i - start)))
  end

(* The offset of the closing quote of the escape-free string whose
   bytes start at [i], else -1. *)
let rec plain_end s n i =
  if i >= n then -1
  else
    match String.unsafe_get s i with
    | '"' -> i
    | '\\' -> -1
    | _ -> plain_end s n (i + 1)

(* Whether the [len] bytes of [s] at [i] are [name]'s, from the [k]-th. *)
let rec same s i len name k =
  k = len
  || String.unsafe_get s (i + k) = String.unsafe_get name k
     && same s i len name (k + 1)

(* The field the [len] bytes of [s] at [i] name: [field_name]
   inverted, dispatching on the length first. *)
let field_of s i len =
  match len with
  | 1 ->
    (match String.unsafe_get s i with
     | 'c' -> C
     | 'u' -> U
     | 'p' -> P
     | 'l' -> L
     | _ -> Other)
  | 2 -> if same s i 2 "id" 0 then Id else if same s i 2 "op" 0 then Op else Other
  | 5 -> if same s i 5 "reset" 0 then Reset else Other
  | 6 ->
    if same s i 6 "regime" 0 then Regime
    else if same s i 6 "policy" 0 then Policy
    else Other
  | 7 ->
    if same s i 7 "periods" 0 then Periods
    else if same s i 7 "c_ticks" 0 then C_ticks
    else Other
  | _ -> Other

(* The index in [names] of the [len] bytes of [s] at [i], else -1. *)
let rec find_name names s i len k =
  if k = Array.length names then -1
  else
    let name = Array.unsafe_get names k in
    if String.length name = len && same s i len name 0 then k
    else find_name names s i len (k + 1)

(* The string at [sc.pos]: the constant of [known] it spells, if any. *)
let string_value sc known =
  let start = sc.pos + 1 in
  let e = plain_end sc.s sc.n start in
  if e >= 0 then begin
    sc.pos <- e + 1;
    let k = find_name known sc.s start (e - start) 0 in
    if k >= 0 then known.(k) else String.sub sc.s start (e - start)
  end
  else begin
    let v, next = Json.string_at sc.s sc.pos in
    sc.pos <- next;
    v
  end

let key sc =
  if not (at sc '"') then fail sc "expected '\"'";
  let start = sc.pos + 1 in
  let e = plain_end sc.s sc.n start in
  if e >= 0 then begin
    sc.pos <- e + 1;
    field_of sc.s start (e - start)
  end
  else begin
    let name, next = Json.string_at sc.s sc.pos in
    sc.pos <- next;
    field_of name 0 (String.length name)
  end

let wrong_kind sc f =
  sc.bad <- sc.bad lor bit f;
  skip sc

let literal sc word =
  let m = String.length word in
  sc.pos + m <= sc.n
  && same sc.s sc.pos m word 0
  &&
  (sc.pos <- sc.pos + m;
   true)

(* [Json.to_int] of the number just read, or -1 with [f] marked. *)
let num_int sc f =
  if sc.is_int then sc.int_v
  else begin
    let x = sc.num.(2) in
    if Float.is_integer x && Float.abs x < 1e15 then int_of_float x
    else begin
      sc.bad <- sc.bad lor bit f;
      -1
    end
  end

let rec items sc acc =
  skip_ws sc;
  let acc =
    if number_start sc then begin
      number sc;
      (if sc.is_int then float_of_int sc.int_v else sc.num.(2)) :: acc
    end
    else begin
      sc.items_bad <- true;
      skip sc;
      acc
    end
  in
  skip_ws sc;
  if at sc ',' then begin
    sc.pos <- sc.pos + 1;
    items sc acc
  end
  else if at sc ']' then begin
    sc.pos <- sc.pos + 1;
    List.rev acc
  end
  else fail sc "expected ',' or ']'"

(* The first value of field [f], from [sc.pos]. *)
let read sc f =
  match f with
  | Id ->
    if number_start sc then begin
      number sc;
      sc.id <- (if sc.is_int then Json.Int sc.int_v else Json.Float sc.num.(2))
    end
    else begin
      let v, next = Json.value_at sc.s sc.pos in
      sc.pos <- next;
      sc.id <- v
    end
  | Op | Regime | Policy ->
    if not (at sc '"') then wrong_kind sc f
    else if f = Op then sc.op <- string_value sc op_table
    else if f = Regime then sc.regime <- string_value sc registry_names
    else sc.policy <- string_value sc registry_names
  | C | U ->
    if not (number_start sc) then wrong_kind sc f
    else begin
      number sc;
      sc.num.(if f = C then 0 else 1) <-
        (if sc.is_int then float_of_int sc.int_v else sc.num.(2))
    end
  | P | C_ticks | L ->
    if not (number_start sc) then wrong_kind sc f
    else begin
      number sc;
      let v = num_int sc f in
      if f = P then sc.p <- v else if f = C_ticks then sc.c_ticks <- v else sc.l <- v
    end
  | Periods ->
    if not (at sc '[') then wrong_kind sc f
    else begin
      sc.pos <- sc.pos + 1;
      skip_ws sc;
      let xs =
        if at sc ']' then begin
          sc.pos <- sc.pos + 1;
          []
        end
        else items sc []
      in
      if sc.items_bad then sc.bad <- sc.bad lor bit Periods
      else sc.periods <- Some xs
    end
  | Reset ->
    if literal sc "true" then sc.reset <- true
    else if literal sc "false" then sc.reset <- false
    else wrong_kind sc f
  | Other -> skip sc

let rec members sc =
  skip_ws sc;
  let f = key sc in
  skip_ws sc;
  if not (at sc ':') then fail sc "expected ':'";
  sc.pos <- sc.pos + 1;
  skip_ws sc;
  if sc.seen land bit f <> 0 || f = Other then skip sc
  else begin
    sc.seen <- sc.seen lor bit f;
    read sc f
  end;
  skip_ws sc;
  if at sc ',' then begin
    sc.pos <- sc.pos + 1;
    members sc
  end
  else if at sc '}' then sc.pos <- sc.pos + 1
  else fail sc "expected ',' or '}'"

(* Walk the whole line; whether it is an object. *)
let scan sc =
  skip_ws sc;
  let obj = at sc '{' in
  if obj then begin
    sc.pos <- sc.pos + 1;
    skip_ws sc;
    if at sc '}' then sc.pos <- sc.pos + 1 else members sc
  end
  else skip sc;
  skip_ws sc;
  if sc.pos <> sc.n then fail sc "trailing garbage after JSON value";
  obj

let field_error sc f =
  let what =
    match f with
    | C | U -> "be a number"
    | P | C_ticks | L -> "be an integer"
    | Reset -> "be a boolean"
    | Periods -> if sc.items_bad then "contain only numbers" else "be an array"
    | Id | Op | Regime | Policy | Other -> "be a string"
  in
  invalid (Printf.sprintf "field %S must %s" (field_name f) what)

(* [Ok ()] unless one of [fs] had a value of the wrong kind: then the
   first such field's error. *)
let rec check sc = function
  | [] -> Ok ()
  | f :: fs -> if sc.bad land bit f <> 0 then field_error sc f else check sc fs

(* [check], then the range checks on c, u and p. *)
let check_cup sc fs =
  match check sc fs with
  | Ok () -> validate_cup ~c:sc.num.(0) ~u:sc.num.(1) ~p:sc.p
  | Error _ as e -> e

let decode sc =
  let c = sc.num.(0) and u = sc.num.(1) and p = sc.p in
  if sc.seen land bit Op = 0 then invalid "missing field \"op\""
  else if sc.bad land bit Op <> 0 then field_error sc Op
  else
    match sc.op with
    | "advise" ->
      (match check_cup sc [ C; U; P ] with
       | Ok () -> Result.map (fun () -> Advise { c; u; p }) (check_advise ~p)
       | Error e -> Error e)
    | "schedule" ->
      (match check_cup sc [ C; U; P; Regime ] with
       | Ok () ->
         Result.map
           (fun () -> Schedule { c; u; p; regime = sc.regime })
           (check_schedule ~c ~u ~p sc.regime)
       | Error e -> Error e)
    | "evaluate" ->
      (match check_cup sc [ C; U; P; Policy; Periods ] with
       | Ok () ->
         Ok (Evaluate { c; u; p; policy = sc.policy; periods = sc.periods })
       | Error e -> Error e)
    | "dp" ->
      (match check sc [ C_ticks; L; P ] with
       | Error e -> Error e
       | Ok () ->
         let c_ticks = sc.c_ticks and l = sc.l in
         if c_ticks < 1 then invalid "c_ticks must be >= 1"
         else if p < 0 then invalid "p must be non-negative"
         else if l < 0 then invalid "l must be non-negative"
         else
           (* A table past the cell budget would wedge or exhaust the
              daemon: refuse it here, with [Cache.canonical]'s error. *)
           match Cache.canonical ~c:c_ticks ~p ~l with
           | _ -> Ok (Dp_query { c_ticks; l; p })
           | exception Error.Error e -> Error e)
    | "strategies" -> Ok Strategies
    | "stats" ->
      (match check sc [ Reset ] with
       | Ok () -> Ok (Stats { reset = sc.reset })
       | Error e -> Error e)
    | other -> unknown_op other

let scanner line pos =
  {
    s = line;
    n = String.length line;
    pos;
    seen = 0;
    bad = 0;
    items_bad = false;
    id = Json.Null;
    op = "";
    regime = "adaptive";
    policy = "adaptive";
    p = 1;
    c_ticks = 10;
    l = 2000;
    reset = false;
    periods = None;
    is_int = true;
    int_v = 0;
    num = [| 1.0; 1000.; 0. |];
  }

let parse_line line =
  let sc = scanner line 0 in
  match scan sc with
  | true -> { id = sc.id; request = decode sc }
  | false -> { id = Json.Null; request = invalid "request must be a JSON object" }
  | exception Json.Syntax (at, msg) ->
    { id = Json.Null; request = invalid (Json.syntax_message at msg) }

(* The id of a line that opens with [{"id":] and the offset of the bytes
   after the comma that ends the id's member.  The id is read by [read],
   as [parse_line] reads a first member, so a line that parses [Ok]
   carries this id and the request the bytes after the comma decode
   to: nothing in a request depends on its id, and later [id] members
   are skipped.  [None] when the prefix, the id or the comma is
   missing. *)
let split_id line =
  if not (String.starts_with ~prefix:{|{"id":|} line) then None
  else begin
    (* The common id first: at most 18 digits, a sign allowed, then the
       comma, read without a scanner.  [number] reads those digits as
       this integer, leading zeros and "-0" included. *)
    let n = String.length line in
    let neg = n > 6 && String.unsafe_get line 6 = '-' in
    let start = if neg then 7 else 6 in
    let i = ref start and v = ref 0 in
    while !i < n && !i - start <= 18 && is_digit line n !i do
      v := (!v * 10) + digit line !i;
      incr i
    done;
    let digits = !i - start in
    if digits >= 1 && digits <= 18 && !i < n && String.unsafe_get line !i = ','
    then Some (Json.Int (if neg then - !v else !v), !i + 1)
    else begin
      let sc = scanner line 6 in
      match
        skip_ws sc;
        read sc Id;
        skip_ws sc;
        at sc ','
      with
      | true -> Some (sc.id, sc.pos + 1)
      | false -> None
      | exception Json.Syntax _ -> None
    end
  end

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

(* The cache-state identity a request's evaluation takes a lock for,
   and the one key that says which requests share state: the batch
   engine groups by it and the router places by it.  Dp queries share
   a table per [c]; named-policy evaluations share a resident solver
   per (c, u, planner name) plus p unless the planner is state_only —
   the mirror of [Cache]'s solver key, so policy aliases
   ("fixed-chunk", "fixed_chunk") share one group as they share one
   solver.  Floats print with %h (exact hex), so no two distinct
   parameters collide by formatting.  [None] for everything else —
   pure compute, custom-periods evaluations (fresh solver per
   request), unknown policies (they error per-request), strategies and
   stats — which the batch engine evaluates as singletons and the
   router places on shard 0 (custom periods by a hash of their
   parameters). *)
let cache_group = function
  | Dp_query { c_ticks; _ } -> Some (Printf.sprintf "dp:%d" c_ticks)
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
