(* Seeded request streams for the three workloads, and the oracle.

   A stream gives each connection a cyclic sequence of windows; a
   window is the lines one connection writes before it waits for their
   replies (closed loop).  Every line carries an id unique within the
   stream, so a cycle that repeats a line expects the same bytes back.
   Workloads keep their composition fixed and draw only the parameter
   values from the seed, so two seeds load the daemon alike. *)

open Service

type workload = Warm_mix | Cold_churn | Bank_restart

let workload_of_string = function
  | "warm_mix" -> Some Warm_mix
  | "cold_churn" -> Some Cold_churn
  | "bank_restart" -> Some Bank_restart
  | _ -> None

let workload_name = function
  | Warm_mix -> "warm_mix"
  | Cold_churn -> "cold_churn"
  | Bank_restart -> "bank_restart"

type line = {
  pos : int;  (** index into [stream.lines], unique over the stream *)
  text : string;  (** the request line, no newline *)
  request : Protocol.request;
}

type stream = {
  conns : line array array array;  (** connection -> window -> lines *)
  warmup : line array;  (** sent once, on one connection, before timing *)
  probe : line;  (** the set-up probe: first correct reply ends set-up *)
  lines : line array;  (** every line above, indexed by [pos] *)
  expected : string array;  (** oracle reply per [pos], no newline *)
  restart : bool;
      (** each pass over [conns] is one daemon restart from a pristine
          bank (bank_restart); otherwise one daemon serves the cycles *)
}

(* Bank contents for bank_restart: tables and memos the stream reads. *)
let bank_c_ticks = [ 4; 6; 8; 10; 12; 14; 16; 20 ]
let bank_dp_l = 8192
let bank_max_p = 4
let bank_costs = [ 2.; 5. ]
let bank_lifespans = [ 10_000.; 20_000. ]
let bank_policies = [ "adaptive"; "nonadaptive" ]
let bank_game_p = 2

let precompute_args ~dir =
  let floats xs = String.concat "," (List.map (Printf.sprintf "%g") xs) in
  [
    "precompute"; "--bank"; dir; "--c-ticks";
    String.concat "," (List.map string_of_int bank_c_ticks);
    "--dp-l"; string_of_int bank_dp_l; "--max-p"; string_of_int bank_max_p;
    "--costs"; floats bank_costs; "--lifespans"; floats bank_lifespans;
    "--policies"; String.concat "," bank_policies; "--game-p";
    string_of_int bank_game_p;
  ]

(* --- building blocks ----------------------------------------------------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))
let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The [i]-th of [n] stratified draws from [lo, hi): one uniform draw
   per equal slice, so every seed covers the band evenly and the mean
   cost of a set barely moves between seeds. *)
let strat rng i n lo hi =
  lo + int_of_float (float_of_int (hi - lo) *. (float_of_int i +. Random.State.float rng 1.) /. float_of_int n)

(* Cut a line sequence into windows of [w] lines. *)
let windows w a = Array.init (Array.length a / w) (fun i -> Array.sub a (i * w) w)

(* Lines per window on every workload.  A one-line ping-pong measures
   little but cross-domain wake-ups, which on a shared 2-vCPU host swing
   two-fold with the CPU time the hypervisor steals; windows of 16 keep
   the daemon busy and its work, not the wake-ups, on the clock. *)
let window = 16

let shuffled rng a =
  shuffle rng a;
  a

let evaluate ~c ~u ~p policy =
  Protocol.Evaluate { c; u; p; policy; periods = None }

let dp ~c ~l ~p = Protocol.Dp_query { c_ticks = c; l; p }

let advise rng =
  Protocol.Advise
    {
      c = float_of_int (range rng 1 60);
      u = float_of_int (1000 * range rng 1 100);
      p = range rng 1 6;
    }

(* Distinct tick costs drawn without replacement from [lo, lo + n * 3). *)
let distinct_ints rng ~lo n =
  let pool = Array.init (3 * n) (fun i -> lo + i) in
  shuffle rng pool;
  Array.sub pool 0 n

(* [n] evaluate identities (c, u): c cycles 1..8 and u / c is
   stratified over [300, 600).  Solve and replay cost grow steeply with
   u / c (and p), so the band keeps every identity about as costly. *)
let eval_ids rng n =
  shuffled rng
    (Array.init n (fun i ->
         let c = 1 + (i mod 8) in
         (float_of_int c, float_of_int (c * strat rng i n 300 600))))

(* --- workloads ----------------------------------------------------------- *)

(* warm_mix: a working set of 64 advise, 64 schedule, 64 dp queries over
   4 tables and 32 evaluates over 24 resident solvers (8 state-only
   adaptive identities, 8 nonadaptive ones at two budgets), which fits
   the default cache and is warmed before timing.  Each block of 8
   lines holds 2 of each op, shuffled. *)
let warm_mix rng ~conns =
  let n = 64 in
  let ws_advise = Array.init n (fun _ -> advise rng) in
  let regimes = [| "adaptive"; "nonadaptive"; "calibrated" |] in
  let ws_schedule =
    shuffled rng
      (Array.init n (fun i ->
           let c = strat rng i n 2 20 in
           Protocol.Schedule
             {
               c = float_of_int c;
               u = float_of_int (c * range rng 200 400);
               p = 1 + (i mod 4);
               regime = regimes.(i mod 3);
             }))
  in
  let dp_cs = distinct_ints rng ~lo:4 4 in
  let ws_dp =
    shuffled rng
      (Array.init n (fun i ->
           dp ~c:dp_cs.(i mod 4) ~l:(strat rng i n 1024 4096) ~p:(2 + (i mod 3))))
  in
  let ws_eval =
    Array.concat
      (List.map
         (fun policy ->
           Array.concat
             (Array.to_list
                (Array.map
                   (fun (c, u) -> [| evaluate ~c ~u ~p:1 policy; evaluate ~c ~u ~p:2 policy |])
                   (eval_ids rng 8))))
         [ "adaptive"; "nonadaptive" ])
  in
  let sets = [| ws_advise; ws_schedule; ws_dp; ws_eval |] in
  let per_conn = 4096 in
  let conn_stream () =
    Array.concat
      (List.init (per_conn / 8) (fun _ ->
           shuffled rng (Array.init 8 (fun k -> pick rng sets.(k mod 4)))))
    |> windows window
  in
  let streams = Array.init conns (fun _ -> conn_stream ()) in
  (Array.concat (Array.to_list sets), streams)

(* cold_churn: windows of 16 lines over identities that live for three
   consecutive windows.  Window w reads dp table D_w at l0, D_(w-1) at
   2 l0 and D_(w-2) at 4 l0 (so each table grows twice), evaluates the
   adaptive solver E_w at p = 1, then E_(w-1) and E_(w-2) at p = 2 (its
   state-only memo grows once) and a fresh nonadaptive identity N_w;
   every identity appears at least twice in a window and on every
   connection, so batch grouping and single-flight collapse the
   duplicates.  [rounds] identities of each kind (three times the
   default 32-entry LRU) cycle, so the LRU evicts each one before it
   returns. *)
let cold_churn rng ~conns =
  let rounds = 96 in
  let dp_cs = distinct_ints rng ~lo:3 rounds in
  let l0 = shuffled rng (Array.init rounds (fun r -> strat rng r rounds 1100 2000)) in
  let adaptive = eval_ids rng rounds in
  let nonadaptive = eval_ids rng rounds in
  let window w =
    let at k = (w - k + rounds) mod rounds in
    let d k scale p = dp ~c:dp_cs.(at k) ~l:(scale * l0.(at k)) ~p in
    let e k p =
      let c, u = adaptive.(at k) in
      evaluate ~c ~u ~p "adaptive"
    in
    let n () =
      let c, u = nonadaptive.(w) in
      evaluate ~c ~u ~p:2 "nonadaptive"
    in
    shuffled rng
      [|
        d 0 1 2; d 0 1 2; d 1 2 3; d 1 2 3; d 2 4 4; d 2 4 4;
        e 0 1; e 0 1; e 1 2; e 1 2; e 2 2; n (); n (); n ();
        advise rng; advise rng;
      |]
  in
  let streams = Array.init conns (fun _ -> Array.init rounds window) in
  ([||], streams)

(* bank_restart: one pass = one restart.  Per block of 20 lines: 12 dp
   reads inside the banked bounds, 4 dp queries beyond them, 4
   evaluates of banked game memos, the four beyond the bounds at fixed
   places in the block so every seed spaces them alike.  They take
   every banked table past 8192 and then past 16384, in that order, so
   each restart grows (and writes behind) each table twice, early in
   the pass.  Draws come from small fixed sets so the oracle solves
   each once. *)
let bank_restart rng ~conns =
  let cs = Array.of_list bank_c_ticks in
  let nc = Array.length cs in
  let reads =
    Array.init 96 (fun i ->
        dp ~c:cs.(i mod nc) ~l:(strat rng i 96 512 bank_dp_l) ~p:(1 + (i / nc mod bank_max_p)))
  in
  let grows =
    Array.init (2 * nc) (fun i ->
        let level = 1 + (i / nc) in
        dp ~c:cs.(i mod nc)
          ~l:(strat rng (i mod nc) nc ((level * bank_dp_l) + 1) ((level + 1) * bank_dp_l))
          ~p:(range rng 2 bank_max_p))
  in
  let evals =
    Array.of_list
      (List.concat_map
         (fun c ->
           List.concat_map
             (fun u ->
               List.map
                 (fun policy -> evaluate ~c ~u ~p:bank_game_p policy)
                 bank_policies)
             bank_lifespans)
         bank_costs)
  in
  let per_conn = 600 in
  let conn_stream () =
    Array.concat
      (List.init (per_conn / 20) (fun b ->
           let rest =
             shuffled rng (Array.init 16 (fun k -> if k < 12 then pick rng reads else pick rng evals))
           in
           Array.init 20 (fun k ->
               if k mod 5 = 2 then grows.((4 * b + (k / 5)) mod Array.length grows)
               else rest.(k - (k + 2) / 5))))
    |> windows window
  in
  ([||], Array.init conns (fun _ -> conn_stream ()))

(* --- the oracle ---------------------------------------------------------- *)

let request_line ~id req =
  Json.to_string (Protocol.request_to_json ~id:(Json.Int id) req)

(* Each line's expected reply: parse it as the daemon does and evaluate
   it with direct, cache-free [Protocol.handle], which the protocol
   documents as byte-identical to the daemon.  Distinct requests are
   evaluated once, across the domains available. *)
let oracle (lines : line array) =
  let distinct = Hashtbl.create 256 in
  let keys =
    Array.map
      (fun l ->
        let key = Json.to_string (Protocol.request_to_json l.request) in
        if not (Hashtbl.mem distinct key) then
          Hashtbl.add distinct key (Hashtbl.length distinct);
        Hashtbl.find distinct key)
      lines
  in
  let todo = Array.make (Hashtbl.length distinct) lines.(0) in
  Array.iteri (fun i l -> todo.(keys.(i)) <- l) lines;
  let results =
    Csutil.Par.map ~domains:(Csutil.Par.available_domains ())
      (fun l ->
        match (Protocol.parse_line l.text).Protocol.request with
        | Ok req -> Protocol.handle req
        | Error e -> Error e)
      todo
  in
  Array.mapi
    (fun i l ->
      let id = (Protocol.parse_line l.text).Protocol.id in
      Protocol.response_to_string ~id results.(keys.(i)))
    lines

let make workload ~seed ~conns =
  let rng = Random.State.make [| seed; Hashtbl.hash (workload_name workload) |] in
  let warmup, streams =
    match workload with
    | Warm_mix -> warm_mix rng ~conns
    | Cold_churn -> cold_churn rng ~conns
    | Bank_restart -> bank_restart rng ~conns
  in
  let all = ref [] in
  let next = ref 0 in
  let mk req =
    let pos = !next in
    incr next;
    let l = { pos; text = request_line ~id:(pos + 1) req; request = req } in
    all := l :: !all;
    l
  in
  let probe = mk (Protocol.Advise { c = 30.; u = 86_400.; p = 3 }) in
  let warmup = Array.map mk warmup in
  let conns = Array.map (Array.map (Array.map mk)) streams in
  let lines = Array.of_list (List.rev !all) in
  {
    conns;
    warmup;
    probe;
    lines;
    expected = oracle lines;
    restart = workload = Bank_restart;
  }
