(* Tests for the schedule-advice service: JSON round-trips, protocol
   parsing, the LRU table cache, the batch engine, the router's
   placement and failure recovery, and the serving loop end to end.
   The load-bearing property throughout: a daemon response is
   byte-identical to a direct library call serialized through the same
   protocol — whatever the concurrency, shard count or cache tier. *)

open Service

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Json ----------------------------------------------------------------- *)

let test_json_print () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Float 1.5; Json.Bool true; Json.Null ]);
        ("s", Json.String "x\"y\nz");
      ]
  in
  Alcotest.(check string) "compact print"
    {|{"a":1,"b":[1.5,true,null],"s":"x\"y\nz"}|} (Json.to_string v)

let test_json_parse () =
  (match Json.of_string {| {"a": [1, 2.5, "x"], "b": {"c": null}} |} with
   | Ok v ->
     Alcotest.(check bool) "a member" true
       (Json.member "a" v
        = Some (Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]));
     Alcotest.(check bool) "nested" true
       (Option.bind (Json.member "b" v) (Json.member "c") = Some Json.Null)
   | Error e -> Alcotest.fail e);
  (match Json.of_string {|"Aé\t"|} with
   | Ok (Json.String s) -> Alcotest.(check string) "unicode escape" "A\xc3\xa9\t" s
   | _ -> Alcotest.fail "unicode escape did not parse")

let test_json_parse_errors () =
  List.iter
    (fun bad ->
       match Json.of_string bad with
       | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
       | Error e ->
         Alcotest.(check bool) "offset in message" true
           (contains ~sub:"offset" e))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{'a':1}" ]

(* Exact offsets and messages, one per error path of the parser. *)
let test_json_parse_error_messages () =
  List.iter
    (fun (bad, want) ->
       match Json.of_string bad with
       | Ok _ -> Alcotest.failf "accepted %S" bad
       | Error e -> Alcotest.(check string) (Printf.sprintf "%S" bad) want e)
    [
      ("", "JSON parse error at offset 0: unexpected end of input");
      ("{", "JSON parse error at offset 1: expected '\"'");
      ("[1,]", "JSON parse error at offset 3: unexpected character ']'");
      ("{\"a\":}", "JSON parse error at offset 5: unexpected character '}'");
      ("nul", "JSON parse error at offset 0: expected null");
      ("tru", "JSON parse error at offset 0: expected true");
      ("1 2", "JSON parse error at offset 2: trailing garbage after JSON value");
      ("\"unterminated", "JSON parse error at offset 13: unterminated string");
      ("\"a\\", "JSON parse error at offset 3: unterminated escape");
      ("\"\\u12", "JSON parse error at offset 3: truncated \\u escape");
      ( "\"\\uzz00\"",
        "JSON parse error at offset 3: bad hex digit in \\u escape" );
      ("\"\\q\"", "JSON parse error at offset 3: unknown escape");
      ("-", "JSON parse error at offset 1: expected digit");
      ("1.", "JSON parse error at offset 2: expected digit");
      ("1e+", "JSON parse error at offset 3: expected digit");
      ("{\"a\" 1}", "JSON parse error at offset 5: expected ':'");
      ("[1 2]", "JSON parse error at offset 3: expected ',' or ']'");
      ("{\"a\":1,}", "JSON parse error at offset 7: expected '\"'");
      ("@", "JSON parse error at offset 0: unexpected character '@'");
    ]

(* A request line is parsed on every answer-cache hit, so parsing one
   must stay cheap: this dp line took about 460 minor words through a
   parser that closed a dozen functions over its input. *)
let test_json_parse_allocation () =
  let line = {|{"id":301,"op":"dp","c_ticks":14,"l":2732,"p":4}|} in
  ignore (Protocol.parse_line line);
  let before = Gc.minor_words () in
  let e = Protocol.parse_line line in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "parsed" true (Result.is_ok e.Protocol.request);
  if words >= 200. then
    Alcotest.failf "parsing a dp line allocated %.0f minor words" words

let test_json_float_round_trip () =
  List.iter
    (fun x ->
       let s = Json.to_string (Json.Float x) in
       match Json.of_string s with
       | Ok v ->
         (match Json.to_float v with
          | Some y ->
            Alcotest.(check bool) (Printf.sprintf "%.17g round-trips" x) true
              (x = y)
          | None -> Alcotest.fail "not a number")
       | Error e -> Alcotest.fail e)
    [ 0.; 1.5; -3.25; 1. /. 3.; 86399.999999999996; 1e-300; 1.7e308; 0.1 ]

(* Random JSON values for the printer/parser round-trip property. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) (int_range (-1000000) 1000000);
        map (fun x -> Json.Float x) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (0 -- 4) (value (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (0 -- 4)
                 (pair (string_size ~gen:printable (1 -- 6)) (value (depth - 1))))
          );
        ]
  in
  value 3

let prop_json_round_trip =
  QCheck.Test.make ~name:"Json.to_string round-trips through of_string"
    ~count:300
    (QCheck.make json_gen ~print:(fun v -> Json.to_string v))
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

(* The printer must be byte-identical to the reference printer —
   the daemon's whole byte-identity story rests on it. *)
let prop_json_ref_printer =
  QCheck.Test.make ~name:"Json.to_string matches the reference printer"
    ~count:300
    (QCheck.make json_gen ~print:(fun v -> Oracle.Json_ref.to_string v))
    (fun v -> String.equal (Json.to_string v) (Oracle.Json_ref.to_string v))

let prop_float_repr_matches_ref =
  QCheck.Test.make ~name:"fast float rendering matches the reference"
    ~count:2000 QCheck.float (fun x ->
      String.equal
        (Json.to_string (Json.Float x))
        (Oracle.Json_ref.to_string (Json.Float x)))

let test_json_float_repr_edges () =
  List.iter
    (fun x ->
       Alcotest.(check string)
         (Printf.sprintf "repr of %h matches reference" x)
         (Oracle.Json_ref.to_string (Json.Float x))
         (Json.to_string (Json.Float x)))
    [
      0.; -0.; 1.; -1.; 0.1; 0.5; 1. /. 3.; 86399.999999999996;
      494.63261480389338; 999999999999.; 1e12; 1e12 -. 1.; -1e12; 1e13;
      4294967296.; 1e-300; 4.9e-324; 2.2250738585072014e-308; 1.7e308;
      max_float; nan; infinity; neg_infinity; 1.5; -3.25; 6.02214076e23;
    ]

(* Every case below is checked, with its negative, against the
   [Printf] chain of [Oracle.Json_ref]. *)
let check_floats_against_ref what xs =
  List.iter
    (fun x ->
       List.iter
         (fun x ->
            let want = Oracle.Json_ref.to_string (Json.Float x) in
            let got = Json.to_string (Json.Float x) in
            if not (String.equal got want) then
              Alcotest.failf "%s: %h printed %s, reference %s" what x got want)
         [ x; -.x ])
    xs

let with_neighbours xs =
  List.concat_map (fun x -> [ Float.pred x; x; Float.succ x ]) xs

let test_json_float_powers_of_two () =
  check_floats_against_ref "2^k and neighbours"
    (with_neighbours (List.init 2098 (fun i -> Float.ldexp 1. (i - 1074))))

let test_json_float_range_edges () =
  let steps x n =
    List.init n (fun i ->
        let rec walk y k = if k = 0 then y else walk (Float.succ y) (k - 1) in
        walk (Float.pred (Float.pred x)) i)
  in
  check_floats_against_ref "exact-range edges"
    (steps 1e-6 5 @ steps 0x1p53 5 @ steps 1e-5 5 @ steps 1e15 5
     @ with_neighbours [ 0x1p52; 1e16; 1e12; 1e-4 ])

(* Dyadic values m / 2^j (m odd) whose decimal expansion ends at
   significant digit [n] with a 5: the 13th, 16th and 18th digits are
   the exact ties of the %.12g, %.15g and %.17g roundings. *)
let tie_values n =
  List.concat_map
    (fun j ->
       let p5 = 5. ** float_of_int j in
       let lo = Float.max 1. (Float.ceil ((10. ** float_of_int (n - 1)) /. p5))
       and hi = Float.min 0x1p53 ((10. ** float_of_int n) /. p5) in
       if lo >= hi then []
       else
         List.filter_map
           (fun i ->
              let m = int_of_float (lo +. ((hi -. lo) *. i)) lor 1 in
              let m = Float.of_int m in
              if m < lo || m >= hi then None else Some (Float.ldexp m (-j)))
           [ 0.; 0.13; 0.5; 0.77; 0.999 ])
    (List.init 60 (fun j -> j + 1))

let test_json_float_ties () =
  List.iter
    (fun n ->
       let xs = tie_values n in
       Alcotest.(check bool) (Printf.sprintf "digit-%d ties exist" n) true
         (List.length xs > 20);
       List.iter
         (fun x ->
            (* Exactly [n] significant digits, the last one a 5. *)
            let s = Printf.sprintf "%.*e" (n - 1) x in
            let mantissa = String.sub s 0 (String.index s 'e') in
            let tie = String.ends_with ~suffix:"5" mantissa in
            if not (float_of_string s = x && tie) then
              Alcotest.failf "%h is not a digit-%d tie (%s)" x n s)
         xs;
       check_floats_against_ref (Printf.sprintf "digit-%d ties" n) xs)
    [ 13; 16; 18 ]

let prop_float_range_matches_ref =
  QCheck.Test.make ~name:"floats in [1e-6, 1e6] match the reference"
    ~count:10_000 (QCheck.float_range 1e-6 1e6) (fun x ->
      String.equal
        (Json.to_string (Json.Float x))
        (Oracle.Json_ref.to_string (Json.Float x)))

let prop_float_bits_match_ref =
  QCheck.Test.make ~name:"raw float bit patterns match the reference"
    ~count:10_000 QCheck.int64 (fun bits ->
      let x = Int64.float_of_bits bits in
      String.equal
        (Json.to_string (Json.Float x))
        (Oracle.Json_ref.to_string (Json.Float x)))

(* Every byte value, in a key and in a string, escapes as the reference
   printer escapes it: the fast path's clean-run blit and its escape
   table against the oracle's own. *)
let test_json_escape_bytes () =
  let s = String.init 256 Char.chr in
  let v = Json.Obj [ (s, Json.String s); ("k", Json.String (String.sub s 0 40)) ] in
  Alcotest.(check string) "every byte as the reference"
    (Oracle.Json_ref.to_string v) (Json.to_string v)

let test_json_int_extremes () =
  List.iter
    (fun n ->
       Alcotest.(check string) (string_of_int n) (string_of_int n)
         (Json.to_string (Json.Int n)))
    [ min_int; max_int; 0; -1; 1; 9; 10; -10; min_int + 1; max_int - 1 ]

(* A schedule-sized reply (48 floats, 60 ints) renders as the
   reference.  Integers, which every reply's id uses, are written
   without a string each: the 60 rendered into a buffer already large
   enough allocate fewer minor words than there are numbers. *)
let test_json_render_allocation () =
  let floats =
    List.init 48 (fun i -> Json.Float (86400. /. float_of_int (i + 7)))
  in
  let ints = Json.List (List.init 60 (fun i -> Json.Int ((i * 7919) - 200_000))) in
  let v = Json.Obj [ ("periods", Json.List floats); ("ticks", ints) ] in
  Alcotest.(check string) "rendered as the reference" (Oracle.Json_ref.to_string v)
    (Json.to_string v);
  let buf = Buffer.create 4096 in
  Json.add_to_buffer buf ints;
  Buffer.clear buf;
  let before = Gc.minor_words () in
  Json.add_to_buffer buf ints;
  let words = Gc.minor_words () -. before in
  Alcotest.(check string) "ints rendered as the reference"
    (Oracle.Json_ref.to_string ints) (Buffer.contents buf);
  if words >= 60. then
    Alcotest.failf "render allocated %.0f minor words for 60 ints" words

(* --- Protocol ------------------------------------------------------------- *)

let roundtrip req =
  let line = Json.to_string (Protocol.request_to_json ~id:(Json.Int 7) req) in
  let e = Protocol.parse_line line in
  Alcotest.(check bool) ("id echoed for " ^ line) true (e.Protocol.id = Json.Int 7);
  match e.Protocol.request with
  | Ok req' -> Alcotest.(check bool) ("round-trip " ^ line) true (req = req')
  | Error err -> Alcotest.fail (Cyclesteal.Error.to_string err)

let test_protocol_round_trip () =
  roundtrip (Protocol.Advise { c = 30.; u = 86400.; p = 3 });
  roundtrip (Protocol.Schedule { c = 1.; u = 1000.; p = 2; regime = "calibrated" });
  roundtrip
    (Protocol.Evaluate
       { c = 1.; u = 20.; p = 1; policy = "adaptive"; periods = Some [ 8.; 7.; 5. ] });
  roundtrip
    (Protocol.Evaluate
       { c = 2.; u = 500.; p = 2; policy = "geometric"; periods = None });
  roundtrip (Protocol.Dp_query { c_ticks = 10; l = 2000; p = 3 });
  roundtrip Protocol.Strategies;
  roundtrip (Protocol.Stats { reset = false });
  roundtrip (Protocol.Stats { reset = true })

let expect_error line needle =
  let e = Protocol.parse_line line in
  match e.Protocol.request with
  | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" line)
  | Error err ->
    let msg = Cyclesteal.Error.to_string err in
    Alcotest.(check bool)
      (Printf.sprintf "%s rejected with %S (got %S)" line needle msg)
      true (contains ~sub:needle msg)

let test_protocol_errors () =
  expect_error "not json at all" "JSON parse error";
  expect_error "[1,2,3]" "must be a JSON object";
  expect_error {|{"id":1}|} "missing field \"op\"";
  expect_error {|{"op":"frobnicate"}|} "unknown op";
  expect_error {|{"op":"advise","c":-1}|} "c must be positive";
  expect_error {|{"op":"advise","u":0}|} "U must be positive";
  expect_error {|{"op":"advise","p":-2}|} "p must be non-negative";
  expect_error {|{"op":"advise","c":"ten"}|} "must be a number";
  expect_error {|{"op":"dp","c_ticks":0}|} "c_ticks must be >= 1";
  expect_error {|{"op":"evaluate","periods":[1,"x"]}|} "only numbers";
  (* The id is still echoed from a request whose body fails validation. *)
  let e = Protocol.parse_line {|{"id":"q-1","op":"advise","c":-1}|} in
  Alcotest.(check bool) "id survives invalid body" true
    (e.Protocol.id = Json.String "q-1")

let test_protocol_handle_errors () =
  let msg_of err = Cyclesteal.Error.to_string err in
  (match Protocol.handle (Protocol.Schedule { c = 1.; u = 10.; p = 1; regime = "bogus" }) with
   | Error err ->
     Alcotest.(check bool) "unknown regime" true
       (contains ~sub:"unknown regime" (msg_of err))
   | Ok _ -> Alcotest.fail "bogus regime accepted");
  (match
     Protocol.handle
       (Protocol.Evaluate
          { c = 1.; u = 10.; p = 1; policy = "bogus"; periods = None })
   with
   | Error err ->
     Alcotest.(check bool) "unknown policy" true
       (contains ~sub:"unknown policy" (msg_of err))
   | Ok _ -> Alcotest.fail "bogus policy accepted");
  (match
     Protocol.handle
       (Protocol.Evaluate
          { c = 1.; u = 10.; p = 1; policy = "adaptive"; periods = Some [ 3.; 3. ] })
   with
   | Error err ->
     Alcotest.(check bool) "periods sum" true
       (contains ~sub:"periods sum" (msg_of err))
   | Ok _ -> Alcotest.fail "mismatched periods accepted");
  match Protocol.handle (Protocol.Stats { reset = false }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats answered outside the daemon"

let test_protocol_strategies () =
  match Protocol.handle Protocol.Strategies with
  | Error err -> Alcotest.fail (Cyclesteal.Error.to_string err)
  | Ok payload ->
    let s = Json.to_string payload in
    List.iter
      (fun name ->
         Alcotest.(check bool)
           (Printf.sprintf "lists %S" name)
           true
           (contains ~sub:(Printf.sprintf {|"%s"|} name) s))
      [ "naive"; "fixed_chunk"; "geometric"; "guideline"; "dp_exact"; "adaptive" ];
    (* Regimes ride along so schedule clients can discover them too. *)
    Alcotest.(check bool) "lists regimes" true (contains ~sub:"opt-p1" s)

(* --- Cache ---------------------------------------------------------------- *)

let test_cache_canonicalization () =
  let k1 = Cache.canonical ~c:10 ~p:3 ~l:1900 in
  let k2 = Cache.canonical ~c:10 ~p:4 ~l:2048 in
  Alcotest.(check bool) "nearby queries share a key" true (k1 = k2);
  let k3 = Cache.canonical ~c:11 ~p:3 ~l:1900 in
  Alcotest.(check bool) "c is kept exact" true (k1 <> k3);
  let small = Cache.canonical ~c:1 ~p:0 ~l:10 in
  Alcotest.(check int) "l floor" Cache.min_l (small.Cache.max_l);
  Alcotest.(check int) "p floor" Cache.min_p (small.Cache.max_p)

let test_cache_sharing_and_correctness () =
  let cache = Cache.create ~capacity:4 () in
  let a = Cache.find_or_solve cache ~c:10 ~p:2 ~l:300 in
  let b = Cache.find_or_solve cache ~c:10 ~p:1 ~l:290 in
  Alcotest.(check bool) "one physical table" true (a == b);
  (* Values read from the shared canonical table equal a direct solve at
     the query's own bounds. *)
  List.iter
    (fun (p, l) ->
       let direct = Cyclesteal.Dp.solve ~c:10 ~max_p:p ~max_l:l in
       Alcotest.(check int)
         (Printf.sprintf "value at p=%d l=%d" p l)
         (Cyclesteal.Dp.value direct ~p ~l)
         (Cyclesteal.Dp.value a ~p ~l);
       Alcotest.(check (list int))
         (Printf.sprintf "episode at p=%d l=%d" p l)
         (Cyclesteal.Dp.optimal_episode direct ~p ~l)
         (Cyclesteal.Dp.optimal_episode a ~p ~l))
    [ (2, 300); (1, 290); (0, 77) ];
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one resident table" 1 s.Cache.resident;
  Alcotest.(check bool) "footprint accounted" true (s.Cache.resident_bytes > 0)

let test_cache_growth () =
  (* A query past the resident table's bounds grows it in place: same
     physical table, one growth, no new resident entry -- and the grown
     region agrees with a fresh solve. *)
  let cache = Cache.create ~capacity:4 () in
  let a = Cache.find_or_solve cache ~c:10 ~p:2 ~l:300 in
  let b = Cache.find_or_solve cache ~c:10 ~p:5 ~l:700 in
  Alcotest.(check bool) "growth keeps the table" true (a == b);
  let s = Cache.stats cache in
  Alcotest.(check int) "one growth" 1 s.Cache.growths;
  Alcotest.(check int) "still one resident table" 1 s.Cache.resident;
  let direct = Cyclesteal.Dp.solve ~c:10 ~max_p:5 ~max_l:700 in
  List.iter
    (fun (p, l) ->
       Alcotest.(check int)
         (Printf.sprintf "grown value at p=%d l=%d" p l)
         (Cyclesteal.Dp.value direct ~p ~l)
         (Cyclesteal.Dp.value b ~p ~l))
    [ (0, 77); (2, 300); (3, 450); (5, 700) ]

let test_cache_lru_eviction () =
  (* Identity is the tick cost c alone (bounds only grow a resident
     table), so eviction needs three distinct costs. *)
  let cache = Cache.create ~capacity:2 () in
  let k c = Cache.find_or_solve cache ~c ~p:1 ~l:200 in
  let t3 = k 3 in
  let _t5 = k 5 in
  (* Touch the c=3 table so the c=5 table is the LRU victim. *)
  let t3' = k 3 in
  Alcotest.(check bool) "hit keeps the table" true (t3 == t3');
  let _t7 = k 7 in
  let s = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "capacity respected" 2 s.Cache.resident;
  (* The touched table survived; the untouched one was evicted. *)
  let t3'' = k 3 in
  Alcotest.(check bool) "MRU survived" true (t3 == t3'');
  let s = Cache.stats cache in
  Alcotest.(check int) "three solves so far" 3 s.Cache.misses;
  let _t5' = k 5 in
  let s' = Cache.stats cache in
  Alcotest.(check int) "evicted table re-solves" (s.Cache.misses + 1)
    s'.Cache.misses

(* A fill leaves its scratch as the process-wide spare; evicting the
   table that needed it must not leave it resident.  A small solve
   reuses the big spare and hands it back, and only the eviction its
   insert causes can drop it.  A fill's scratch holds W alone, one int
   a cell: half the dense footprint. *)
let test_cache_eviction_trims_scratch () =
  let cache = Cache.create ~capacity:1 () in
  let scratch dp = Cyclesteal.Dp.dense_footprint_bytes dp / 2 in
  let big = Cache.find_or_solve cache ~c:3 ~p:8 ~l:20_000 in
  Alcotest.(check bool) "spare covers the big fill" true
    (Cyclesteal.Dp.scratch_bytes () >= scratch big);
  let small = Cache.find_or_solve cache ~c:5 ~p:1 ~l:200 in
  Alcotest.(check int) "big table evicted" 1 (Cache.stats cache).Cache.evictions;
  Alcotest.(check bool) "spare no larger than the table held" true
    (Cyclesteal.Dp.scratch_bytes () <= scratch small)

(* --- Cold races ------------------------------------------------------------ *)

(* M domains race [find_or_solve] on one cold c.  The cache does not
   deduplicate the solves (one solve per identity is Batch's and the
   router's job); its contract is that the first published table wins:
   every caller gets a table equal to a direct solve, exactly one table
   stays resident, and each call counts once, as a hit or a miss. *)
let test_cache_cold_race () =
  let cache = Cache.create ~capacity:4 () in
  let m = 4 in
  let barrier = Atomic.make 0 in
  (* Pool slots, not fresh spawns: a domain still starting up while the
     others spin at the barrier can stall on them. *)
  let tables = Array.make m None in
  Csutil.Par.Pool.with_pool ~domains:m (fun pool ->
      Csutil.Par.Pool.run pool (fun slot ->
          Atomic.incr barrier;
          while Atomic.get barrier < m do
            Domain.cpu_relax ()
          done;
          tables.(slot) <- Some (Cache.find_or_solve cache ~c:13 ~p:3 ~l:900)));
  let tables = Array.to_list (Array.map Option.get tables) in
  let key = Cache.canonical ~c:13 ~p:3 ~l:900 in
  let direct =
    Cyclesteal.Dp.solve ~c:13 ~max_p:key.Cache.max_p ~max_l:key.Cache.max_l
  in
  List.iter
    (fun t ->
       for p = 0 to key.Cache.max_p do
         for l = 0 to key.Cache.max_l do
           if Cyclesteal.Dp.value t ~p ~l <> Cyclesteal.Dp.value direct ~p ~l
           then Alcotest.failf "raced table differs at p=%d l=%d" p l
         done
       done)
    tables;
  let s = Cache.stats cache in
  Alcotest.(check int) "one table resident" 1 s.Cache.resident;
  Alcotest.(check int) "one count per call" m (s.Cache.hits + s.Cache.misses);
  Alcotest.(check bool) "at least one solve" true (s.Cache.misses >= 1);
  Alcotest.(check bool) "no solve left a grow" true (s.Cache.growths = 0)

(* The stats surface carries the DP kernel's work counters, and a reset
   zeroes them along with the cache counters (the daemon's
   [stats reset] path calls this same Cache.reset_counters). *)
let test_cache_kernel_counters () =
  let cache = Cache.create ~capacity:4 () in
  Cache.reset_counters cache;
  ignore (Cache.find_or_solve cache ~c:9 ~p:1 ~l:300);
  let s = Cache.stats cache in
  let k = s.Cache.kernel in
  Alcotest.(check bool) "cells counted" true (k.Cyclesteal.Dp.cells_filled > 0);
  Alcotest.(check bool) "prune counted" true
    (k.Cyclesteal.Dp.candidates_pruned > 0);
  let json = Stats.to_json (Stats.create ()) ~cache:s in
  (match Json.member "kernel" json with
   | Some (Json.Obj fields) ->
     List.iter
       (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "stats json has kernel.%s" name)
            true (List.mem_assoc name fields))
       [
         "cells_filled"; "candidates_visited"; "candidates_pruned";
         "parallel_fills";
       ]
   | _ -> Alcotest.fail "stats json lacks a kernel object");
  Cache.reset_counters cache;
  Alcotest.(check int) "reset zeroes kernel counters" 0
    (Cache.stats cache).Cache.kernel.Cyclesteal.Dp.cells_filled

(* Repeated evaluate requests through the cache hit the resident game
   solver; the stats surface carries the solver-cache and game counters,
   and reset zeroes them (the daemon's [stats reset] path). *)
let test_cache_resident_solver () =
  let cache = Cache.create ~capacity:4 () in
  Cache.reset_counters cache;
  let req =
    Protocol.Evaluate
      { c = 1.; u = 120.; p = 2; policy = "adaptive"; periods = None }
  in
  let answer () =
    match Protocol.handle ~cache req with
    | Ok json -> Json.to_string json
    | Error e -> Alcotest.fail (Cyclesteal.Error.to_string e)
  in
  let first = answer () in
  let s1 = Cache.stats cache in
  Alcotest.(check int) "first evaluate misses" 1 s1.Cache.solver_misses;
  Alcotest.(check int) "one solver resident" 1 s1.Cache.solvers_resident;
  let states_cold = s1.Cache.game.Cyclesteal.Game.states in
  Alcotest.(check bool) "cold solve expanded states" true (states_cold > 0);
  let second = answer () in
  let s2 = Cache.stats cache in
  Alcotest.(check int) "second evaluate hits" 1 s2.Cache.solver_hits;
  Alcotest.(check string) "warm response byte-identical" first second;
  (* The warm evaluate answers from the resident memo: the replay may
     touch a handful of fresh states, not re-solve the instance. *)
  Alcotest.(check bool) "warm evaluate reuses the memo" true
    (s2.Cache.game.Cyclesteal.Game.states - states_cold < states_cold / 2);
  (* Un-cached evaluation answers identically (fresh solver, same
     canonical states). *)
  (match Protocol.handle req with
   | Ok json ->
     Alcotest.(check string) "matches direct evaluate" first
       (Json.to_string json)
   | Error e -> Alcotest.fail (Cyclesteal.Error.to_string e));
  let json = Stats.to_json (Stats.create ()) ~cache:s2 in
  (match Json.member "solver_cache" json with
   | Some (Json.Obj fields) ->
     List.iter
       (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "stats json has solver_cache.%s" name)
            true (List.mem_assoc name fields))
       [
         "hits"; "misses"; "evictions"; "growths"; "solvers_resident";
         "resident_bytes";
       ]
   | _ -> Alcotest.fail "stats json lacks a solver_cache object");
  (match Json.member "game" json with
   | Some (Json.Obj fields) ->
     List.iter
       (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "stats json has game.%s" name)
            true (List.mem_assoc name fields))
       [ "states"; "memo_hits"; "plans_computed"; "parallel_fills" ]
   | _ -> Alcotest.fail "stats json lacks a game object");
  Cache.reset_counters cache;
  let z = Cache.stats cache in
  Alcotest.(check int) "reset zeroes solver hits" 0 z.Cache.solver_hits;
  Alcotest.(check int) "reset zeroes solver misses" 0 z.Cache.solver_misses;
  Alcotest.(check int) "reset zeroes game states" 0
    z.Cache.game.Cyclesteal.Game.states

(* Resident solvers for evaluations at c = 1 under [policy]; each
   lifespan is its own solver identity. *)
let evaluate_on cache ?(policy = "nonadaptive") ~u ~p () =
  match
    Protocol.handle ~cache
      (Protocol.Evaluate { c = 1.; u; p; policy; periods = None })
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Cyclesteal.Error.to_string e)

let solver_held cache ?(policy = "nonadaptive") ~u ~p () =
  Cache.solver_mem cache
    (Cyclesteal.Model.params ~c:1.)
    (Cyclesteal.Model.opportunity ~lifespan:u ~interrupts:p)
    (Engine.Registry.find policy)

let test_cache_solver_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  evaluate_on cache ~u:40. ~p:1 ();
  evaluate_on cache ~u:50. ~p:1 ();
  (* Touch u = 40 so the u = 50 solver is the LRU victim. *)
  evaluate_on cache ~u:40. ~p:1 ();
  evaluate_on cache ~u:60. ~p:1 ();
  let s = Cache.stats cache in
  Alcotest.(check int) "one solver eviction" 1 s.Cache.solver_evictions;
  Alcotest.(check int) "capacity respected" 2 s.Cache.solvers_resident;
  Alcotest.(check bool) "MRU survived" true (solver_held cache ~u:40. ~p:1 ());
  Alcotest.(check bool) "LRU evicted" false (solver_held cache ~u:50. ~p:1 ());
  Alcotest.(check bool) "newest held" true (solver_held cache ~u:60. ~p:1 ())

(* [mem] and [solver_mem] are probes: polling the oldest entry must not
   save it from eviction. *)
let test_cache_probes_do_not_stamp () =
  let cache = Cache.create ~capacity:2 () in
  List.iter (fun c -> ignore (Cache.find_or_solve cache ~c ~p:1 ~l:200)) [ 3; 5 ];
  Alcotest.(check bool) "oldest table probes resident" true
    (Cache.mem cache (Cache.canonical ~c:3 ~p:1 ~l:200));
  ignore (Cache.find_or_solve cache ~c:7 ~p:1 ~l:200);
  Alcotest.(check bool) "probed table still evicted" false
    (Cache.mem cache (Cache.canonical ~c:3 ~p:1 ~l:200));
  Alcotest.(check bool) "younger table kept" true
    (Cache.mem cache (Cache.canonical ~c:5 ~p:1 ~l:200));
  evaluate_on cache ~u:40. ~p:1 ();
  evaluate_on cache ~u:50. ~p:1 ();
  Alcotest.(check bool) "oldest solver probes resident" true
    (solver_held cache ~u:40. ~p:1 ());
  evaluate_on cache ~u:60. ~p:1 ();
  Alcotest.(check bool) "probed solver still evicted" false
    (solver_held cache ~u:40. ~p:1 ());
  Alcotest.(check bool) "younger solver kept" true
    (solver_held cache ~u:50. ~p:1 ())

(* Every hit/miss/eviction/growth counter of both families is nonzero
   before the reset and zero after it; residency is kept. *)
let test_cache_reset_both_families () =
  let cache = Cache.create ~capacity:1 () in
  ignore (Cache.find_or_solve cache ~c:3 ~p:1 ~l:200);
  ignore (Cache.find_or_solve cache ~c:3 ~p:1 ~l:200);
  ignore (Cache.find_or_solve cache ~c:3 ~p:4 ~l:900);
  ignore (Cache.find_or_solve cache ~c:5 ~p:1 ~l:200);
  evaluate_on cache ~policy:"adaptive" ~u:40. ~p:1 ();
  evaluate_on cache ~policy:"adaptive" ~u:40. ~p:2 ();
  evaluate_on cache ~u:50. ~p:1 ();
  let counters (s : Cache.stats) =
    [
      ("hits", s.Cache.hits); ("misses", s.Cache.misses);
      ("evictions", s.Cache.evictions); ("growths", s.Cache.growths);
      ("solver_hits", s.Cache.solver_hits);
      ("solver_misses", s.Cache.solver_misses);
      ("solver_evictions", s.Cache.solver_evictions);
      ("solver_growths", s.Cache.solver_growths);
    ]
  in
  List.iter
    (fun (name, n) ->
       Alcotest.(check bool) (name ^ " counted before the reset") true (n > 0))
    (counters (Cache.stats cache));
  Cache.reset_counters cache;
  let z = Cache.stats cache in
  List.iter
    (fun (name, n) -> Alcotest.(check int) (name ^ " zeroed") 0 n)
    (counters z);
  Alcotest.(check int) "table kept" 1 z.Cache.resident;
  Alcotest.(check int) "solver kept" 1 z.Cache.solvers_resident

(* --- A mixed workload ------------------------------------------------------ *)

(* >= 100 mixed advise/schedule/evaluate/dp requests with varying
   parameters, as JSON lines.  Kept cheap enough for the exact minimax
   evaluator (u <= 400) while exercising every op and the cache. *)
let mixed_request_lines () =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let policies =
    [| "nonadaptive"; "adaptive"; "calibrated"; "one-period"; "geometric" |]
  in
  let regimes = [| "nonadaptive"; "adaptive"; "calibrated"; "opt-p1" |] in
  for i = 0 to 29 do
    add {|{"id":%d,"op":"advise","c":%d,"u":%d,"p":%d}|} (4 * i)
      ((i mod 5) + 1)
      (500 + (137 * i))
      (i mod 4);
    add {|{"id":%d,"op":"schedule","c":1,"u":%d,"p":%d,"regime":"%s"}|}
      ((4 * i) + 1)
      (100 + (31 * i))
      ((i mod 3) + if regimes.(i mod 4) = "opt-p1" then 0 else 0)
      regimes.(i mod 4);
    add {|{"id":%d,"op":"evaluate","c":1,"u":%d,"p":%d,"policy":"%s"}|}
      ((4 * i) + 2)
      (50 + (23 * i))
      (i mod 3)
      policies.(i mod 5);
    add {|{"id":%d,"op":"dp","c_ticks":%d,"l":%d,"p":%d}|}
      ((4 * i) + 3)
      (5 + (5 * (i mod 2)))
      (100 + (29 * i))
      (i mod 4)
  done;
  (* A custom-periods evaluation and some malformed lines for error
     paths. *)
  add {|{"id":120,"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5]}|};
  add {|{"id":121,"op":"advise","c":-3}|};
  add {|{"id":122,"op":"strategies"}|};
  add "garbage that is not json";
  List.rev !lines

(* The reference answer: parse and evaluate each line directly against
   the library, no cache, no batching, no daemon. *)
let direct_response line =
  let e = Protocol.parse_line line in
  let result = Result.bind e.Protocol.request (fun req -> Protocol.handle req) in
  Protocol.response_to_string ~id:e.Protocol.id result

let test_batch_matches_direct () =
  let lines = mixed_request_lines () in
  Alcotest.(check bool) "at least 100 requests" true (List.length lines >= 100);
  let expected = List.map direct_response lines in
  List.iter
    (fun domains ->
       let cache = Cache.create ~capacity:16 () in
       let outcomes = Batch.run ~domains ~cache (Array.of_list lines) in
       let got =
         Array.to_list outcomes
         |> List.map (fun (o : Batch.outcome) ->
             Protocol.response_to_string ~id:o.Batch.envelope.Protocol.id
               o.Batch.result)
       in
       List.iteri
         (fun i (e, g) ->
            Alcotest.(check string)
              (Printf.sprintf "domains=%d line %d" domains i)
              e g)
         (List.combine expected got))
    [ 1; 4 ]

(* --- Resident batches run on the calling domain ----------------------------- *)

(* The cache state every residency test starts from: dp tables for
   c = 3 and c = 5 covering l <= 512, p <= 4, and adaptive (state-only)
   and nonadaptive solvers at c = 1, u = 60 that have answered up to
   p = 2. *)
let resident_cache ?pool () =
  let cache = Cache.create ?pool ~capacity:16 () in
  List.iter (fun c -> ignore (Cache.find_or_solve cache ~c ~p:4 ~l:512)) [ 3; 5 ];
  List.iter
    (fun policy ->
       ignore
         (Protocol.handle ~cache
            (Protocol.Evaluate { c = 1.; u = 60.; p = 2; policy; periods = None })))
    [ "adaptive"; "nonadaptive" ];
  cache

(* Request lines of each kind the residency rule tells apart, as
   generators: those resident on [resident_cache], and those needing a
   fill, a grow or a solver build. *)
let dp_line c l p = Printf.sprintf {|{"op":"dp","c_ticks":%d,"l":%d,"p":%d}|} c l p

let evaluate_line ~u ~p policy =
  Printf.sprintf {|{"op":"evaluate","c":1,"u":%d,"p":%d,"policy":"%s"}|} u p policy

let resident_line_gens =
  let open QCheck.Gen in
  [
    (* a table the fixture warmed covers it *)
    map3 dp_line (oneofl [ 3; 5 ]) (int_range 0 512) (int_range 0 4);
    (* a resident solver has answered at this budget or a larger one *)
    map (fun p -> evaluate_line ~u:60 ~p "adaptive") (int_range 0 2);
    return (evaluate_line ~u:60 ~p:2 "nonadaptive");
    (* pure compute *)
    map3
      (Printf.sprintf {|{"op":"advise","c":%d,"u":%d,"p":%d}|})
      (int_range 1 9) (int_range 50 5000) (int_range 0 4);
    map2
      (Printf.sprintf {|{"op":"schedule","c":1,"u":%d,"p":1,"regime":"%s"}|})
      (int_range 20 400)
      (oneofl [ "adaptive"; "nonadaptive"; "calibrated" ]);
    return {|{"op":"strategies"}|};
    (* stats ops, parse errors and requests that fail validation *)
    return {|{"op":"stats"}|};
    oneofl
      [
        "not json";
        {|{"op":"advise","c":-3}|};
        {|{"op":"nope"}|};
        dp_line 0 5 1;
        evaluate_line ~u:60 ~p:1 "no-such";
      ];
  ]

let cold_line_gens =
  let open QCheck.Gen in
  [
    (* an absent table, or a warmed one that must grow *)
    map3 dp_line (oneofl [ 4; 7 ]) (int_range 0 700) (int_range 0 4);
    map2 (dp_line 3) (int_range 513 900) (int_range 0 6);
    (* an absent solver: another lifespan, or a budget not yet answered *)
    map2 (fun u p -> evaluate_line ~u ~p "adaptive") (int_range 20 50)
      (int_range 0 2);
    map (fun p -> evaluate_line ~u:60 ~p "adaptive") (int_range 3 4);
    (* explicit periods build a fresh solver *)
    return {|{"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5]}|};
  ]

(* Half the batches draw from resident kinds only, so the all-resident
   path is exercised as often as the fan-out; the flag says which. *)
let residency_batch_gen =
  let open QCheck.Gen in
  let batch gens = list_size (int_range 1 16) (oneof gens) in
  oneof
    [
      map (fun lines -> (true, lines)) (batch resident_line_gens);
      map
        (fun lines -> (false, lines))
        (batch (resident_line_gens @ cold_line_gens));
    ]

let outcome_strings outcomes =
  Array.to_list outcomes
  |> List.map (fun (o : Batch.outcome) ->
      Protocol.response_to_string ~id:o.Batch.envelope.Protocol.id
        o.Batch.result)

(* The resident fast path is invisible in the bytes: random batches
   mixing resident and cold dp groups, resident and absent solvers,
   pure ops, stats ops and parse errors answer identically through a
   2-domain pool, through [~domains:1] and directly through
   [Protocol.handle] (a stats op with its no-daemon error) — and an
   all-resident batch submits nothing to the pool. *)
let prop_resident_batches_match_direct =
  (* One pool for every case, never shut down: its parked worker goes
     away with the test process. *)
  let pool = lazy (Csutil.Par.Pool.create ~domains:2) in
  QCheck.Test.make ~name:"resident fast path = fan-out = direct handle"
    ~count:60
    (QCheck.make residency_batch_gen ~print:(fun (_, lines) ->
         String.concat "\n" lines))
    (fun (all_resident, lines) ->
       let pool = Lazy.force pool in
       let lines = Array.of_list lines in
       let envelopes = Array.map Protocol.parse_line lines in
       let direct =
         Array.to_list
           (Array.map
              (fun (e : Protocol.envelope) ->
                 let result =
                   Result.bind e.Protocol.request (fun req ->
                       Protocol.handle req)
                 in
                 Protocol.response_to_string ~id:e.Protocol.id result)
              envelopes)
       in
       let before = Csutil.Par.Pool.dispatched pool in
       let pooled =
         Batch.run_parsed ~pool ~domains:2 ~cache:(resident_cache ~pool ())
           envelopes
       in
       let dispatched = Csutil.Par.Pool.dispatched pool - before in
       let inline =
         Batch.run_parsed ~domains:1 ~cache:(resident_cache ()) envelopes
       in
       outcome_strings pooled = direct
       && outcome_strings inline = direct
       && ((not all_resident) || dispatched = 0))

(* The dispatch counter itself: the same groups fan out once one of
   them needs a fill, and stay on the caller while all are resident. *)
let test_resident_batch_skips_pool () =
  Csutil.Par.Pool.with_pool ~domains:2 (fun pool ->
      let cache = resident_cache ~pool () in
      let run lines =
        let before = Csutil.Par.Pool.dispatched pool in
        ignore
          (Batch.run ~pool ~domains:2 ~cache (Array.of_list lines));
        Csutil.Par.Pool.dispatched pool - before
      in
      let resident =
        [
          {|{"op":"dp","c_ticks":3,"l":500,"p":4}|};
          {|{"op":"dp","c_ticks":5,"l":100,"p":1}|};
          {|{"op":"evaluate","c":1,"u":60,"p":1,"policy":"adaptive"}|};
          {|{"op":"evaluate","c":1,"u":60,"p":2,"policy":"nonadaptive"}|};
          {|{"op":"advise","c":1,"u":100,"p":1}|};
          {|{"op":"stats"}|};
          "not json";
        ]
      in
      Alcotest.(check int) "all resident: nothing dispatched" 0 (run resident);
      Alcotest.(check bool) "a cold group fans the batch out" true
        (run ({|{"op":"dp","c_ticks":9,"l":300,"p":2}|} :: resident) > 0);
      Alcotest.(check int) "the filled table is resident next time" 0
        (run ({|{"op":"dp","c_ticks":9,"l":300,"p":2}|} :: resident)))

(* One batch of duplicate cold requests — N dp lines over two tables
   and N state-only evaluate lines over several budgets — pays one miss
   per identity: grouping fetches each table and holds each solver
   once, so nothing races inside the cache.  The bytes match direct
   [Protocol.handle]. *)
let test_batch_duplicate_cold_herd () =
  let n = 12 in
  let lines =
    List.init n (fun i ->
        dp_line (if i mod 2 = 0 then 17 else 19) (300 + (25 * i)) (i mod 4))
    @ List.init n (fun i -> evaluate_line ~u:90 ~p:(i mod 4) "adaptive")
  in
  let cache = Cache.create ~capacity:8 () in
  let got =
    outcome_strings (Batch.run ~domains:2 ~cache (Array.of_list lines))
  in
  Alcotest.(check (list string)) "bytes = direct handle"
    (List.map direct_response lines) got;
  let s = Cache.stats cache in
  Alcotest.(check int) "one solve per dp table" 2 s.Cache.misses;
  Alcotest.(check int) "one fetch per dp table" 2
    (s.Cache.hits + s.Cache.misses);
  Alcotest.(check int) "one build per solver" 1 s.Cache.solver_misses;
  Alcotest.(check int) "one hold per solver" 1
    (s.Cache.solver_hits + s.Cache.solver_misses)

(* Policy aliases name one planner, so they share one cache group: a
   cold batch spelling [fixed_chunk] both ways holds one solver once
   instead of building it from two groups at the same time. *)
let test_batch_policy_aliases () =
  let group policy =
    Protocol.cache_group
      (Protocol.Evaluate { c = 1.; u = 70.; p = 2; policy; periods = None })
  in
  Alcotest.(check (option string)) "aliases share a group"
    (group "fixed_chunk") (group "fixed-chunk");
  let lines =
    [
      evaluate_line ~u:70 ~p:2 "fixed_chunk";
      evaluate_line ~u:70 ~p:2 "fixed-chunk";
      evaluate_line ~u:70 ~p:2 "fixed_chunk";
    ]
  in
  let cache = Cache.create ~capacity:8 () in
  let got =
    outcome_strings (Batch.run ~domains:2 ~cache (Array.of_list lines))
  in
  Alcotest.(check (list string)) "bytes = direct handle"
    (List.map direct_response lines) got;
  let s = Cache.stats cache in
  Alcotest.(check int) "one solver build" 1 s.Cache.solver_misses;
  Alcotest.(check int) "one solver hold" 1
    (s.Cache.solver_hits + s.Cache.solver_misses)

(* --- Server end to end ------------------------------------------------------ *)

let with_temp_file content f =
  let path = Filename.temp_file "cschedd_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out path in
       output_string oc content;
       close_out oc;
       f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let rec go acc =
         match input_line ic with
         | line -> go (line :: acc)
         | exception End_of_file -> List.rev acc
       in
       go [])

(* Serve [lines] over plain file descriptors.  A caller-provided
   [router] is used as-is (and stays alive for inspection afterwards —
   the caller shuts it down); otherwise a fresh one with [shards]
   shards is created and shut down before returning. *)
let serve_lines ?batch_size ?(shards = 1) ?router lines =
  let input = String.concat "\n" lines ^ "\n" in
  with_temp_file input (fun in_path ->
      let out_path = Filename.temp_file "cschedd_test" ".out" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
        (fun () ->
           let owned = router = None in
           let router =
             match router with
             | Some r -> r
             | None -> Router.create ~shards ~domains:2 ~capacity:16 ()
           in
           Fun.protect
             ~finally:(fun () -> if owned then Router.shutdown router)
             (fun () ->
                let server = Server.create ?batch_size ~router () in
                let in_fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
                let out_fd =
                  Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
                in
                Fun.protect
                  ~finally:(fun () ->
                    Unix.close in_fd;
                    Unix.close out_fd)
                  (fun () -> Server.serve_fd server in_fd out_fd);
                (read_lines out_path, Server.stats server, server))))

let test_server_end_to_end () =
  let lines = mixed_request_lines () in
  let expected = List.map direct_response lines in
  let got, stats, _server = serve_lines ~batch_size:32 lines in
  Alcotest.(check int) "one response per request" (List.length lines)
    (List.length got);
  List.iteri
    (fun i (e, g) ->
       Alcotest.(check string) (Printf.sprintf "line %d byte-identical" i) e g)
    (List.combine expected got);
  Alcotest.(check int) "requests counted" (List.length lines)
    (Stats.requests stats);
  Alcotest.(check int) "bytes served counted"
    (List.fold_left (fun acc l -> acc + String.length l + 1) 0 got)
    (Stats.bytes_served stats)

let test_server_stats_request () =
  let lines =
    [
      {|{"id":1,"op":"advise","c":1,"u":100,"p":1}|};
      {|{"id":2,"op":"stats"}|};
    ]
  in
  let got, _, _ = serve_lines ~batch_size:1 lines in
  match got with
  | [ _first; second ] ->
    Alcotest.(check bool) "stats ok" true (contains ~sub:{|"ok":true|} second);
    (* Batch size 1: the snapshot for request 2 has request 1 folded in. *)
    Alcotest.(check bool) "previous request counted" true
      (contains ~sub:{|"requests":1|} second);
    Alcotest.(check bool) "advise tallied" true
      (contains ~sub:{|"advise":1|} second)
  | other ->
    Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length other))

let test_server_stats_reset () =
  let lines =
    [
      {|{"id":1,"op":"advise","c":1,"u":100,"p":1}|};
      {|{"id":2,"op":"stats","reset":true}|};
      {|{"id":3,"op":"stats"}|};
    ]
  in
  let got, _, _ = serve_lines ~batch_size:1 lines in
  match got with
  | [ _first; second; third ] ->
    (* The resetting request is itself served the pre-reset snapshot... *)
    Alcotest.(check bool) "pre-reset snapshot counts the advise" true
      (contains ~sub:{|"requests":1|} second);
    (* ...and the reset lands once its batch completes, so the next
       stats request sees zeroed counters. *)
    Alcotest.(check bool) "post-reset counters are zero" true
      (contains ~sub:{|"requests":0|} third)
  | other ->
    Alcotest.fail (Printf.sprintf "expected 3 responses, got %d" (List.length other))

(* Conservation on a served stream with duplicates within and across
   batches, malformed lines and a stats op: every reply is counted
   once, under one op, and every cacheable request probes the answer
   cache exactly once, as a hit or as a miss. *)
let test_server_stats_conservation () =
  let once =
    [
      {|{"id":1,"op":"advise","c":1,"u":100,"p":1}|};
      {|{"id":2,"op":"advise","c":1,"u":100,"p":1}|};
      dp_line 5 200 2;
      "junk";
      {|{"id":3,"op":"stats"}|};
      {|{"id":4,"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5]}|};
      dp_line 5 200 2;
      {|{"id":5,"op":"strategies"}|};
      {|{"id":6,"op":"nope"}|};
      evaluate_line ~u:60 ~p:1 "adaptive";
      {|{"id":7,"op":"schedule","c":1,"u":100,"p":2,"regime":"adaptive"}|};
    ]
  in
  let lines = once @ once in
  let cacheable =
    List.length
      (List.filter
         (fun line ->
            match (Protocol.parse_line line).Protocol.request with
            | Ok req -> Answers.cacheable req
            | Error _ -> false)
         lines)
  in
  let router = Router.create ~domains:1 ~capacity:8 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       let got, stats, server = serve_lines ~batch_size:4 ~router lines in
       Alcotest.(check int) "one reply per line" (List.length lines)
         (List.length got);
       Alcotest.(check int) "every reply counted" (List.length lines)
         (Stats.requests stats);
       let by_op =
         match
           Json.member "by_op"
             (Stats.to_json stats ~cache:(Router.cache_stats router))
         with
         | Some (Json.Obj ops) ->
           List.fold_left
             (fun acc (_, n) -> acc + Option.get (Json.to_int n))
             0 ops
         | _ -> Alcotest.fail "no by_op object"
       in
       Alcotest.(check int) "requests = sum of by_op" (Stats.requests stats)
         by_op;
       let a = Answers.stats (Server.answers server) in
       Alcotest.(check int) "answers.hits + answers.misses = cacheable"
         cacheable (a.Answers.hits + a.Answers.misses);
       Alcotest.(check bool) "repeats hit" true (a.Answers.hits > 0))

(* A dp line whose table would be over the cell budget is refused when
   it is parsed: unbounded, l near 2^62 loops in the canonical rounding
   and l = 10^11 at p = 3 exhausts memory on the shard, whose restart
   fails its batch-mates too.  Sent as one batch beside an advise, both
   answer invalid_params and the advise its answer, byte-identical to
   direct [Protocol.handle], within a second; the library entry points
   refuse such bounds as well. *)
let test_server_oversized_dp () =
  let lines =
    [
      {|{"id":1,"op":"dp","c_ticks":1,"l":4611686018427387903,"p":2}|};
      {|{"id":2,"op":"dp","c_ticks":1,"l":100000000000,"p":3}|};
      {|{"id":3,"op":"advise","c":1,"u":100,"p":1}|};
    ]
  in
  let t0 = Unix.gettimeofday () in
  let got, _, _ = serve_lines ~batch_size:64 lines in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string)) "bytes = direct handle"
    (List.map direct_response lines) got;
  List.iteri
    (fun i reply ->
       Alcotest.(check bool)
         (Printf.sprintf "line %d: %s" i reply)
         true
         (if i < 2 then contains ~sub:{|"invalid_params"|} reply
          else contains ~sub:{|"ok":true|} reply))
    got;
  Alcotest.(check bool) (Printf.sprintf "answered in %.3f s" elapsed) true
    (elapsed < 1.);
  let refuses what f =
    match f () with
    | exception Cyclesteal.Error.Error _ -> ()
    | _ -> Alcotest.failf "%s accepted an oversized table" what
  in
  refuses "Cache.canonical" (fun () ->
      ignore (Cache.canonical ~c:1 ~p:2 ~l:4611686018427387903));
  refuses "Dp.solve" (fun () ->
      ignore (Cyclesteal.Dp.solve ~c:1 ~max_p:3 ~max_l:100_000_000_000));
  let dp = Cyclesteal.Dp.solve ~c:1 ~max_p:1 ~max_l:10 in
  refuses "Dp.grow" (fun () -> Cyclesteal.Dp.grow dp ~max_p:2 ~max_l:max_int)

(* A schedule whose period list would exhaust the heap (c = 1e-300,
   U = 1e300 overflows U/c to infinity; calibrated's p + 1 candidate;
   adaptive's ramp at p = 20 over 10^9 setups) answers budget_exhausted
   at parse time, at once, and the daemon serves on. *)
let test_server_oversized_schedule () =
  let lines =
    [
      {|{"id":1,"op":"schedule","c":1e-300,"u":1e300,"p":2}|};
      {|{"id":2,"op":"schedule","c":1e-300,"u":1e300,"p":1,"regime":"opt-p1"}|};
      {|{"id":3,"op":"schedule","c":1,"u":2000,"p":1000000000000,"regime":"calibrated"}|};
      {|{"id":4,"op":"schedule","c":1,"u":1e9,"p":20,"regime":"adaptive"}|};
      {|{"id":5,"op":"schedule","c":1,"u":1e12,"p":3,"regime":"nonadaptive"}|};
      {|{"id":6,"op":"schedule","c":1,"u":1000,"p":2,"regime":"calibrated"}|};
    ]
  in
  let t0 = Unix.gettimeofday () in
  let got, _, _ = serve_lines ~batch_size:64 lines in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string)) "bytes = direct handle"
    (List.map direct_response lines) got;
  List.iteri
    (fun i reply ->
       Alcotest.(check bool)
         (Printf.sprintf "line %d: %s" i reply)
         true
         (if i < 5 then contains ~sub:{|"budget_exhausted"|} reply
          else contains ~sub:{|"ok":true|} reply))
    got;
  Alcotest.(check bool) (Printf.sprintf "answered in %.3f s" elapsed) true
    (elapsed < 1.)

(* A binary built beside this test's, run with [input] on stdin and
   SIGKILLed after 10 s: its stdout, its exit status ([None] when
   killed) and the seconds it ran. *)
let run_binary ?(input = "") name args =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; name ]
  in
  with_temp_file input (fun in_path ->
      let out_path = Filename.temp_file "csched_test" ".out" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
        (fun () ->
           let fd_in = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
           let fd_out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
           let fd_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
           let t0 = Unix.gettimeofday () in
           let pid =
             Unix.create_process exe (Array.of_list (exe :: args)) fd_in fd_out fd_err
           in
           List.iter Unix.close [ fd_in; fd_out; fd_err ];
           let rec reap () =
             match Unix.waitpid [ Unix.WNOHANG ] pid with
             | 0, _ when Unix.gettimeofday () -. t0 < 10. ->
               Unix.sleepf 0.005;
               reap ()
             | 0, _ ->
               Unix.kill pid Sys.sigkill;
               ignore (Unix.waitpid [] pid);
               None
             | _, status -> Some status
           in
           let status = reap () in
           let elapsed = Unix.gettimeofday () -. t0 in
           (read_lines out_path, status, elapsed)))

(* A router's teardown wakes its watchdog instead of waiting out the
   watchdog's poll (a quarter second by default), so create-then-
   shutdown takes milliseconds, and a stdio daemon exits soon after
   the end of its input.  Medians of five and the best of three, so a
   busy host's one slow start does not decide. *)
let test_router_shutdown_prompt () =
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let cycle () =
    let router = Router.create ~domains:1 ~capacity:4 () in
    let t0 = Unix.gettimeofday () in
    Router.shutdown router;
    Unix.gettimeofday () -. t0
  in
  let shutdown_s = median (List.init 5 (fun _ -> cycle ())) in
  Alcotest.(check bool)
    (Printf.sprintf "Router.shutdown took %.1f ms" (1e3 *. shutdown_s))
    true (shutdown_s < 0.05);
  let daemon () =
    let _, status, elapsed =
      run_binary ~input:({|{"id":1,"op":"advise","c":1,"u":100,"p":1}|} ^ "\n")
        "cschedd.exe" [ "--quiet" ]
    in
    Alcotest.(check bool) "daemon exited" true (status = Some (Unix.WEXITED 0));
    elapsed
  in
  let daemon_s = List.fold_left min infinity (List.init 3 (fun _ -> daemon ())) in
  Alcotest.(check bool)
    (Printf.sprintf "stdio cschedd ran and exited in %.1f ms" (1e3 *. daemon_s))
    true (daemon_s < 0.2)

(* An advise's calibrated target takes p steps, so a p past 2^20
   answers budget_exhausted at parse time, at once, through the daemon
   (byte for byte what direct Protocol.handle answers) and through the
   CLI; 2^20 itself is answered. *)
let test_huge_p_advise () =
  let lines =
    [
      {|{"id":1,"op":"advise","c":1,"u":100,"p":1000000000000}|};
      {|{"id":2,"op":"advise","c":1,"u":100,"p":1048576}|};
      {|{"id":3,"op":"advise","c":1,"u":100,"p":1048577}|};
      {|{"id":4,"op":"advise","c":1,"u":100,"p":4611686018427387903}|};
    ]
  in
  let got, status, elapsed =
    run_binary ~input:(String.concat "\n" lines ^ "\n") "cschedd.exe" [ "--quiet" ]
  in
  Alcotest.(check bool) "daemon exited" true (status = Some (Unix.WEXITED 0));
  Alcotest.(check (list string)) "bytes = direct handle"
    (List.map direct_response lines) got;
  List.iteri
    (fun i reply ->
       Alcotest.(check bool) (Printf.sprintf "line %d: %s" i reply) true
         (contains
            ~sub:(if i = 1 then {|"ok":true|} else {|"budget_exhausted"|})
            reply))
    got;
  Alcotest.(check bool) (Printf.sprintf "daemon answered in %.3f s" elapsed) true
    (elapsed < 1.);
  List.iter
    (fun json ->
       let args = [ "advise"; "-u"; "100"; "-p"; "1000000000000"; "-c"; "1" ] in
       let out, status, elapsed =
         run_binary "csched.exe" (if json then args @ [ "--json" ] else args)
       in
       let name = if json then "csched --json" else "csched" in
       Alcotest.(check bool) (name ^ " refuses") true
         (match status with Some (Unix.WEXITED n) -> n <> 0 | _ -> false);
       if json then
         Alcotest.(check bool) (name ^ " says budget_exhausted") true
           (List.exists (contains ~sub:{|"budget_exhausted"|}) out);
       Alcotest.(check bool) (Printf.sprintf "%s answered in %.3f s" name elapsed)
         true (elapsed < 1.))
    [ false; true ]

(* A daemon whose bank directory goes away after start (moved aside,
   a plain file put at its path: a permission bit would not stop a
   root test run) answers every dp line, cold solves, grows past the
   banked bounds and warm reads alike, byte for byte as direct
   Protocol.handle does: each solve or grow that cannot make its
   snapshot file fills a heap pack and counts a save failure, and no
   temporary file is left in the moved directory. *)
let test_server_bank_unwritable () =
  let dir = Filename.temp_file "cschedd_bank" "" in
  Sys.remove dir;
  let moved = dir ^ ".moved" in
  let files d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat moved f)) (files moved);
      (try Unix.rmdir moved with Unix.Unix_error _ -> ());
      try Sys.remove dir with Sys_error _ -> ())
    (fun () ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let warm = Cache.create ~bank ~capacity:4 () in
      ignore (Cache.find_or_solve warm ~c:5 ~p:2 ~l:300);
      let banked = List.sort compare (files dir) in
      let router = Router.create ~shards:2 ~domains:2 ~bank ~capacity:16 () in
      Fun.protect
        ~finally:(fun () -> Router.shutdown router)
        (fun () ->
          Alcotest.(check int) "one table warmed" 1 (Router.warm_from_bank router);
          Unix.rename dir moved;
          Out_channel.with_open_bin dir (fun oc -> output_string oc "not a directory");
          let before = (Store.Bank.counters bank).Store.Bank.save_failures in
          let lines =
            List.mapi
              (fun i (c, l, p) ->
                Printf.sprintf {|{"id":%d,"op":"dp","c_ticks":%d,"l":%d,"p":%d}|} i c l p)
              [ (5, 200, 2); (5, 3000, 2); (5, 3000, 4); (7, 900, 1); (7, 100, 3);
                (9, 5000, 2); (5, 250, 1) ]
          in
          let got, _, _ = serve_lines ~batch_size:1 ~router lines in
          Alcotest.(check (list string)) "bytes = direct handle"
            (List.map direct_response lines) got;
          let failures = (Store.Bank.counters bank).Store.Bank.save_failures - before in
          Alcotest.(check bool)
            (Printf.sprintf "%d save failures counted" failures)
            true (failures >= 4);
          Alcotest.(check (list string)) "moved directory as it was" banked
            (List.sort compare (files moved))))

(* A non-finite number (1e999 reads as infinity) in a schedule never
   aborts the daemon: an infinite c passes the budget and is refused by
   name, in every regime, and an infinite U with a finite c has
   infinitely many periods by the closed form. *)
let test_server_nonfinite_schedule () =
  let lines =
    [
      {|{"id":1,"op":"schedule","c":1e999,"u":1000,"p":2}|};
      {|{"id":2,"op":"schedule","c":1e999,"u":1e999,"p":2,"regime":"opt-p1"}|};
      {|{"id":3,"op":"schedule","c":1e999,"u":1000,"p":3,"regime":"calibrated"}|};
      {|{"id":4,"op":"schedule","c":1,"u":1e999,"p":2,"regime":"adaptive"}|};
      {|{"id":5,"op":"schedule","c":1,"u":1000,"p":2}|};
    ]
  in
  let got, _, _ = serve_lines ~batch_size:1 lines in
  Alcotest.(check (list string)) "bytes = direct handle"
    (List.map direct_response lines) got;
  List.iteri
    (fun i reply ->
       Alcotest.(check bool)
         (Printf.sprintf "line %d: %s" i reply)
         true
         (contains
            ~sub:
              (if i < 3 then {|"invalid_params"|}
               else if i = 3 then {|"budget_exhausted"|}
               else {|"ok":true|})
            reply))
    got

(* The closed forms bound what each regime builds: on a grid of p and
   U/c (and two setup costs) every schedule the budget admits has at
   most the periods its form counts, and the largest accepted count is
   2^20. *)
let test_schedule_budget_bounds_lengths () =
  Alcotest.(check int) "largest accepted count" 1_048_576 Oracle.Protocol_ref.max_periods;
  List.iter
    (fun regime ->
       List.iter
         (fun p ->
            List.iter
              (fun (c, ratio) ->
                 let u = c *. ratio in
                 let bound = Oracle.Protocol_ref.schedule_periods ~c ~u ~p regime in
                 if bound <= 3e4 then begin
                   let s =
                     Engine.Registry.episode_schedule (Cyclesteal.Model.params ~c) ~u ~p regime
                   in
                   let n = Cyclesteal.Schedule.length s in
                   if float_of_int n > bound then
                     Alcotest.failf "%s p=%d c=%g U=%g: %d periods, form %.0f" regime p c u n
                       bound
                 end)
              (List.concat_map
                 (fun c -> List.map (fun r -> (c, r)) [ 0.5; 2.; 7.; 40.; 333.; 5e3; 1e5 ])
                 [ 1.; 7.5 ]))
         [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 13; 20; 50; 200 ])
    [ "nonadaptive"; "adaptive"; "calibrated"; "opt-p1" ]

(* Two dp queries on one c that each fit the cell budget but not
   together: p = 1000 at l = 256 and p = 2 at l = 100000 canonicalize
   to 1001 x 257 and 3 x 131073 cells, and one table covering both
   would hold 1001 x 131073, about 131M.  In separate batches, in one
   batch, and in a batch that meets the other's table already held,
   every reply is ok and byte-identical to direct [Protocol.handle]:
   the later query's table replaces the held one instead of failing
   its grow, and the replacement counts as a miss, not a growth. *)
let test_server_dp_pair_over_budget () =
  let wide = dp_line 1 256 1000 and long = dp_line 1 100000 2 in
  List.iter
    (fun (what, batch_size, lines) ->
       let got, _, _ = serve_lines ~batch_size lines in
       Alcotest.(check (list string)) what (List.map direct_response lines) got;
       List.iter
         (fun reply ->
            Alcotest.(check bool) (what ^ ": " ^ reply) true
              (contains ~sub:{|"ok":true|} reply))
         got)
    [
      ("separate batches", 1, [ wide; long; wide ]);
      ("one batch", 64, [ wide; long; wide ]);
      ("held table, then both", 2, [ wide; wide; long; wide ]);
    ];
  let cache = Cache.create ~capacity:2 () in
  ignore (Cache.find_or_solve cache ~c:1 ~p:1000 ~l:256);
  let dp = Cache.find_or_solve cache ~c:1 ~p:2 ~l:100000 in
  Alcotest.(check (pair int int)) "replaced at the query's bounds" (2, 131072)
    (Cyclesteal.Dp.max_p dp, Cyclesteal.Dp.max_l dp);
  let s = Cache.stats cache in
  Alcotest.(check (list int)) "misses, growths, resident" [ 2; 0; 1 ]
    [ s.Cache.misses; s.Cache.growths; s.Cache.resident ];
  (* The pair needs a fill, so it is not mistaken for a cheap error and
     answered on the calling domain. *)
  Alcotest.(check bool) "pair not resident" true
    (Option.is_none
       (Batch.resident_answer ~cache
          (Array.map Protocol.parse_line [| wide; long |])))

(* The gc object carries the process-wide allocation counters; they
   count from start-up, so a later snapshot never reads less. *)
let test_server_stats_gc () =
  let lines = [ {|{"id":1,"op":"stats"}|}; {|{"id":2,"op":"stats"}|} ] in
  let got, _, _ = serve_lines ~batch_size:1 lines in
  let gc_counters line =
    match Json.of_string line with
    | Error e -> Alcotest.fail e
    | Ok v ->
      let gc =
        Option.bind (Json.member "result" v) (Json.member "gc")
      in
      List.map
        (fun key ->
           match Option.bind (Option.bind gc (Json.member key)) Json.to_int with
           | Some n -> n
           | None -> Alcotest.failf "stats.gc.%s missing in %s" key line)
        [ "minor_words"; "minor_collections"; "major_collections" ]
  in
  match got with
  | [ first; second ] ->
    List.iter2
      (fun a b ->
         Alcotest.(check bool) "gc counter does not decrease" true (a <= b))
      (gc_counters first) (gc_counters second);
    Alcotest.(check bool) "minor words counted" true
      (List.hd (gc_counters first) > 0)
  | other ->
    Alcotest.failf "expected 2 responses, got %d" (List.length other)

let test_server_survives_malformed_flood () =
  let lines =
    List.init 50 (fun i ->
        if i mod 2 = 0 then Printf.sprintf "junk line %d" i
        else {|{"op":"advise","c":1,"u":100,"p":1}|})
  in
  let got, stats, _ = serve_lines lines in
  Alcotest.(check int) "all answered" 50 (List.length got);
  Alcotest.(check int) "requests counted" 50 (Stats.requests stats);
  List.iteri
    (fun i line ->
       let want_ok = i mod 2 = 1 in
       Alcotest.(check bool)
         (Printf.sprintf "line %d ok=%b" i want_ok)
         want_ok
         (contains ~sub:{|"ok":true|} line))
    got

let test_server_unterminated_final_line () =
  (* A final request without a trailing newline must still be answered. *)
  with_temp_file {|{"id":9,"op":"advise","c":1,"u":100,"p":1}|} (fun in_path ->
      let out_path = Filename.temp_file "cschedd_test" ".out" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
        (fun () ->
           let router = Router.create ~domains:1 ~capacity:4 () in
           let server = Server.create ~router () in
           let in_fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
           let out_fd =
             Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
           in
           Fun.protect
             ~finally:(fun () ->
               Unix.close in_fd;
               Unix.close out_fd;
               Router.shutdown router)
             (fun () -> Server.serve_fd server in_fd out_fd);
           match read_lines out_path with
           | [ line ] ->
             Alcotest.(check bool) "answered" true
               (contains ~sub:{|"id":9,"ok":true|} line)
           | other ->
             Alcotest.fail
               (Printf.sprintf "expected 1 response, got %d" (List.length other))))

let test_server_socket () =
  let dir = Filename.temp_file "cschedd_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let router = Router.create ~domains:1 ~capacity:4 () in
  let server = Server.create ~router () in
  let serving = Domain.spawn (fun () -> Server.serve_socket server ~path) in
  (* Wait for the socket to appear, connect, query, read, shut down. *)
  let rec wait tries =
    if tries = 0 then Alcotest.fail "socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.02;
      wait (tries - 1)
    end
  in
  wait 250;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let line = {|{"id":5,"op":"advise","c":1,"u":100,"p":1}|} in
  let payload = line ^ "\n" in
  ignore (Unix.write_substring sock payload 0 (String.length payload));
  let buf = Bytes.create 4096 in
  let n = Unix.read sock buf 0 4096 in
  let response = Bytes.sub_string buf 0 n in
  Alcotest.(check string) "socket response matches direct"
    (direct_response line ^ "\n")
    response;
  Alcotest.(check bool) "response ok" true (contains ~sub:{|"ok":true|} response);
  Server.request_stop server;
  Unix.close sock;
  (* Unblock the accept loop with one last throwaway connection. *)
  (try
     let poke = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.connect poke (Unix.ADDR_UNIX path);
     Unix.close poke
   with Unix.Unix_error _ -> ());
  Domain.join serving;
  Router.shutdown router;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Unix.rmdir dir

(* The daemon binary exits within 3 s of a SIGINT, and of the SIGTERM
   perfbench sends, with the default slot count, one slot and three:
   right after its only client closed, when every connection slot is
   waiting for the next client, and while clients that were answered
   hold their connections open and idle, one per slot, so that slots
   on pool domains sit in a blocking read.  One daemon at a time. *)
let test_daemon_signal_exit () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "cschedd.exe" ]
  in
  List.iter
    (fun ((name, signal), (conns, held)) ->
      let name =
        String.concat " " (name :: conns)
        ^ Printf.sprintf " with %d idle client(s)" held
      in
      let dir = Filename.temp_file "cschedd_sig" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let path = Filename.concat dir "s.sock" in
      let pid =
        Unix.create_process exe
          (Array.of_list ([ exe; "--quiet"; "--socket"; path ] @ conns))
          Unix.stdin Unix.stdout Unix.stderr
      in
      let rec appear tries =
        if tries = 0 then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.failf "%s: socket never appeared" name
        end
        else if not (Sys.file_exists path) then begin
          Unix.sleepf 0.01;
          appear (tries - 1)
        end
      in
      appear 500;
      (* A client that sends one advise and reads its reply: its
         connection is accepted and served by a slot of its own. *)
      let answered_client () =
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect sock (Unix.ADDR_UNIX path);
        let line = {|{"id":1,"op":"advise","c":1,"u":100,"p":1}|} ^ "\n" in
        ignore (Unix.write_substring sock line 0 (String.length line));
        let buf = Bytes.create 4096 in
        let rec reply acc =
          let n = Unix.read sock buf 0 4096 in
          let acc = acc ^ Bytes.sub_string buf 0 n in
          if n = 0 || String.contains acc '\n' then acc else reply acc
        in
        Alcotest.(check bool) (name ^ ": advise answered") true
          (contains ~sub:{|"ok":true|} (reply ""));
        sock
      in
      let idle =
        if held = 0 then begin
          Unix.close (answered_client ());
          []
        end
        else List.init held (fun _ -> answered_client ())
      in
      Unix.kill pid signal;
      let deadline = Unix.gettimeofday () +. 3. in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          reap ()
        | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          List.iter Unix.close idle;
          Alcotest.failf "%s: still running 3 s after the signal" name
        | _, status -> status
      in
      let status = reap () in
      List.iter Unix.close idle;
      Alcotest.(check bool) (name ^ ": clean exit") true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool) (name ^ ": socket file removed") false
        (Sys.file_exists path);
      Unix.rmdir dir)
    (List.concat_map
       (fun input ->
          [ (("SIGINT", Sys.sigint), input); (("SIGTERM", Sys.sigterm), input) ])
       [
         ([], 0); ([ "--max-conns"; "1" ], 0); ([ "--max-conns"; "3" ], 0);
         ([], 1); ([ "--max-conns"; "1" ], 1); ([ "--max-conns"; "3" ], 3);
       ])

(* A request line longer than the 64 KiB read buffer must yield exactly
   one error response — never a response per 64 KiB fragment, and never
   the oversized request's id — and the next line must parse cleanly. *)
let test_server_overlong_line () =
  let pad = String.make 70_000 'x' in
  let overlong =
    {|{"id":666,"op":"advise","c":1,"u":100,"p":1,"pad":"|} ^ pad ^ {|"}|}
  in
  let follow = {|{"id":7,"op":"advise","c":1,"u":100,"p":1}|} in
  let got, stats, _ = serve_lines [ overlong; follow ] in
  match got with
  | [ first; second ] ->
    Alcotest.(check bool) "overlong rejected" true
      (contains ~sub:{|"ok":false|} first);
    Alcotest.(check bool) "error names the limit" true
      (contains ~sub:"exceeds" first);
    Alcotest.(check bool) "overlong id never surfaces" false
      (contains ~sub:"666" (first ^ second));
    Alcotest.(check string) "follow-up line parses normally"
      (direct_response follow) second;
    Alcotest.(check int) "both accounted" 2 (Stats.requests stats);
    Alcotest.(check int) "the overlong reply is untimed" 1
      (Stats.untimed stats)
  | other ->
    Alcotest.fail
      (Printf.sprintf "expected 2 responses, got %d" (List.length other))

(* Replies that are never timed (a parse error, a stats op) count as
   untimed instead of landing in the latency histogram at zero, while
   an answer-cache hit is timed like any other answer. *)
let test_server_untimed () =
  let advise id = Printf.sprintf {|{"id":%d,"op":"advise","c":1,"u":100,"p":1}|} id in
  let lines = [ advise 1; "not json"; {|{"id":2,"op":"stats"}|}; advise 3 ] in
  let got, stats, server = serve_lines ~batch_size:1 lines in
  Alcotest.(check int) "every line answered" 4 (List.length got);
  Alcotest.(check string) "the hit is byte-identical" (direct_response (advise 3))
    (List.nth got 3);
  Alcotest.(check int) "all counted" 4 (Stats.requests stats);
  Alcotest.(check int) "parse error and stats untimed" 2 (Stats.untimed stats);
  Alcotest.(check int) "the repeat hit" 1
    (Answers.stats (Server.answers server)).Answers.hits;
  let json = Stats.to_json stats ~cache:(Router.cache_stats (Server.router server)) in
  match Option.bind (Json.member "latency" json) (Json.member "min_s") with
  | Some (Json.Float m) ->
    Alcotest.(check bool) (Printf.sprintf "no zero latency recorded (%g)" m) true
      (m > 0.)
  | _ -> Alcotest.fail "no latency.min_s in stats"

(* --- Answer cache ------------------------------------------------------------ *)

(* Two generations of half the budget each: a full young generation
   replaces the old one, a hit in the old generation moves the entry
   back to the young one, the first writer wins, and a stats reset
   keeps the entries.  Every entry here has the same size, so a budget
   of four entries holds two per generation.  A probe that misses
   counts nothing; the server counts misses once a parse shows the
   line cacheable, as [miss] does here. *)
(* One key probed alone. *)
let answers_find a key = Answers.probe a (fun find -> find key)

let test_answers_generations () =
  let payload i = Printf.sprintf "payload-%08d" i in
  let entry_bytes =
    let probe = Answers.create () in
    Answers.store probe "key-0" ~op:"dp" (payload 0);
    (Answers.stats probe).Answers.bytes
  in
  let a = Answers.create ~budget_bytes:(4 * entry_bytes) () in
  let payload_of key = Option.map (fun e -> e.Answers.payload) (answers_find a key) in
  let miss key =
    let got = payload_of key in
    if got = None then Answers.add_misses a 1;
    got
  in
  Alcotest.(check (option string)) "miss on empty" None (miss "key-a");
  Answers.store a "key-a" ~op:"dp" (payload 1);
  Answers.store a "key-b" ~op:"dp" (payload 2);
  Alcotest.(check (option string)) "stored bytes come back verbatim"
    (Some (payload 1)) (payload_of "key-a");
  Alcotest.(check (option string)) "the op comes back" (Some "dp")
    (Option.map (fun e -> e.Answers.op) (answers_find a "key-b"));
  (* The young generation is full: c starts a new one, a and b age. *)
  Answers.store a "key-c" ~op:"dp" (payload 3);
  Alcotest.(check (option string)) "aged entry still hits"
    (Some (payload 1)) (payload_of "key-a");
  (* That hit moved a back to the young generation, so the next
     rotation drops b alone. *)
  Answers.store a "key-d" ~op:"dp" (payload 4);
  Alcotest.(check (option string)) "untouched old entry evicted" None
    (miss "key-b");
  Alcotest.(check (option string)) "touched entry survived"
    (Some (payload 1)) (payload_of "key-a");
  Answers.store a "key-a" ~op:"dp" "other";
  Alcotest.(check (option string)) "first writer wins" (Some (payload 1))
    (payload_of "key-a");
  let s = Answers.stats a in
  Alcotest.(check int) "hits" 5 s.Answers.hits;
  Alcotest.(check int) "misses" 2 s.Answers.misses;
  Alcotest.(check int) "insertions" 4 s.Answers.insertions;
  Alcotest.(check int) "evictions" 1 s.Answers.evictions;
  Alcotest.(check int) "entries" 3 s.Answers.entries;
  Alcotest.(check int) "bytes" (3 * entry_bytes) s.Answers.bytes;
  Alcotest.(check int) "budget" (4 * entry_bytes) s.Answers.budget_bytes;
  (* One probe runs many finds under one lock; a miss there counts
     nothing. *)
  let found =
    Answers.probe a (fun find ->
        List.map (fun k -> Option.is_some (find k)) [ "key-a"; "key-x"; "key-d" ])
  in
  Alcotest.(check (list bool)) "a batch probe" [ true; false; true ] found;
  Alcotest.(check int) "batch probe counts its hits" 7 (Answers.stats a).Answers.hits;
  Alcotest.(check int) "and no misses" 2 (Answers.stats a).Answers.misses;
  Answers.reset_counters a;
  let z = Answers.stats a in
  Alcotest.(check int) "reset zeroes hits" 0 z.Answers.hits;
  Alcotest.(check int) "reset keeps entries" 3 z.Answers.entries;
  (* Stats, custom periods and NaN parameters are never cacheable. *)
  let adv c = Protocol.Advise { c; u = 100.; p = 1 } in
  Alcotest.(check bool) "advise is cacheable" true (Answers.cacheable (adv 0.));
  Alcotest.(check bool) "NaN is not" false (Answers.cacheable (adv Float.nan));
  Alcotest.(check bool) "stats is not" false
    (Answers.cacheable (Protocol.Stats { reset = false }));
  Alcotest.(check bool) "custom periods are not" false
    (Answers.cacheable
       (Protocol.Evaluate
          { c = 1.; u = 20.; p = 1; policy = "adaptive"; periods = Some [ 20. ] }))

(* End to end through the server: a dp answer is served from the
   answer cache before and after its table grows (dp payloads do not
   depend on table bounds), and every reply stays byte-identical to
   the direct baseline. *)
let test_answers_dp_across_grow () =
  let dup id = Printf.sprintf {|{"id":%d,"op":"dp","c_ticks":9,"l":300,"p":1}|} id in
  let grow = {|{"id":2,"op":"dp","c_ticks":9,"l":4000,"p":5}|} in
  let other = {|{"id":3,"op":"dp","c_ticks":4,"l":300,"p":1}|} in
  let lines = [ dup 1; other; dup 4; grow; dup 5 ] in
  let got, _stats, server = serve_lines ~batch_size:1 lines in
  let expected = List.map direct_response lines in
  Alcotest.(check int) "every line answered" (List.length expected)
    (List.length got);
  List.iteri
    (fun i (e, g) ->
       Alcotest.(check string) (Printf.sprintf "line %d byte-identical" i) e g)
    (List.combine expected got);
  let s = Answers.stats (Server.answers server) in
  Alcotest.(check int) "both repeats hit, before and after the grow" 2
    s.Answers.hits;
  Alcotest.(check int) "three distinct requests missed" 3 s.Answers.misses;
  Alcotest.(check int) "stored once each" 3 s.Answers.insertions;
  Alcotest.(check int) "entries resident" 3 s.Answers.entries;
  Alcotest.(check int) "the table grew" 1
    (Router.cache_stats (Server.router server)).Cache.growths

(* The shard a request line is placed on by a [shards]-shard router:
   the one its cache identity hashes to, a hash of its parameters for a
   custom-periods evaluate, shard 0 for other lines without an
   identity. *)
let shard_of_line ~shards line =
  match (Protocol.parse_line line).Protocol.request with
  | Ok (Protocol.Evaluate { periods = Some _; _ } as req) ->
    Router.place ~shards (Printf.sprintf "periods:%d" (Hashtbl.hash req))
  | Ok req -> (
      match Protocol.cache_group req with
      | Some key -> Router.place ~shards key
      | None -> 0)
  | Error _ -> 0

(* A ping-pong socket client: write one request line, read until its
   response line arrives, repeat; returns everything it read. *)
let run_client path lines =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect sock (Unix.ADDR_UNIX path);
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 4096 in
       let newlines = ref 0 in
       let want = ref 0 in
       List.iter
         (fun line ->
            let payload = line ^ "\n" in
            let rec send off =
              if off < String.length payload then
                match
                  Unix.write_substring sock payload off
                    (String.length payload - off)
                with
                | n -> send (off + n)
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
            in
            send 0;
            incr want;
            while !newlines < !want do
              match Unix.read sock chunk 0 (Bytes.length chunk) with
              | 0 -> failwith "server closed the connection early"
              | n ->
                for i = 0 to n - 1 do
                  if Bytes.get chunk i = '\n' then incr newlines
                done;
                Buffer.add_subbytes buf chunk 0 n
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done)
         lines;
       Buffer.contents buf)

(* A socket server on a fresh router. *)
let with_socket_server ?(max_conns = 1) ?(capacity = 16) ?(shards = 1) f =
  let dir = Filename.temp_file "cschedd_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let router = Router.create ~shards ~domains:1 ~capacity () in
  let server = Server.create ~max_conns ~router () in
  let serving = Domain.spawn (fun () -> Server.serve_socket server ~path) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.02;
      wait (tries - 1)
    end
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      (* Unblock the accept loop with one last throwaway connection. *)
      (try
         let poke = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Unix.connect poke (Unix.ADDR_UNIX path);
         Unix.close poke
       with Unix.Unix_error _ -> ());
      Domain.join serving;
      Router.shutdown router;
      (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ()))
    (fun () -> f server path)

(* Deterministic per-client request scripts with disjoint id spaces. *)
let client_script i =
  List.init 40 (fun k ->
      let id = (1000 * (i + 1)) + k in
      match k mod 3 with
      | 0 ->
        Printf.sprintf {|{"id":%d,"op":"advise","c":%d,"u":%d,"p":%d}|} id
          ((k mod 4) + 1)
          (300 + (17 * k))
          (k mod 3)
      | 1 ->
        Printf.sprintf {|{"id":%d,"op":"dp","c_ticks":%d,"l":%d,"p":%d}|} id
          (4 + (k mod 3))
          (150 + (11 * k))
          (k mod 3)
      | _ ->
        Printf.sprintf
          {|{"id":%d,"op":"evaluate","c":1,"u":%d,"p":%d,"policy":"nonadaptive"}|}
          id
          (40 + (7 * k))
          (k mod 2))

(* Two rounds of interleaved clients, each client on its own domain
   running [client path script]: the first against the cold server,
   the second sending the same scripts again to the warm one.  In both
   rounds every client must read exactly direct [Protocol.handle]'s
   bytes, and the server must count every line sent. *)
let check_cold_then_warm ~client server path scripts =
  List.iter
    (fun round ->
       let clients =
         List.map (fun script -> Domain.spawn (fun () -> client path script))
           scripts
       in
       List.iteri
         (fun i (script, out) ->
            Alcotest.(check string)
              (Printf.sprintf "%s round: client %d byte-identical to direct"
                 round i)
              (String.concat ""
                 (List.map (fun l -> direct_response l ^ "\n") script))
              out)
         (List.combine scripts (List.map Domain.join clients)))
    [ "cold"; "warm" ];
  Alcotest.(check int) "every line sent is counted"
    (2 * List.fold_left (fun n script -> n + List.length script) 0 scripts)
    (Stats.requests (Server.stats server))

(* Interleaved clients against one concurrent server, then hot-shard
   traffic — every line placed on one shard of four, so the idle
   siblings see nothing and, warm, the connection workers answer the
   hot shard's resident sub-batches — each cold and then warm. *)
let test_server_concurrent_clients () =
  let nclients = 3 in
  with_socket_server ~max_conns:nclients (fun server path ->
      check_cold_then_warm ~client:run_client server path
        (List.init nclients client_script));
  let shards = 4 in
  let candidates =
    List.concat (List.init 4 client_script)
    @ List.init 12 (fun k -> dp_line (7 + k) (150 + (11 * k)) (k mod 3))
  in
  (* Shard 0, which also holds every advise. *)
  let hot_lines =
    List.filter (fun l -> shard_of_line ~shards l = 0) candidates
  in
  Alcotest.(check bool) "hot-shard traffic has every op" true
    (List.for_all
       (fun op -> List.exists (contains ~sub:op) hot_lines)
       [ {|"advise"|}; {|"dp"|}; {|"evaluate"|} ]);
  with_socket_server ~max_conns:2 ~shards (fun server path ->
      check_cold_then_warm ~client:run_client server path
        [
          List.filteri (fun i _ -> i mod 2 = 0) hot_lines;
          List.filteri (fun i _ -> i mod 2 = 1) hot_lines;
        ])

(* Three clients at once against one connection slot, then two: the
   clients past the slots wait in the listen backlog until a slot
   frees, and each reads exactly direct [Protocol.handle]'s bytes. *)
let test_server_more_clients_than_slots () =
  List.iter
    (fun max_conns ->
       with_socket_server ~max_conns (fun server path ->
           check_cold_then_warm ~client:run_client server path
             (List.init 3 client_script)))
    [ 1; 2 ]

(* Like [run_client], but send the whole script before reading anything:
   the server drains it in large batches, so the batch engine actually
   sees duplicate-heavy batches to group. *)
let run_client_burst path lines =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect sock (Unix.ADDR_UNIX path);
       let payload = String.concat "\n" lines ^ "\n" in
       let rec send off =
         if off < String.length payload then
           match
             Unix.write_substring sock payload off (String.length payload - off)
           with
           | n -> send (off + n)
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
       in
       send 0;
       let want = List.length lines in
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 4096 in
       let newlines = ref 0 in
       while !newlines < want do
         match Unix.read sock chunk 0 (Bytes.length chunk) with
         | 0 -> failwith "server closed the connection early"
         | n ->
           for i = 0 to n - 1 do
             if Bytes.get chunk i = '\n' then incr newlines
           done;
           Buffer.add_subbytes buf chunk 0 n
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done;
       Buffer.contents buf)

(* Scripts dominated by a handful of cache identities, so batch
   grouping folds most of each batch into a few groups. *)
let dup_heavy_script i =
  List.init 48 (fun k ->
      let id = (1000 * (i + 1)) + k in
      match k mod 4 with
      | 0 | 1 ->
        Printf.sprintf {|{"id":%d,"op":"dp","c_ticks":6,"l":%d,"p":%d}|} id
          (200 + (13 * (k mod 5)))
          (k mod 3)
      | 2 ->
        Printf.sprintf
          {|{"id":%d,"op":"evaluate","c":1,"u":90,"p":%d,"policy":"adaptive"}|}
          id (k mod 2)
      | _ ->
        Printf.sprintf {|{"id":%d,"op":"advise","c":2,"u":%d,"p":1}|} id
          (400 + k))

(* Interleaved dup-heavy clients, whole scripts sent as one burst, cold
   and then warm: grouping reorders evaluation inside a batch, but
   outcomes must scatter back in request order, so every client reads
   exactly the bytes a serial ungrouped server would have sent it.
   Then two clients over a fresh server: the warm round repeats every
   request, so each of its lines is answered from the answer cache;
   and however the bursts interleave, the one dp table (c = 6; every
   bound rounds up to the same canonical table) is solved once and the
   one state-only solver (adaptive at c = 1, u = 90) is built once. *)
let test_grouping_preserves_order () =
  let nclients = 3 in
  with_socket_server ~max_conns:nclients ~shards:2 (fun server path ->
      check_cold_then_warm ~client:run_client_burst server path
        (List.init nclients dup_heavy_script));
  with_socket_server ~max_conns:2 ~shards:2 (fun server path ->
      let scripts = List.init 2 dup_heavy_script in
      check_cold_then_warm ~client:run_client_burst server path scripts;
      let s = Router.cache_stats (Server.router server) in
      Alcotest.(check int) "one solve per distinct dp table" 1 s.Cache.misses;
      Alcotest.(check int) "one build per solver identity" 1
        s.Cache.solver_misses;
      let per_round = List.length (List.concat scripts) in
      let a = Answers.stats (Server.answers server) in
      Alcotest.(check int) "every line probed the answer cache"
        (2 * per_round) (a.Answers.hits + a.Answers.misses);
      Alcotest.(check bool) "the warm round hits the answer cache" true
        (a.Answers.hits >= per_round))

(* --- Answer cache: differential streams ------------------------------- *)

(* Request bodies, without an id, that the stream generator repeats
   under fresh ids.  They cover the edges of the answer key: number
   spellings and field orders that decode alike, adjacent doubles and
   signed zeros that must not, policy aliases, custom periods (never
   cached), an unknown policy and invalid parameters (errors, never
   stored).  [answer_dp_small] and [answer_dp_grow] share one dp table;
   every stream asks the small query on either side of the grow. *)
let answer_bodies =
  [|
    {|"op":"advise","c":2,"u":100,"p":1|};
    {|"u":1e2,"p":1,"c":2.0,"op":"advise"|};
    {|"op":"advise","c":2.0000000000000004,"u":100,"p":1|};
    {|"op":"advise","c":1.9999999999999998,"u":100,"p":1|};
    {|"op":"advise","c":0.0,"u":100,"p":1|};
    {|"op":"advise","c":-0.0,"u":100,"p":1|};
    {|"op":"schedule","c":1,"u":150,"p":2,"regime":"adaptive"|};
    {|"op":"schedule","c":1,"u":150.00000000000003,"p":2,"regime":"adaptive"|};
    {|"op":"schedule","c":1,"u":150,"p":2,"regime":"nonadaptive"|};
    {|"op":"evaluate","c":1,"u":60,"p":1,"policy":"fixed_chunk"|};
    {|"op":"evaluate","c":1,"u":60,"p":1,"policy":"fixed-chunk"|};
    {|"op":"evaluate","c":1,"u":60,"p":2,"policy":"adaptive"|};
    {|"op":"evaluate","c":1,"u":60,"p":2,"policy":"nonadaptive"|};
    {|"op":"evaluate","c":1,"u":60,"p":2,"policy":"no-such-policy"|};
    {|"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5]|};
    {|"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5.000000000000001]|};
    {|"op":"evaluate","c":1,"u":20,"p":1,"periods":[10,5,5]|};
    {|"op":"dp","c_ticks":5,"l":300,"p":1|};
    {|"op":"dp","c_ticks":5,"l":3000,"p":4|};
    {|"op":"dp","c_ticks":5,"l":299,"p":1|};
    {|"op":"dp","c_ticks":7,"l":200,"p":2|};
    {|"op":"strategies"|};
  |]

let answer_dp_small = 17
let answer_dp_grow = 18

let answer_malformed =
  [|
    "garbage that is not json";
    "[1,2,3]";
    {|{"id":7,"op":"advise","c":"x"}|};
    {|{"op":"nope"}|};
    {|{"id":|};
  |]

(* --- Protocol scanner vs its oracle ---------------------------------------- *)

(* The scanner's envelope as bytes: the id, then the request or the
   error, each through the printer. *)
let envelope_bytes (e : Protocol.envelope) =
  Json.to_string e.Protocol.id
  ^ "\n"
  ^
  match e.Protocol.request with
  | Ok req -> Json.to_string (Protocol.request_to_json req)
  | Error err ->
    Cyclesteal.Error.code err ^ ": " ^ Cyclesteal.Error.to_string err

let scanner_matches_oracle line =
  String.equal
    (envelope_bytes (Protocol.parse_line line))
    (envelope_bytes (Oracle.Protocol_ref.parse_line line))

(* Number spellings: integers (leading zeros, -0, the int range's
   edges, past it), floats on and off Clinger's fast path (15 vs more
   significant digits, exponents near +-22 and far past), and the
   printer's own renderings of random doubles. *)
let number_text =
  let open QCheck.Gen in
  let digits lo hi =
    map (fun ds -> String.concat "" (List.map string_of_int ds))
      (list_size (lo -- hi) (int_bound 9))
  in
  let sign = oneofl [ ""; ""; "-" ] in
  let exponent =
    oneof
      [
        return "";
        map3 (fun e s n -> e ^ s ^ string_of_int n) (oneofl [ "e"; "E" ])
          (oneofl [ ""; "+"; "-" ]) (int_bound 30);
        map (fun n -> "e" ^ string_of_int n) (int_range (-400) 400);
        map (fun z -> "e-00" ^ z) (digits 1 3);
      ]
  in
  oneof
    [
      map string_of_int (int_range (-100) 5000);
      map2 ( ^ ) sign (digits 1 25);
      oneofl
        [
          "0"; "-0"; "007"; "-0.0"; "0e5"; "-0e-5"; "4611686018427387903";
          "4611686018427387904"; "-4611686018427387904";
          "-4611686018427387905"; "999999999999999999"; "1000000000000000000";
          "123456789012345678901234567890"; "1e22"; "1e23"; "1e-22"; "1e-23";
          "999999999999999e22"; "9999999999999999e22"; "1.7976931348623157e308";
          "1e309"; "-1e309"; "4.9e-324"; "1e-400"; "0.1"; "2.5"; "86400.5";
          "1e15"; "1e14"; "999999999999999.0"; "0.000000000000000000001";
          "1.00000000000000000000000000001";
        ];
      map4 (fun s i f e -> s ^ i ^ "." ^ f ^ e) sign (digits 1 10) (digits 1 12)
        exponent;
      map3 (fun s i e -> s ^ i ^ e) sign (digits 1 17) exponent;
      map (fun x -> Json.to_string (Json.Float x)) (float_range (-1e7) 1e7);
      map (fun x -> Json.to_string (Json.Float x)) float;
      map (fun x -> Printf.sprintf "%.17g" x) (float_range 1e-3 1e6);
    ]

let string_text =
  let open QCheck.Gen in
  let names =
    [
      "advise"; "schedule"; "evaluate"; "dp"; "strategies"; "stats"; "adaptive";
      "nonadaptive"; "calibrated"; "opt-p1"; "dp_exact"; "fixed-chunk";
      "fixed_chunk"; "naive"; "geometric"; "bogus"; "";
    ]
  in
  oneof
    [
      map (fun s -> Json.to_string (Json.String s)) (oneofl names);
      map (fun s -> Json.to_string (Json.String s)) (string_size ~gen:char (0 -- 8));
      oneofl
        [
          {|"advise"|}; {|"adaptive"|}; {|"d\p"|}; {|"x\u12"|};
          {|"a\/b"|}; {|"tab\there"|}; {|"q\"q"|}; {|"\uD83D"|};
        ];
    ]

(* Any JSON value's text, nested arrays and objects included. *)
let rec value_text depth =
  let open QCheck.Gen in
  let scalar =
    oneof [ number_text; string_text; oneofl [ "true"; "false"; "null" ] ]
  in
  if depth = 0 then scalar
  else
    frequency
      [
        (4, scalar);
        ( 1,
          map
            (fun vs -> "[" ^ String.concat "," vs ^ "]")
            (list_size (0 -- 4) (value_text (depth - 1))) );
        ( 1,
          map
            (fun kvs ->
               "{"
               ^ String.concat ","
                   (List.map
                      (fun (k, v) -> Json.to_string (Json.String k) ^ ":" ^ v)
                      kvs)
               ^ "}")
            (list_size (0 -- 3)
               (pair (oneofl [ "a"; "op"; "c"; "x y" ]) (value_text (depth - 1)))) );
      ]

(* A request's fields: every op and field, mostly of the right kind,
   with unknown fields, repeated keys, escaped keys and an id of any
   kind, in random order with random whitespace between tokens. *)
let request_text =
  let open QCheck.Gen in
  let known_value = function
    | "c" | "u" | "p" | "c_ticks" | "l" ->
      frequency
        [
          (4, map string_of_int (int_range 1 3000));
          (2, map (fun x -> Json.to_string (Json.Float x)) (float_range 0.5 5000.));
          (4, number_text);
          (1, value_text 1);
        ]
    | "regime" | "policy" | "op" -> frequency [ (6, string_text); (1, value_text 1) ]
    | "periods" ->
      frequency
        [
          ( 5,
            map (fun vs -> "[" ^ String.concat "," vs ^ "]")
              (list_size (0 -- 5) number_text) );
          (1, value_text 2);
        ]
    | "reset" -> frequency [ (4, oneofl [ "true"; "false" ]); (1, value_text 1) ]
    | _ -> value_text 2
  in
  let key =
    frequency
      [
        ( 8,
          oneofl
            [
              "op"; "c"; "u"; "p"; "regime"; "policy"; "periods"; "c_ticks";
              "l"; "reset"; "id";
            ]
        );
        (2, oneofl [ "pad"; "x"; ""; "cc"; "ops"; "P"; "resets" ]);
        (1, oneofl [ {|\u006fp|}; {|\u0063|}; {|i\u0064|}; {|period\u0073|} ]);
      ]
  in
  let field =
    let* k = key in
    let plain = String.index_opt k '\\' = None in
    let* v = if plain then known_value k else value_text 1 in
    return ("\"" ^ k ^ "\":" ^ v)
  in
  let ws = oneofl [ ""; ""; ""; " "; "\t"; "\n"; "\r"; "  " ] in
  let* op =
    frequency
      [
        ( 6,
          oneofl
            [
              {|"advise"|}; {|"schedule"|}; {|"evaluate"|}; {|"dp"|};
              {|"strategies"|}; {|"stats"|};
            ]
        );
        (2, string_text);
        (1, value_text 1);
      ]
  in
  let* fields = list_size (0 -- 8) field in
  let* fields = shuffle_l (("\"op\":" ^ op) :: fields) in
  let* pre = ws and* post = ws and* sep = ws in
  return (pre ^ "{" ^ sep ^ String.concat ("," ^ sep) fields ^ sep ^ "}" ^ post)

(* Byte-level damage: truncate, delete, insert, flip. *)
let mutate line =
  let open QCheck.Gen in
  let special =
    oneofl
      [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; '-'; '.'; 'e'; '0'; '9'; ' '; 'u'; 't' ]
  in
  let once s =
    let n = String.length s in
    if n = 0 then return s
    else
      let* i = int_bound (n - 1) in
      let* c = frequency [ (3, special); (1, char) ] in
      oneofl
        [
          String.sub s 0 i;
          String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1);
          String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
          String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1);
        ]
  in
  let rec go k s = if k = 0 then return s else once s >>= go (k - 1) in
  let* k = int_range 1 3 in
  go k line

let protocol_corpus =
  Array.to_list answer_malformed
  @ [
      {|{"id":666,"op":"advise","c":1,"u":100,"p":1,"pad":"|}
      ^ String.make 70_000 'x' ^ {|"}|};
      "junk line 0"; ""; " "; "{}"; "[]"; "null"; "1"; "\"op\""; "{\"op\"";
      {|{"op":"advise"} x|}; {|{"op":"advise",}|}; {|{"op" "advise"}|};
      {|{"id":1}|}; {|{"op":"frobnicate"}|}; {|{"op":"advise","c":-1}|};
      {|{"op":"advise","c":"ten"}|}; {|{"op":"dp","c_ticks":0}|};
      {|{"op":"evaluate","periods":[1,"x"]}|};
      {|{"op":"evaluate","periods":[1,"x"],"c":"y"}|};
      {|{"op":"evaluate","periods":{}}|};
      {|{"op":"stats","reset":tru}|}; {|{"op":"stats","reset":1}|};
      {|{"op":"dp","p":2.0,"l":1e3,"c_ticks":7.5}|};
      {|{"op":"dp","p":1e15,"l":-0}|};
      (* The dp table budget: 2^25 cells of the canonical table. *)
      {|{"op":"dp","c_ticks":1,"l":8388608,"p":2}|};
      {|{"op":"dp","c_ticks":1,"l":8388609,"p":2}|};
      {|{"op":"dp","l":256,"p":130560}|}; {|{"op":"dp","l":256,"p":130561}|};
      {|{"op":"dp","c_ticks":1,"l":4611686018427387903,"p":2}|};
      {|{"op":"dp","c_ticks":1,"l":100000000000,"p":3}|};
      {|{"op":"dp","l":0,"p":4611686018427387903}|};
      (* The schedule budget: 2^20 periods by the regime's closed form. *)
      {|{"op":"schedule","c":1e-300,"u":1e300,"p":2}|};
      {|{"op":"schedule","c":1,"u":549755813888,"p":1,"regime":"nonadaptive"}|};
      {|{"op":"schedule","c":1,"u":1099511627776,"p":1,"regime":"nonadaptive"}|};
      {|{"op":"schedule","c":1,"u":1e9,"p":20}|};
      {|{"op":"schedule","c":1,"u":1e5,"p":20}|};
      {|{"op":"schedule","c":1,"u":2000,"p":1000000000000,"regime":"calibrated"}|};
      {|{"op":"schedule","c":1,"u":1e300,"p":0,"regime":"opt-p1"}|};
      {|{"op":"schedule","c":1,"u":1e300,"p":0,"regime":"other"}|};
      {|{"op":"schedule","c":1e999,"u":1,"p":2}|};
      {|{"op":"schedule","c":1e999,"u":1e999,"p":2,"regime":"opt-p1"}|};
      {|{"op":"schedule","c":1,"u":1e999,"p":2,"regime":"nonadaptive"}|};
      {|{"op":"advise","c":1,"c":"x","op":5}|};
      {|{"op":5,"op":"advise"}|};
      {|{"op":"advise","c":2}|};
      {|{"id":{"a":[1,{"b":null}]},"op":"strategies"}|};
      {|{"id":"q\né","op":"strategies"}|};
    ]

let protocol_line_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, request_text);
      (4, request_text >>= mutate);
      (1, oneofl protocol_corpus);
      (1, oneofl protocol_corpus >>= mutate);
    ]

let prop_scanner_matches_oracle =
  QCheck.Test.make ~name:"parse_line = Ref.parse_line" ~count:10000
    (QCheck.make protocol_line_gen ~print:(fun l ->
         Printf.sprintf "%S\nscanner: %s\noracle:  %s" l
           (envelope_bytes (Protocol.parse_line l))
           (envelope_bytes (Oracle.Protocol_ref.parse_line l))))
    scanner_matches_oracle

let test_scanner_corpus () =
  List.iter
    (fun line ->
       if not (scanner_matches_oracle line) then
         Alcotest.failf "%S: scanner %s, oracle %s" line
           (envelope_bytes (Protocol.parse_line line))
           (envelope_bytes (Oracle.Protocol_ref.parse_line line)))
    protocol_corpus

(* A warm request line allocates the envelope, the request, the id
   and one cursor: under 60 minor words for a line of each op, where
   the tree-based decoder took 144-194. *)
let test_scanner_allocation () =
  List.iter
    (fun line ->
       ignore (Protocol.parse_line line);
       let before = Gc.minor_words () in
       let e = Protocol.parse_line line in
       let words = Gc.minor_words () -. before in
       Alcotest.(check bool) ("parsed " ^ line) true (Result.is_ok e.Protocol.request);
       if words >= 60. then Alcotest.failf "%s allocated %.0f minor words" line words)
    [
      {|{"id":4021,"op":"advise","c":2.5,"u":86400,"p":3}|};
      {|{"id":4022,"op":"schedule","c":1,"u":1000,"p":2,"regime":"calibrated"}|};
      {|{"id":4023,"op":"evaluate","c":3,"u":1250.75,"p":2,"policy":"nonadaptive"}|};
      {|{"id":4024,"op":"dp","c_ticks":14,"l":2732,"p":4}|};
    ]

type answer_item = Body of int | Stats_op | Malformed of int

(* Render a stream: each item gets the next id, as a number, a string
   or no id at all, placed before or after the body's fields. *)
let render_answer_stream items =
  List.mapi
    (fun n (item, id_form, id_last) ->
       let id =
         match id_form with
         | 0 -> Some (string_of_int n)
         | 1 -> Some (Printf.sprintf {|"r%d"|} n)
         | _ -> None
       in
       let with_id body =
         match id with
         | None -> "{" ^ body ^ "}"
         | Some id when id_last -> Printf.sprintf {|{%s,"id":%s}|} body id
         | Some id -> Printf.sprintf {|{"id":%s,%s}|} id body
       in
       match item with
       | Body i -> with_id answer_bodies.(i)
       | Stats_op -> with_id {|"op":"stats"|}
       | Malformed i -> answer_malformed.(i))
    items

let answer_stream_gen =
  let open QCheck.Gen in
  let item =
    frequency
      [
        (12, map (fun i -> Body i) (int_bound (Array.length answer_bodies - 1)));
        (1, return Stats_op);
        ( 1,
          map (fun i -> Malformed i) (int_bound (Array.length answer_malformed - 1))
        );
      ]
  in
  let tagged it = triple it (int_bound 2) bool in
  let* before = list_size (int_range 0 25) (tagged item) in
  let* grow =
    flatten_l
      (List.map
         (fun i -> tagged (return (Body i)))
         [ answer_dp_small; answer_dp_grow; answer_dp_small ])
  in
  let* after = list_size (int_range 0 25) (tagged item) in
  let* batch_size = oneofl [ 1; 5; 64 ] in
  return (batch_size, render_answer_stream (before @ grow @ after))

(* Every reply equals direct [Protocol.handle]'s bytes, except a stats
   reply, which only the daemon can give: it must succeed under the
   request's id. *)
let replies_match_direct lines got =
  List.length lines = List.length got
  && List.for_all2
       (fun line reply ->
          let e = Protocol.parse_line line in
          match e.Protocol.request with
          | Ok (Protocol.Stats _) ->
            let prefix =
              Printf.sprintf {|{"id":%s,"ok":true,"result":{|}
                (Json.to_string e.Protocol.id)
            in
            String.starts_with ~prefix reply
          | _ -> String.equal (direct_response line) reply)
       lines got

(* The answer cache probed once per cacheable request and never held
   more than its budget. *)
let answers_accounted lines server =
  let cacheable =
    List.length
      (List.filter
         (fun line ->
            match (Protocol.parse_line line).Protocol.request with
            | Ok req -> Answers.cacheable req
            | Error _ -> false)
         lines)
  in
  let a = Answers.stats (Server.answers server) in
  a.Answers.hits + a.Answers.misses = cacheable
  && a.Answers.bytes <= a.Answers.budget_bytes

(* Streams that repeat requests under new ids, served through
   [serve_fd] and through the socket server, read exactly direct
   [Protocol.handle]'s bytes. *)
let prop_answers_match_direct =
  QCheck.Test.make ~name:"answers: streams = direct handle" ~count:25
    (QCheck.make answer_stream_gen ~print:(fun (b, lines) ->
         Printf.sprintf "batch %d\n%s" b (String.concat "\n" lines)))
    (fun (batch_size, lines) ->
       let got, _, server = serve_lines ~batch_size lines in
       let piped = replies_match_direct lines got && answers_accounted lines server in
       let socket =
         with_socket_server (fun server path ->
             let out = run_client_burst path lines in
             let got = String.split_on_char '\n' out in
             replies_match_direct lines
               (List.filteri (fun i _ -> i < List.length got - 1) got)
             && answers_accounted lines server)
       in
       piped && socket)

(* Id values for the no-parse hit path: integers (one past the int
   range), signed zeros, floats (one past the double range), strings
   with escapes, literals, nested arrays and objects, values with blanks
   around them, and spellings the id reader refuses. *)
let split_ids =
  [|
    "0"; "-0"; "17"; "-42"; "12345678901234567890"; "1.5"; "-0.0";
    "2.50e3"; "1e999"; "-1e999"; {|""|}; {|"r\"1\\"|}; {|"é\n\t"|};
    "true"; "null"; "[]"; {|[1,[2.5,{"a":null}],"x"]|};
    {|{"id":3,"k":[{}]}|}; " 7"; "8 "; "\t\"s\" "; "-"; "1."; "'q'";
    "{";
  |]

(* A line around body [b]: [kind] 0 puts id [v] first, 1 adds a blank
   before the line (so it does not split), 2 puts the id last, 3 leaves
   it out, 4 puts a malformed line after the id's comma, 5 puts kind
   1's whole line there (a tail that spells another line's whole-line
   key; the stream sends kind 1 first), 6 sends the body's members
   alone (a line that spells kind 0's tail), and 7 ends the line after
   the id. *)
let split_line kind v b m =
  let body = answer_bodies.(b) in
  match kind with
  | 0 -> Printf.sprintf {|{"id":%s,%s}|} v body
  | 1 -> Printf.sprintf {| {"id":%s,%s}|} v body
  | 2 -> Printf.sprintf {|{%s,"id":%s}|} body v
  | 3 -> Printf.sprintf "{%s}" body
  | 4 -> Printf.sprintf {|{"id":%s,%s|} v answer_malformed.(m)
  | 5 -> Printf.sprintf {|{"id":%s, {"id":%s,%s}|} v v body
  | 6 -> body ^ "}"
  | _ -> Printf.sprintf {|{"id":%s}|} v

let split_stream_gen =
  let open QCheck.Gen in
  let line =
    map
      (fun (kind, v, (b, m)) ->
         let line kind = split_line kind split_ids.(v) b m in
         if kind = 5 then [ line 1; line 5 ] else [ line kind ])
      (triple
         (frequency [ (1, return 0); (1, int_bound 7) ])
         (int_bound (Array.length split_ids - 1))
         (pair
            (int_bound (Array.length answer_bodies - 1))
            (int_bound (Array.length answer_malformed - 1))))
  in
  let* lines = map List.concat (list_size (int_range 1 30) line) in
  (* Repeat the stream once more, so most second copies can hit. *)
  let* batch_size = oneofl [ 1; 5; 64 ] in
  return (batch_size, lines @ lines)

(* [split_id] against [parse_line]: a split line that parses [Ok]
   carries the split id and the request its tail decodes to alone, a
   split line that fails fails on its tail too, and a line with the
   prefix that does not split never parses [Ok]. *)
let split_agrees line =
  let e = Protocol.parse_line line in
  match Protocol.split_id line with
  | Some (id, off) -> (
    let tail = Protocol.parse_line ("{" ^ String.sub line off (String.length line - off)) in
    match (e.Protocol.request, tail.Protocol.request) with
    | Ok r, Ok r' ->
      String.equal (Json.to_string id) (Json.to_string e.Protocol.id) && r = r'
    | Error _, Error _ -> true
    | _ -> false)
  | None ->
    (not (String.starts_with ~prefix:{|{"id":|} line))
    || Result.is_error e.Protocol.request

(* Streams of lines whose ids take every shape, each line repeated:
   served through [serve_fd] and through the socket server, every reply
   is direct [Protocol.handle]'s, the answer cache is probed once per
   cacheable line, and [split_id] agrees with [parse_line]. *)
let prop_split_hits_match_direct =
  QCheck.Test.make ~name:"answers: no-parse hits = direct handle" ~count:25
    (QCheck.make split_stream_gen ~print:(fun (b, lines) ->
         Printf.sprintf "batch %d\n%s" b (String.concat "\n" lines)))
    (fun (batch_size, lines) ->
       let got, _, server = serve_lines ~batch_size lines in
       let piped = replies_match_direct lines got && answers_accounted lines server in
       let socket =
         with_socket_server (fun server path ->
             let out = run_client_burst path lines in
             let got = String.split_on_char '\n' out in
             replies_match_direct lines
               (List.filteri (fun i _ -> i < List.length got - 1) got)
             && answers_accounted lines server)
       in
       piped && socket && List.for_all split_agrees lines)

(* Random stores and probes against small budgets: resident bytes never
   exceed the budget, a probe returns only what was stored for an equal
   key, and every probe is a hit or, counted as the server counts it, a
   miss. *)
let prop_answers_budget =
  let keys =
    Array.init 17 (fun k -> Printf.sprintf "T%s,\"k\":%d}" (String.make (k mod 5) ' ') k)
  in
  let payload k len = String.make (len + 1) (Char.chr (65 + k)) in
  QCheck.Test.make ~name:"answers: bytes within budget" ~count:300
    QCheck.(
      pair (int_range 64 4096)
        (list_of_size Gen.(int_range 1 200)
           (triple bool (int_bound (Array.length keys - 1)) (int_bound 400))))
    (fun (budget, ops) ->
       let a = Answers.create ~budget_bytes:budget () in
       let probes = ref 0 in
       List.for_all
         (fun (is_store, k, len) ->
            let key = keys.(k) in
            let found_ok =
              if is_store then begin
                Answers.store a key ~op:"dp" (payload k len);
                true
              end
              else begin
                incr probes;
                match answers_find a key with
                | None ->
                  Answers.add_misses a 1;
                  true
                | Some e -> e.Answers.payload.[0] = Char.chr (65 + k)
              end
            in
            let s = Answers.stats a in
            found_ok
            && s.Answers.bytes <= budget
            && s.Answers.hits + s.Answers.misses = !probes)
         ops)

(* A client that floods requests and vanishes without reading must cost
   an io_errors tick, not the daemon: a later client is still served. *)
let test_server_client_disconnect () =
  with_socket_server ~max_conns:2 ~capacity:8 (fun server path ->
      let provoke attempt =
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.connect sock (Unix.ADDR_UNIX path);
           (* Distinct params each attempt keep the solves cold and
              slow, so the responses land after we are gone. *)
           let line =
             Printf.sprintf {|{"id":1,"op":"advise","c":%d,"u":%d,"p":2}|}
               ((attempt mod 5) + 1)
               (40_000 + (attempt * 97))
             ^ "\n"
           in
           for _ = 1 to 100 do
             ignore (Unix.write_substring sock line 0 (String.length line))
           done
         with Unix.Unix_error _ -> ());
        try Unix.close sock with Unix.Unix_error _ -> ()
      in
      let io_errors () = Stats.io_errors (Server.stats server) in
      let rec attempt tries =
        if tries = 0 || io_errors () > 0 then ()
        else begin
          provoke (10 - tries);
          let rec poll k =
            if k = 0 || io_errors () > 0 then ()
            else begin
              Unix.sleepf 0.02;
              poll (k - 1)
            end
          in
          poll 50;
          attempt (tries - 1)
        end
      in
      attempt 10;
      Alcotest.(check bool) "disconnect counted as io error" true
        (io_errors () > 0);
      let line = {|{"id":42,"op":"advise","c":1,"u":250,"p":1}|} in
      Alcotest.(check string) "daemon still serves after disconnects"
        (direct_response line ^ "\n")
        (run_client path [ line ]))

(* --- Router: placement ------------------------------------------------------ *)

(* Placement is a pure function: in range, and the same on every call
   (rendezvous hashing uses no per-process state). *)
let prop_placement_range =
  QCheck.Test.make ~name:"Router.place lands in range, deterministically"
    ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 64)) (int_range 1 16))
    (fun (key, shards) ->
       let k = Router.place ~shards key in
       k >= 0 && k < shards && Router.place ~shards key = k)

(* Rendezvous stability, sharply: a key moves from a K-shard placement
   to a (K+1)-shard one only if the new shard out-scores its old one,
   so every mover lands on shard K, and about 1/(K+1) of keys move. *)
let test_placement_remap () =
  let keys =
    List.init 2000 (fun i ->
        Printf.sprintf "cu:%h:%h:advise" (float_of_int (i + 1)) (3.5 *. float_of_int i))
  in
  let n = float_of_int (List.length keys) in
  List.iter
    (fun shards ->
       let moved =
         List.filter
           (fun key ->
              let before = Router.place ~shards key in
              let after = Router.place ~shards:(shards + 1) key in
              if after <> before then begin
                Alcotest.(check int)
                  (Printf.sprintf "K=%d: mover lands on the new shard" shards)
                  shards after;
                true
              end
              else false)
           keys
       in
       let frac = float_of_int (List.length moved) /. n in
       let expected = 1. /. float_of_int (shards + 1) in
       Alcotest.(check bool)
         (Printf.sprintf "K=%d: %.3f of keys moved (expected ~%.3f)" shards
            frac expected)
         true
         (frac > 0.3 *. expected && frac < 2.5 *. expected))
    [ 1; 2; 3; 4; 7 ]

(* Requests that share cached state share a cache identity — e.g.
   evaluate of a state-only policy over the same (c, u) at different p
   reuses one resident solver, and so do two spellings of one planner
   — so they must land on the same shard. *)
let test_placement_equal_canonical_keys () =
  let key line =
    match (Protocol.parse_line line).Protocol.request with
    | Ok req -> Protocol.cache_group req
    | Error e -> Alcotest.fail (Cyclesteal.Error.to_string e)
  in
  let adaptive p =
    key
      (Printf.sprintf
         {|{"op":"evaluate","c":1,"u":120,"p":%d,"policy":"adaptive"}|} p)
  in
  Alcotest.(check bool) "p is not part of a state-only policy's key" true
    (adaptive 1 = adaptive 3 && adaptive 1 <> None);
  (* And a dp key names the table alone, as bank slicing assumes. *)
  Alcotest.(check bool) "dp key ignores the bounds" true
    (key {|{"op":"dp","c_ticks":7,"l":200,"p":1}|}
     = key {|{"op":"dp","c_ticks":7,"l":0,"p":0}|}
     && key {|{"op":"dp","c_ticks":7,"l":0,"p":0}|}
        <> key {|{"op":"dp","c_ticks":8,"l":0,"p":0}|});
  let evaluate_key ~u policy =
    Protocol.cache_group
      (Protocol.Evaluate { c = 1.; u; p = 2; policy; periods = None })
  in
  List.iter
    (fun (name, alias) ->
       Alcotest.(check (option string))
         (Printf.sprintf "%s and %s share a key" name alias)
         (evaluate_key ~u:70. name) (evaluate_key ~u:70. alias))
    [ ("fixed_chunk", "fixed-chunk"); ("dp_exact", "dp-optimal") ];
  (* A lifespan where keys built from the raw spellings would place the
     two aliases apart: cold, one router run still builds one solver. *)
  let shards = 2 in
  let raw_shard ~u policy =
    Router.place ~shards
      (Printf.sprintf "cu:%h:%h:%s" 1. (float_of_int u) policy)
  in
  let u =
    match
      List.find_opt
        (fun u -> raw_shard ~u "fixed_chunk" <> raw_shard ~u "fixed-chunk")
        (List.init 64 (fun k -> 60 + k))
    with
    | Some u -> u
    | None -> Alcotest.fail "no lifespan splits the raw spellings"
  in
  let lines =
    [|
      evaluate_line ~u ~p:2 "fixed_chunk"; evaluate_line ~u ~p:2 "fixed-chunk";
    |]
  in
  let router = Router.create ~shards ~domains:2 ~capacity:8 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       Alcotest.(check (list string)) "aliases: bytes = direct handle"
         (List.map direct_response (Array.to_list lines))
         (outcome_strings (Router.run router lines));
       Alcotest.(check int) "aliases: one solver build" 1
         (Router.cache_stats router).Cache.solver_misses)

(* --- Router: sharded serving ------------------------------------------------ *)

(* The whole mixed corpus through a 3-shard router must serve bytes
   identical to direct library calls — routing must be invisible. *)
let test_sharded_byte_identity () =
  let lines = mixed_request_lines () in
  let expected = List.map direct_response lines in
  let got, stats, _server = serve_lines ~batch_size:32 ~shards:3 lines in
  Alcotest.(check int) "one response per request" (List.length lines)
    (List.length got);
  List.iteri
    (fun i (e, g) ->
       Alcotest.(check string)
         (Printf.sprintf "K=3 line %d byte-identical" i)
         e g)
    (List.combine expected got);
  Alcotest.(check int) "requests counted" (List.length lines)
    (Stats.requests stats)

(* The stats payload of a K>1 daemon carries per-shard sections, and
   every routed request is accounted by exactly one shard. *)
let test_sharded_stats_sections () =
  let lines =
    List.init 12 (fun i ->
        Printf.sprintf {|{"id":%d,"op":"advise","c":%d,"u":%d,"p":1}|} i
          ((i mod 4) + 1)
          (200 + (31 * i)))
    @ [ {|{"id":99,"op":"stats"}|} ]
  in
  let got, _, _ = serve_lines ~batch_size:64 ~shards:2 lines in
  let last = List.nth got (List.length got - 1) in
  Alcotest.(check bool) "payload has shard sections" true
    (contains ~sub:{|"shards":[|} last && contains ~sub:{|"shard":1|} last)

(* --- Router: inline resident sub-batches ------------------------------- *)

(* The state [resident_cache] holds, built through a router so each
   table and solver lands on its placement owner. *)
let warm_router router =
  ignore
    (Router.run router
       [|
         dp_line 3 512 4;
         dp_line 5 512 4;
         evaluate_line ~u:60 ~p:2 "adaptive";
         evaluate_line ~u:60 ~p:2 "nonadaptive";
       |])

let shard_requests router =
  List.map
    (function
      | Json.Obj fields -> (
          match List.assoc_opt "requests" fields with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.fail "shard section without requests")
      | _ -> Alcotest.fail "shard section is not an object")
    (Router.shards_json router)

(* Every line a router receives is counted by exactly one shard: on a
   3-shard router, a served stream of distinct lines — strategies,
   malformed lines, an unknown op, advise and schedule, dp, named,
   alias and custom-periods evaluates — adds up, over the shards'
   [requests], to the lines served, and each shard counts the lines
   its cache identity (shard 0 without one) places on it.  Custom-periods
   evaluates are spread by a hash of their parameters, so seven of them
   do not all land on one shard. *)
let test_router_shard_conservation () =
  let shards = 3 in
  let lines =
    [
      {|{"id":1,"op":"strategies"}|};
      "junk";
      {|{"id":2,"op":"nope"}|};
      {|{"id":3,"op":"advise","c":1,"u":100,"p":1}|};
      {|{"id":4,"op":"schedule","c":1,"u":100,"p":2,"regime":"adaptive"}|};
      {|{"id":5,"op":"evaluate","c":1,"u":20,"p":1,"periods":[8,7,5]}|};
      {|{"id":6,"op":"evaluate","c":1,"u":20,"p":1,"policy":"no-such"}|};
      {|{"op":"dp","c_ticks":1,"l":100000000000,"p":3}|};
      "{";
    ]
    @ List.init 6 (fun c -> dp_line (c + 3) 200 2)
    @ List.concat_map
        (fun u ->
           [
             evaluate_line ~u ~p:1 "adaptive"; evaluate_line ~u ~p:2 "nonadaptive";
             evaluate_line ~u ~p:1 "fixed-chunk";
           ])
        [ 40; 55; 70 ]
    @ List.init 6 (fun k ->
        Printf.sprintf {|{"op":"evaluate","c":1,"u":%d,"p":1,"periods":[%d,8]}|}
          (k + 9) (k + 1))
  in
  let custom_shards =
    List.sort_uniq compare
      (List.filter_map
         (fun l ->
            if contains ~sub:{|"periods"|} l then Some (shard_of_line ~shards l)
            else None)
         lines)
  in
  Alcotest.(check bool) "custom periods on more than one shard" true
    (List.length custom_shards > 1);
  let router = Router.create ~shards ~domains:2 ~capacity:16 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       let got, stats, _ = serve_lines ~batch_size:4 ~router lines in
       Alcotest.(check (list string)) "bytes = direct handle"
         (List.map direct_response lines) got;
       let placed = Array.make shards 0 in
       List.iter
         (fun l ->
            let k = shard_of_line ~shards l in
            placed.(k) <- placed.(k) + 1)
         lines;
       Alcotest.(check (list int)) "each shard counts its placed lines"
         (Array.to_list placed) (shard_requests router);
       Alcotest.(check int) "the shards add up to the lines served"
         (Stats.requests stats)
         (List.fold_left ( + ) 0 (shard_requests router)))

(* One batch holding the same cold schedule request three times under
   different ids, plus one other request: the router answers each
   distinct request once, the answer cache stores each once, and every
   reply still equals the direct bytes. *)
let test_answers_batch_duplicates () =
  let sched id =
    Printf.sprintf {|{"id":%s,"op":"schedule","c":2,"u":700,"p":2}|} id
  in
  let lines =
    [ sched "1"; {|{"id":2,"op":"advise","c":1,"u":100,"p":1}|};
      sched {|"b"|}; sched "4" ]
  in
  let router = Router.create ~shards:1 ~domains:2 ~capacity:16 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       let got, _, server = serve_lines ~batch_size:64 ~router lines in
       Alcotest.(check (list string)) "byte-identical to direct handle"
         (List.map direct_response lines) got;
       let s = Answers.stats (Server.answers server) in
       Alcotest.(check int) "one batch: nothing hit" 0 s.Answers.hits;
       Alcotest.(check int) "every copy probed" 4 s.Answers.misses;
       Alcotest.(check int) "stored once per distinct request" 2
         s.Answers.insertions;
       Alcotest.(check int) "routed once per distinct request" 2
         (List.fold_left ( + ) 0 (shard_requests router)))

(* A shard pinned by one long cold dp solve still answers its resident
   lines: the connection worker answers them against the shard's cache
   instead of queueing them behind the solve. *)
let test_inline_hot_shard_responsive () =
  let shards = 2 in
  (* The hot shard is shard 0, where every advise lives. *)
  let hot = 0 in
  let blocker =
    match
      List.find_opt
        (fun l -> shard_of_line ~shards l = hot)
        (List.init 40 (fun c ->
             Printf.sprintf {|{"id":0,"op":"dp","c_ticks":%d,"l":200000,"p":12}|}
               (c + 5)))
    with
    | Some l -> l
    | None -> Alcotest.fail "no dp cost placed on the hot shard"
  in
  let on_hot ls = List.filter (fun l -> shard_of_line ~shards l = hot) ls in
  let advise =
    List.init 400 (fun i ->
        Printf.sprintf {|{"id":%d,"op":"advise","c":%d,"u":%d,"p":1}|} (i + 1)
          ((i mod 6) + 1)
          (150 + (17 * i)))
    |> on_hot
    |> List.filteri (fun i _ -> i < 8)
  in
  (* A table of another cost on the hot shard, warmed before the
     blocker arrives. *)
  let warm_dp =
    match on_hot (List.init 40 (fun c -> dp_line (c + 45) 300 2)) with
    | l :: _ -> l
    | [] -> Alcotest.fail "no dp cost placed on the hot shard"
  in
  Alcotest.(check int) "found resident lines on the hot shard" 8
    (List.length advise);
  let resident = warm_dp :: advise in
  let router = Router.create ~shards ~domains:2 ~capacity:16 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       ignore (Router.run router [| warm_dp |]);
       let blocker_done = Atomic.make false in
       let solver =
         Domain.spawn (fun () ->
             let r = Router.run router [| blocker |] in
             Atomic.set blocker_done true;
             r)
       in
       (* Let the hot worker pick the blocker up first. *)
       Unix.sleepf 0.02;
       List.iter
         (fun line ->
            match outcome_strings (Router.run router [| line |]) with
            | [ got ] ->
              Alcotest.(check string) "resident response byte-identical"
                (direct_response line) got
            | _ -> Alcotest.fail "expected one response")
         resident;
       Alcotest.(check bool) "answered while the hot shard was still solving"
         false (Atomic.get blocker_done);
       match outcome_strings (Domain.join solver) with
       | [ got ] ->
         Alcotest.(check string) "blocker response byte-identical"
           (direct_response blocker) got
       | _ -> Alcotest.fail "expected one blocker response")

(* Random mixed batches, about half drawn from resident kinds only, go
   through 2-, 3- and 4-shard routers from two domains at once: every reply
   is byte-identical to direct [Protocol.handle], and each shard counts
   exactly the requests placed on it, wherever they ran.  Then, with
   the router shut down — so any sub-batch handed to a shard channel
   fails as unavailable — the same batch runs again: by now every
   sub-batch is resident except one holding an explicit-periods
   evaluate (which always builds a fresh solver, on shard 0), so only
   the latter may fail, and a parse error in it keeps its own error.
   An all-resident sub-batch never enters a channel. *)
let prop_inline_matches_direct =
  QCheck.Test.make ~name:"inline sub-batches = direct handle" ~count:20
    (QCheck.make
       QCheck.Gen.(pair (int_range 2 4) residency_batch_gen)
       ~print:(fun (shards, (_, lines)) ->
           Printf.sprintf "K=%d\n%s" shards (String.concat "\n" lines)))
    (fun (shards, (_, lines)) ->
       let lines = Array.of_list lines in
       let direct = Array.to_list (Array.map direct_response lines) in
       let router = Router.create ~shards ~domains:2 ~capacity:64 () in
       let concurrent_ok, counts_ok =
         Fun.protect
           ~finally:(fun () -> Router.shutdown router)
           (fun () ->
              warm_router router;
              Router.reset_counters router;
              let clients =
                List.init 2 (fun _ ->
                    Domain.spawn (fun () ->
                        outcome_strings (Router.run router lines)))
              in
              let got = List.map Domain.join clients in
              let placed = Array.make shards 0 in
              Array.iter
                (fun l ->
                   let k = shard_of_line ~shards l in
                   placed.(k) <- placed.(k) + 2)
                lines;
              ( List.for_all (fun g -> g = direct) got,
                shard_requests router = Array.to_list placed ))
       in
       let has_periods = Array.make shards false in
       Array.iter
         (fun l ->
            if contains ~sub:{|"periods"|} l then
              has_periods.(shard_of_line ~shards l) <- true)
         lines;
       let after = outcome_strings (Router.run router lines) in
       let after_ok =
         List.for_all2
           (fun (line, want) got ->
              let parsed = Result.is_ok (Protocol.parse_line line).Protocol.request in
              if parsed && has_periods.(shard_of_line ~shards line) then
                contains ~sub:{|"unavailable"|} got
                && contains ~sub:"shutting down" got
              else got = want)
           (List.combine (Array.to_list lines) direct)
           after
       in
       concurrent_ok && counts_ok && after_ok)

(* A stale probe: the table is evicted between the probe and the
   answer, so the inline answer fills it again on the calling domain —
   under the cache's locks, with the same bytes. *)
let test_inline_stale_probe () =
  let cache = Cache.create ~capacity:1 () in
  ignore (Cache.find_or_solve cache ~c:3 ~p:2 ~l:300);
  let lines =
    [| dp_line 3 300 2; dp_line 3 120 1; {|{"op":"advise","c":1,"u":100,"p":1}|} |]
  in
  match Batch.resident_answer ~cache (Array.map Protocol.parse_line lines) with
  | None -> Alcotest.fail "a covered table probes resident"
  | Some answer ->
    ignore (Cache.find_or_solve cache ~c:5 ~p:2 ~l:300);
    Alcotest.(check bool) "the probed table is gone" false
      (Cache.mem cache (Cache.canonical ~c:3 ~p:2 ~l:300));
    let misses = (Cache.stats cache).Cache.misses in
    Alcotest.(check (list string)) "stale probe: bytes unchanged"
      (List.map direct_response (Array.to_list lines))
      (outcome_strings (answer ()));
    Alcotest.(check int) "the answer refilled the table" (misses + 1)
      (Cache.stats cache).Cache.misses

(* Two domains push the same cold lines through a 2-shard router at
   once.  Cold sub-batches queue on their owner's shard worker, which
   runs them one at a time, and a line that finds its state resident is
   answered inline — so each distinct identity is solved exactly once
   across both clients, and both read direct [Protocol.handle]'s
   bytes. *)
let test_router_duplicate_cold_herd () =
  let lines =
    Array.of_list
      (List.concat_map
         (fun c -> [ dp_line c 400 2; dp_line c 700 3 ])
         [ 21; 22; 23 ]
      @ List.init 4 (fun p -> evaluate_line ~u:75 ~p "adaptive")
      @ List.map (fun p -> evaluate_line ~u:85 ~p "nonadaptive") [ 1; 2 ])
  in
  let router = Router.create ~shards:2 ~domains:2 ~capacity:16 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       let clients =
         List.init 2 (fun _ ->
             Domain.spawn (fun () -> outcome_strings (Router.run router lines)))
       in
       let direct = Array.to_list (Array.map direct_response lines) in
       List.iter
         (fun got ->
            Alcotest.(check (list string)) "bytes = direct handle" direct got)
         (List.map Domain.join clients);
       let s = Router.cache_stats router in
       Alcotest.(check int) "one solve per dp table" 3 s.Cache.misses;
       Alcotest.(check int) "one build per solver identity" 3
         s.Cache.solver_misses)

(* --- Router: shard failure -------------------------------------------------- *)

(* Kill a shard worker mid-batch: the in-flight requests answer with a
   structured unavailable error (the daemon survives), the same request
   succeeds on the restarted shard, and stats reports the restart.  The
   line is warmed first, so it would be answered inline: an armed fault
   must still send it to the worker. *)
let test_shard_worker_killed () =
  let line = {|{"id":1,"op":"dp","c_ticks":7,"l":300,"p":2}|} in
  let shards = 2 in
  let shard = shard_of_line ~shards line in
  let router = Router.create ~shards ~domains:1 ~capacity:8 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       ignore (Router.run router [| line |]);
       Router.inject_failure router ~shard Router.Die;
       let got, _, _ =
         serve_lines ~batch_size:1 ~router
           [ line; line; {|{"id":3,"op":"stats"}|} ]
       in
       match got with
       | [ first; second; stats_line ] ->
         Alcotest.(check bool) "killed batch answers an error" true
           (contains ~sub:{|"ok":false|} first);
         Alcotest.(check bool) "error is structured unavailable" true
           (contains ~sub:{|"unavailable"|} first
            && contains ~sub:"restarted" first);
         Alcotest.(check string) "retry succeeds on the restarted shard"
           (direct_response line) second;
         Alcotest.(check bool) "stats reports the restart" true
           (contains ~sub:{|"restarts":1|} stats_line);
         Alcotest.(check int) "router counts one restart" 1
           (Router.restarts router)
       | other ->
         Alcotest.fail
           (Printf.sprintf "expected 3 responses, got %d" (List.length other)))

(* A failed sub-batch's answers carry the time from submit to failure,
   both in the outcomes and in the shard's latency record — not zero,
   which would file a killed shard's errors as the fastest answers. *)
let test_failed_latency () =
  let line = {|{"id":1,"op":"advise","c":2,"u":300,"p":1}|} in
  let router = Router.create ~shards:1 ~domains:1 ~capacity:8 () in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       Router.inject_failure router ~shard:0 Router.Die;
       let outcomes = Router.run router [| line; line |] in
       Array.iter
         (fun (o : Batch.outcome) ->
            Alcotest.(check bool) "failed" true (Result.is_error o.Batch.result);
            Alcotest.(check bool)
              (Printf.sprintf "latency %g > 0" o.Batch.latency)
              true (o.Batch.latency > 0.))
         outcomes;
       match Router.shards_json router with
       | [ Json.Obj fields ] -> (
           match List.assoc_opt "latency" fields with
           | Some (Json.Obj lat) -> (
               match List.assoc_opt "min_s" lat with
               | Some (Json.Float m) ->
                 Alcotest.(check bool) "shard records latency > 0" true (m > 0.)
               | _ -> Alcotest.fail "no min_s in the shard latency")
           | _ -> Alcotest.fail "no latency in the shard section")
       | _ -> Alcotest.fail "expected one shard section")

(* A wedged worker is caught by the watchdog: the stuck batch answers
   unavailable after ~hang_timeout, and the replacement worker serves
   the next request.  As above, the wedged line is resident. *)
let test_shard_worker_wedged () =
  let line = {|{"id":1,"op":"dp","c_ticks":7,"l":250,"p":1}|} in
  let router =
    Router.create ~shards:1 ~domains:1 ~hang_timeout:0.2 ~capacity:8 ()
  in
  Fun.protect
    ~finally:(fun () -> Router.shutdown router)
    (fun () ->
       ignore (Router.run router [| line |]);
       Router.inject_failure router ~shard:0 (Router.Wedge 1.5);
       let t0 = Unix.gettimeofday () in
       let got, _, _ = serve_lines ~batch_size:1 ~router [ line; line ] in
       let dt = Unix.gettimeofday () -. t0 in
       match got with
       | [ first; second ] ->
         Alcotest.(check bool) "wedged batch answers an error" true
           (contains ~sub:{|"ok":false|} first
            && contains ~sub:"unresponsive" first);
         Alcotest.(check string) "next request serves from the replacement"
           (direct_response line) second;
         Alcotest.(check bool)
           (Printf.sprintf
              "watchdog fired before the wedge cleared (%.2f s)" dt)
           true (dt < 1.4);
         Alcotest.(check int) "one restart recorded" 1 (Router.restarts router)
       | other ->
         Alcotest.fail
           (Printf.sprintf "expected 2 responses, got %d" (List.length other)))

(* --- Stats: counter reset ---------------------------------------------------- *)

(* reset_counters must zero the latency histogram along with the scalar
   counters: stale buckets would keep reporting percentiles computed
   from requests the counters no longer admit to. *)
let test_stats_reset_histogram () =
  let s = Stats.create () in
  List.iter
    (fun latency ->
       Stats.add s { Stats.op = "advise"; ok = true; latency; bytes = 10 })
    [ 1e-5; 1e-4; 1e-3 ];
  Alcotest.(check bool) "percentiles present before reset" true
    (Stats.percentiles s <> None);
  Stats.reset_counters s;
  Alcotest.(check int) "requests zeroed" 0 (Stats.requests s);
  Alcotest.(check int) "bytes zeroed" 0 (Stats.bytes_served s);
  Alcotest.(check bool) "histogram zeroed: no stale percentiles" true
    (Stats.percentiles s = None)

(* --- Summary rendering ------------------------------------------------------ *)

let test_summary_renders () =
  let _, _, server = serve_lines [ {|{"op":"advise","c":1,"u":100,"p":1}|} ] in
  let s = Server.summary server in
  Alcotest.(check bool) "has title" true (contains ~sub:"cschedd session summary" s);
  Alcotest.(check bool) "has request count" true (contains ~sub:"requests" s)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "float round-trip" `Quick test_json_float_round_trip;
          Alcotest.test_case "float repr edge cases" `Quick
            test_json_float_repr_edges;
          Alcotest.test_case "powers of two" `Quick
            test_json_float_powers_of_two;
          Alcotest.test_case "exact-range edges" `Quick
            test_json_float_range_edges;
          Alcotest.test_case "decimal ties" `Quick test_json_float_ties;
          Alcotest.test_case "escapes every byte" `Quick test_json_escape_bytes;
          Alcotest.test_case "int extremes" `Quick test_json_int_extremes;
          Alcotest.test_case "render allocation" `Quick
            test_json_render_allocation;
          Alcotest.test_case "parse error messages" `Quick
            test_json_parse_error_messages;
          Alcotest.test_case "parse allocation" `Quick
            test_json_parse_allocation;
        ] );
      ( "json props",
        qc
          [
            prop_json_round_trip;
            prop_json_ref_printer;
            prop_float_repr_matches_ref;
            prop_float_range_matches_ref;
            prop_float_bits_match_ref;
          ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_protocol_round_trip;
          Alcotest.test_case "parse errors" `Quick test_protocol_errors;
          Alcotest.test_case "handle errors" `Quick test_protocol_handle_errors;
          Alcotest.test_case "strategies listing" `Quick test_protocol_strategies;
          Alcotest.test_case "scanner = oracle on the corpus" `Quick
            test_scanner_corpus;
          Alcotest.test_case "scanner allocation per op" `Quick
            test_scanner_allocation;
        ]
        @ qc [ prop_scanner_matches_oracle ] );
      ( "cache",
        [
          Alcotest.test_case "canonicalization" `Quick test_cache_canonicalization;
          Alcotest.test_case "sharing + correctness" `Quick
            test_cache_sharing_and_correctness;
          Alcotest.test_case "in-place growth" `Quick test_cache_growth;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "eviction trims the fill scratch" `Quick
            test_cache_eviction_trims_scratch;
          Alcotest.test_case "cold race: first publish wins" `Quick
            test_cache_cold_race;
          Alcotest.test_case "kernel counters surfaced and reset" `Quick
            test_cache_kernel_counters;
          Alcotest.test_case "resident game solver" `Quick
            test_cache_resident_solver;
          Alcotest.test_case "solver LRU eviction" `Quick
            test_cache_solver_lru_eviction;
          Alcotest.test_case "probes do not stamp the LRU" `Quick
            test_cache_probes_do_not_stamp;
          Alcotest.test_case "reset zeroes both families" `Quick
            test_cache_reset_both_families;
        ] );
      ( "batch",
        [
          Alcotest.test_case "mixed batch matches direct calls" `Slow
            test_batch_matches_direct;
          Alcotest.test_case "resident batch skips the pool" `Quick
            test_resident_batch_skips_pool;
          Alcotest.test_case "duplicate cold herd: one miss each" `Quick
            test_batch_duplicate_cold_herd;
          Alcotest.test_case "policy aliases share one solver" `Quick
            test_batch_policy_aliases;
        ]
        @ qc [ prop_resident_batches_match_direct ] );
      ( "router",
        qc [ prop_placement_range ]
        @ [
            Alcotest.test_case "rendezvous remap K -> K+1" `Quick
              test_placement_remap;
            Alcotest.test_case "equal canonical keys share a shard" `Quick
              test_placement_equal_canonical_keys;
            Alcotest.test_case "K=3 byte-identical to direct" `Slow
              test_sharded_byte_identity;
            Alcotest.test_case "per-shard stats sections" `Quick
              test_sharded_stats_sections;
            Alcotest.test_case "per-shard conservation" `Quick
              test_router_shard_conservation;
            Alcotest.test_case "inline: hot shard stays responsive" `Quick
              test_inline_hot_shard_responsive;
            Alcotest.test_case "inline: stale probe byte-identical" `Quick
              test_inline_stale_probe;
            Alcotest.test_case "duplicate cold herd: owner serializes" `Quick
              test_router_duplicate_cold_herd;
            Alcotest.test_case "shutdown wakes the watchdog" `Quick
              test_router_shutdown_prompt;
            Alcotest.test_case "killed shard worker" `Quick
              test_shard_worker_killed;
            Alcotest.test_case "failed answers carry latency" `Quick
              test_failed_latency;
            Alcotest.test_case "wedged shard worker" `Slow
              test_shard_worker_wedged;
          ]
        @ qc [ prop_inline_matches_direct ] );
      ( "stats",
        [
          Alcotest.test_case "reset zeroes the latency histogram" `Quick
            test_stats_reset_histogram;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end, byte-identical" `Slow
            test_server_end_to_end;
          Alcotest.test_case "stats request" `Quick test_server_stats_request;
          Alcotest.test_case "stats reset" `Quick test_server_stats_reset;
          Alcotest.test_case "stats conservation" `Quick
            test_server_stats_conservation;
          Alcotest.test_case "oversized dp answers invalid_params" `Quick
            test_server_oversized_dp;
          Alcotest.test_case "oversized schedule answers budget_exhausted" `Quick
            test_server_oversized_schedule;
          Alcotest.test_case "non-finite schedule answers by name" `Quick
            test_server_nonfinite_schedule;
          Alcotest.test_case "huge-p advise answers budget_exhausted" `Quick
            test_huge_p_advise;
          Alcotest.test_case "unwritable bank answers dp = direct" `Quick
            test_server_bank_unwritable;
          Alcotest.test_case "schedule budget bounds every length" `Quick
            test_schedule_budget_bounds_lengths;
          Alcotest.test_case "dp pair over the budget together" `Quick
            test_server_dp_pair_over_budget;
          Alcotest.test_case "stats gc counters" `Quick test_server_stats_gc;
          Alcotest.test_case "malformed flood" `Quick
            test_server_survives_malformed_flood;
          Alcotest.test_case "unterminated final line" `Quick
            test_server_unterminated_final_line;
          Alcotest.test_case "unix socket" `Quick test_server_socket;
          Alcotest.test_case "daemon exits on SIGINT and SIGTERM" `Quick
            test_daemon_signal_exit;
          Alcotest.test_case "overlong line" `Quick test_server_overlong_line;
          Alcotest.test_case "untimed replies" `Quick test_server_untimed;
          Alcotest.test_case "concurrent clients" `Slow
            test_server_concurrent_clients;
          Alcotest.test_case "more clients than slots" `Slow
            test_server_more_clients_than_slots;
          Alcotest.test_case "answers: two generations" `Quick
            test_answers_generations;
          Alcotest.test_case "answers: dp hit across a table grow" `Quick
            test_answers_dp_across_grow;
          Alcotest.test_case "answers: in-batch duplicates routed once" `Quick
            test_answers_batch_duplicates;
        ]
        @ qc [ prop_answers_match_direct; prop_split_hits_match_direct; prop_answers_budget ]
        @ [
          Alcotest.test_case "grouping preserves order" `Slow
            test_grouping_preserves_order;
          Alcotest.test_case "client disconnect" `Slow
            test_server_client_disconnect;
          Alcotest.test_case "summary" `Quick test_summary_renders;
        ] );
    ]
