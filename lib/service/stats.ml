(* Serving-side accounting, shared by every connection worker.

   One mutex guards the scalar counters and the by-op table (each add
   is a handful of field bumps, so the critical section is tiny even
   with several connection workers folding in batches concurrently).
   The latency histogram is an array of Atomics: recording a latency is
   a frexp and one fetch-and-add, never a lock, so percentile
   observability stays cheap on the hot path. *)

type record = { op : string; ok : bool; latency : float; bytes : int }

(* Log-bucketed latency histogram: bucket 0 holds [0, 1us); bucket i
   (i >= 1) holds [2^(i-1), 2^i) us.  40 buckets reach ~2^39 us
   (~6 days), far beyond any request.  A percentile estimate is the
   geometric midpoint of the bucket holding the target rank, so it is
   accurate to a factor of sqrt(2) — plenty for p50/p90/p99 under load. *)
let hist_buckets = 40

let bucket_of_latency s =
  if not (s > 1e-6) then 0
  else begin
    let us = s *. 1e6 in
    if us >= Float.ldexp 1. (hist_buckets - 1) then hist_buckets - 1
    else begin
      (* [Float.frexp us]'s exponent, the bit length of [floor us],
         without the tuple it allocates. *)
      let rec bits v e = if v = 0 then e else bits (v lsr 1) (e + 1) in
      max 1 (bits (int_of_float us) 0)
    end
  end

let bucket_value = function
  | 0 -> 0.5e-6
  | i -> Float.ldexp (Float.sqrt 2.) (i - 1) *. 1e-6

type t = {
  lock : Mutex.t;
  mutable latency : Csutil.Stats.Accumulator.t;
  hist : int Atomic.t array;
  by_op : (string, int ref) Hashtbl.t;
  mutable requests : int;
  mutable untimed : int;
  mutable errors : int;
  mutable io_errors : int;
  mutable bytes_served : int;
  mutable batches : int;
  mutable largest_batch : int;
}

let create () =
  {
    lock = Mutex.create ();
    latency = Csutil.Stats.Accumulator.create ();
    hist = Array.init hist_buckets (fun _ -> Atomic.make 0);
    by_op = Hashtbl.create 8;
    requests = 0;
    untimed = 0;
    errors = 0;
    io_errors = 0;
    bytes_served = 0;
    batches = 0;
    largest_batch = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Under the lock: everything but the latency. *)
let count t (r : record) =
  t.requests <- t.requests + 1;
  if not r.ok then t.errors <- t.errors + 1;
  t.bytes_served <- t.bytes_served + r.bytes;
  match Hashtbl.find_opt t.by_op r.op with
  | Some n -> incr n
  | None -> Hashtbl.add t.by_op r.op (ref 1)

let add t (r : record) =
  ignore (Atomic.fetch_and_add t.hist.(bucket_of_latency r.latency) 1);
  locked t (fun () ->
      Csutil.Stats.Accumulator.add t.latency r.latency;
      count t r)

let add_untimed t r =
  locked t (fun () ->
      t.untimed <- t.untimed + 1;
      count t r)

let count_batch t size =
  t.batches <- t.batches + 1;
  t.largest_batch <- max t.largest_batch size

let add_batch t ~size = locked t (fun () -> count_batch t size)

(* [add] and [add_untimed] for a whole batch, under one lock. *)
let add_served t ~size records ~timed =
  Array.iteri
    (fun i (r : record) ->
       if timed.(i) then
         ignore (Atomic.fetch_and_add t.hist.(bucket_of_latency r.latency) 1))
    records;
  locked t (fun () ->
      if size > 0 then count_batch t size;
      Array.iteri
        (fun i (r : record) ->
           if timed.(i) then Csutil.Stats.Accumulator.add t.latency r.latency
           else t.untimed <- t.untimed + 1;
           count t r)
        records)

let add_io_error t = locked t (fun () -> t.io_errors <- t.io_errors + 1)

(* Everything zeroes together: the scalar counters, the by-op table,
   the latency accumulator AND the histogram buckets — a reset that
   kept old histogram counts would keep reporting stale percentiles
   (and a nonzero latency section) against zeroed request counts. *)
let reset_counters t =
  locked t (fun () ->
      t.latency <- Csutil.Stats.Accumulator.create ();
      Array.iter (fun b -> Atomic.set b 0) t.hist;
      Hashtbl.reset t.by_op;
      t.requests <- 0;
      t.untimed <- 0;
      t.errors <- 0;
      t.io_errors <- 0;
      t.bytes_served <- 0;
      t.batches <- 0;
      t.largest_batch <- 0)

let requests t = locked t (fun () -> t.requests)
let untimed t = locked t (fun () -> t.untimed)
let bytes_served t = locked t (fun () -> t.bytes_served)
let io_errors t = locked t (fun () -> t.io_errors)

(* --- percentiles --------------------------------------------------------- *)

let percentile_of counts ~total q =
  if total = 0 then None
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int total)))
    in
    let rec go i acc =
      if i >= hist_buckets then Some (bucket_value (hist_buckets - 1))
      else begin
        let acc = acc + counts.(i) in
        if acc >= rank then Some (bucket_value i) else go (i + 1) acc
      end
    in
    go 0 0
  end

let percentiles t =
  let counts = Array.map Atomic.get t.hist in
  let total = Array.fold_left ( + ) 0 counts in
  match
    ( percentile_of counts ~total 0.5,
      percentile_of counts ~total 0.9,
      percentile_of counts ~total 0.99 )
  with
  | Some p50, Some p90, Some p99 -> Some (p50, p90, p99)
  | _ -> None

(* --- rendering ----------------------------------------------------------- *)

let op_counts t =
  Hashtbl.fold (fun op n acc -> (op, !n) :: acc) t.by_op []
  |> List.sort compare

let latency_fields t =
  let open Csutil.Stats.Accumulator in
  if count t.latency = 0 then []
  else begin
    let quantiles =
      match percentiles t with
      | None -> []
      | Some (p50, p90, p99) ->
        [
          ("p50_s", Json.Float p50);
          ("p90_s", Json.Float p90);
          ("p99_s", Json.Float p99);
        ]
    in
    [
      ("mean_s", Json.Float (mean t.latency));
      ("min_s", Json.Float (min t.latency));
      ("max_s", Json.Float (max t.latency));
    ]
    @ quantiles
  end

(* The dp-table and solver LRU families, shared by the merged payload
   and each shard's section. *)
let cache_json (c : Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int c.Cache.hits);
      ("misses", Json.Int c.Cache.misses);
      ("evictions", Json.Int c.Cache.evictions);
      ("growths", Json.Int c.Cache.growths);
      ("tables_resident", Json.Int c.Cache.resident);
      ("resident_bytes", Json.Int c.Cache.resident_bytes);
    ]

let solver_cache_json (c : Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int c.Cache.solver_hits);
      ("misses", Json.Int c.Cache.solver_misses);
      ("evictions", Json.Int c.Cache.solver_evictions);
      ("growths", Json.Int c.Cache.solver_growths);
      ("solvers_resident", Json.Int c.Cache.solvers_resident);
      ("resident_bytes", Json.Int c.Cache.solver_bytes);
    ]

(* Process-wide allocation counters from [Gc.quick_stat], so the
   allocation per request is visible without a profiler.  They count
   from start-up: a stats reset does not zero them. *)
let gc_json () =
  let g = Gc.quick_stat () in
  Json.Obj
    [
      ("minor_words", Json.Int (int_of_float g.Gc.minor_words));
      ("minor_collections", Json.Int g.Gc.minor_collections);
      ("major_collections", Json.Int g.Gc.major_collections);
    ]

(* One shard's section of the stats payload: what was evaluated for
   this shard, by its worker or inline on a connection worker
   (requests/errors/by-op/latency recorded at evaluation time; bytes
   belong to the connection that serialized, not here) and
   its own cache families, plus how often its worker was restarted.
   The process-wide kernel/game counters stay out — they appear once,
   in the merged view. *)
let shard_json t ~shard ~restarts ~cache:(c : Cache.stats) =
  locked t (fun () ->
      Json.Obj
        [
          ("shard", Json.Int shard);
          ("restarts", Json.Int restarts);
          ("requests", Json.Int t.requests);
          ("errors", Json.Int t.errors);
          ( "by_op",
            Json.Obj (List.map (fun (op, n) -> (op, Json.Int n)) (op_counts t))
          );
          ("latency", Json.Obj (latency_fields t));
          ("cache", cache_json c);
          ("solver_cache", solver_cache_json c);
        ])

let to_json ?shards ?restarts ?answers t ~cache:(c : Cache.stats) =
  locked t (fun () ->
      Json.Obj
        ([
          ("requests", Json.Int t.requests);
          ("errors", Json.Int t.errors);
          ("io_errors", Json.Int t.io_errors);
          ( "by_op",
            Json.Obj (List.map (fun (op, n) -> (op, Json.Int n)) (op_counts t))
          );
          ("latency", Json.Obj (latency_fields t));
          ("untimed", Json.Int t.untimed);
          ("bytes_served", Json.Int t.bytes_served);
          ("batches", Json.Int t.batches);
          ("largest_batch", Json.Int t.largest_batch);
          ("cache", cache_json c);
          ( "kernel",
            let k = c.Cache.kernel in
            Json.Obj
              [
                ("cells_filled", Json.Int k.Cyclesteal.Dp.cells_filled);
                ( "candidates_visited",
                  Json.Int k.Cyclesteal.Dp.candidates_visited );
                ( "candidates_pruned",
                  Json.Int k.Cyclesteal.Dp.candidates_pruned );
                ("parallel_fills", Json.Int k.Cyclesteal.Dp.parallel_fills);
                ("dc_splits", Json.Int k.Cyclesteal.Dp.dc_splits);
                ("bp_lookups", Json.Int k.Cyclesteal.Dp.bp_lookups);
                ("bp_rows", Json.Int k.Cyclesteal.Dp.bp_rows);
                ("scratch_bytes", Json.Int (Cyclesteal.Dp.scratch_bytes ()));
              ] );
          ("solver_cache", solver_cache_json c);
          ( "game",
            let g = c.Cache.game in
            Json.Obj
              [
                ("states", Json.Int g.Cyclesteal.Game.states);
                ("memo_hits", Json.Int g.Cyclesteal.Game.memo_hits);
                ("plans_computed", Json.Int g.Cyclesteal.Game.plans_computed);
                ("parallel_fills", Json.Int g.Cyclesteal.Game.parallel_fills);
              ] );
          ("gc", gc_json ());
        ]
        @ (match answers with
          | None -> []
          | Some (a : Answers.stats) ->
            [
              ( "answers",
                Json.Obj
                  [
                    ("hits", Json.Int a.Answers.hits);
                    ("misses", Json.Int a.Answers.misses);
                    ("insertions", Json.Int a.Answers.insertions);
                    ("evictions", Json.Int a.Answers.evictions);
                    ("entries", Json.Int a.Answers.entries);
                    ("bytes", Json.Int a.Answers.bytes);
                    ("budget_bytes", Json.Int a.Answers.budget_bytes);
                  ] );
            ])
        (* The bank group only appears when the daemon was started with
           --bank, so bankless deployments keep their exact stats
           shape. *)
        @ (match c.Cache.bank with
          | None -> []
          | Some b ->
            [
              ( "bank",
                Json.Obj
                  ([
                     ("hits", Json.Int b.Store.Bank.hits);
                     ("misses", Json.Int b.Store.Bank.misses);
                     ("load_failures", Json.Int b.Store.Bank.load_failures);
                     ("saves", Json.Int b.Store.Bank.saves);
                     ("save_failures", Json.Int b.Store.Bank.save_failures);
                     ( "resident_dense_bytes",
                       Json.Int c.Cache.resident_dense_bytes );
                   ]
                  @
                  match c.Cache.bank_last_error with
                  | None -> []
                  | Some e -> [ ("last_error", Json.String e) ]) );
            ])
        (* Likewise the shard sections and restart total: a single-shard
           daemon that never restarted keeps the exact pre-router stats
           shape, so serial replies stay byte-identical. *)
        @ (match restarts with
          | None -> []
          | Some n -> [ ("restarts", Json.Int n) ])
        @
        match shards with
        | None -> []
        | Some sections -> [ ("shards", Json.List sections) ]))

(* The summary rows are the stats payload itself, flattened into
   [path value] pairs, so the two views cannot drift apart. *)
let summary payload =
  let table =
    Csutil.Table.create ~title:"cschedd session summary"
      ~aligns:Csutil.Table.[ Left; Right ]
      [ "metric"; "value" ]
  in
  let rec rows path = function
    | Json.Obj fields ->
      List.iter
        (fun (k, v) -> rows (if path = "" then k else path ^ "." ^ k) v)
        fields
    | Json.List items ->
      List.iteri (fun i v -> rows (path ^ "." ^ string_of_int i) v) items
    | Json.String v -> Csutil.Table.add_row table [ path; v ]
    | v -> Csutil.Table.add_row table [ path; Json.to_string v ]
  in
  rows "" payload;
  Csutil.Table.to_string table
