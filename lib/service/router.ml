(* The routing seam: rendezvous placement onto K shard workers.

   Topology.  One router owns K shards.  Each shard pins an
   independent serving runtime — cache, solve pool, stats family — to
   one dedicated worker domain, fed through a private job channel.
   [run] is the router's one entry point: a connection's batch is
   parsed on the connection worker and split by placement into
   per-shard sub-batches, and the outcomes are reassembled by original
   index — so per-connection ordering, and with it byte-identity to a
   serial server, is preserved however sub-batches interleave across
   shards.

   Where a sub-batch runs is the paper's first lesson applied to our
   own dispatch: a period of length t yields only t - c, so work
   shorter than the setup cost c should not be shipped.  A sub-batch
   whose every group is resident — a covering dp table, a resident
   solver at the group's budget, pure compute, an error — answers in
   microseconds, less than the two cross-domain wake-ups of a hand-off
   to the shard worker and back.  So the connection worker answers it
   itself, in order, against the owner shard's cache
   (Batch.resident_answer groups and probes once), and it never enters
   a channel.  Only a sub-batch with fill, grow or solver-build work
   becomes a job on the owner's channel; the shard worker fans it over
   the shard's solve pool, so cold solves, solver growth and the bank
   write-behind stay with the owner.  The connection worker submits
   the jobs first, answers the inline sub-batches while the shards
   work, then blocks on each job.
   Inline outcomes are recorded in the owner's stats family, so
   per-shard counts reflect placement wherever a sub-batch ran.  The
   probe is advisory: a table evicted between probe and answer is
   filled by the connection worker under the cache's locks — rare,
   slower, and byte-identical; if the owner fills the same c
   meanwhile, the first published table wins and the race costs one
   redundant solve at most.

   Placement.  Rendezvous (highest-random-weight) hashing over the
   request's cache identity (Protocol.cache_group, the key Batch groups
   by): score every (key, shard) pair with a mixed 64-bit hash, pick
   the argmax.  A custom-periods evaluation, which has no identity but
   carries a game's work, is placed by a hash of its parameters; any
   other request with no cache identity (pure compute, strategies, a
   parse error) goes to shard 0 and rides its sub-batch.  Stable by
   construction — growing K to K+1 remaps
   exactly the keys whose new
   shard's score wins, an expected 1/(K+1) of them, every one moving
   to the new shard — and purely deterministic (FNV-1a + splitmix64
   finalizer, no Random), so any process computes the same placement.

   Failure.  A worker that dies fails its own in-flight job with
   Error.Unavailable and restarts its shard before retiring: bump the
   generation, migrate the queued jobs to a fresh channel, build a
   fresh bank-warm cache and pool, spawn a replacement domain.  A
   worker that wedges is caught by the watchdog domain (no timed
   condition wait in the stdlib, so the watchdog polls in-flight start
   times, taken on the monotonic clock, waiting between polls in
   [select] on a self-pipe that [shutdown] writes to, so a teardown
   never waits out a poll) and the shard is restarted out
   from under it; when the zombie eventually wakes it finds its job
   already failed (delivery is first-writer-wins under the job lock)
   and its channel closed, and retires without a trace.  The watchdog
   times shard-worker jobs only: inline answers are resident-only work,
   and the rare inline refill after a stale probe is not timed.  A shard
   with a fault armed (inject_failure) gets its next sub-batch as a
   job even when it is resident, so the injected death or wedge fires
   on the worker.  Stats families survive restarts — only the failed
   runtime is replaced — and each restart is counted.

   Shards talk only through their job queues, Csutil.Par.Chan, which
   nothing else in lib/ or bin/ uses.  Besides Par, this is the only
   file that may call Domain.spawn (for the shard workers and the
   watchdog); tools/check-format.sh enforces that. *)

exception Injected_failure

(* --- placement ----------------------------------------------------------- *)

(* FNV-1a over the key bytes; splitmix64 finalizer mixes in the shard
   index.  All Int64 so the constants fit and the arithmetic wraps the
   same on every platform. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
       h :=
         Int64.mul
           (Int64.logxor !h (Int64.of_int (Char.code ch)))
           0x100000001b3L)
    s;
  !h

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let score key_hash shard =
  mix64 (Int64.logxor key_hash (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (shard + 1))))

let place ~shards key =
  if shards < 1 then Cyclesteal.Error.invalid "Router.place: shards must be >= 1";
  if shards = 1 then 0
  else begin
    let h = fnv1a key in
    let best = ref 0 in
    let best_score = ref (score h 0) in
    for i = 1 to shards - 1 do
      let s = score h i in
      if Int64.unsigned_compare s !best_score > 0 then begin
        best := i;
        best_score := s
      end
    done;
    !best
  end

(* The shard a request lives on: the one its cache identity hashes
   to.  A custom-periods evaluation has no identity but is real work (a
   game over its periods, never resident), so it is spread by a hash of
   its parameters instead of queueing every one on shard 0.  The rest
   without an identity (pure compute, unknown policies, strategies,
   stats, parse errors) go to shard 0 and ride its sub-batch. *)
let shard_of ~shards request =
  match request with
  | Ok (Protocol.Evaluate { periods = Some _; _ } as req) ->
    place ~shards (Printf.sprintf "periods:%d" (Hashtbl.hash req))
  | Ok req -> (
    match Protocol.cache_group req with
    | Some key -> place ~shards key
    | None -> 0)
  | Error _ -> 0

(* Which tick costs a shard's cache owns — used to slice the shared
   bank at warm-up so warming agrees with serving placement. *)
let owns ~shards index c =
  shard_of ~shards (Ok (Protocol.Dp_query { c_ticks = c; l = 0; p = 0 })) = index

(* --- jobs ------------------------------------------------------------------

   A shard's jobs queue on a Csutil.Par.Chan: its worker keeps draining
   after a close, so jobs enqueued just before a shutdown are still
   evaluated, and a restart migrates the queue to the replacement
   channel, losing only the in-flight job. *)

type job_state =
  | Pending
  | Done of Batch.outcome array
  | Failed of Cyclesteal.Error.t * float  (* seconds from submit to failure *)

type job = {
  envelopes : Protocol.envelope array;  (* this shard's sub-batch *)
  submitted : float;  (* monotonic clock *)
  jlock : Mutex.t;
  finished : Condition.t;
  mutable state : job_state;  (* written once, under [jlock] *)
}

type failure = Die | Wedge of float

type chaos = Chaos_none | Chaos_die | Chaos_wedge of float

type shard = {
  index : int;
  stats : Stats.t;  (* survives restarts: the shard's serving history *)
  slock : Mutex.t;  (* guards the mutable runtime fields below *)
  mutable cache : Cache.t;
  mutable pool : Csutil.Par.Pool.t;
  mutable chan : job Csutil.Par.Chan.t;
  mutable generation : int;
  mutable restarts : int;
  mutable current : (job * float) option;
      (* in-flight job + start time on the monotonic clock, so a
         wall-clock step cannot make a healthy job look overdue *)
  mutable worker : unit Domain.t option;
  chaos : chaos Atomic.t;  (* one-shot fault injection for tests *)
}

type t = {
  shards : shard array;
  per_shard_domains : int;
  shard_capacity : int;
  bank : Store.Bank.t option;
  hang_timeout : float;
  stopped : bool Atomic.t;
  mutable watchdog : unit Domain.t option;
  wake_r : Unix.file_descr;  (* the watchdog waits on this between polls *)
  wake_w : Unix.file_descr;  (* [shutdown] writes here to wake it *)
}

let shard_count t = Array.length t.shards

(* --- job lifecycle ------------------------------------------------------- *)

(* First writer wins: a zombie worker waking after its shard was
   restarted finds the job already [Failed] and drops its result.  The
   winner's [record] runs under the job lock, before the waiter wakes,
   so a batch's accounting is visible by the time [run] returns it. *)
let deliver job result ~record =
  Mutex.lock job.jlock;
  (match job.state with
   | Pending ->
     job.state <- result;
     record ();
     Condition.broadcast job.finished
   | Done _ | Failed _ -> ());
  Mutex.unlock job.jlock

let await job =
  Mutex.lock job.jlock;
  let rec wait () =
    match job.state with
    | Pending ->
      Condition.wait job.finished job.jlock;
      wait ()
    | (Done _ | Failed _) as st -> st
  in
  let st = wait () in
  Mutex.unlock job.jlock;
  st

(* A parse error was never evaluated, so it counts as untimed, as the
   server counts it. *)
let record sh (e : Protocol.envelope) ~ok ~latency =
  (* bytes belong to the connection that serializes, not here *)
  match e.Protocol.request with
  | Ok req ->
    Stats.add sh.stats { Stats.op = Protocol.op_name req; ok; latency; bytes = 0 }
  | Error _ ->
    Stats.add_untimed sh.stats { Stats.op = "invalid"; ok; latency; bytes = 0 }

let record_outcomes sh outcomes =
  Array.iter
    (fun (o : Batch.outcome) ->
       record sh o.Batch.envelope ~ok:(Result.is_ok o.Batch.result)
         ~latency:o.Batch.latency)
    outcomes

(* Answer every request of a failed sub-batch with the structured
   error, and account them to the shard that lost them.  Each carries
   the time from submit to failure — a killed shard's errors are slow
   answers, not the fastest ones. *)
let fail_job sh job err =
  let latency = Csutil.Clock.now () -. job.submitted in
  deliver job (Failed (err, latency)) ~record:(fun () ->
      Array.iter (fun e -> record sh e ~ok:false ~latency) job.envelopes)

let died_error index =
  Cyclesteal.Error.Unavailable
    (Printf.sprintf
       "shard %d worker failed; in-flight requests were aborted and the shard \
        restarted warm — retry"
       index)

let wedged_error index timeout =
  Cyclesteal.Error.Unavailable
    (Printf.sprintf
       "shard %d worker unresponsive for %.1fs; in-flight requests were \
        aborted and the shard restarted warm — retry"
       index timeout)

let stopped_error index =
  Cyclesteal.Error.Unavailable
    (Printf.sprintf "shard %d is shutting down" index)

(* --- shard runtime ------------------------------------------------------- *)

(* A shard's replaceable half: cache + solve pool (the stats family and
   channel identity live on the shard record).  Restarts rebuild this
   bank-warm, so a replacement worker starts where the bank left off
   rather than cold. *)
let fresh_runtime ~shards ~per_shard_domains ~shard_capacity ~bank ~warm
    index =
  let pool = Csutil.Par.Pool.create ~domains:per_shard_domains in
  let cache = Cache.create ~pool ?bank ~capacity:shard_capacity () in
  if warm && Option.is_some bank then
    ignore (Cache.warm_from_bank ~owns:(owns ~shards index) cache);
  (cache, pool)

let note_start sh ~gen job =
  Mutex.lock sh.slock;
  if sh.generation = gen then sh.current <- Some (job, Csutil.Clock.now ());
  Mutex.unlock sh.slock

let note_finish sh ~gen job =
  Mutex.lock sh.slock;
  (match sh.current with
   | Some (j, _) when j == job && sh.generation = gen -> sh.current <- None
   | _ -> ());
  Mutex.unlock sh.slock

(* Evaluate one sub-batch on this shard's runtime.  Every envelope here
   routed, so there is never a stats op to substitute; the chaos hook
   fires before any work so an armed failure aborts the whole
   sub-batch, like a real crash mid-batch would. *)
let evaluate_job sh ~cache ~pool job =
  (match Atomic.exchange sh.chaos Chaos_none with
   | Chaos_none -> ()
   | Chaos_die -> raise Injected_failure
   | Chaos_wedge d -> Unix.sleepf d);
  Stats.add_batch sh.stats ~size:(Array.length job.envelopes);
  Batch.run_parsed ~pool ~domains:(Csutil.Par.Pool.size pool) ~cache
    job.envelopes

(* The worker, its restart path and the spawner are mutually recursive:
   a dying worker restarts its own shard (which spawns a replacement)
   before retiring. *)
let rec worker_loop t sh ~gen ~chan ~cache ~pool =
  match Csutil.Par.Chan.pop chan with
  | None -> ()  (* closed and drained: this generation retires *)
  | Some job ->
    if execute_own t sh ~gen ~cache ~pool job then
      worker_loop t sh ~gen ~chan ~cache ~pool

(* Run one job of our own queue.  [false] means this worker is
   compromised and has already handed its shard to a fresh generation:
   fail what it held, retire this domain.  Whoever wins the generation
   race does the restart; the job dies either way. *)
and execute_own t sh ~gen ~cache ~pool job =
  note_start sh ~gen job;
  match evaluate_job sh ~cache ~pool job with
  | outcomes ->
    note_finish sh ~gen job;
    deliver job (Done outcomes) ~record:(fun () -> record_outcomes sh outcomes);
    true
  | exception _ ->
    note_finish sh ~gen job;
    ignore (restart_shard t sh ~gen);
    fail_job sh job (died_error sh.index);
    false

and restart_shard t sh ~gen =
  Mutex.lock sh.slock;
  if sh.generation <> gen || Atomic.get t.stopped then begin
    Mutex.unlock sh.slock;
    false
  end
  else begin
    sh.generation <- sh.generation + 1;
    sh.restarts <- sh.restarts + 1;
    sh.current <- None;
    let fresh = Csutil.Par.Chan.create () in
    Csutil.Par.Chan.migrate ~from:sh.chan ~into:fresh;
    sh.chan <- fresh;
    let cache, pool =
      fresh_runtime ~shards:(Array.length t.shards)
        ~per_shard_domains:t.per_shard_domains ~shard_capacity:t.shard_capacity
        ~bank:t.bank ~warm:true sh.index
    in
    sh.cache <- cache;
    sh.pool <- pool;
    spawn_worker t sh ~gen:sh.generation ~chan:fresh ~cache ~pool;
    Mutex.unlock sh.slock;
    true
  end

and spawn_worker t sh ~gen ~chan ~cache ~pool =
  sh.worker <-
    Some (Domain.spawn (fun () -> worker_loop t sh ~gen ~chan ~cache ~pool))

(* The watchdog polls in-flight start times (the stdlib has no timed
   condition wait), waiting out each interval in [select] on the wake
   pipe, so [shutdown] ends the wait at once: a job past
   [hang_timeout] means its worker wedged —
   restart the shard out from under it and fail the stuck job.  The
   generation captured with the overdue job arbitrates against the
   worker dying on its own at the same moment. *)
let watchdog_loop t =
  let interval = Float.max 0.01 (Float.min 0.25 (t.hang_timeout /. 4.)) in
  let rec loop () =
    if not (Atomic.get t.stopped) then begin
      (try ignore (Unix.select [ t.wake_r ] [] [] interval)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = Csutil.Clock.now () in
      Array.iter
        (fun sh ->
           let overdue =
             Mutex.lock sh.slock;
             let r =
               match sh.current with
               | Some (job, t0) when now -. t0 > t.hang_timeout ->
                 Some (job, sh.generation)
               | _ -> None
             in
             Mutex.unlock sh.slock;
             r
           in
           match overdue with
           | None -> ()
           | Some (job, gen) ->
             if restart_shard t sh ~gen then
               fail_job sh job (wedged_error sh.index t.hang_timeout))
        t.shards;
      loop ()
    end
  in
  loop ()

(* --- construction -------------------------------------------------------- *)

let create ?(shards = 1) ?domains ?bank ?(hang_timeout = 30.) ~capacity () =
  if shards < 1 then Cyclesteal.Error.invalid "Router.create: shards must be >= 1";
  if capacity < 1 then
    Cyclesteal.Error.invalid "Router.create: capacity must be >= 1";
  if not (hang_timeout > 0.) then
    Cyclesteal.Error.invalid "Router.create: hang_timeout must be positive";
  let domains =
    match domains with
    | Some d when d < 1 ->
      Cyclesteal.Error.invalid "Router.create: domains must be >= 1"
    | Some d -> d
    | None -> Csutil.Par.available_domains ()
  in
  let per_shard_domains = max 1 (domains / shards) in
  let shard_capacity = max 1 ((capacity + shards - 1) / shards) in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      shards =
        Array.init shards (fun index ->
            let cache, pool =
              fresh_runtime ~shards ~per_shard_domains ~shard_capacity ~bank
                ~warm:false index
            in
            {
              index;
              stats = Stats.create ();
              slock = Mutex.create ();
              cache;
              pool;
              chan = Csutil.Par.Chan.create ();
              generation = 0;
              restarts = 0;
              current = None;
              worker = None;
              chaos = Atomic.make Chaos_none;
            });
      per_shard_domains;
      shard_capacity;
      bank;
      hang_timeout;
      stopped = Atomic.make false;
      watchdog = None;
      wake_r;
      wake_w;
    }
  in
  Array.iter
    (fun sh ->
       spawn_worker t sh ~gen:0 ~chan:sh.chan ~cache:sh.cache ~pool:sh.pool)
    t.shards;
  t.watchdog <- Some (Domain.spawn (fun () -> watchdog_loop t));
  t

let shutdown t =
  if not (Atomic.exchange t.stopped true) then begin
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    Array.iter
      (fun sh ->
         Mutex.lock sh.slock;
         Csutil.Par.Chan.close sh.chan;
         let worker = sh.worker in
         sh.worker <- None;
         Mutex.unlock sh.slock;
         Option.iter Domain.join worker;
         Csutil.Par.Pool.shutdown sh.pool)
      t.shards;
    Option.iter Domain.join t.watchdog;
    t.watchdog <- None;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.wake_r; t.wake_w ]
  end

(* --- submission ---------------------------------------------------------- *)

(* Enqueue on the shard's current channel.  The queue needs no bound:
   [run_parsed] submits at most one job per shard and awaits it, and
   each connection worker runs one batch at a time, so a shard never
   holds more jobs than there are connection workers.  A push refused
   because a restart closed the channel under us is retried against the
   replacement channel; once the router itself is stopping, the job
   fails structurally instead. *)
let submit t sh job =
  let rec attempt () =
    if Atomic.get t.stopped then
      deliver job
        (Failed (stopped_error sh.index, Csutil.Clock.now () -. job.submitted))
        ~record:ignore
    else begin
      Mutex.lock sh.slock;
      let chan = sh.chan in
      Mutex.unlock sh.slock;
      if not (Csutil.Par.Chan.push chan job) then attempt ()
    end
  in
  attempt ()

(* The inline rule: [Some answer] when the connection worker may answer
   this shard's sub-batch itself (every group resident on the owner's
   cache, and no fault armed for the owner's worker), [None] when it
   must go to the worker as a job. *)
let inline_answer sh envelopes =
  Mutex.lock sh.slock;
  let cache = sh.cache in
  Mutex.unlock sh.slock;
  match Atomic.get sh.chaos with
  | Chaos_none -> Batch.resident_answer ~cache envelopes
  | Chaos_die | Chaos_wedge _ -> None

(* [run]'s routing and evaluation phases, over parsed envelopes. *)
let run_parsed t envelopes =
  let n = Array.length envelopes in
  if n = 0 then [||]
  else begin
    let shards = Array.length t.shards in
    let routed = Array.make shards [] in
    Array.iteri
      (fun i (e : Protocol.envelope) ->
         let k = shard_of ~shards e.Protocol.request in
         routed.(k) <- (i, e) :: routed.(k))
      envelopes;
    (* Probe every sub-batch and submit the ones with fill work first,
       so the shard workers start on them before anything is answered
       here. *)
    let now = Csutil.Clock.now () in
    let inline_rev = ref [] in
    let jobs_rev = ref [] in
    Array.iteri
      (fun k items ->
         if items <> [] then begin
           let items = Array.of_list (List.rev items) in
           let idxs = Array.map fst items and sub = Array.map snd items in
           let sh = t.shards.(k) in
           match inline_answer sh sub with
           | Some answer -> inline_rev := (sh, idxs, answer) :: !inline_rev
           | None ->
             let job =
               {
                 envelopes = sub;
                 submitted = now;
                 jlock = Mutex.create ();
                 finished = Condition.create ();
                 state = Pending;
               }
             in
             submit t sh job;
             jobs_rev := (idxs, job) :: !jobs_rev
         end)
      routed;
    let out = Array.make n None in
    let scatter idxs outcomes =
      Array.iteri (fun j o -> out.(idxs.(j)) <- Some o) outcomes
    in
    (* While the shards work: the resident sub-batches, accounted to
       their owner shard as if its worker had answered them. *)
    List.iter
      (fun (sh, idxs, answer) ->
         Stats.add_batch sh.stats ~size:(Array.length idxs);
         let outcomes = answer () in
         record_outcomes sh outcomes;
         scatter idxs outcomes)
      (List.rev !inline_rev);
    List.iter
      (fun (idxs, job) ->
         match await job with
         | Pending -> assert false
         | Done outcomes -> scatter idxs outcomes
         | Failed (err, latency) ->
           (* A parse error still answers with its own error: the
              line was never going to be evaluated. *)
           scatter idxs
             (Array.map
                (fun (env : Protocol.envelope) ->
                   let result =
                     Result.bind env.Protocol.request (fun _ -> Error err)
                   in
                   { Batch.envelope = env; result; latency })
                job.envelopes))
      (List.rev !jobs_rev);
    Array.map (function Some o -> o | None -> assert false) out
  end

(* Parse on the submitting connection: a line parses in about 2 µs,
   less than a wake-up of another domain would cost. *)
let run t lines = run_parsed t (Array.map Protocol.parse_line lines)

(* --- observation --------------------------------------------------------- *)

let warm_from_bank t =
  let shards = Array.length t.shards in
  Array.fold_left
    (fun warmed sh ->
       warmed + Cache.warm_from_bank ~owns:(owns ~shards sh.index) sh.cache)
    0 t.shards

let cache_stats t =
  Cache.merge
    (Array.to_list (Array.map (fun sh -> Cache.stats sh.cache) t.shards))

let shards_json t =
  Array.to_list
    (Array.map
       (fun sh ->
          Stats.shard_json sh.stats ~shard:sh.index ~restarts:sh.restarts
            ~cache:(Cache.stats sh.cache))
       t.shards)

let restarts t =
  Array.fold_left (fun acc sh -> acc + sh.restarts) 0 t.shards

let reset_counters t =
  Array.iter
    (fun sh ->
       Stats.reset_counters sh.stats;
       Cache.reset_counters sh.cache;
       Mutex.lock sh.slock;
       sh.restarts <- 0;
       Mutex.unlock sh.slock)
    t.shards

let inject_failure t ~shard failure =
  if shard < 0 || shard >= Array.length t.shards then
    Cyclesteal.Error.rangef "Router.inject_failure: no shard %d" shard;
  Atomic.set t.shards.(shard).chaos
    (match failure with Die -> Chaos_die | Wedge d -> Chaos_wedge d)
