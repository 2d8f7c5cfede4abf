(* Minimal data-parallel helpers on OCaml 5 domains (stdlib only).

   - [Pool]: a fork-join pool over one mutex-guarded list of published
     jobs.  Each job hands out its tasks through its own atomic cursor,
     so there are no per-worker queues and nothing to steal: an idle
     worker claims tasks of the oldest job that has any left, and a
     [run] nested inside a task publishes like any other, so idle
     workers help it too.  A dedicated pool can also host long-lived
     tasks: the server's connection slots are one [run] of [size]
     blocking accept-and-serve loops, one per domain.

   - [Chan]: an unbounded blocking FIFO handing work between domains
     (the router's shard jobs).

   - [map] / [init] / [map_reduce]: chunked data-parallel maps over the
     pool.  Each chunk is one task writing a disjoint slice of the
     result array, so the result never depends on which worker ran
     which chunk.  Keep closures passed here free of shared mutable
     state (in particular, give each chunk its own Rng). *)

let available_domains () = max 1 (Domain.recommended_domain_count ())

module Pool = struct
  (* One fan-out of [n] tasks [body 0 .. body (n - 1)].  [next] is the
     next unclaimed task, [remaining] counts tasks not yet finished and
     [failure] keeps the first exception any of them raised (written
     under the pool lock). *)
  type job = {
    body : int -> unit;
    n : int;
    next : int Atomic.t;
    remaining : int Atomic.t;
    mutable failure : exn option;
  }

  type t = {
    slots : int; (* worker domains + the calling domain *)
    dispatch_count : int Atomic.t; (* tasks submitted through [run_tasks] *)
    lock : Mutex.t;
    published : Condition.t; (* a job was published, or [stopping] *)
    finished : Condition.t; (* some job's last task finished *)
    mutable jobs : job list; (* published jobs, oldest first *)
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
  }

  let size t = t.slots
  let dispatched t = Atomic.get t.dispatch_count

  (* Run task [i], then claim and run the job's tasks until its cursor
     passes the end.  The first failure of the job is kept; every task
     still runs (a fan-out is all-or-nothing only in its result, not in
     its side effects).  A worker that finishes a job's last task wakes
     its joiner; the joiner itself never needs to. *)
  let rec drain t job i ~worker =
    if i < job.n then begin
      (try job.body i
       with exn ->
         Mutex.lock t.lock;
         if Option.is_none job.failure then job.failure <- Some exn;
         Mutex.unlock t.lock);
      if Atomic.fetch_and_add job.remaining (-1) = 1 && worker then begin
        Mutex.lock t.lock;
        Condition.broadcast t.finished;
        Mutex.unlock t.lock
      end;
      drain t job (Atomic.fetch_and_add job.next 1) ~worker
    end

  let rec oldest_open = function
    | [] -> None
    | job :: rest ->
      if Atomic.get job.next < job.n then Some job else oldest_open rest

  let worker_loop t =
    Mutex.lock t.lock;
    let rec go () =
      if t.stopping then Mutex.unlock t.lock
      else begin
        match oldest_open t.jobs with
        | Some job ->
          Mutex.unlock t.lock;
          drain t job (Atomic.fetch_and_add job.next 1) ~worker:true;
          Mutex.lock t.lock;
          go ()
        | None ->
          Condition.wait t.published t.lock;
          go ()
      end
    in
    go ()

  let create ~domains =
    if domains < 1 then invalid_arg "Par.Pool.create: domains must be >= 1";
    let t =
      {
        slots = domains;
        dispatch_count = Atomic.make 0;
        lock = Mutex.create ();
        published = Condition.create ();
        finished = Condition.create ();
        jobs = [];
        stopping = false;
        workers = [];
      }
    in
    t.workers <-
      List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  (* Submit [n] tasks calling [body 0 .. body (n - 1)] and join.

     The submitter publishes the job and wakes the parked workers, runs
     task 0 itself, claims the job's other tasks through its cursor
     alongside any workers, then unpublishes the job and waits under the
     lock for the tasks still running elsewhere.  Task 0 on the
     submitting domain is load-bearing for the serving layer: a
     long-lived slot-0 task (a socket connection slot) stays on the
     calling domain, where a signal interrupts its blocking syscall and
     the OCaml handler actually runs; a worker domain parked in a
     condition wait never polls.

     Deadlock freedom.  A joiner waits only once its job's cursor has
     passed the end, so every task it waits on has been claimed and is
     running.  A running task either makes progress on its own or is
     itself the joiner of a nested job, which it published after
     claiming that task, hence later than the job the outer joiner waits
     on.  Each wait therefore points from a job to a strictly later
     published one, so the waits cannot form a cycle and the latest job
     in any chain has only tasks that run to completion.  (Tasks of one
     job may wait on each other only for work a running task has already
     claimed, as the dp wavefront's rows do: a job's tasks run
     concurrently only while idle workers exist.) *)
  let run_tasks t n body =
    if n > 0 then begin
      ignore (Atomic.fetch_and_add t.dispatch_count n);
      let next = Atomic.make 1 and remaining = Atomic.make n in
      let job = { body; n; next; remaining; failure = None } in
      let shared = n > 1 && t.slots > 1 in
      if shared then begin
        Mutex.lock t.lock;
        t.jobs <- t.jobs @ [ job ];
        Condition.broadcast t.published;
        Mutex.unlock t.lock
      end;
      drain t job 0 ~worker:false;
      if shared then begin
        Mutex.lock t.lock;
        t.jobs <- List.filter (fun j -> j != job) t.jobs;
        while Atomic.get job.remaining > 0 do
          Condition.wait t.finished t.lock
        done;
        Mutex.unlock t.lock
      end;
      match job.failure with Some exn -> raise exn | None -> ()
    end

  (* One call per slot: with idle workers, the submitter runs slot 0
     and each parked worker claims one other, so [size t] mutually
     blocking calls (the server's connection slots) run concurrently. *)
  let run t f = run_tasks t t.slots f

  let shutdown t =
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.published;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []

  let with_pool ~domains f =
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

module Chan = struct
  type 'a t = {
    lock : Mutex.t;
    nonempty : Condition.t;
    items : 'a Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      items = Queue.create ();
      closed = false;
    }

  let push q x =
    Mutex.lock q.lock;
    let accepted = not q.closed in
    if accepted then begin
      Queue.push x q.items;
      Condition.signal q.nonempty
    end;
    Mutex.unlock q.lock;
    accepted

  let close q =
    Mutex.lock q.lock;
    q.closed <- true;
    Condition.broadcast q.nonempty;
    Mutex.unlock q.lock

  let pop q =
    Mutex.lock q.lock;
    let rec wait () =
      if not (Queue.is_empty q.items) then Some (Queue.pop q.items)
      else if q.closed then None
      else begin
        Condition.wait q.nonempty q.lock;
        wait ()
      end
    in
    let x = wait () in
    Mutex.unlock q.lock;
    x

  let migrate ~from ~into =
    let moved = Queue.create () in
    Mutex.lock from.lock;
    from.closed <- true;
    Queue.transfer from.items moved;
    Condition.broadcast from.nonempty;
    Mutex.unlock from.lock;
    Mutex.lock into.lock;
    Queue.transfer moved into.items;
    if not (Queue.is_empty into.items) then Condition.broadcast into.nonempty;
    Mutex.unlock into.lock
end

(* The process-wide default pool, created on first parallel use and
   sized to the recommended domain count.  Its parked workers cost
   nothing while idle and the process exits with its main domain, so it
   is never shut down. *)
let shared = lazy (Pool.create ~domains:(available_domains ()))
let shared_pool () = Lazy.force shared

(* Below this many elements per domain, dispatch overhead dwarfs the
   mapped work; [map]/[init] stay sequential rather than fan out.  Only
   applies when the caller leaves [?domains] unset — an explicit count
   fans out even a handful of elements, so pass one only when each
   element is worth a domain wake-up (tens of µs), e.g. a batch group
   that may fill a table, never a 2 µs line parse. *)
let min_chunk = 32

let effective_domains who ?domains n =
  match domains with
  | Some d when d >= 1 -> min d n
  | Some _ -> invalid_arg (who ^ ": domains must be >= 1")
  | None -> max 1 (min (available_domains ()) (n / min_chunk))

(* Indices [1, n) split into chunks, one task per chunk — index 0 is
   the caller's seed element.  Chunks are cut finer than one per domain
   (about eight, floored near [min_chunk] elements) so that a domain
   finishing early claims more of a skewed load; each chunk writes a
   disjoint index range, so the result is identical under any
   schedule. *)
let run_chunked pool ~domains ~n compute =
  let per_domain = (n - 2 + domains) / domains in
  let fine = max min_chunk ((n - 2 + (8 * domains)) / (8 * domains)) in
  let chunk = max 1 (min per_domain fine) in
  let nchunks = (n - 1 + chunk - 1) / chunk in
  Pool.run_tasks pool nchunks (fun k ->
      let lo = 1 + (k * chunk) in
      let hi = min n (lo + chunk) in
      for i = lo to hi - 1 do
        compute i
      done)

let resolve_pool = function Some p -> p | None -> shared_pool ()

let init_as who ?pool ?domains n f =
  if n < 0 then invalid_arg (who ^ ": negative length");
  if n = 0 then [||]
  else begin
    let domains = effective_domains who ?domains n in
    if domains = 1 then Array.init n f
    else begin
      let result = Array.make n (f 0) in
      run_chunked (resolve_pool pool) ~domains ~n (fun i -> result.(i) <- f i);
      result
    end
  end

let init ?pool ?domains n f = init_as "Par.init" ?pool ?domains n f

let map ?pool ?domains f a =
  init_as "Par.map" ?pool ?domains (Array.length a) (fun i -> f a.(i))

let map_reduce ?pool ?domains ~map:f ~combine ~init:acc0 a =
  Array.fold_left combine acc0 (map ?pool ?domains f a)
