(* Minimal data-parallel helpers on OCaml 5 domains (stdlib only).

   Two layers:

   - [Pool]: a small reusable worker pool built on per-worker Chase-Lev
     deques.  Domains are spawned once; each owns a deque of tasks it
     pushes and pops locally (LIFO, cache-warm) and steals from a
     random victim's opposite end (FIFO) when its own runs dry.  A
     [run] — from outside or from inside one of the pool's own tasks —
     enqueues its tasks and then joins by draining its own deque and
     stealing, so nested parallelism really fans out across idle
     workers instead of degrading to a sequential inline loop, and can
     still never deadlock: a joiner with nothing left to take parks
     until the last in-flight task of its job completes.

   - [map] / [init] / [map_reduce]: chunked data-parallel maps over the
     pool.  Each chunk is one task writing a disjoint slice of the
     result array, so there is no shared mutable state and the result
     never depends on which worker ran which chunk — scheduling moves
     work between domains, never between indices.

   A pool's tasks may also be long-lived: the serving layer dedicates a
   pool to connection workers, whose one [run] submits exactly [size]
   blocking tasks; the joiner takes one and each parked worker steals
   one, so all of them run concurrently for the server's lifetime.
   While such a pool is saturated, any further [run] against it finds
   no free worker and the joiner simply executes every task itself —
   the old inline degradation, now a natural consequence of stealing.

   Keep closures passed here free of shared mutable state (in
   particular, give each chunk its own Rng). *)

let available_domains () = max 1 (Domain.recommended_domain_count ())

module Pool = struct
  (* One fan-out: [remaining] counts tasks not yet finished, [failure]
     keeps the first exception any of them raised. *)
  type job = { remaining : int Atomic.t; failure : exn option Atomic.t }

  (* Tasks are monomorphic so every pool's deques share one element
     type and a domain can hold deques of several pools at once. *)
  type task = { body : int -> unit; arg : int; job : job }

  (* A Chase-Lev work-stealing deque.  The owner pushes and pops at the
     bottom; thieves compete for the top slot with a CAS on [top].
     Slots are individual atomics (and the buffer itself is swapped
     atomically on growth), so a thief that read a stale buffer or a
     not-yet-copied slot either retries or loses the CAS — ownership of
     an element is decided by the CAS on [top] alone, never by what a
     racy read returned. *)
  module Deque = struct
    type t = {
      top : int Atomic.t;
      bottom : int Atomic.t;
      buf : task option Atomic.t array Atomic.t;
    }

    let make_buf n = Array.init n (fun _ -> Atomic.make None)

    let create () =
      {
        top = Atomic.make 0;
        bottom = Atomic.make 0;
        buf = Atomic.make (make_buf 16);
      }

    (* Owner only.  Growth preserves each element's position modulo the
       new size; the old buffer is left intact for in-flight thieves,
       whose CAS fails if the element they read was since taken. *)
    let grow t b tp =
      let old = Atomic.get t.buf in
      let n = Array.length old in
      let nu = make_buf (2 * n) in
      for i = tp to b - 1 do
        Atomic.set nu.(i land ((2 * n) - 1)) (Atomic.get old.(i land (n - 1)))
      done;
      Atomic.set t.buf nu

    let push t x =
      let b = Atomic.get t.bottom in
      let tp = Atomic.get t.top in
      if b - tp >= Array.length (Atomic.get t.buf) then grow t b tp;
      let buf = Atomic.get t.buf in
      Atomic.set buf.(b land (Array.length buf - 1)) (Some x);
      Atomic.set t.bottom (b + 1)

    (* Owner only: LIFO end.  The last element races with thieves and
       is settled by the same CAS on [top] they use. *)
    let pop t =
      let b = Atomic.get t.bottom - 1 in
      Atomic.set t.bottom b;
      let tp = Atomic.get t.top in
      if b < tp then begin
        Atomic.set t.bottom tp;
        None
      end
      else begin
        let buf = Atomic.get t.buf in
        let x = Atomic.get buf.(b land (Array.length buf - 1)) in
        if b > tp then x
        else begin
          let won = Atomic.compare_and_set t.top tp (tp + 1) in
          Atomic.set t.bottom (tp + 1);
          if won then x else None
        end
      end

    (* Any domain: FIFO end. *)
    let rec steal t =
      let tp = Atomic.get t.top in
      let b = Atomic.get t.bottom in
      if b - tp <= 0 then None
      else begin
        let buf = Atomic.get t.buf in
        let x = Atomic.get buf.(tp land (Array.length buf - 1)) in
        if Atomic.compare_and_set t.top tp (tp + 1) then x else steal t
      end
  end

  type t = {
    slots : int; (* worker domains + the calling domain *)
    id : int; (* key in the per-domain membership registry *)
    deques : Deque.t array; (* slots - 1 worker deques, then foreign *)
    foreign_free : bool Atomic.t array; (* claim flags, one per foreign *)
    pending : int Atomic.t; (* tasks pushed but not yet taken *)
    sleepers : int Atomic.t; (* domains parked on [work_ready] *)
    steal_count : int Atomic.t;
    dispatch_count : int Atomic.t; (* tasks submitted through [run_tasks] *)
    lock : Mutex.t;
    work_ready : Condition.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
  }

  let size t = t.slots
  let steals t = Atomic.get t.steal_count
  let dispatched t = Atomic.get t.dispatch_count
  let next_id = Atomic.make 0

  (* Which pools is this domain currently a member of (a pool worker,
     or a caller joining a run)?  A nested [run] on a pool we already
     belong to pushes onto our existing deque for that pool. *)
  let registry : (int * Deque.t) list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let find_member t = List.assoc_opt t.id !(Domain.DLS.get registry)

  let register t dq =
    let r = Domain.DLS.get registry in
    r := (t.id, dq) :: !r

  let unregister t =
    let r = Domain.DLS.get registry in
    r := List.remove_assoc t.id !r

  (* Cheap per-caller xorshift for victim selection; scheduling noise
     only, results never depend on it. *)
  let rng_next s =
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    x land max_int

  (* Take one task: own deque first, then steal from a random victim.
     [self] is our index in [t.deques], or -1 when we own no deque. *)
  let take t my self rng =
    let own = match my with Some dq -> Deque.pop dq | None -> None in
    match own with
    | Some task ->
      Atomic.decr t.pending;
      Some task
    | None ->
      let nd = Array.length t.deques in
      let start = rng_next rng mod nd in
      let rec scan k =
        if k >= nd then None
        else begin
          let v = (start + k) mod nd in
          if v = self then scan (k + 1)
          else begin
            match Deque.steal t.deques.(v) with
            | Some task ->
              Atomic.decr t.pending;
              Atomic.incr t.steal_count;
              Some task
            | None -> scan (k + 1)
          end
        end
      in
      scan 0

  (* Run one task.  The first failure of the job is kept; every task
     still runs (a fan-out is all-or-nothing only in its result, not in
     its side effects — same as the pre-deque pool).  The last task to
     finish wakes any parked joiner.  The sleeper check is safe against
     the joiner's park: the joiner bumps [sleepers] before re-checking
     [remaining] (both SC atomics), so either we see its bump or it
     sees our zero. *)
  let exec t task =
    (try task.body task.arg
     with exn ->
       ignore (Atomic.compare_and_set task.job.failure None (Some exn)));
    if Atomic.fetch_and_add task.job.remaining (-1) = 1 then
      if Atomic.get t.sleepers > 0 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.lock
      end

  let worker_loop t index =
    let my = t.deques.(index) in
    register t my;
    let rng = ref (((index + 1) * 2654435761) lor 1) in
    let rec go () =
      match take t (Some my) index rng with
      | Some task ->
        exec t task;
        go ()
      | None ->
        Mutex.lock t.lock;
        if t.stopping then Mutex.unlock t.lock
        else begin
          Atomic.incr t.sleepers;
          if Atomic.get t.pending > 0 then begin
            Atomic.decr t.sleepers;
            Mutex.unlock t.lock
          end
          else begin
            Condition.wait t.work_ready t.lock;
            Atomic.decr t.sleepers;
            Mutex.unlock t.lock
          end;
          go ()
        end
    in
    go ()

  let create ~domains =
    if domains < 1 then invalid_arg "Par.Pool.create: domains must be >= 1";
    let foreign = max 4 (domains + 1) in
    let t =
      {
        slots = domains;
        id = Atomic.fetch_and_add next_id 1;
        deques = Array.init (domains - 1 + foreign) (fun _ -> Deque.create ());
        foreign_free = Array.init foreign (fun _ -> Atomic.make true);
        pending = Atomic.make 0;
        sleepers = Atomic.make 0;
        steal_count = Atomic.make 0;
        dispatch_count = Atomic.make 0;
        lock = Mutex.create ();
        work_ready = Condition.create ();
        stopping = false;
        workers = [];
      }
    in
    t.workers <-
      List.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t i));
    t

  (* Claim a foreign deque for a caller that owns none.  [None] means
     the pool is saturated with concurrent callers; the run degrades to
     an inline loop in the caller (always correct, never deadlocks). *)
  let claim_foreign t =
    let n = Array.length t.foreign_free in
    let rec scan i =
      if i >= n then None
      else if Atomic.compare_and_set t.foreign_free.(i) true false then
        Some (t.slots - 1 + i)
      else scan (i + 1)
    in
    scan 0

  (* Join: drain our own deque, steal when dry, park when the job's
     last tasks are in flight on other domains.  Executing unrelated
     stolen tasks while joining is deliberate (help-first): it keeps
     every domain productive and cannot deadlock, because anything we
     execute strictly precedes our own job's completion. *)
  let join t my self rng job =
    let rec loop () =
      if Atomic.get job.remaining > 0 then begin
        match take t (Some my) self rng with
        | Some task ->
          exec t task;
          loop ()
        | None ->
          Mutex.lock t.lock;
          Atomic.incr t.sleepers;
          if Atomic.get job.remaining = 0 || Atomic.get t.pending > 0 then begin
            Atomic.decr t.sleepers;
            Mutex.unlock t.lock
          end
          else begin
            Condition.wait t.work_ready t.lock;
            Atomic.decr t.sleepers;
            Mutex.unlock t.lock
          end;
          loop ()
      end
    in
    loop ()

  (* Submit [n] tasks calling [body 0 .. body (n - 1)] and join.  The
     submitting domain runs task 0 itself — the pre-deque engine's
     contract, and load-bearing for the serving layer: a long-lived
     slot-0 task (the socket acceptor) must stay on the calling domain,
     where a signal interrupts its blocking syscall and the OCaml
     handler actually runs; a worker domain parked in a condition wait
     never polls.  Tasks 1 .. n-1 go onto the submitter's own deque
     (existing membership, or a freshly claimed foreign slot), parked
     workers are woken once after the batch of pushes, and the
     submitter joins the drain when task 0 returns. *)
  let run_tasks t n body =
    if n > 0 then begin
      ignore (Atomic.fetch_and_add t.dispatch_count n);
      if t.slots = 1 then
        for i = 0 to n - 1 do
          body i
        done
      else begin
        let claimed, self =
          match find_member t with
          | Some dq -> (None, (dq, -2))
          | None -> begin
            match claim_foreign t with
            | Some idx ->
              let dq = t.deques.(idx) in
              register t dq;
              (Some idx, (dq, idx))
            | None -> (None, (Deque.create (), -1))
          end
        in
        let my, self_idx = self in
        if self_idx = -1 then
          (* Saturated: no deque to submit through; run inline. *)
          for i = 0 to n - 1 do
            body i
          done
        else begin
          let job =
            { remaining = Atomic.make n; failure = Atomic.make None }
          in
          for i = 1 to n - 1 do
            Atomic.incr t.pending;
            Deque.push my { body; arg = i; job }
          done;
          if n > 1 && Atomic.get t.sleepers > 0 then begin
            Mutex.lock t.lock;
            Condition.broadcast t.work_ready;
            Mutex.unlock t.lock
          end;
          exec t { body; arg = 0; job };
          let rng = ref (((t.id + 2) * 0x2545F491) lor 1) in
          join t my self_idx rng job;
          (match claimed with
           | Some idx ->
             unregister t;
             Atomic.set t.foreign_free.(idx - t.slots + 1) true
           | None -> ());
          match Atomic.get job.failure with
          | Some exn -> raise exn
          | None -> ()
        end
      end
    end

  (* Run [f 0 .. f (slots - 1)], one call per slot.  With idle workers
     each call lands on its own domain (the joiner takes one, thieves
     take the rest), so [size t] mutually blocking calls — the serving
     layer's connection workers — all run concurrently. *)
  let run t f = run_tasks t t.slots f

  let shutdown t =
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []

  let with_pool ~domains f =
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
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
   (about eight, floored near [min_chunk] elements) so stealing can
   rebalance a skewed load; each chunk writes a disjoint index range,
   so the result is identical under any schedule. *)
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

(* [map ~domains f a]: like [Array.map f a], computed on up to [domains]
   domains.  Deterministic: the result ordering never depends on the
   domain count. *)
let map ?pool ?domains f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let domains = effective_domains "Par.map" ?domains n in
    if domains = 1 then Array.map f a
    else begin
      let result = Array.make n (f a.(0)) in
      run_chunked (resolve_pool pool) ~domains ~n (fun i ->
          result.(i) <- f a.(i));
      result
    end
  end

(* [init ~domains n f]: like [Array.init], parallel across chunks; the
   indices are generated in place, never materialized as an array. *)
let init ?pool ?domains n f =
  if n < 0 then invalid_arg "Par.init: negative length";
  if n = 0 then [||]
  else begin
    let domains = effective_domains "Par.init" ?domains n in
    if domains = 1 then Array.init n f
    else begin
      let result = Array.make n (f 0) in
      run_chunked (resolve_pool pool) ~domains ~n (fun i -> result.(i) <- f i);
      result
    end
  end

(* [map_reduce ~domains ~map:f ~combine ~init a]: fold the mapped values
   with an associative, commutative [combine] (the per-domain partial
   results are combined in chunk order, so associativity suffices if
   [combine] is not commutative). *)
let map_reduce ?pool ?domains ~map:f ~combine ~init:acc0 a =
  let mapped = map ?pool ?domains f a in
  Array.fold_left combine acc0 mapped
