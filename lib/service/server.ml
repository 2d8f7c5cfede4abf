(* Serving loop over raw file descriptors.

   A small line reader sits on the input descriptor so the loop can ask
   two different questions: "give me the next line, blocking" (the
   batch's first request) and "give me the next line only if it is
   already here" (the opportunistic drain that forms the rest of the
   batch).  in_channel buffering cannot answer the second question, so
   the reader owns its buffer and uses [Unix.select] to probe.

   The socket front end serves concurrently: each of [max_conns] pool
   slots accepts a connection and serves it to its end, every slot
   submitting its batches to the one router and folding into the one
   server-level stats accumulator.  Each connection still sees its
   responses in its own request order — batching never crosses connections, and the
   router gathers sub-batches back index-aligned — so the bytes a
   client reads are identical to what a serial server would have sent
   it.  This file owns accept, framing, ordering and the answer cache
   in front of the router; placement, evaluation and failure recovery
   live in [Router].  A batch reaches [answer_batch] as raw lines: each
   is keyed by its bytes after the id (or its whole bytes) and probed
   before anything parses it, so a repeated line costs a split, a
   probe and a copy of stored bytes. *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;    (* unconsumed byte count *)
  mutable eof : bool;
  mutable discarding : bool;
      (* inside an overlong line: drop bytes through the next newline *)
}

let reader fd =
  {
    fd;
    buf = Bytes.create 65536;
    start = 0;
    len = 0;
    eof = false;
    discarding = false;
  }

(* Slide pending bytes to the front so there is room to refill. *)
let compact r =
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 r.len;
    r.start <- 0
  end

let refill ~blocking r =
  if r.eof then false
  else begin
    compact r;
    if r.len = Bytes.length r.buf then false
    else begin
      let ready =
        blocking
        ||
        match Unix.select [ r.fd ] [] [] 0. with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if not ready then false
      else
        match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
        | 0 ->
          r.eof <- true;
          false
        | n ->
          r.len <- r.len + n;
          true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    end
  end

(* Bytes past [start + len] are stale leftovers of earlier lines, so a
   newline found there does not count. *)
let find_newline r =
  if r.len = 0 then None
  else
    match Bytes.index_from r.buf r.start '\n' with
    | i when i < r.start + r.len -> Some i
    | _ -> None
    | exception Not_found -> None

let take_line r upto =
  let raw_len = upto - r.start in
  let line_len =
    if raw_len > 0 && Bytes.get r.buf (upto - 1) = '\r' then raw_len - 1
    else raw_len
  in
  let line = Bytes.sub_string r.buf r.start line_len in
  r.len <- r.len - (raw_len + 1);
  r.start <- upto + 1;
  line

(* The final unterminated line at EOF. *)
let take_final r =
  let line = Bytes.sub_string r.buf r.start r.len in
  r.len <- 0;
  line

type next =
  | Line of string
  | Overlong
      (* a line exceeded the buffer; its bytes were discarded through
         the terminating newline (or EOF) — answer with one parse error *)
  | No_line  (* EOF, or — nonblocking — no complete line is available *)

(* [next_line ~blocking ~should_stop r]: the next event on the input.
   [should_stop] aborts a blocking wait between reads. *)
let rec next_line ~blocking ~should_stop r =
  if r.discarding then begin
    match find_newline r with
    | Some i ->
      r.len <- r.len - (i + 1 - r.start);
      r.start <- i + 1;
      r.discarding <- false;
      Overlong
    | None ->
      (* None of the buffered bytes belong to a parseable request. *)
      r.start <- 0;
      r.len <- 0;
      if r.eof then begin
        r.discarding <- false;
        Overlong
      end
      else if should_stop () then No_line
      else if refill ~blocking r then next_line ~blocking ~should_stop r
      else if r.eof then begin
        r.discarding <- false;
        Overlong
      end
      else if blocking then next_line ~blocking ~should_stop r
      else No_line
  end
  else
    match find_newline r with
    | Some i -> Line (take_line r i)
    | None ->
      if r.len = Bytes.length r.buf then begin
        (* A line longer than the whole buffer: enter discard mode and
           report the line exactly once, however many refills it spans. *)
        r.start <- 0;
        r.len <- 0;
        r.discarding <- true;
        next_line ~blocking ~should_stop r
      end
      else if should_stop () then
        if r.len > 0 && r.eof then Line (take_final r) else No_line
      else if refill ~blocking r then next_line ~blocking ~should_stop r
      else if r.eof && r.len > 0 then Line (take_final r)
      else if r.eof || not blocking then No_line
      else next_line ~blocking ~should_stop r

let write_all fd buf n =
  let written = ref 0 in
  while !written < n do
    match Unix.write fd buf !written (n - !written) with
    | k -> written := !written + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Write a batch's replies from one per-connection [Bytes], doubled
   whenever a batch outgrows it, rather than a fresh string per
   batch. *)
let flush fd wire out =
  let n = Buffer.length out in
  if Bytes.length !wire < n then begin
    let size = ref (Bytes.length !wire) in
    while !size < n do
      size := 2 * !size
    done;
    wire := Bytes.create !size
  end;
  Buffer.blit out 0 !wire 0 n;
  write_all fd !wire n

(* --- server ------------------------------------------------------------- *)

type t = {
  batch_size : int;
  max_conns : int;
  router : Router.t;
  answers : Answers.t;  (* shared by every connection *)
  stats : Stats.t;  (* the connection-facing family: bytes, I/O errors *)
  stop : bool Atomic.t;
  wake : Unix.file_descr option Atomic.t;  (* the socket slots' self-pipe *)
  conns : Unix.file_descr option Atomic.t array;
      (* the connection each socket slot is serving *)
}

let create ?(batch_size = 64) ?(max_conns = 1) ~router () =
  if batch_size < 1 then
    Cyclesteal.Error.invalid "Server.create: batch_size must be >= 1";
  if max_conns < 1 then
    Cyclesteal.Error.invalid "Server.create: max_conns must be >= 1";
  {
    batch_size;
    max_conns;
    router;
    answers = Answers.create ();
    stats = Stats.create ();
    stop = Atomic.make false;
    wake = Atomic.make None;
    conns = Array.init max_conns (fun _ -> Atomic.make None);
  }

let stats t = t.stats
let router t = t.router
let answers t = t.answers
(* Raise the flag, wake the socket slots blocked in [select], and shut
   the read side of every connection a slot is serving: a signal does
   not interrupt a [read] on a pool domain, but a shut read side makes
   it return end-of-file.  A batch in flight still gets its replies.
   A slot records its connection before it checks the flag, so either
   the shutdown reaches the connection or the slot sees the flag. *)
let request_stop t =
  let quietly f fd = try f fd with Unix.Unix_error _ -> () in
  Atomic.set t.stop true;
  Option.iter
    (quietly (fun fd -> ignore (Unix.write_substring fd "x" 0 1)))
    (Atomic.get t.wake);
  Array.iter
    (fun conn ->
       Option.iter
         (quietly (fun fd -> Unix.shutdown fd Unix.SHUTDOWN_RECEIVE))
         (Atomic.get conn))
    t.conns
let stopped t = Atomic.get t.stop

(* The [stats] payload merges both layers: the server's connection-side
   counters and the router's merged cache view, with per-shard sections
   and the restart count appended only when there is something to say —
   a single-shard daemon that never restarted keeps the exact serial
   payload shape. *)
let stats_json t =
  let cache = Router.cache_stats t.router in
  let answers = Answers.stats t.answers in
  if Router.shard_count t.router > 1 || Router.restarts t.router > 0 then
    Stats.to_json
      ~shards:(Router.shards_json t.router)
      ~restarts:(Router.restarts t.router) ~answers t.stats ~cache
  else Stats.to_json ~answers t.stats ~cache

let summary t = Stats.summary (stats_json t)

let overlong_error =
  Cyclesteal.Error.Invalid_params
    "request line exceeds the 65536-byte limit; discarded through the next \
     newline"

(* Read one batch: block for the first line, then drain whatever is
   already available, up to the batch size.  An overlong line ends the
   batch early; the caller answers it with one error response after the
   batch's own responses, so the wire order still matches arrival
   order. *)
let read_batch t r =
  let should_stop () = stopped t in
  match next_line ~blocking:true ~should_stop r with
  | No_line -> ([], false)
  | Overlong -> ([], true)
  | Line first ->
    let rec drain acc k =
      if k >= t.batch_size then (List.rev acc, false)
      else
        match next_line ~blocking:false ~should_stop r with
        | Line line -> drain (line :: acc) (k + 1)
        | Overlong -> (List.rev acc, true)
        | No_line -> (List.rev acc, false)
    in
    drain [ first ] 1

(* A stats reset applies once the batch that carried it is fully
   accounted and written, so the response still reflects the pre-reset
   counters. *)
let reset_counters t =
  Stats.reset_counters t.stats;
  Router.reset_counters t.router;
  Answers.reset_counters t.answers

let op_of (e : Protocol.envelope) =
  match e.Protocol.request with
  | Ok req -> Protocol.op_name req
  | Error _ -> "invalid"

(* A line's answer-cache key: ['T'] and the bytes after the comma that
   ends its id, when {!Protocol.split_id} splits it, else ['L'] and the
   whole line.  A split line's entry is its [result] payload, which a
   hit wraps in the line's own id; a whole line's entry is its whole
   reply, since it hits only when the line repeats byte for byte.  The
   tag keeps the two shapes apart: untagged, a tail could spell a
   stored whole line, or a whole line a stored tail, and be answered
   for a request it does not make. *)
let tagged tag line off =
  let n = String.length line - off in
  let b = Bytes.create (n + 1) in
  Bytes.unsafe_set b 0 tag;
  Bytes.blit_string line off b 1 n;
  Bytes.unsafe_to_string b

(* Misses of one batch by answer-cache key. *)
module Pending = Hashtbl.Make (String)

(* Answer one batch of raw lines into [out], in request order, then the
   overlong-line error when [overlong]; whether the batch asked for a
   stats reset.  Every line is keyed, then probed, all probes under one
   answer-cache lock, and a hit is written from its stored bytes
   without parsing its line; a hit's latency is its own probe, timed
   from the end of the probe before it.  Only the misses are parsed,
   and only the routed ones go to the router, which hands them back
   index-aligned; a cacheable miss that repeats an earlier one of the
   same batch (same key) goes only once: [slot.(i)] is the router
   outcome line [i] reads, shared by every copy.  A successful
   cacheable miss is serialized once and stored on the way out (its
   copies reuse those bytes and its latency), and everything else
   (errors, strategies, custom-periods evaluations) is serialized as
   before and never stored.  A [stats] op is answered here, from one
   snapshot per batch taken before any of the batch's outcomes is
   recorded; it and parse errors are counted as untimed.  The batch's
   records go to the stats in one call. *)
let answer_batch t out lines ~overlong =
  let n = Array.length lines in
  let ids = Array.make n None in
  let keys =
    Array.mapi
      (fun i line ->
         match Protocol.split_id line with
         | Some (id, off) ->
           ids.(i) <- Some id;
           tagged 'T' line off
         | None -> tagged 'L' line 0)
      lines
  in
  let hits = Array.make n None and latency = Array.make n 0. in
  if n > 0 then
    Answers.probe t.answers (fun find ->
        let last = ref (Csutil.Clock.now ()) in
        Array.iteri
          (fun i key ->
             let hit = find key in
             let now = Csutil.Clock.now () in
             if Option.is_some hit then begin
               hits.(i) <- hit;
               latency.(i) <- now -. !last
             end;
             last := now)
          keys);
  let envelopes = Array.make n None and slot = Array.make n (-1) in
  let routed = ref [] and nrouted = ref 0 and misses = ref 0 in
  let pending = Pending.create 8 in
  let stats_ops = ref false and wants_reset = ref false in
  let route i e =
    slot.(i) <- !nrouted;
    incr nrouted;
    routed := e :: !routed
  in
  for i = 0 to n - 1 do
    if Option.is_none hits.(i) then begin
      let e = Protocol.parse_line lines.(i) in
      envelopes.(i) <- Some e;
      match e.Protocol.request with
      | Ok req when Answers.cacheable req -> (
        incr misses;
        match Pending.find_opt pending keys.(i) with
        | Some k -> slot.(i) <- k
        | None ->
          Pending.add pending keys.(i) !nrouted;
          route i e)
      | Ok (Protocol.Stats { reset }) ->
        stats_ops := true;
        if reset then wants_reset := true
      | _ -> route i e
    end
  done;
  if !misses > 0 then Answers.add_misses t.answers !misses;
  let snapshot = if !stats_ops then Some (stats_json t) else None in
  let routed = Array.of_list (List.rev !routed) in
  let outcomes =
    if Array.length routed = 0 then [||]
    else Router.run_parsed t.router routed
  in
  let serialized = Array.make (Array.length routed) None in
  let size = if overlong then n + 1 else n in
  let records = Array.make size { Stats.op = ""; ok = false; latency = 0.; bytes = 0 } in
  let timed = Array.make size false in
  for i = 0 to n - 1 do
    let before = Buffer.length out in
    let op, ok, latency, is_timed =
      match (hits.(i), envelopes.(i)) with
      | Some hit, _ ->
        (match ids.(i) with
         | Some id -> Protocol.add_payload_response out ~id hit.Answers.payload
         | None -> Buffer.add_string out hit.Answers.payload);
        (hit.Answers.op, true, latency.(i), true)
      | None, None -> assert false (* a line that missed was parsed *)
      | None, Some e -> (
        match (snapshot, e.Protocol.request) with
        | Some stats, Ok (Protocol.Stats _) ->
          Protocol.add_response out ~id:e.Protocol.id (Ok stats);
          (op_of e, true, 0., false)
        | _ ->
          let k = slot.(i) in
          let o = outcomes.(k) in
          (match (o.Batch.result, e.Protocol.request) with
           | Ok v, Ok req when Answers.cacheable req -> (
             match serialized.(k) with
             | Some payload ->
               Protocol.add_payload_response out ~id:e.Protocol.id payload
             | None ->
               let payload = Json.to_string v in
               Protocol.add_payload_response out ~id:e.Protocol.id payload;
               serialized.(k) <- Some payload;
               Answers.store t.answers keys.(i) ~op:(Protocol.op_name req)
                 (if Option.is_some ids.(i) then payload
                  else Buffer.sub out before (Buffer.length out - before)))
           | result, _ -> Protocol.add_response out ~id:e.Protocol.id result);
          ( op_of e,
            Result.is_ok o.Batch.result,
            o.Batch.latency,
            Result.is_ok e.Protocol.request ))
    in
    Buffer.add_char out '\n';
    records.(i) <- { Stats.op; ok; latency; bytes = Buffer.length out - before };
    timed.(i) <- is_timed
  done;
  if overlong then begin
    let before = Buffer.length out in
    Protocol.add_response out ~id:Json.Null (Error overlong_error);
    Buffer.add_char out '\n';
    records.(n) <-
      { Stats.op = "invalid"; ok = false; latency = 0.; bytes = Buffer.length out - before }
  end;
  Stats.add_served t.stats ~size:n records ~timed;
  !wants_reset

(* The wire loop: answer each batch into one per-connection buffer
   reused across batches ([answer_batch]), and write the buffer through
   a per-connection [Bytes]. *)
let serve_fd t in_fd out_fd =
  let r = reader in_fd in
  let out = Buffer.create 8192 in
  let wire = ref (Bytes.create 8192) in
  let rec loop () =
    if stopped t then ()
    else begin
      let lines, overlong = read_batch t r in
      if lines = [] && not overlong then ()
      else begin
        Buffer.clear out;
        let wants_reset = answer_batch t out (Array.of_list lines) ~overlong in
        flush out_fd wire out;
        if wants_reset then reset_counters t;
        loop ()
      end
    end
  in
  loop ()

(* Without this, a client that disconnects between our read and our
   write turns the write into a process-killing SIGPIPE instead of an
   EPIPE error we can count. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

(* One connection, from slot [slot]'s point of view.  A client that
   disconnects mid-batch surfaces as EPIPE/ECONNRESET from a read or a
   write; that ends this connection only — count it and keep the slot
   alive for the next accept. *)
let handle_connection t slot conn =
  Atomic.set t.conns.(slot) (Some conn);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.conns.(slot) None;
      try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
       try serve_fd t conn conn
       with Unix.Unix_error _ -> Stats.add_io_error t.stats)

let serve_socket t ~path =
  Lazy.force ignore_sigpipe;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Atomic.set t.wake (Some wake_w);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.wake None;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ sock; wake_r; wake_w ];
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
       (* Replace a stale socket file from a previous run. *)
       (try Unix.unlink path with Unix.Unix_error _ -> ());
       Unix.bind sock (Unix.ADDR_UNIX path);
       Unix.listen sock (Stdlib.max 8 (2 * t.max_conns));
       Unix.set_nonblock sock;
       (* One slot's life: wait in [select] beside the self-pipe
          {!request_stop} writes to (the signal handler may run on
          another domain, and must still wake every slot), accept, serve
          the connection to its end, repeat.  Every idle slot wakes for
          a new client and only one accepts it, so the listener is
          non-blocking and the others go back to waiting on [EAGAIN].
          Transient accept failures (the client gave up before the
          handshake, fd exhaustion) are counted and retried — the
          listener must outlive any single client. *)
       let rec slot i =
         if not (stopped t) then
           match Unix.select [ sock; wake_r ] [] [] (-1.) with
           | ready, _, _ when List.mem sock ready && not (stopped t) -> (
             match Unix.accept sock with
             | conn, _ ->
               Unix.clear_nonblock conn;
               handle_connection t i conn;
               slot i
             | exception
                 Unix.Unix_error
                   ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
               slot i
             | exception
                 Unix.Unix_error
                   ((Unix.ECONNABORTED | Unix.EMFILE | Unix.ENFILE), _, _) ->
               Stats.add_io_error t.stats;
               slot i)
           | _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> slot i
       in
       (* [max_conns] slots of a dedicated pool, slot 0 on this domain;
          a client past them waits in the listen backlog.  This pool
          only ever carries connections: a slot answers its resident
          sub-batches itself (microseconds, no fan-out), and fill work
          happens on the router's shard workers and their solve pools,
          so serving slots never compete with compute slots and the two
          layers cannot deadlock each other. *)
       Csutil.Par.Pool.with_pool ~domains:t.max_conns (fun pool ->
           Csutil.Par.Pool.run pool slot))
