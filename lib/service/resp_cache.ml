(* Serialized-response hot cache: a bounded LRU from the exact raw
   request line to the exact reply bytes the wire loop produced for it.

   A hit skips the whole parse -> plan -> serialize pipeline — the one
   fixed per-request cost every op pays even when the answer is warm in
   the table/solver caches.  The key is the verbatim line (id field
   included), so a stored reply is byte-identical to what re-serving
   the line would produce: advise/schedule/evaluate/dp results are pure
   functions of the request (solver values are pure functions of
   canonical states, dp values are independent of table bounds), and
   the id round-trips through the key.  Ops whose reply depends on
   server state (stats, stats reset, strategies) and error replies are
   never stored — that is the server's call, made at store time.

   Dp replies additionally carry the backing table's identity (c):
   [invalidate] drops them when that table grows.  Values would not
   actually change — the recurrence only reads smaller indices — but
   the invalidation keeps the discipline auditable: a stored reply
   never outlives the table state it was computed against, so byte
   identity with a cache-off run never rests on a value-stability
   argument about the kernel.

   One mutex, logical-clock LRU, O(size) eviction scan — the same
   shape as Cache's table map, and the same reasoning: capacities are
   small, simplicity wins. *)

open Cyclesteal

type entry = {
  reply : string; (* exact reply line, newline excluded *)
  op : string; (* for per-op accounting when served from here *)
  dp_c : int option; (* backing dp table identity, for [invalidate] *)
  mutable used : int;
}

type t = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t; (* keyed by the raw request line *)
  capacity : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity =
  if capacity < 1 then
    Error.invalid "Resp_cache.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    capacity;
    clock = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.capacity

let find t line =
  locked t (fun () ->
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.entries line with
      | Some e ->
        e.used <- t.clock;
        t.hits <- t.hits + 1;
        Some (e.reply, e.op)
      | None ->
        t.misses <- t.misses + 1;
        None)

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, best) when best.used <= e.used -> ()
      | _ -> victim := Some (k, e))
    t.entries;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.entries k;
    t.evictions <- t.evictions + 1
  | None -> ()

let store t ~line ~op ?dp_c ~reply () =
  locked t (fun () ->
      t.clock <- t.clock + 1;
      if not (Hashtbl.mem t.entries line) then begin
        while Hashtbl.length t.entries >= t.capacity do
          evict_lru t
        done;
        t.insertions <- t.insertions + 1;
        Hashtbl.add t.entries line { reply; op; dp_c; used = t.clock }
      end)

let invalidate t ~c =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun line e acc -> if e.dp_c = Some c then line :: acc else acc)
          t.entries []
      in
      List.iter
        (fun line ->
          Hashtbl.remove t.entries line;
          t.invalidations <- t.invalidations + 1)
        doomed)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        insertions = t.insertions;
        evictions = t.evictions;
        invalidations = t.invalidations;
        entries = Hashtbl.length t.entries;
        bytes =
          Hashtbl.fold
            (fun line e b -> b + String.length line + String.length e.reply)
            t.entries 0;
      })

let reset_counters t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.insertions <- 0;
      t.evictions <- 0;
      t.invalidations <- 0)
