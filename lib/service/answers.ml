(* The answer cache: serialized [result] payloads keyed on the decoded
   request, so a repeat under any id, any field order and any number
   spelling skips plan -> answer -> serialize.

   The key is the [Protocol.request] value itself.  Equality compares
   floats by their bits, so 0.0 and -0.0 stay distinct keys and adjacent
   doubles never collide; a request carrying a NaN is not cacheable at
   all.  The polymorphic hash is consistent with that equality (it
   hashes -0.0 like 0.0 and every NaN alike, which only costs a bucket
   probe).  Only requests whose payload is a pure function of the
   decoded request are cacheable: advise, schedule, dp (payloads do not
   depend on table bounds) and named-policy evaluate (solver values are
   functions of canonical states).  Custom-periods evaluations, stats
   and strategies never enter, and the server stores successful
   results only.

   The bound is in bytes, split over two generations of half the budget
   each.  Inserts go to the young generation; when it is full the old
   one is dropped whole and the young one takes its place, so eviction
   is O(1) (a table reset) instead of an LRU scan.  A hit in the old
   generation moves the entry to the young one, so a request that keeps
   coming back survives every rotation.  Bytes are counted per entry on
   insert, from the key's and payload's heap words plus the table
   bucket, and kept as running totals per generation. *)

module Key = struct
  type t = Protocol.request

  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let equal (a : t) (b : t) =
    match (a, b) with
    | Advise a, Advise b -> same a.c b.c && same a.u b.u && a.p = b.p
    | Schedule a, Schedule b ->
      same a.c b.c && same a.u b.u && a.p = b.p
      && String.equal a.regime b.regime
    | Evaluate a, Evaluate b ->
      same a.c b.c && same a.u b.u && a.p = b.p
      && String.equal a.policy b.policy
      && a.periods = None && b.periods = None
    | Dp_query a, Dp_query b -> a.c_ticks = b.c_ticks && a.l = b.l && a.p = b.p
    | _ -> false

  let hash (r : t) = Hashtbl.hash r
end

module Table = Hashtbl.Make (Key)

let cacheable : Protocol.request -> bool = function
  | Advise { c; u; _ }
  | Schedule { c; u; _ }
  | Evaluate { c; u; periods = None; _ } ->
    not (Float.is_nan c || Float.is_nan u)
  | Dp_query _ -> true
  | Evaluate { periods = Some _; _ } | Strategies | Stats _ -> false

(* 8 MiB: thousands of typical replies (a few hundred bytes to a few
   KiB each), a small share of what a default cache of dp tables and
   resident solvers holds. *)
let default_budget_bytes = 8 lsl 20

type entry = { payload : string; bytes : int }

type generation = { table : entry Table.t; mutable held : int }

type t = {
  lock : Mutex.t;
  budget : int;
  mutable young : generation;
  mutable old : generation;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

let generation () = { table = Table.create 256; held = 0 }

let create ?(budget_bytes = default_budget_bytes) () =
  if budget_bytes < 2 then
    Cyclesteal.Error.invalid "Answers.create: budget_bytes must be >= 2";
  {
    lock = Mutex.create ();
    budget = budget_bytes;
    young = generation ();
    old = generation ();
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
  }

let locked t f = Mutex.protect t.lock f

(* Heap bytes one entry pins: key, payload, the entry record and its
   table bucket (two- and three-field blocks). *)
let entry_bytes req payload =
  8
  * (Obj.reachable_words (Obj.repr req)
     + Obj.reachable_words (Obj.repr payload)
     + 7)

(* Drop the old generation, age the young one. *)
let rotate t =
  let dropped = t.old in
  t.evictions <- t.evictions + Table.length dropped.table;
  Table.reset dropped.table;
  dropped.held <- 0;
  t.old <- t.young;
  t.young <- dropped

(* Into the young generation; [e] fits in half the budget. *)
let insert t req e =
  if t.young.held + e.bytes > t.budget / 2 then rotate t;
  Table.replace t.young.table req e;
  t.young.held <- t.young.held + e.bytes

let find t req =
  if not (cacheable req) then None
  else
    locked t (fun () ->
        match Table.find_opt t.young.table req with
        | Some e ->
          t.hits <- t.hits + 1;
          Some e.payload
        | None -> (
          match Table.find_opt t.old.table req with
          | Some e ->
            t.hits <- t.hits + 1;
            Table.remove t.old.table req;
            t.old.held <- t.old.held - e.bytes;
            insert t req e;
            Some e.payload
          | None ->
            t.misses <- t.misses + 1;
            None))

(* First writer wins; an entry larger than half the budget is not
   kept. *)
let store t req payload =
  if cacheable req then begin
    let e = { payload; bytes = entry_bytes req payload } in
    if e.bytes <= t.budget / 2 then
      locked t (fun () ->
          if not (Table.mem t.young.table req || Table.mem t.old.table req)
          then begin
            t.insertions <- t.insertions + 1;
            insert t req e
          end)
  end

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  bytes : int;
  budget_bytes : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        insertions = t.insertions;
        evictions = t.evictions;
        entries = Table.length t.young.table + Table.length t.old.table;
        bytes = t.young.held + t.old.held;
        budget_bytes = t.budget;
      })

let reset_counters t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.insertions <- 0;
      t.evictions <- 0)
