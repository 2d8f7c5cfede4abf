(* The answer cache: reply bytes keyed on the request line's own bytes,
   so a repeat under any id skips parse -> plan -> answer -> serialize.

   Keys are strings the server builds from a line (the bytes after its
   [{"id":<value>,] prefix, or the whole line), tagged by shape; this
   module only compares them.  Only requests whose payload is a pure
   function of the decoded request are cacheable: advise, schedule, dp
   (payloads do not depend on table bounds) and named-policy evaluate
   (solver values are functions of canonical states).  Custom-periods
   evaluations, stats and strategies never enter, and the server
   stores successful results only.

   The bound is in bytes, split over two generations of half the budget
   each.  Inserts go to the young generation; when it is full the old
   one is dropped whole and the young one takes its place, so eviction
   is O(1) (a table reset) instead of an LRU scan.  A hit in the old
   generation moves the entry to the young one, so a request that keeps
   coming back survives every rotation.  An entry's bytes follow from
   its key's and payload's lengths, and are kept as running totals per
   generation. *)

module Table = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash (s : string) = Hashtbl.hash s
  end)

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

type entry = { op : string; payload : string }

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

(* Heap bytes one entry pins: its key and payload strings (a header
   word and the bytes padded up to the next word), the entry record
   (three words) and its table bucket (four).  The op name is a shared
   constant. *)
let string_bytes s = 8 * (2 + (String.length s / 8))
let entry_bytes key e = string_bytes key + string_bytes e.payload + 56

(* Drop the old generation, age the young one. *)
let rotate t =
  let dropped = t.old in
  t.evictions <- t.evictions + Table.length dropped.table;
  Table.reset dropped.table;
  dropped.held <- 0;
  t.old <- t.young;
  t.young <- dropped

(* Into the young generation; [e] fits in half the budget. *)
let insert t key e bytes =
  if t.young.held + bytes > t.budget / 2 then rotate t;
  Table.replace t.young.table key e;
  t.young.held <- t.young.held + bytes

(* Under the lock. *)
let find_locked t key =
  match Table.find_opt t.young.table key with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    hit
  | None -> (
    match Table.find_opt t.old.table key with
    | Some e as hit ->
      t.hits <- t.hits + 1;
      let bytes = entry_bytes key e in
      Table.remove t.old.table key;
      t.old.held <- t.old.held - bytes;
      insert t key e bytes;
      hit
    | None -> None)

let probe t f = locked t (fun () -> f (find_locked t))
let add_misses t n = locked t (fun () -> t.misses <- t.misses + n)

(* First writer wins; an entry larger than half the budget is not
   kept. *)
let store t key ~op payload =
  let e = { op; payload } in
  let bytes = entry_bytes key e in
  if bytes <= t.budget / 2 then
    locked t (fun () ->
        if not (Table.mem t.young.table key || Table.mem t.old.table key)
        then begin
          t.insertions <- t.insertions + 1;
          insert t key e bytes
        end)

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
