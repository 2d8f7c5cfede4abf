(* Exact solution of the guaranteed-output game on an integer time grid
   (the "bootstrapping" of paper Section 4).

   Time is measured in ticks; the setup cost c is an integer number of
   ticks.  W(p)[L] satisfies

     W(0)[L] = L (-) c                       (Proposition 4.1(d))
     W(p)[0] = 0
     W(p)[L] = max_{1 <= t <= L}
                 min( W(p-1)[L - t],                    -- killed at the
                                                           last instant
                      (t (-) c) + W(p)[L - t] )         -- period survives

   The recurrence prices each period as it is chosen; because the game is
   deterministic and perfect-information, committing to a whole episode
   schedule up front has the same value as choosing period-by-period (the
   test oracle [Dp_ref] searches committed schedules by brute force to
   check this on small instances).  The optimal episode schedule is
   recovered by following the argmax chain at fixed p.

   A table is resident only as breakpoint runs (the [packed] layout
   below, which is also the snapshot payload).  A fill keeps a dense
   scratch of W alone: the cell at (p, l) only reads cells at strictly
   smaller l, so a grow decodes the old W and fills only the new cells,
   and the worker filling a row appends its runs to the old row's as it
   goes.  A solve is a grow from the empty table.  The fresh [packed]
   record is published whole: readers holding the previous pack keep
   reading it untouched, so a single grower — e.g. the service cache on
   its shard worker — never races them.

   The kernel (see also DESIGN.md S17, S24):

   - Crossing bisection.  W(p-1) is non-decreasing in l (Prop 4.1(a))
     and W(p) is 1-Lipschitz in l (qcheck-verified), so the
     adversary's branch killed(t) = W(p-1)[l - t] is non-increasing in
     the period length t and the survive branch (t - c) + W(p)[l - t]
     is nondecreasing for t >= c.  Their minimum is unimodal, and the
     cell's optimum sits at the equalization crossing of Thm 4.3:
     [fill_block] bisects for it, galloping from the previous cell's
     crossing, and resolves the exact value and lowest-t argmax from
     the few candidates around it.  Values AND recorded argmax periods
     are bit-identical to the exhaustive reference fill ([Dp_ref],
     test-only), which the tests and bench check cell by cell.

   - Domain-parallel fill.  A row has a left-to-right dependency on
     itself (the survive branch), so one row cannot be split across
     domains — but the killed branch only reads the *previous* row, so
     row p can be filled in blocks pipelined against row p - 1: the
     block of row p covering columns [lo, hi] may start as soon as row
     p - 1 is solved through column hi - 1.  Workers claim rows in
     ascending order and publish per-row progress under a mutex, giving
     a wavefront with up to min(domains, rows) blocks in flight.  Cell
     reads only ever touch published (final) cells, so the parallel
     fill is bit-identical to the sequential one.

   Complexity: O(max_p * max_l^2) time for the exhaustive [Dp_ref]; the
   crossing bisection cuts the inner factor to O(log drift) probes per
   cell, O(log max_l) worst case; a grow pays for the new cells plus a
   linear decode of the old W and copy of the old runs.  Space: the
   pack, plus per fill in flight (max_p + 1) (max_l + 1) scratch ints. *)

type mat = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A dense fill buffer of W, stride [max_l + 1]; what a table keeps is
   the [packed] form below. *)
type body = {
  max_p : int;
  max_l : int;
  value : mat; (* value.{p * (max_l+1) + l} = W(p)[l] *)
}

(* A breakpoint-compressed table (DESIGN.md S24, S35): every solved row
   is a monotone step function, so instead of (max_l + 1) dense cells a
   row is stored as its implicit zero prefix plus two run-length tables
   — one for the loss l - W(p)[l] (long constant runs through the ramp)
   and one for the recorded argmax (constant on decision runs; row 0's
   first(l) = l ramp is stored as the constant l - first instead).  The
   packing is exact for arbitrary tables — runs just get shorter when
   the structure is absent — so a round trip is bit-identical.

   Layout of [pack] (native ints):

     pack[0 .. max_p]                row block offsets into pack
     row block: zero_until           W = 0 and first = l through here
                first_mode           0: runs hold first, 1: l - first
                n_loss, n_first      run counts
                loss_pos[n_loss]     run start columns, strictly
                loss_val[n_loss]       increasing from zero_until + 1
                first_pos[n_first]
                first_val[n_first]

   This is the only resident form: a lookup is a binary search for the
   run holding l, and the same words are the snapshot payload. *)
type packed = { p_max_p : int; p_max_l : int; pack : mat }

type t = { c : int; mutable packed : packed }

let c t = t.c
let max_p t = t.packed.p_max_p
let max_l t = t.packed.p_max_l
let footprint_bytes t = Bigarray.Array1.dim t.packed.pack * (Sys.word_size / 8)

(* What the solved region would occupy as dense arrays — the baseline
   the compressed-resident accounting is compared against. *)
let dense_footprint_bytes t =
  2 * (max_p t + 1) * (max_l t + 1) * (Sys.word_size / 8)

(* --- kernel counters ----------------------------------------------------- *)

(* Process-wide accounting of kernel work, kept in atomics and flushed
   once per row/block (never per cell) so the inner loop stays free of
   synchronisation.  [candidates_visited + candidates_pruned] equals
   the exhaustive candidate count of the cells filled so far. *)
type counters = {
  cells_filled : int;
  candidates_visited : int;
  candidates_pruned : int;
  parallel_fills : int;
  dc_splits : int;
  bp_lookups : int;
  bp_rows : int;
  decode_ns : int;
  fill_ns : int;
  pack_ns : int;
}

let cells_ctr = Atomic.make 0
let visited_ctr = Atomic.make 0
let pruned_ctr = Atomic.make 0
let parfill_ctr = Atomic.make 0
let dc_ctr = Atomic.make 0
let bp_lookups_ctr = Atomic.make 0
let bp_rows_ctr = Atomic.make 0
let decode_ctr = Atomic.make 0
let fill_ctr = Atomic.make 0
let pack_ctr = Atomic.make 0

let counters () =
  {
    cells_filled = Atomic.get cells_ctr;
    candidates_visited = Atomic.get visited_ctr;
    candidates_pruned = Atomic.get pruned_ctr;
    parallel_fills = Atomic.get parfill_ctr;
    dc_splits = Atomic.get dc_ctr;
    bp_lookups = Atomic.get bp_lookups_ctr;
    bp_rows = Atomic.get bp_rows_ctr;
    decode_ns = Atomic.get decode_ctr;
    fill_ns = Atomic.get fill_ctr;
    pack_ns = Atomic.get pack_ctr;
  }

let reset_counters () =
  List.iter
    (fun a -> Atomic.set a 0)
    [ cells_ctr; visited_ctr; pruned_ctr; parfill_ctr; dc_ctr; bp_lookups_ctr;
      bp_rows_ctr; decode_ctr; fill_ctr; pack_ctr ]

let charge ~cells ~visited ~pruned =
  ignore (Atomic.fetch_and_add cells_ctr cells);
  ignore (Atomic.fetch_and_add visited_ctr visited);
  ignore (Atomic.fetch_and_add pruned_ctr pruned)

(* --- row runs ------------------------------------------------------------- *)

(* One row of a pack under construction, in the [packed] layout's
   terms: cells arrive left to right, from the kernel as it fills them,
   and extend the zero prefix or the runs in place.  The argmax runs
   are kept in a provisional [mode] until the row is complete. *)
type seq = { mutable n : int; mutable pos : mat; mutable vals : mat }

type runs = {
  mutable zu : int; (* W = 0 and first = l through here *)
  mutable mode : int; (* of [first]: 0 first, 1 l - first *)
  loss : seq; (* l - W *)
  first : seq;
}

let seq n = Bigarray.{ n = 0; pos = Array1.create int c_layout n; vals = Array1.create int c_layout n }

(* Mode 1 is provisional: all but the shortest rows the kernel fills
   end in it (see the [packed] notes). *)
let fresh_runs () = { zu = -1; mode = 1; loss = seq 16; first = seq 16 }

let add s l x =
  let open Bigarray in
  if s.n = Array1.dim s.pos then begin
    let more a =
      let b = Array1.create int c_layout ((2 * s.n) + 16) in
      Array1.blit a (Array1.sub b 0 s.n);
      b
    in
    s.pos <- more s.pos;
    s.vals <- more s.vals
  end;
  Array1.unsafe_set s.pos s.n l;
  Array1.unsafe_set s.vals s.n x;
  s.n <- s.n + 1

(* Append [x] at column [l] unless it continues the last run. *)
let extend_run s l x =
  if s.n = 0 || x <> Bigarray.Array1.unsafe_get s.vals (s.n - 1) then add s l x

(* Cell (l, W = w, first = f), the one after the last. *)
let push r l w f =
  if r.loss.n = 0 && w = 0 && f = l then r.zu <- l
  else begin
    extend_run r.loss l (l - w);
    extend_run r.first l (if r.mode = 1 then l - f else f)
  end

(* Row [p] of a (validated) pack, its runs copied verbatim into the
   reset [r] to extend. *)
let load_runs r pk p =
  let get = Bigarray.Array1.get pk.pack in
  let base = get p in
  let n_loss = get (base + 2) and n_first = get (base + 3) in
  let copy s off n =
    for i = 0 to n - 1 do
      add s (get (off + i)) (get (off + n + i))
    done
  in
  copy r.loss (base + 4) n_loss;
  copy r.first (base + 4 + (2 * n_loss)) n_first;
  r.zu <- get base;
  if n_first > 0 then r.mode <- get (base + 1)

(* The process-wide spare fill buffers: the W scratch and the rows' run
   buffers, reused so that a fill allocates little beyond its pack.  A
   fill takes them whole with [Atomic.exchange] (allocating what is
   absent or too small), so concurrent fills never share them; [give]
   returns them keeping the larger W of theirs and any another fill
   returned meanwhile, so at most one idle set is held, and
   [trim_scratch] drops it once its W outgrows what the caller still
   holds.  Nothing is zeroed: every fill writes each cell it reads (see
   [unpack_values]) and resets the runs it uses. *)
type scratch = { w : mat; mutable rows : runs array }

let spare : scratch option Atomic.t = Atomic.make None
let bytes s = Bigarray.Array1.dim s.w * (Sys.word_size / 8)

let rec give s =
  match Atomic.exchange spare (Some s) with
  | Some other when bytes other > bytes s -> give other
  | _ -> ()

let with_scratch ~max_p ~max_l f =
  let open Bigarray in
  let cells = (max_p + 1) * (max_l + 1) in
  let s =
    match Atomic.exchange spare None with
    | Some s when Array1.dim s.w >= cells -> s
    | Some s -> { s with w = Array1.create int c_layout cells }
    | None -> { w = Array1.create int c_layout cells; rows = [||] }
  in
  let have = Array.length s.rows in
  if have <= max_p then
    s.rows <- Array.init (max_p + 1) (fun p -> if p < have then s.rows.(p) else fresh_runs ());
  let rows = Array.sub s.rows 0 (max_p + 1) in
  Array.iter (fun r -> r.zu <- -1; r.mode <- 1; r.loss.n <- 0; r.first.n <- 0) rows;
  let r = f { max_p; max_l; value = Array1.sub s.w 0 cells } rows in
  give s;
  r

let trim_scratch ~max_bytes =
  match Atomic.exchange spare None with
  | Some s when bytes s <= max_bytes -> give s
  | _ -> ()

(* W and the run buffers' capacity. *)
let scratch_bytes () =
  let cap q = 2 * Bigarray.Array1.dim q.pos * (Sys.word_size / 8) in
  match Atomic.get spare with
  | Some s -> Array.fold_left (fun b r -> b + cap r.loss + cap r.first) (bytes s) s.rows
  | None -> 0

(* The packing rule, once a row is complete: offset mode when it has
   strictly fewer runs.  The other mode's run count follows from the
   runs in O(runs): inside a run holding x the other encoding is l - x
   (either way round), so it changes at every cell and only the run
   boundaries need a check.  A row whose provisional mode loses is
   re-encoded cell by cell. *)
let finish ~max_l r =
  let f = r.first and other = ref 0 and y = ref 0 in
  let stop i = if i + 1 < f.n then f.pos.{i + 1} - 1 else max_l in
  for i = 0 to f.n - 1 do
    let x = f.vals.{i} in
    if i = 0 || f.pos.{i} - x <> !y then incr other;
    other := !other + stop i - f.pos.{i};
    y := stop i - x
  done;
  if (if r.mode = 1 then f.n < !other else !other < f.n) <> (r.mode = 1) then begin
    let g = seq !other in
    for i = 0 to f.n - 1 do
      for l = f.pos.{i} to stop i do
        extend_run g l (l - f.vals.{i})
      done
    done;
    r.mode <- 1 - r.mode;
    f.n <- g.n;
    f.pos <- g.pos;
    f.vals <- g.vals
  end

let heap_pack words = Bigarray.(Array1.create int c_layout words)

(* The [packed] record of complete rows, in the [words]-long array
   [alloc words] returns. *)
let pack_rows ~alloc ~max_l rows =
  let open Bigarray in
  Array.iter (finish ~max_l) rows;
  let size r = 4 + (2 * (r.loss.n + r.first.n)) in
  let rows_n = Array.length rows in
  let words = Array.fold_left (fun a r -> a + size r) rows_n rows in
  let pack = alloc words in
  let put off s =
    Array1.blit (Array1.sub s.pos 0 s.n) (Array1.sub pack off s.n);
    Array1.blit (Array1.sub s.vals 0 s.n) (Array1.sub pack (off + s.n) s.n)
  in
  let base = ref rows_n in
  Array.iteri
    (fun p r ->
       let b = !base in
       Array1.set pack p b;
       List.iteri (fun i x -> Array1.set pack (b + i) x) [ r.zu; r.mode; r.loss.n; r.first.n ];
       put (b + 4) r.loss;
       put (b + 4 + (2 * r.loss.n)) r.first;
       base := b + size r)
    rows;
  { p_max_p = rows_n - 1; p_max_l = max_l; pack }

(* Decode W of rows [p_lo .. p_max_p] of a (validated) pack into the
   top-left corner of [body], whose bounds cover it: every cell of
   those rows is written, zero prefix included, so a reused scratch
   never leaks a stale cell into the fill that follows. *)
let unpack_values pk body ~p_lo =
  let open Bigarray in
  let pack = pk.pack and ml = pk.p_max_l and value = body.value in
  for p = p_lo to pk.p_max_p do
    let base = Array1.unsafe_get pack p and row = p * (body.max_l + 1) in
    let n_loss = Array1.unsafe_get pack (base + 2) in
    Array1.fill (Array1.sub value row (Array1.unsafe_get pack base + 1)) 0;
    for i = 0 to n_loss - 1 do
      let x = Array1.unsafe_get pack (base + 4 + n_loss + i) in
      let stop =
        if i + 1 < n_loss then Array1.unsafe_get pack (base + 5 + i) - 1 else ml
      in
      for l = Array1.unsafe_get pack (base + 4 + i) to stop do
        Array1.unsafe_set value (row + l) (l - x)
      done
    done
  done

(* --- the kernel ----------------------------------------------------------- *)

(* Int max: [Stdlib.max] is polymorphic. *)
let imax (a : int) b = if a >= b then a else b

(* Row 0 is the closed form W(0)[l] = l (-) c. *)
let fill_row0 body r ~c ~l_from =
  for l = l_from to body.max_l do
    let w = imax 0 (l - c) in
    Bigarray.Array1.unsafe_set body.value l w;
    push r l w l
  done;
  if body.max_l >= l_from then
    charge ~cells:(body.max_l - l_from + 1) ~visited:0 ~pruned:0

(* A block's probe work, flushed to the counters once per block. *)
type tally = { mutable visited : int; mutable splits : int }

(* The probe at t of cell l, counted: the crossing test K(t) <= S(t)
   when [target < 0], else the survive plateau test S(t) >= target. *)
let[@inline] holds tl (v : mat) ~c ~row ~prev ~l ~target t =
  tl.visited <- tl.visited + 1;
  let s = t - c + Bigarray.Array1.unsafe_get v (row + l - t) in
  if target < 0 then Bigarray.Array1.unsafe_get v (prev + l - t) <= s else s >= target

let bisect tl v ~c ~row ~prev ~l ~target lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    tl.splits <- tl.splits + 1;
    let mid = (!lo + !hi) / 2 in
    if holds tl v ~c ~row ~prev ~l ~target mid then hi := mid else lo := mid + 1
  done;
  !hi

(* Least t in [lo0, hi0] where the monotone (false.. then true..) probe
   holds, given it holds at hi0 (hi0 itself is never probed).  [g]
   seeds a bidirectional gallop: both answers drift by ~1 per cell, so
   starting at the previous cell's answer pays O(log drift) probes,
   O(log range) worst case. *)
let least_from tl v ~c ~row ~prev ~l ~target lo0 hi0 g =
  if lo0 >= hi0 then hi0
  else begin
    let g = if g < lo0 then lo0 else if g >= hi0 then hi0 - 1 else g in
    let lo = ref lo0 and hi = ref hi0 and d = ref 1 and galloping = ref true in
    if holds tl v ~c ~row ~prev ~l ~target g then begin
      (* Answer at or below g: gallop down for a false probe. *)
      hi := g;
      while !galloping do
        let t = g - !d in
        if t < lo0 then galloping := false
        else if holds tl v ~c ~row ~prev ~l ~target t then begin
          hi := t;
          d := 2 * !d
        end
        else begin
          lo := t + 1;
          galloping := false
        end
      done
    end
    else begin
      (* Answer above g: gallop up for a true probe. *)
      lo := g + 1;
      while !galloping do
        let t = g + !d in
        if t >= hi0 then galloping := false
        else if holds tl v ~c ~row ~prev ~l ~target t then begin
          hi := t;
          galloping := false
        end
        else begin
          lo := t + 1;
          d := 2 * !d
        end
      done
    end;
    bisect tl v ~c ~row ~prev ~l ~target !lo !hi
  end

(* Fill cells (p, l) for l in [l_lo, l_hi], appending them to row p's
   runs [r].  Requires row p - 1 solved through column l_hi - 1 and row
   p solved through column l_lo - 1.  A leading l_lo = 0 cell is the
   base case W(p)[0] = 0.  Returns the number of candidates visited;
   the exhaustive scan would visit l per cell.

   The monotone-decision fill (DESIGN.md S24).  The recorded argmax
   itself is NOT monotone in l — at c = 1, p = 1 the lowest maximizer
   goes first(4) = 2, first(5) = 1 — but the two branches of the
   recurrence are:

     K(t) = W(p-1)[l - t]              non-increasing in t  (rows are
                                       nondecreasing in l),
     S(t) = (t - c) + W(p)[l - t]      nondecreasing in t for t >= c
                                       (rows are 1-Lipschitz: one more
                                       tick banks at most one unit),

   both qcheck-verified against [Dp_ref].  So cand(t) = min(K, S) is
   unimodal on [c, l] and the cell reduces to the equalization
   crossing of Theorem 4.3 — the least t_c with K(t_c) <= S(t_c),
   found by divide-and-conquer on the decision range (each halving is
   a [dc_splits]).  The maximum is max of the three region peaks
     a = cand(1) = W(p)[l - 1]   (t <= c: setup eats the period, so
                                  cand = W(p)[l - t], peaked at t = 1),
     s = S(t_c - 1)              (the survive side's peak),
     k = K(t_c)                  (the killed side's peak),
   and the lowest maximizer — Dp_ref's tie-break — is t = 1 if a wins,
   the least t with S(t) = s (another bisection) if s wins, else t_c.
   The crossing also drifts slowly: t_c(l) <= t_c(l-1) + 1 (shifting
   t by one cancels the l shift in both branches, and S gains +1), so
   each cell gallops down from the previous crossing and pays
   O(log drift) probes, O(log l) worst case.  Values and argmax stay
   bit-identical to [Dp_ref]. *)
let fill_block body r ~c ~p ~l_lo ~l_hi =
  let open Bigarray in
  let stride = body.max_l + 1 in
  let v = body.value in
  let row = p * stride in
  let prev = row - stride in
  let tl = { visited = 0; splits = 0 } in
  if l_lo = 0 then begin
    Array1.unsafe_set v row 0;
    push r 0 0 0
  end;
  (* The previous cell's crossing and survive-side argmax; -1 while
     unknown (block entry or the all-zero prefix l <= c). *)
  let hint = ref (-1) and fhint = ref (-1) in
  for l = imax 1 l_lo to l_hi do
    if l < c then begin
      (* Sub-setup lifespan: nothing can be banked. *)
      tl.visited <- tl.visited + 1;
      Array1.unsafe_set v (row + l) 0;
      push r l 0 l
    end
    else begin
      (* The crossing probe holds at hi0 without probing: at l always
         (K = 0), and at hint + 1 by the drift bound
         t_c(l) <= t_c(l - 1) + 1. *)
      let hi0 = if !hint >= c && !hint + 1 <= l then !hint + 1 else l in
      let tc =
        least_from tl v ~c ~row ~prev ~l ~target:(-1) c hi0
          (if !hint >= c then !hint else hi0 - 1)
      in
      hint := tc;
      tl.visited <- tl.visited + 1;
      let a = Array1.unsafe_get v (row + l - 1) in
      let k = Array1.unsafe_get v (prev + l - tc) in
      let s =
        if tc > c then begin
          tl.visited <- tl.visited + 1;
          tc - 1 - c + Array1.unsafe_get v (row + l - tc + 1)
        end
        else -1
      in
      let best = imax a (imax k s) in
      if best <= 0 then begin
        Array1.unsafe_set v (row + l) 0;
        push r l 0 l
      end
      else begin
        Array1.unsafe_set v (row + l) best;
        let ft =
          if a >= best then 1
          else if s >= k then begin
            (* The left edge of the survive plateau below the crossing
               (s = best > 0 here, so the target selects the plateau
               test). *)
            fhint :=
              least_from tl v ~c ~row ~prev ~l ~target:s c (tc - 1)
                (if !fhint >= c then !fhint + 1 else tc - 1);
            !fhint
          end
          else tc
        in
        push r l best ft
      end
    end
  done;
  if tl.splits > 0 then ignore (Atomic.fetch_and_add dc_ctr tl.splits);
  tl.visited

(* Exhaustive candidate count of a block: sum of l over its cells. *)
let exhaustive_count ~l_lo ~l_hi =
  let lo = imax 1 l_lo in
  if l_hi < lo then 0 else (lo + l_hi) * (l_hi - lo + 1) / 2

(* --- fill drivers --------------------------------------------------------- *)

(* The fresh/grow region: for rows p <= old_p only columns > old_l are
   new, for rows p > old_p the whole row is (old_p = -1, old_l = -1 for
   a fresh table). *)
let row_start ~old_p ~old_l p = if p > old_p then 0 else old_l + 1

let seq_fill body rows ~c ~old_p ~old_l =
  for p = 1 to body.max_p do
    let l_lo = row_start ~old_p ~old_l p in
    if l_lo <= body.max_l then begin
      let visited = fill_block body rows.(p) ~c ~p ~l_lo ~l_hi:body.max_l in
      let cells = body.max_l - imax 1 l_lo + 1 + (if l_lo = 0 then 1 else 0) in
      charge ~cells
        ~visited
        ~pruned:(exhaustive_count ~l_lo ~l_hi:body.max_l - visited)
    end
  done

(* Wavefront fill: workers claim rows in ascending order and walk their
   blocks left to right, so one worker appends all of a row's runs; the
   block [lo, hi] of row p waits until row p - 1 has published progress
   >= hi - 1.  progress.(p) is the highest solved column of row p,
   maintained under one mutex whose broadcast doubles as the
   publication fence for the cells themselves. *)
let par_fill pool body rows ~c ~old_p ~old_l =
  let slots = Csutil.Par.Pool.size pool in
  let block =
    (* ~8 blocks per slot per row: enough pipeline ramp, negligible
       handshake cost. *)
    imax 256 ((body.max_l + (8 * slots) - 1) / (8 * slots))
  in
  let lock = Mutex.create () and moved = Condition.create () in
  let progress = Array.make (body.max_p + 1) body.max_l in
  for p = 1 to body.max_p do
    progress.(p) <- row_start ~old_p ~old_l p - 1
  done;
  let next_row = Atomic.make 1 in
  ignore (Atomic.fetch_and_add parfill_ctr 1);
  Csutil.Par.Pool.run pool (fun _slot ->
      let cells = ref 0 and visited = ref 0 and pruned = ref 0 in
      let rec claim () =
        let p = Atomic.fetch_and_add next_row 1 in
        if p <= body.max_p then begin
          let lo = ref (row_start ~old_p ~old_l p) in
          while !lo <= body.max_l do
            let hi = min body.max_l (!lo + block - 1) in
            Mutex.lock lock;
            while progress.(p - 1) < hi - 1 do
              Condition.wait moved lock
            done;
            Mutex.unlock lock;
            let vis = fill_block body rows.(p) ~c ~p ~l_lo:!lo ~l_hi:hi in
            Mutex.lock lock;
            progress.(p) <- hi;
            Condition.broadcast moved;
            Mutex.unlock lock;
            cells :=
              !cells + (hi - imax 1 !lo + 1) + (if !lo = 0 then 1 else 0);
            visited := !visited + vis;
            pruned := !pruned + exhaustive_count ~l_lo:!lo ~l_hi:hi - vis;
            lo := hi + 1
          done;
          claim ()
        end
      in
      claim ();
      charge ~cells:!cells ~visited:!visited ~pruned:!pruned)

(* Below this many new cells a wavefront is pure overhead. *)
let par_threshold = 1 lsl 16

let fill ?pool ~c body rows ~old_p ~old_l =
  fill_row0 body rows.(0) ~c ~l_from:(row_start ~old_p ~old_l 0);
  let new_cells =
    let full_rows = body.max_p - imax 0 old_p in
    let grown_cols = body.max_l - (if old_p < 0 then body.max_l else old_l) in
    (full_rows * (body.max_l + 1)) + (imax 0 (old_p + 1) * grown_cols)
  in
  match pool with
  | Some pool
    when Csutil.Par.Pool.size pool > 1
         && body.max_p >= 2
         && new_cells >= par_threshold ->
    par_fill pool body rows ~c ~old_p ~old_l
  | _ -> seq_fill body rows ~c ~old_p ~old_l

(* --- solve and grow ------------------------------------------------------- *)

(* The largest table a fill may make: its W scratch is 8 bytes a cell
   on 64-bit platforms, 256 MiB at the limit. *)
let max_cells = 1 lsl 25

(* Compared one bound at a time first, so the product cannot wrap. *)
let fits ~max_p ~max_l =
  max_p < max_cells && max_l < max_cells && (max_p + 1) * (max_l + 1) <= max_cells

let check_fits what ~max_p ~max_l =
  if not (fits ~max_p ~max_l) then
    Error.invalidf "%s: p <= %d, L <= %d is over the %d-cell table limit" what
      max_p max_l max_cells

(* [old] extended to bounds that cover it: each old row's runs carry
   over and the new cells' runs are appended behind them, rows past
   [old]'s are filled whole.  Only W of the old rows the new cells read
   is decoded. *)
let extend ?pool ~alloc ~c old ~max_p ~max_l =
  let old_p = old.p_max_p and old_l = old.p_max_l in
  let timed ctr f =
    let t0 = Csutil.Clock.now () in
    let r = f () in
    ignore (Atomic.fetch_and_add ctr (int_of_float ((Csutil.Clock.now () -. t0) *. 1e9)));
    r
  in
  with_scratch ~max_p ~max_l (fun body rows ->
      timed decode_ctr (fun () ->
          unpack_values old body ~p_lo:(if max_l > old_l then 0 else old_p);
          for p = 0 to old_p do
            load_runs rows.(p) old p
          done);
      timed fill_ctr (fun () -> fill ?pool ~c body rows ~old_p ~old_l);
      timed pack_ctr (fun () -> pack_rows ~alloc ~max_l rows))

let empty = { p_max_p = -1; p_max_l = -1; pack = Bigarray.(Array1.create int c_layout 0) }

let solve_into ~pack ~pool ~c ~max_p ~max_l =
  if c < 1 then Error.invalid "Dp.solve: c must be >= 1 tick";
  if max_p < 0 then Error.invalid "Dp.solve: max_p must be non-negative";
  if max_l < 0 then Error.invalid "Dp.solve: max_l must be non-negative";
  check_fits "Dp.solve" ~max_p ~max_l;
  { c; packed = extend ?pool ~alloc:pack ~c empty ~max_p ~max_l }

let solve_with ~pool ~c ~max_p ~max_l = solve_into ~pack:heap_pack ~pool ~c ~max_p ~max_l
let solve ~c ~max_p ~max_l = solve_with ~pool:None ~c ~max_p ~max_l

(* Readers of the previous pack keep it untouched. *)
let grow ?pool ?(pack = heap_pack) t ~max_p ~max_l =
  if max_p < 0 then Error.invalid "Dp.grow: max_p must be non-negative";
  if max_l < 0 then Error.invalid "Dp.grow: max_l must be non-negative";
  let old = t.packed in
  let new_p = max old.p_max_p max_p and new_l = max old.p_max_l max_l in
  check_fits "Dp.grow" ~max_p:new_p ~max_l:new_l;
  if new_p > old.p_max_p || new_l > old.p_max_l then
    t.packed <- extend ?pool ~alloc:pack ~c:t.c old ~max_p:new_p ~max_l:new_l

let to_packed t = t.packed.pack

(* Structural validation of an untrusted packing (a CRC-valid but
   hand-corrupted snapshot must fail structured, never fault): offsets
   must tile the array exactly, run starts must begin at the zero
   boundary and strictly increase within bounds, and a row is covered
   by its runs exactly when the zero prefix falls short. *)
let of_packed ~c ~max_p ~max_l pack =
  if c < 1 then Error.invalid "Dp.of_packed: c must be >= 1 tick";
  if max_p < 0 || max_l < 0 then
    Error.invalid "Dp.of_packed: bounds must be non-negative";
  let open Bigarray in
  let dim = Array1.dim pack in
  let bad fmt = Error.invalidf ("Dp.of_packed: " ^^ fmt) in
  if dim < max_p + 1 then bad "%d words cannot index %d rows" dim (max_p + 1);
  let expect = ref (max_p + 1) in
  for p = 0 to max_p do
    let base = Array1.get pack p in
    if base <> !expect then bad "row %d offset %d, expected %d" p base !expect;
    if base + 4 > dim then bad "row %d header past end of pack" p;
    let zu = Array1.get pack base in
    let mode = Array1.get pack (base + 1) in
    let n_loss = Array1.get pack (base + 2) in
    let n_first = Array1.get pack (base + 3) in
    if zu < -1 || zu > max_l then bad "row %d zero bound %d" p zu;
    if mode <> 0 && mode <> 1 then bad "row %d argmax mode %d" p mode;
    if n_loss < 0 || n_first < 0 then bad "row %d negative run count" p;
    if zu < max_l && (n_loss = 0 || n_first = 0) then
      bad "row %d has uncovered cells" p;
    if zu = max_l && (n_loss <> 0 || n_first <> 0) then
      bad "row %d has runs past its bounds" p;
    let need = base + 4 + (2 * n_loss) + (2 * n_first) in
    if need > dim then bad "row %d runs past end of pack" p;
    let check_pos off n =
      if n > 0 then begin
        if Array1.get pack off <> zu + 1 then
          bad "row %d first run starts at %d, expected %d" p
            (Array1.get pack off) (zu + 1);
        for i = 1 to n - 1 do
          if Array1.get pack (off + i) <= Array1.get pack (off + i - 1) then
            bad "row %d run starts not increasing" p
        done;
        if Array1.get pack (off + n - 1) > max_l then
          bad "row %d run start past column bound" p
      end
    in
    check_pos (base + 4) n_loss;
    check_pos (base + 4 + (2 * n_loss)) n_first;
    expect := need
  done;
  if !expect <> dim then bad "%d trailing words" (dim - !expect);
  ignore (Atomic.fetch_and_add bp_rows_ctr (max_p + 1));
  { c; packed = { p_max_p = max_p; p_max_l = max_l; pack } }

(* --- lookups -------------------------------------------------------------- *)

(* Greatest run in [lo, hi] whose start is <= l, given run lo's is. *)
let find_run (pack : mat) ~pos ~lo ~hi l =
  let open Bigarray in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Array1.unsafe_get pack (pos + mid) <= l then lo := mid
    else hi := mid - 1
  done;
  !lo

(* The run holding l at or below the cursor run [from].  An episode
   chain falls about a dozen runs per step, so the cursor walks down
   four runs at a time, then one: sequential reads and predictable
   branches, where a bisection mispredicts every other probe (on a
   2-vCPU host a 28-step episode cost 1.2 us galloping, 0.36 us
   striding, 0.16 us read from dense rows).  A fall past 64 runs
   bisects what is left.  Run 0 starts at the zero
   boundary, which callers guarantee l lies past. *)
let walk_down (pack : mat) ~pos ~from l =
  let open Bigarray in
  let r = ref from and strides = ref 16 in
  while !strides > 0 && !r >= 4 && Array1.unsafe_get pack (pos + !r - 4) > l do
    r := !r - 4;
    decr strides
  done;
  if !strides = 0 then find_run pack ~pos ~lo:0 ~hi:!r l
  else begin
    while Array1.unsafe_get pack (pos + !r) > l do
      decr r
    done;
    !r
  end

(* Uncounted cell reads; the public readers charge [bp_lookups] once
   per call. *)
let value_at pk ~p ~l =
  let open Bigarray in
  let pack = pk.pack in
  let base = Array1.unsafe_get pack p in
  if l <= Array1.unsafe_get pack base then 0
  else begin
    let n = Array1.unsafe_get pack (base + 2) in
    let i = find_run pack ~pos:(base + 4) ~lo:0 ~hi:(n - 1) l in
    l - Array1.unsafe_get pack (base + 4 + n + i)
  end

let first_at pk ~p ~l =
  let open Bigarray in
  let pack = pk.pack in
  let base = Array1.unsafe_get pack p in
  if l <= Array1.unsafe_get pack base then l
  else begin
    let n_loss = Array1.unsafe_get pack (base + 2) in
    let n = Array1.unsafe_get pack (base + 3) in
    let pos = base + 4 + (2 * n_loss) in
    let i = find_run pack ~pos ~lo:0 ~hi:(n - 1) l in
    let x = Array1.unsafe_get pack (pos + n + i) in
    if Array1.unsafe_get pack (base + 1) = 1 then l - x else x
  end

let lookup () = ignore (Atomic.fetch_and_add bp_lookups_ctr 1)

let check_in pk ~p ~l =
  if p < 0 || p > pk.p_max_p then Error.rangef "Dp: p = %d outside 0..%d" p pk.p_max_p;
  if l < 0 || l > pk.p_max_l then Error.rangef "Dp: l = %d outside 0..%d" l pk.p_max_l

(* A bounds-checked read of the current pack, charged to [bp_lookups]. *)
let read t ~p ~l =
  let pk = t.packed in
  check_in pk ~p ~l;
  lookup ();
  pk

let value t ~p ~l = value_at (read t ~p ~l) ~p ~l
let optimal_first_period t ~p ~l = first_at (read t ~p ~l) ~p ~l

(* The episode schedule optimal play follows while no interrupt occurs:
   the argmax chain at fixed p.  Covers l exactly.  The first cell is
   bisected for; the chain only falls, so from there one cursor walks
   the row's argmax runs downward from the run that held the previous
   cell. *)
let optimal_episode t ~p ~l =
  let open Bigarray in
  let pack = (read t ~p ~l).pack in
  let base = Array1.unsafe_get pack p in
  let zu = Array1.unsafe_get pack base in
  let offset = Array1.unsafe_get pack (base + 1) = 1 in
  let n_loss = Array1.unsafe_get pack (base + 2) in
  let n = Array1.unsafe_get pack (base + 3) in
  let pos = base + 4 + (2 * n_loss) in
  let rec go l run acc =
    if l = 0 then List.rev acc
    else if l <= zu then List.rev (l :: acc) (* first = l in the zero prefix *)
    else begin
      let run =
        if run < 0 then find_run pack ~pos ~lo:0 ~hi:(n - 1) l
        else walk_down pack ~pos ~from:run l
      in
      let x = Array1.unsafe_get pack (pos + n + run) in
      let tk = if offset then l - x else x in
      assert (tk >= 1 && tk <= l);
      go (l - tk) run (tk :: acc)
    end
  in
  go l (-1) []

(* Map the integer solution onto the float world: one tick equals
   [tick] time units, so the float setup cost is [tick * c]. *)
let tick_of_params t params = Model.c params /. float_of_int t.c

let float_value t params ~p ~residual =
  let pk = t.packed in
  let tick = tick_of_params t params in
  let l = min pk.p_max_l (int_of_float (residual /. tick)) in
  let p = min p pk.p_max_p in
  lookup ();
  float_of_int (value_at pk ~p ~l) *. tick

(* The grid may not cover the residual exactly; absorb the remainder
   into the final period so the schedule spans the residual. *)
let absorb_slack ~residual periods =
  let covered = Csutil.Float_ext.sum_list periods in
  let slack = residual -. covered in
  let periods =
    if slack <= 0. then periods
    else begin
      match List.rev periods with
      | last :: rest -> List.rev ((last +. slack) :: rest)
      | [] -> [ residual ]
    end
  in
  Schedule.of_list periods

let float_episode t params ~p ~residual =
  let tick = tick_of_params t params in
  let l = min (max_l t) (int_of_float (residual /. tick)) in
  let p = min p (max_p t) in
  if l = 0 then begin
    (* The grid has nothing to say (sub-tick residual, or a table with
       max_l = 0).  A sub-tick residual is below the setup cost, so one
       period is as good as any split — but when the residual clamps
       down to an empty grid while still exceeding (p + 1) c, a single
       period would hand the adversary everything.  Hedge with p + 1
       equal periods (each interrupt kills at most one) and route them
       through the same slack-absorption path as the on-grid case. *)
    if p = 0 || residual <= float_of_int (p + 1) *. Model.c params then
      Schedule.singleton residual
    else begin
      let m = p + 1 in
      let period = residual /. float_of_int m in
      absorb_slack ~residual (List.init m (fun _ -> period))
    end
  end
  else begin
    let ticks = optimal_episode t ~p ~l in
    let periods = List.map (fun n -> float_of_int n *. tick) ticks in
    absorb_slack ~residual periods
  end
