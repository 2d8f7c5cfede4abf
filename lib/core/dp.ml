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
   below, which is also the snapshot payload).  Solve and grow fill one
   dense scratch body: the cell at (p, l) only reads cells at strictly
   smaller l (same or previous row), so a grow decodes the solved prefix
   into the scratch, fills only the new cells, and the old cells are
   reused verbatim.  The filled body is packed and published as a fresh
   [packed] record: concurrent readers holding the previous pack keep
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
   cell, O(log max_l) worst case; a grow pays only for the new cells
   plus a linear decode and re-pack.  Space: the pack, plus one scratch
   of 2 (max_p + 1) (max_l + 1) ints per fill in flight. *)

type mat = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A dense fill buffer: [value]/[first] rows are laid out with stride
   [max_l + 1].  Only solve and grow hold one, while they fill; what a
   table keeps is the [packed] form below. *)
type body = {
  max_p : int;
  max_l : int;
  value : mat; (* value.{p * (max_l+1) + l} = W(p)[l] *)
  first : mat; (* an optimal first period length at (p, l) *)
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

(* The process-wide spare fill buffer.  A fill takes it whole with
   [Atomic.exchange] (allocating when it is absent or too small), so
   concurrent fills never share one; [give] returns it keeping the
   larger of it and any buffer another fill returned meanwhile, so at
   most one idle buffer is held, and [trim_scratch] drops it once it
   outgrows what the caller still holds.  Nothing is zeroed: every fill writes each cell
   it reads (see [unpack_into]). *)
let spare : mat option Atomic.t = Atomic.make None
let bytes (b : mat) = Bigarray.Array1.dim b * (Sys.word_size / 8)

let rec give b =
  match Atomic.exchange spare (Some b) with
  | Some other when bytes other > bytes b -> give other
  | _ -> ()

let with_scratch ~max_p ~max_l f =
  let open Bigarray in
  let cells = (max_p + 1) * (max_l + 1) in
  let buf =
    match Atomic.exchange spare None with
    | Some b when Array1.dim b >= 2 * cells -> b
    | _ -> Array1.create int c_layout (2 * cells)
  in
  let r =
    f { max_p; max_l; value = Array1.sub buf 0 cells; first = Array1.sub buf cells cells }
  in
  give buf;
  r

let trim_scratch ~max_bytes =
  match Atomic.exchange spare None with
  | Some b when bytes b <= max_bytes -> give b
  | _ -> ()

let scratch_bytes () = match Atomic.get spare with Some b -> bytes b | None -> 0

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
}

let cells_ctr = Atomic.make 0
let visited_ctr = Atomic.make 0
let pruned_ctr = Atomic.make 0
let parfill_ctr = Atomic.make 0
let dc_ctr = Atomic.make 0
let bp_lookups_ctr = Atomic.make 0
let bp_rows_ctr = Atomic.make 0

let counters () =
  {
    cells_filled = Atomic.get cells_ctr;
    candidates_visited = Atomic.get visited_ctr;
    candidates_pruned = Atomic.get pruned_ctr;
    parallel_fills = Atomic.get parfill_ctr;
    dc_splits = Atomic.get dc_ctr;
    bp_lookups = Atomic.get bp_lookups_ctr;
    bp_rows = Atomic.get bp_rows_ctr;
  }

let reset_counters () =
  Atomic.set cells_ctr 0;
  Atomic.set visited_ctr 0;
  Atomic.set pruned_ctr 0;
  Atomic.set parfill_ctr 0;
  Atomic.set dc_ctr 0;
  Atomic.set bp_lookups_ctr 0;
  Atomic.set bp_rows_ctr 0

let charge ~cells ~visited ~pruned =
  ignore (Atomic.fetch_and_add cells_ctr cells);
  ignore (Atomic.fetch_and_add visited_ctr visited);
  ignore (Atomic.fetch_and_add pruned_ctr pruned)

(* --- row primitives ------------------------------------------------------ *)

(* Row 0 is the closed form W(0)[l] = l (-) c. *)
let fill_row0 body ~c ~l_from =
  let open Bigarray in
  let v = body.value and f = body.first in
  for l = l_from to body.max_l do
    Array1.unsafe_set v l (max 0 (l - c));
    Array1.unsafe_set f l l
  done;
  if body.max_l >= l_from then
    charge ~cells:(body.max_l - l_from + 1) ~visited:0 ~pruned:0

(* Fill cells (p, l) for l in [l_lo, l_hi].  Requires row p - 1 solved
   through column l_hi - 1 and row p solved through column l_lo - 1.  A
   leading l_lo = 0 cell is the base case W(p)[0] = 0.  Returns the
   number of candidates visited; the exhaustive scan would visit l per
   cell.

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
let fill_block body ~c ~p ~l_lo ~l_hi =
  let open Bigarray in
  let stride = body.max_l + 1 in
  let v = body.value and f = body.first in
  let row = p * stride in
  let prev = row - stride in
  if l_lo = 0 then begin
    Array1.unsafe_set v row 0;
    Array1.unsafe_set f row 0
  end;
  let visited = ref 0 and splits = ref 0 in
  let bisect cond lo0 hi0 =
    let lo = ref lo0 and hi = ref hi0 in
    while !lo < !hi do
      incr splits;
      let mid = (!lo + !hi) / 2 in
      if cond mid then hi := mid else lo := mid + 1
    done;
    !hi
  in
  (* Least t in [lo0, hi0] satisfying the monotone (false.. then
     true..) predicate, given cond hi0 holds (hi0 itself is never
     probed).  [g] seeds a bidirectional gallop: both answers drift by
     ~1 per cell, so starting at the previous cell's answer pays
     O(log drift) probes, O(log range) worst case. *)
  let bisect_min_from cond lo0 hi0 g =
    if lo0 >= hi0 then hi0
    else begin
      let g = if g < lo0 then lo0 else if g >= hi0 then hi0 - 1 else g in
      if cond g then begin
        (* Answer at or below g: gallop down for a false probe. *)
        let lo = ref lo0 and hi = ref g in
        let d = ref 1 and galloping = ref true in
        while !galloping do
          let t = g - !d in
          if t < lo0 then galloping := false
          else if cond t then begin
            hi := t;
            d := 2 * !d
          end
          else begin
            lo := t + 1;
            galloping := false
          end
        done;
        bisect cond !lo !hi
      end
      else begin
        (* Answer above g: gallop up for a true probe. *)
        let lo = ref (g + 1) and hi = ref hi0 in
        let d = ref 1 and galloping = ref true in
        while !galloping do
          let t = g + !d in
          if t >= hi0 then galloping := false
          else if cond t then begin
            hi := t;
            galloping := false
          end
          else begin
            lo := t + 1;
            d := 2 * !d
          end
        done;
        bisect cond !lo !hi
      end
    end
  in
  (* The previous cell's crossing and survive-side argmax; -1 while
     unknown (block entry or the all-zero prefix l <= c).  The probe
     predicates close over mutable cell state ([cur_l], [cur_s]) so
     they allocate once per block, not once per cell — the bisection
     probes are the hot path and closure churn here is measurable. *)
  let hint = ref (-1) and fhint = ref (-1) in
  let cur_l = ref 0 and cur_s = ref 0 in
  let cond t =
    incr visited;
    Array1.unsafe_get v (prev + !cur_l - t)
    <= t - c + Array1.unsafe_get v (row + !cur_l - t)
  in
  (* Least t whose survive branch already reaches cur_s: the left edge
     of the survive plateau below the crossing. *)
  let fcond t =
    incr visited;
    t - c + Array1.unsafe_get v (row + !cur_l - t) >= !cur_s
  in
  for l = max 1 l_lo to l_hi do
    if l < c then begin
      (* Sub-setup lifespan: nothing can be banked. *)
      incr visited;
      Array1.unsafe_set v (row + l) 0;
      Array1.unsafe_set f (row + l) l
    end
    else begin
      cur_l := l;
      (* cond holds at hi0 without probing: at l always (K = 0), and at
         hint + 1 by the drift bound t_c(l) <= t_c(l - 1) + 1. *)
      let hi0 = if !hint >= c && !hint + 1 <= l then !hint + 1 else l in
      let tc = bisect_min_from cond c hi0 (if !hint >= c then !hint else hi0 - 1) in
      hint := tc;
      incr visited;
      let a = Array1.unsafe_get v (row + l - 1) in
      let k = Array1.unsafe_get v (prev + l - tc) in
      let s =
        if tc > c then begin
          incr visited;
          tc - 1 - c + Array1.unsafe_get v (row + l - tc + 1)
        end
        else -1
      in
      let best = max a (max k s) in
      if best <= 0 then begin
        Array1.unsafe_set v (row + l) 0;
        Array1.unsafe_set f (row + l) l
      end
      else begin
        Array1.unsafe_set v (row + l) best;
        let ft =
          if a >= best then 1
          else if s >= k then begin
            cur_s := s;
            let ft =
              bisect_min_from fcond c (tc - 1)
                (if !fhint >= c then !fhint + 1 else tc - 1)
            in
            fhint := ft;
            ft
          end
          else tc
        in
        Array1.unsafe_set f (row + l) ft
      end
    end
  done;
  if !splits > 0 then ignore (Atomic.fetch_and_add dc_ctr !splits);
  !visited

(* Exhaustive candidate count of a block: sum of l over its cells. *)
let exhaustive_count ~l_lo ~l_hi =
  let lo = max 1 l_lo in
  if l_hi < lo then 0 else (lo + l_hi) * (l_hi - lo + 1) / 2

(* --- fill drivers --------------------------------------------------------- *)

(* The fresh/grow region: for rows p <= old_p only columns > old_l are
   new, for rows p > old_p the whole row is (pass old_p = -1, old_l = -1
   for a fresh table). *)
let row_start ~old_p ~old_l p = if p > old_p then 0 else old_l + 1

let seq_fill body ~c ~old_p ~old_l =
  for p = 1 to body.max_p do
    let l_lo = row_start ~old_p ~old_l p in
    if l_lo <= body.max_l then begin
      let visited = fill_block body ~c ~p ~l_lo ~l_hi:body.max_l in
      let cells = body.max_l - max 1 l_lo + 1 + (if l_lo = 0 then 1 else 0) in
      charge ~cells
        ~visited
        ~pruned:(exhaustive_count ~l_lo ~l_hi:body.max_l - visited)
    end
  done

(* Wavefront fill: workers claim rows in ascending order and walk their
   blocks left to right; the block [lo, hi] of row p waits until row
   p - 1 has published progress >= hi - 1.  progress.(p) is the highest
   solved column of row p, maintained under one mutex whose broadcast
   doubles as the publication fence for the cells themselves. *)
let par_fill pool body ~c ~old_p ~old_l =
  let slots = Csutil.Par.Pool.size pool in
  let block =
    (* ~8 blocks per slot per row: enough pipeline ramp, negligible
       handshake cost. *)
    max 256 ((body.max_l + (8 * slots) - 1) / (8 * slots))
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
            let vis = fill_block body ~c ~p ~l_lo:!lo ~l_hi:hi in
            Mutex.lock lock;
            progress.(p) <- hi;
            Condition.broadcast moved;
            Mutex.unlock lock;
            cells :=
              !cells + (hi - max 1 !lo + 1) + (if !lo = 0 then 1 else 0);
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

let fill ?pool ~c body ~old_p ~old_l =
  fill_row0 body ~c ~l_from:(row_start ~old_p ~old_l 0);
  let new_cells =
    let full_rows = body.max_p - max 0 old_p in
    let grown_cols = body.max_l - (if old_p < 0 then body.max_l else old_l) in
    (full_rows * (body.max_l + 1)) + (max 0 (old_p + 1) * grown_cols)
  in
  match pool with
  | Some pool
    when Csutil.Par.Pool.size pool > 1
         && body.max_p >= 2
         && new_cells >= par_threshold ->
    par_fill pool body ~c ~old_p ~old_l
  | _ -> seq_fill body ~c ~old_p ~old_l

(* --- breakpoint packing --------------------------------------------------- *)

(* Compress a filled body into the [pack] layout.  The zero prefix is
   the longest span where W = 0 and first = l (the seed convention);
   beyond it both the loss l - W and the argmax are run-length encoded,
   so the packing is exact for any cell contents — structure only makes
   it small.  One counting pass per row sizes the pack and picks the
   argmax mode (offset when it has strictly fewer runs), one writing
   pass per row fills it; both are plain loops over the row. *)
let pack_of_body b =
  let open Bigarray in
  let stride = b.max_l + 1 and ml = b.max_l in
  let v = b.value and f = b.first in
  let rows = b.max_p + 1 in
  let zus = Array.make rows 0 and modes = Array.make rows 0 in
  let n_losses = Array.make rows 0 and n_firsts = Array.make rows 0 in
  let total = ref rows in
  for p = 0 to b.max_p do
    let row = p * stride in
    let zu = ref (-1) in
    while
      !zu < ml
      && Array1.unsafe_get v (row + !zu + 1) = 0
      && Array1.unsafe_get f (row + !zu + 1) = !zu + 1
    do
      incr zu
    done;
    (* Zero counts open run 0 at the first cell. *)
    let n_loss = ref 0 and n_direct = ref 0 and n_offset = ref 0 in
    let last_loss = ref 0 and last_direct = ref 0 and last_offset = ref 0 in
    for l = !zu + 1 to ml do
      let loss = l - Array1.unsafe_get v (row + l) in
      let direct = Array1.unsafe_get f (row + l) in
      let offset = l - direct in
      if !n_loss = 0 || loss <> !last_loss then begin
        incr n_loss;
        last_loss := loss
      end;
      if !n_direct = 0 || direct <> !last_direct then begin
        incr n_direct;
        last_direct := direct
      end;
      if !n_offset = 0 || offset <> !last_offset then begin
        incr n_offset;
        last_offset := offset
      end
    done;
    zus.(p) <- !zu;
    n_losses.(p) <- !n_loss;
    if !n_offset < !n_direct then begin
      modes.(p) <- 1;
      n_firsts.(p) <- !n_offset
    end
    else n_firsts.(p) <- !n_direct;
    total := !total + 4 + (2 * !n_loss) + (2 * n_firsts.(p))
  done;
  let pack = Array1.create Bigarray.int Bigarray.c_layout !total in
  let base = ref rows in
  for p = 0 to b.max_p do
    let row = p * stride and base_p = !base in
    let zu = zus.(p) and mode = modes.(p) in
    let n_loss = n_losses.(p) and n_first = n_firsts.(p) in
    Array1.unsafe_set pack p base_p;
    Array1.unsafe_set pack base_p zu;
    Array1.unsafe_set pack (base_p + 1) mode;
    Array1.unsafe_set pack (base_p + 2) n_loss;
    Array1.unsafe_set pack (base_p + 3) n_first;
    let lp = base_p + 4 in
    let fp = lp + (2 * n_loss) in
    let i = ref (-1) and j = ref (-1) in
    let last_loss = ref 0 and last_first = ref 0 in
    for l = zu + 1 to ml do
      let loss = l - Array1.unsafe_get v (row + l) in
      if !i < 0 || loss <> !last_loss then begin
        incr i;
        Array1.unsafe_set pack (lp + !i) l;
        Array1.unsafe_set pack (lp + n_loss + !i) loss;
        last_loss := loss
      end;
      let fv = Array1.unsafe_get f (row + l) in
      let x = if mode = 1 then l - fv else fv in
      if !j < 0 || x <> !last_first then begin
        incr j;
        Array1.unsafe_set pack (fp + !j) l;
        Array1.unsafe_set pack (fp + n_first + !j) x;
        last_first := x
      end
    done;
    base := fp + (2 * n_first)
  done;
  { p_max_p = b.max_p; p_max_l = b.max_l; pack }

(* Decode a (validated) packing into the top-left corner of [body],
   whose bounds cover it: every cell (p, l) with p <= p_max_p and
   l <= p_max_l is written, zero prefix included, so a reused scratch
   never leaks a stale cell into the fill that follows. *)
let unpack_into pk body =
  let open Bigarray in
  let pack = pk.pack and ml = pk.p_max_l in
  let value = body.value and first = body.first in
  let stride = body.max_l + 1 in
  for p = 0 to pk.p_max_p do
    let base = Array1.unsafe_get pack p in
    let row = p * stride in
    let zu = Array1.unsafe_get pack base in
    let mode = Array1.unsafe_get pack (base + 1) in
    let n_loss = Array1.unsafe_get pack (base + 2) in
    let n_first = Array1.unsafe_get pack (base + 3) in
    for l = 0 to zu do
      Array1.unsafe_set value (row + l) 0;
      Array1.unsafe_set first (row + l) l
    done;
    let lp = base + 4 in
    for i = 0 to n_loss - 1 do
      let start = Array1.unsafe_get pack (lp + i) in
      let stop =
        if i + 1 < n_loss then Array1.unsafe_get pack (lp + i + 1) - 1 else ml
      in
      let x = Array1.unsafe_get pack (lp + n_loss + i) in
      for l = start to stop do
        Array1.unsafe_set value (row + l) (l - x)
      done
    done;
    let fp = lp + (2 * n_loss) in
    for i = 0 to n_first - 1 do
      let start = Array1.unsafe_get pack (fp + i) in
      let stop =
        if i + 1 < n_first then Array1.unsafe_get pack (fp + i + 1) - 1 else ml
      in
      let x = Array1.unsafe_get pack (fp + n_first + i) in
      if mode = 1 then
        for l = start to stop do
          Array1.unsafe_set first (row + l) (l - x)
        done
      else
        for l = start to stop do
          Array1.unsafe_set first (row + l) x
        done
    done
  done

(* --- solve and grow ------------------------------------------------------- *)

(* The largest table a fill may make: its dense scratch is 16 bytes a
   cell on 64-bit platforms, 512 MiB at the limit. *)
let max_cells = 1 lsl 25

(* Compared one bound at a time first, so the product cannot wrap. *)
let fits ~max_p ~max_l =
  max_p < max_cells && max_l < max_cells && (max_p + 1) * (max_l + 1) <= max_cells

let check_fits what ~max_p ~max_l =
  if not (fits ~max_p ~max_l) then
    Error.invalidf "%s: p <= %d, L <= %d is over the %d-cell table limit" what
      max_p max_l max_cells

let solve_with ~pool ~c ~max_p ~max_l =
  if c < 1 then Error.invalid "Dp.solve: c must be >= 1 tick";
  if max_p < 0 then Error.invalid "Dp.solve: max_p must be non-negative";
  if max_l < 0 then Error.invalid "Dp.solve: max_l must be non-negative";
  check_fits "Dp.solve" ~max_p ~max_l;
  let packed =
    with_scratch ~max_p ~max_l (fun body ->
        fill ?pool ~c body ~old_p:(-1) ~old_l:(-1);
        pack_of_body body)
  in
  { c; packed }

let solve ~c ~max_p ~max_l = solve_with ~pool:None ~c ~max_p ~max_l

(* Decode the solved prefix into a scratch at the new bounds, fill the
   new cells against it, and publish the re-packed table; readers of
   the previous pack keep it untouched. *)
let grow ?pool t ~max_p ~max_l =
  if max_p < 0 then Error.invalid "Dp.grow: max_p must be non-negative";
  if max_l < 0 then Error.invalid "Dp.grow: max_l must be non-negative";
  let old = t.packed in
  let new_p = max old.p_max_p max_p and new_l = max old.p_max_l max_l in
  check_fits "Dp.grow" ~max_p:new_p ~max_l:new_l;
  if new_p > old.p_max_p || new_l > old.p_max_l then
    t.packed <-
      with_scratch ~max_p:new_p ~max_l:new_l (fun body ->
          unpack_into old body;
          fill ?pool ~c:t.c body ~old_p:old.p_max_p ~old_l:old.p_max_l;
          pack_of_body body)

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

let check t ~p ~l = check_in t.packed ~p ~l

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
