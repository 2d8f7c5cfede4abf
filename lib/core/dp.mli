(** Exact solution of the guaranteed-output game on an integer time grid
    (the "bootstrapping" of paper Section 4).

    Time is measured in ticks; the setup cost [c] is an integer number of
    ticks.  The table holds [W(p)[L]] — the maximum work any adaptive
    schedule can guarantee with residual lifespan [L] and up to [p]
    interrupts — for all [p <= max_p], [L <= max_l].

    A table is held only in breakpoint form ({!to_packed}): each row is
    a monotone staircase (Prop 4.1), stored as runs, and every cell read
    searches them.  {!solve} and {!grow} fill [W] into one dense scratch
    buffer, shared process-wide and reused across fills (see
    {!trim_scratch}), append each row's runs as it is filled, and
    publish a fresh pack.  The recurrence at [(p, l)] only reads cells
    at strictly smaller indices, so {!grow} decodes the old [W], fills
    only the new cells and appends their runs to the old rows' runs.
    Growth must be driven by a single writer at a time (e.g. the
    service cache on its shard worker); concurrent readers of the
    previously published pack are safe throughout. *)

type t
(** A solved table. *)

type mat = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A flat array of OCaml integers (8 bytes each on 64-bit platforms):
    the breakpoint pack of {!to_packed} and {!of_packed}. *)

val solve : c:int -> max_p:int -> max_l:int -> t
(** [solve ~c ~max_p ~max_l] fills the table by the recurrence
    [W(p)[L] = max_t min (W(p-1)[L-t], (t (-) c) + W(p)[L-t])] with base
    cases [W(0)[L] = L (-) c] and [W(p)[0] = 0].

    The inner maximisation bisects for the equalization crossing of the
    killed branch [K(t) = W(p-1)[L-t]] (non-increasing in [t]) and the
    survive branch [S(t) = (t - c) + W(p)[L-t]] (nondecreasing for
    [t >= c]), where the unimodal [min (K, S)] peaks (Thm 4.3).  Each
    cell's search is seeded by the previous cell's crossing, which
    drifts slowly in [L], and the exact value and lowest-[t] argmax are
    resolved from the few candidates around it.  The argmax itself is
    {e not} monotone in [L] — [c = 1] gives [first(1,4) = 2] but
    [first(1,5) = 1].  Values and recorded argmax periods are
    bit-identical to the exhaustive fill of the test oracle [Dp_ref].
    The table keeps only the runs appended as its cells are filled.

    @raise Error.Error when [c < 1], bounds are negative or the table
    would not {!fits}. *)

val max_cells : int
(** The largest table {!solve} and {!grow} make, in cells
    [(max_p + 1) * (max_l + 1)]: 2{^25}, whose fill scratch (one [W]
    int a cell) is 256 MiB on 64-bit platforms. *)

val fits : max_p:int -> max_l:int -> bool
(** Whether a table with these non-negative bounds has at most
    {!max_cells} cells.  Each bound is compared alone first, so on a
    64-bit platform no [int] makes the cell count wrap. *)

val solve_with :
  pool:Csutil.Par.Pool.t option -> c:int -> max_p:int -> max_l:int -> t
(** {!solve}, with an optional worker pool.  When [pool] is
    [Some p] (and [p] has more than one slot, and the fill is large
    enough to pay for the handshakes), rows are filled in blocks
    pipelined as a wavefront across the pool's domains; the result is
    bit-identical to the sequential fill. *)

val heap_pack : int -> mat
(** The default pack allocator: a fresh [words]-int heap array. *)

val solve_into :
  pack:(int -> mat) ->
  pool:Csutil.Par.Pool.t option ->
  c:int ->
  max_p:int ->
  max_l:int ->
  t
(** {!solve_with}, its pack written into [pack words], which must
    return an array of exactly [words] ints (its contents are
    overwritten).  [pack] is called once, after the fill, when the
    rows are complete; the table then reads from that array, so it may
    be a writable file mapping that becomes the table's snapshot
    ({!solve_with} passes {!heap_pack}).  The fill, the counters
    and the pack's words are the same whatever [pack] returns. *)

val grow :
  ?pool:Csutil.Par.Pool.t -> ?pack:(int -> mat) -> t -> max_p:int -> max_l:int -> unit
(** [grow t ~max_p ~max_l] extends the table to bounds
    [max t.max_p max_p] and [max t.max_l max_l], solving only the new
    cells: the old [W] is decoded into the scratch at the new bounds
    (reused, never recomputed), the new cells are filled against it and
    their runs appended to the old rows' runs (re-encoded only where a
    row's argmax mode flips), word for word the pack {!solve} writes at
    the same bounds.  It is published in place of the old pack, which
    is never written.  A no-op when the table already covers the
    requested bounds.  [pool] parallelises the new-cell fill as in
    {!solve}.  [pack] allocates the new pack as in {!solve_into}
    (default {!heap_pack}); it is not called for a no-op.
    @raise Error.Error on negative bounds, or when the grown table
    would not {!fits}. *)

val scratch_bytes : unit -> int
(** The size of the idle spare fill scratch, its [W] buffer and its
    run buffers, 0 when none is held (a fill in flight holds its buffers
    outside the spare).  A fill needs one [W] int a cell: half its
    {!dense_footprint_bytes}. *)

val trim_scratch : max_bytes:int -> unit
(** Drop the idle spare scratch when it is larger than [max_bytes]
    (a fill needs half the {!dense_footprint_bytes} at its bounds); the
    next fill that needs more allocates its own.  The service cache
    calls this on every eviction with the largest such need of the
    tables it still holds, so an evicted table's scratch does not stay
    resident. *)

type counters = {
  cells_filled : int;  (** cells written by the fill kernel *)
  candidates_visited : int;  (** inner-loop candidates examined *)
  candidates_pruned : int;
      (** candidates the exhaustive scan would have examined but the
          kernel skipped; [visited + pruned] is the exhaustive count
          for the cells filled *)
  parallel_fills : int;  (** fills that actually ran the wavefront *)
  dc_splits : int;
      (** divide-and-conquer segment splits performed by the
          monotone-dc kernel *)
  bp_lookups : int;
      (** cell reads: one per {!value}, {!optimal_first_period},
          {!optimal_episode} or {!float_value} call, however many runs
          the call searches *)
  bp_rows : int;
      (** [max_p + 1] for each {!of_packed} load, cumulative until
          {!reset_counters}; solves and grows count nothing *)
  decode_ns : int;  (** solve/grow time copying old runs, decoding old [W] *)
  fill_ns : int;  (** ... filling the new cells, appending their runs *)
  pack_ns : int;  (** ... applying the argmax mode rule, writing the pack *)
}
(** Process-wide kernel work accounting (all {!solve}/{!grow} calls in
    any domain since the last {!reset_counters}). *)

val counters : unit -> counters
val reset_counters : unit -> unit

val c : t -> int
val max_p : t -> int
val max_l : t -> int

val footprint_bytes : t -> int
(** Resident size of the table in bytes: the length of its pack. *)

val dense_footprint_bytes : t -> int
(** What the solved bounds would occupy densified (two int cells per
    [(p, l)] state) — the baseline {!footprint_bytes} is compared
    against for compression accounting. *)

val to_packed : t -> mat
(** The table's solved region in breakpoint form — the snapshot file
    payload, one flat int array: a row-offset index
    [pack.(0..max_p)], then per row a header
    [zero_until, first_mode, n_loss, n_first] followed by the run
    starts and per-run values of the loss [l - W(p)[l]] and of the
    argmax ([first_mode = 1] stores [l - first] so arithmetic argmax
    progressions compress to a single run).  Exact for any cell
    contents; row structure only makes it small.  This is the table's
    own resident pack, shared, not a copy: callers must not write it. *)

val of_packed : c:int -> max_p:int -> max_l:int -> mat -> t
(** A table reading straight from breakpoint form: cell lookups
    binary-search the row's runs (counted as [bp_lookups]).  The pack
    is structurally validated (offset index tiles the array exactly,
    run starts strictly increase within bounds, rows are fully
    covered); cell values are whatever the runs encode —
    bit-identity with a fresh solve is the store layer's checksum plus
    the identity property tests, not a load-time recomputation.  The
    pack is never written: a {!grow} decodes it into the scratch and
    publishes a new pack, so a pack over a read-only file mapping
    leaves the shared pages clean.
    @raise Error.Error when [c < 1], bounds are negative, or the pack
    is structurally invalid. *)

val value : t -> p:int -> l:int -> int
(** [W(p)[l]] in ticks.  @raise Error.Error out of table range. *)

val optimal_first_period : t -> p:int -> l:int -> int
(** An optimal first period length at state [(p, l)]. *)

val optimal_episode : t -> p:int -> l:int -> int list
(** The episode schedule optimal play follows while no interrupt occurs
    (the argmax chain at fixed [p]); covers [l] exactly.  The first
    step bisects the row's argmax runs; after it one cursor walks them
    downward in strides of eight, two and one runs, galloping only past
    a fall of 64 runs. *)

val tick_of_params : t -> Model.params -> float
(** The duration of one tick when the table's integer [c] represents the
    float cost in [params]. *)

val float_value : t -> Model.params -> p:int -> residual:float -> float
(** [W(p)[residual]] mapped into float time units (residual rounded down
    to the grid; [p] and the grid length clamped to the table). *)

val float_episode : t -> Model.params -> p:int -> residual:float -> Schedule.t
(** The optimal episode for the rounded state, stretched to cover
    [residual] exactly (grid slack absorbed into the final period).
    When the residual rounds down to an empty grid but still exceeds
    [(p + 1) * c], the schedule hedges with [p + 1] equal periods
    instead of a single killable one. *)
