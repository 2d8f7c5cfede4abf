(** The versioned, checksummed snapshot file format for the persistent
    memo tier (DESIGN.md S20).

    One file holds one table: a {!Cyclesteal.Dp.t} (kind [dp]) or a
    gridded {!Cyclesteal.Game.Solver} sparse memo (kind [game]).  The layout is
    a fixed 128-byte header — magic, version, endianness tag, the
    table's identity parameters, a CRC-32 of the payload and one of the
    header itself — followed by the policy name (games only, zero-padded
    to 8 bytes) and the payload: the backing [Bigarray]s written
    verbatim, so a load is a file mapping, not a parse.

    [save_*] writes to a temporary file in the same directory and
    publishes it with [Unix.rename], so readers only ever see complete
    files (the atomic-rename protocol).  A {!dp_writer} lets a dp fill
    write its pack straight into that temporary file's shared mapping,
    so the table it serves from is the snapshot's payload and the
    commit copies nothing.  [load_*] maps the payload privately
    ([Unix.map_file] with [shared = false]) and checksums the mapped
    arrays themselves, one mapping per payload section: clean pages
    are shared between every process mapping the same file; the few
    states a solver expands later dirty private copy-on-write pages.

    Corrupt, truncated, version-skewed or param-mismatched files are
    reported as [Error] with a structured {!Cyclesteal.Error.t} — the
    caller falls through to a fresh solve, never crashes. *)

val version : int
(** The format version (bumped on any layout change).  Files are
    written at this version and only this version loads: a file at any
    other version is a structured "format version" error, so a bank
    caller re-solves and its write-behind rewrites the file.  Dp tables
    are stored breakpoint-compressed ({!Cyclesteal.Dp.to_packed}), game
    memos as their sparse table, sized by the states it holds. *)

type descr =
  | Dp_table of { c : int; max_p : int; max_l : int }
  | Game_memo  (** a game memo, identified by its file name *)
(** What a snapshot file holds, read from its header alone. *)

val peek : path:string -> (descr, Cyclesteal.Error.t) result
(** Read and validate the header (magic, version, endianness, sizes)
    without mapping or checksumming the payload; used to enumerate a
    bank directory. *)

val save_dp : path:string -> Cyclesteal.Dp.t -> unit
(** Snapshot the table's solved region to [path] via the atomic-rename
    protocol, in the current (breakpoint-compressed) format: the
    table's resident pack is written verbatim, never re-packed.
    @raise Unix.Unix_error on I/O failure (the temporary file is
    removed). *)

type dp_writer
(** A dp snapshot in the making, for a pack a fill has yet to write:
    {!alloc_dp} gives the fill its array, {!commit_dp} publishes the
    file, {!abort_dp} removes it.  One writer, one pack. *)

val dp_writer : path:string -> c:int -> max_p:int -> max_l:int -> dp_writer
(** A writer for the table at these bounds, to be published at [path];
    nothing is created until {!alloc_dp}. *)

val alloc_dp : dp_writer -> int -> Cyclesteal.Dp.mat
(** [alloc_dp w words] creates [w]'s uniquely named temporary sibling,
    sized for the header and a [words]-int payload, and returns the
    payload mapped shared and writable: the allocator
    {!Cyclesteal.Dp.solve_into} and {!Cyclesteal.Dp.grow} take.  A
    write through it on a full filesystem raises SIGBUS (the file is
    sparse until written).
    @raise Unix.Unix_error when the file cannot be made or mapped (no
    file is left).
    @raise Invalid_argument when [w] already has its pack. *)

val pending : dp_writer -> bool
(** Whether {!alloc_dp} made a file that is neither committed nor
    aborted yet. *)

val commit_dp : dp_writer -> unit
(** Publish the pending file: checksum the pack's words in place,
    write the header with one [write], rename over the target.  It
    maps nothing and copies nothing.  A no-op unless {!pending}.
    @raise Unix.Unix_error on I/O failure (the temporary file is
    removed). *)

val abort_dp : dp_writer -> unit
(** Remove the pending file, if any; never raises.  The pack stays
    readable (the mapping outlives the name). *)

val load_dp : path:string -> c:int -> (Cyclesteal.Dp.t, Cyclesteal.Error.t) result
(** Map [path] and rebuild the table around the mapped breakpoint pack
    (no copy; {!Cyclesteal.Dp.of_packed}, cell reads binary-search the
    runs; a grow publishes a fresh pack elsewhere and never writes
    the mapping).  Fails — structured, no
    exception — when the file is corrupt, truncated, version-skewed,
    or holds a table for a different [c]. *)

val save_game :
  path:string ->
  c:float ->
  u:float ->
  policy:string ->
  p_key:int ->
  Cyclesteal.Game.Solver.snapshot ->
  unit
(** Snapshot a gridded solver memo, stamped with the solver-cache
    identity [(c, u, policy, p_key)] so a load can refuse a file that
    answers a different game.  @raise Unix.Unix_error on I/O failure. *)

val load_game :
  path:string ->
  c:float ->
  u:float ->
  grid:float ->
  policy:string ->
  p_key:int ->
  (Cyclesteal.Game.Solver.snapshot, Cyclesteal.Error.t) result
(** Map [path] and return the memo snapshot, after checking the header's
    identity (including the evaluation grid) bit-for-bit against the
    expected key, and the table's structure
    ({!Cyclesteal.Game.Solver.snapshot}).  The caller rebuilds the solver with
    {!Cyclesteal.Game.Solver.of_snapshot}. *)
