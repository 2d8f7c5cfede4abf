(** A memo bank: a directory of {!Snapshot} files plus the accounting
    the daemon surfaces under [stats.bank].

    One entry per table identity — [dp_c<c>.snap] for tick tables,
    [game_<policy>_<c>_<u>_<p>.snap] for gridded solver memos — so a
    save for an identity that is already banked overwrites it (via the
    atomic-rename protocol) and a load is a single [stat]+[mmap], no
    directory scan.

    Loads never raise: a missing file is a miss, an unreadable or
    invalid file is a load failure (counted, last error kept) and the
    caller falls through to a fresh solve.  A failed load leaves the
    identity unbanked, so the next save of it rewrites the file: a
    file at an old format version heals this way.  Saves never raise —
    a failed save is counted and the daemon keeps answering from
    memory.  Dp tables the daemon solves or grows are written through
    ({!dp_writer}): the pack is filled in the file it is saved as;
    game memos and tables made elsewhere are copied out by {!save_game}
    and {!save_dp}. *)

type t

val open_dir : ?create:bool -> string -> (t, Cyclesteal.Error.t) result
(** Open (and with [create], make, parents included) the bank
    directory.  Fails with a structured error when the path is missing
    ([create = false]), is not a directory, or cannot be created. *)

val dir : t -> string

val load_dp : ?count:bool -> t -> c:int -> Cyclesteal.Dp.t option
(** The banked tick table for cost [c], mapped; [None] on miss or any
    load failure (counted).  [count = false] (default [true]) leaves
    the hit/miss counters untouched — startup warming uses it so the
    served stats reflect serving traffic only; load failures are
    counted either way. *)

val save_dp : t -> Cyclesteal.Dp.t -> unit
(** Persist the table's solved region, keyed by its [c].  Skipped when
    the bank already holds this identity at the same solved size (the
    write-behind dedup) or when another thread's save of the same
    identity is still in flight — concurrent writers never share a
    temporary file, and the entry re-persists on its next growth;
    failures are counted, never raised. *)

type dp_writer
(** A table's save written through: the fill writes its pack straight
    into the temporary file the save publishes ({!Snapshot.dp_writer}),
    the table is served from that mapping, and the commit only stamps
    and renames. *)

val dp_writer : t -> c:int -> max_p:int -> max_l:int -> dp_writer
(** A writer for the table for [c] at these bounds (the bounds it has
    once solved or grown).  Creates nothing yet. *)

val dp_pack : dp_writer -> int -> Cyclesteal.Dp.mat
(** The pack allocator to hand {!Cyclesteal.Dp.solve_into} or
    {!Cyclesteal.Dp.grow}: the mapped payload of a fresh temporary
    file, or, when it cannot be made or mapped, a heap array and a
    counted save failure (that writer then saves nothing).  Never
    raises [Unix.Unix_error]. *)

val commit_dp : dp_writer -> unit
(** Publish the written pack under the same dedup as {!save_dp}: when
    the bank already holds this identity at this size, or another save
    of it is in flight, the file is removed instead.  A no-op when no
    pack was written to a file.  Failures are counted, never raised;
    no temporary file is left either way. *)

val abort_dp : dp_writer -> unit
(** Drop the written pack's file (a table that is not published, or a
    fill that failed); never raises.  Tables already reading the pack
    keep reading it. *)

val load_game :
  t ->
  c:float ->
  u:float ->
  grid:float ->
  policy:string ->
  p_key:int ->
  Cyclesteal.Game.Solver.snapshot option
(** The banked solver memo for this cache identity, mapped; [None] on
    miss or load failure. *)

val save_game :
  t ->
  c:float ->
  u:float ->
  policy:string ->
  p_key:int ->
  Cyclesteal.Game.Solver.snapshot ->
  unit
(** Persist a gridded solver memo under its cache identity; same dedup
    and no-raise contract as {!save_dp}. *)

val entries : t -> (string * Snapshot.descr) list
(** Every valid snapshot in the bank, by file name; invalid files are
    skipped (and counted as load failures). *)

type counters = {
  hits : int;  (** loads answered from a mapped file *)
  misses : int;  (** loads with no banked entry *)
  load_failures : int;  (** corrupt/mismatched/unreadable entries *)
  saves : int;  (** snapshots written (after dedup) *)
  save_failures : int;
}

val counters : t -> counters

val last_error : t -> string option
(** The most recent load/save failure, for [stats]; cleared by
    {!reset_counters}. *)

val reset_counters : t -> unit
