(** A monotonic clock for durations and deadlines.

    Wall-clock time (the epoch clock) steps when NTP or an operator
    resets it, so an interval measured across a step comes out negative
    or hours long.  [CLOCK_MONOTONIC] never steps; its origin is
    arbitrary, so only differences between two readings mean anything. *)

val now : unit -> float
(** Seconds on [CLOCK_MONOTONIC], nanosecond resolution. *)
