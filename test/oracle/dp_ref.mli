(** Exhaustive references for {!Cyclesteal.Dp}: the naive fill as a
    dense table of its own, and a brute-force search over committed
    episode schedules.  Neither reads any of [Dp]'s code. *)

type t
(** A dense table of [W(p)[l]] and the lowest optimal first period,
    for [p <= max_p], [l <= max_l]. *)

val solve : c:int -> max_p:int -> max_l:int -> t
(** The exhaustive fill: every period length [t] of every cell,
    [O(max_p * max_l^2)] candidates, lowest [t] kept on ties.
    @raise Cyclesteal.Error.Error when [c < 1] or a bound is negative. *)

val c : t -> int
val max_p : t -> int
val max_l : t -> int

val value : t -> p:int -> l:int -> int
(** [W(p)[l]].  @raise Invalid_argument outside the bounds. *)

val first : t -> p:int -> l:int -> int
(** The lowest optimal first period at [(p, l)]; [l] where the value
    is 0. *)

val episode : t -> p:int -> l:int -> int list
(** The argmax chain at fixed [p], covering [l] exactly. *)

val brute_force_committed : c:int -> p:int -> l:int -> int
(** The best guaranteed output over committed episode schedules (all
    compositions of [l]), with optimal recursive play after each
    interrupt.  Exponential in [l]; use only for [l <~ 16]. *)
