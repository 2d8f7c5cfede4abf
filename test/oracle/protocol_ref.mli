(** The tree-based request decoder, the reference
    {!Service.Protocol.parse_line} is checked against: {!Service.Json.of_string},
    then a field-by-field read of the tree, field errors in order (op,
    the op's fields in turn, then the range checks). *)

val parse_line : string -> Service.Protocol.envelope

val max_periods : int
(** The most periods a [schedule] request may need by its regime's
    closed form: 2{^20}. *)

val schedule_periods : c:float -> u:float -> p:int -> string -> float
(** The closed-form period count of a [schedule] request, restated;
    past {!max_periods} a request answers [budget_exhausted]. *)

val max_advise_p : int
(** The largest [p] an [advise] request may carry: 2{^20}; past it a
    request answers [budget_exhausted]. *)
