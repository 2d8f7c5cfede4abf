(** The seed JSON printer, the reference {!Service.Json.to_string} is
    checked against byte for byte: each float as the first of [%.12g],
    [%.15g] and [%.17g] that reads back ([null] when not finite), each
    integer through [string_of_int]. *)

val to_string : Service.Json.t -> string
