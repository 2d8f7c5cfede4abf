(** The tree-based request decoder, the reference
    {!Service.Protocol.parse_line} is checked against: {!Service.Json.of_string},
    then a field-by-field read of the tree, field errors in order (op,
    the op's fields in turn, then the range checks). *)

val parse_line : string -> Service.Protocol.envelope
