(** Minimal JSON values, printer and parser (RFC 8259 subset; stdlib
    only — the toolchain ships no JSON library).

    The printer is deterministic: object fields keep their given order,
    a float renders as the first of [%.12g], [%.15g] and [%.17g] whose
    text reads back as the same float (not always the shortest form
    that does: [9.2445652173913047] keeps 17 digits although a 16-digit
    form reads back), and output is a single line.  Both the [cschedd]
    daemon and the [csched --json] CLI print through this module, so
    equal values yield byte-identical text. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  Non-finite floats render as [null]
    (JSON has no NaN/infinity). *)

val add_to_buffer : Buffer.t -> t -> unit
(** Emit {!to_string}'s bytes straight into [buf] — the daemon's
    wire loop serializes a whole batch into one reused per-connection
    buffer instead of allocating a string per response.  Integers are
    written digit pairs at a time without allocating; every finite
    float goes through the one read-back chain of [%.12g], [%.15g] and
    [%.17g], which the daemon pays only on an answer-cache miss. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error.  Numbers
    without fraction or exponent that fit in an OCaml [int] parse as
    [Int], all others as [Float].  Errors carry a byte offset, as
    {!syntax_message} words them.  This is the parser for clients
    (tests, the load generator) and for the test-only request oracle;
    the daemon reads request lines with the one-pass scanner
    [Protocol.parse_line], which builds a tree only for the id and for
    the values it does not decode. *)

(** {2 Cursor access}

    The pieces of {!of_string}'s grammar a scanner hands the values
    it does not decode itself.  Each starts at a byte offset
    (leading whitespace skipped, except by {!string_at}), fails exactly
    where {!of_string} would, and returns the offset just past what it
    read. *)

exception Syntax of int * string
(** A syntax error: byte offset and reason. *)

val syntax_message : int -> string -> string
(** {!of_string}'s error text for a {!Syntax} error. *)

val value_at : string -> int -> t * int
(** Parse one value. *)

val string_at : string -> int -> string * int
(** Parse one string token, from its opening quote, escapes decoded. *)

val equal : t -> t -> bool
(** Structural equality; [Int n] and [Float f] compare equal when
    [f = float_of_int n] (the parser may legitimately read a printed
    float back as an integer). *)

(** Accessors for decoding requests; all are total. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] ([None] on absent field or non-object). *)

val to_float : t -> float option
(** Accepts [Int] and [Float]. *)

val to_int : t -> int option
(** Accepts [Int] and integral [Float]. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
