(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven — the
    snapshot files' integrity check.  Stdlib only: the toolchain ships
    no checksum library, and a 32-bit CRC fits an OCaml [int] on every
    platform this code targets.

    The array forms checksum the bytes the elements occupy in a file
    written in native byte order, read from the typed array itself: an
    [int] element is its sign-extended 64-bit word, a float its IEEE
    float64 bits.  [crc] (default 0) is a previous result to continue
    from, so consecutive sections checksum as one byte run. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val of_ints : ?crc:int -> ints -> pos:int -> len:int -> int
(** CRC-32 of the [8 * len] bytes of elements [pos .. pos + len - 1],
    in [0, 0xFFFFFFFF] (64-bit platforms).
    @raise Invalid_argument when the range falls outside the array. *)

val of_floats : ?crc:int -> floats -> pos:int -> len:int -> int
(** Same, over float64 elements. *)

val of_bytes : Bytes.t -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes starting at [pos] (used for the header
    block). *)
