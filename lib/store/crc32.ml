(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

   Slicing-by-8: the inner loop folds one little-endian 64-bit word per
   step through eight precomputed tables (16 KiB, as OCaml ints), so a
   save or a bank load checksums its pack at a few bytes a cycle.  The
   words are read straight from the typed payload arrays, so no byte
   view of a file is ever mapped for the checksum. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let poly = 0xEDB88320

(* tables.(k * 256 + b): the CRC contribution of byte b seen k
   positions before the end of an 8-byte group (k = 0 is the classic
   byte-at-a-time table). *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xFF) lxor (prev lsr 8)
  done;
  t

let mask32 = 0xFFFFFFFF

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] t k b = Array.unsafe_get tables ((k * 256) + (b land 0xFF))

(* One 8-byte group, given as the low and high 32 bits of the word its
   bytes spell in little-endian order. *)
let[@inline] step crc lo hi =
  let lo = crc lxor lo in
  t 7 lo lxor t 6 (lo lsr 8) lxor t 5 (lo lsr 16) lxor t 4 (lo lsr 24)
  lxor t 3 hi lxor t 2 (hi lsr 8) lxor t 1 (hi lsr 16) lxor t 0 (hi lsr 24)

let[@inline] step64 crc w =
  let w = if Sys.big_endian then swap64 w else w in
  step crc (Int64.to_int w land mask32) (Int64.to_int (Int64.shift_right_logical w 32))

let check name dim ~pos ~len =
  if pos < 0 || len < 0 || pos + len > dim then
    invalid_arg (Printf.sprintf "Crc32.%s: range outside the array" name)

(* An int element is one sign-extended 64-bit word: its low half is
   [x land mask32] and its high half [x asr 32] (bit 63 repeats bit 62,
   the sign of a 63-bit int). *)
let of_ints ?(crc = 0) (a : ints) ~pos ~len =
  check "of_ints" (Bigarray.Array1.dim a) ~pos ~len;
  let crc = ref (crc lxor mask32) in
  for i = pos to pos + len - 1 do
    let x = Bigarray.Array1.unsafe_get a i in
    crc :=
      if Sys.big_endian then step64 !crc (Int64.of_int x)
      else step !crc (x land mask32) ((x asr 32) land mask32)
  done;
  !crc lxor mask32

let of_floats ?(crc = 0) (a : floats) ~pos ~len =
  check "of_floats" (Bigarray.Array1.dim a) ~pos ~len;
  let crc = ref (crc lxor mask32) in
  for i = pos to pos + len - 1 do
    crc := step64 !crc (Int64.bits_of_float (Bigarray.Array1.unsafe_get a i))
  done;
  !crc lxor mask32

let of_bytes b ~pos ~len =
  check "of_bytes" (Bytes.length b) ~pos ~len;
  let crc = ref mask32 in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := Array.unsafe_get tables ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor mask32
