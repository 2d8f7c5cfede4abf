(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

   Slicing-by-8: the inner loop folds one little-endian 64-bit word per
   step through eight precomputed tables (16 KiB, as OCaml ints), so a
   save or a bank load checksums its pack at a few bytes a cycle. *)

type view = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

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

external get64 : view -> int -> int64 = "%caml_bigstring_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] t k b = Array.unsafe_get tables ((k * 256) + (b land 0xFF))

let of_view (a : view) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim a then
    invalid_arg "Crc32.of_view: range outside the view";
  let crc = ref mask32 in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let w = get64 a !i in
    let w = if Sys.big_endian then swap64 w else w in
    let lo = !crc lxor (Int64.to_int w land mask32) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      t 7 lo lxor t 6 (lo lsr 8) lxor t 5 (lo lsr 16) lxor t 4 (lo lsr 24)
      lxor t 3 hi lxor t 2 (hi lsr 8) lxor t 1 (hi lsr 16) lxor t 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let b = Char.code (Bigarray.Array1.unsafe_get a !i) in
    crc := t 0 (!crc lxor b) lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor mask32

let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.of_bytes: range outside the buffer";
  let crc = ref mask32 in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := Array.unsafe_get tables ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor mask32
