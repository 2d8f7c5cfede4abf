(** The bit-at-a-time CRC-32 (IEEE 802.3, reflected polynomial
    0xEDB88320) that {!Store.Crc32} is checked against: no tables, one
    shift per bit, as the standard defines it. *)

val of_string : string -> int
(** CRC-32 of the whole string, in [0, 0xFFFFFFFF]. *)
