let of_string s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
       crc := !crc lxor Char.code ch;
       for _ = 0 to 7 do
         crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
       done)
    s;
  !crc lxor 0xFFFFFFFF
