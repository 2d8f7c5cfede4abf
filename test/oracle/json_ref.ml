(* The seed printer, the reference [Json.to_string] and
   [Json.add_to_buffer] are checked against: the float rule as a
   [Printf] chain, integers through [string_of_int], and string
   escaping restated here rather than borrowed from the printer it
   checks. *)

open Service

let float_repr x =
  if not (Float.is_finite x) then "null"
  else begin
    let exact fmt =
      let s = Printf.sprintf fmt x in
      if float_of_string s = x then Some s else None
    in
    match exact "%.12g" with
    | Some s -> s
    | None ->
      (match exact "%.15g" with
       | Some s -> s
       | None -> Printf.sprintf "%.17g" x)
  end

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int n -> Buffer.add_string buf (string_of_int n)
    | Json.Float x -> Buffer.add_string buf (float_repr x)
    | Json.String s -> escape buf s
    | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
           if i > 0 then Buffer.add_char buf ',';
           emit item)
        items;
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
           if i > 0 then Buffer.add_char buf ',';
           escape buf k;
           Buffer.add_char buf ':';
           emit item)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf
