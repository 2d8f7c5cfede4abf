(* Minimal JSON printer and recursive-descent parser.

   Kept deliberately small: the protocol only needs objects, arrays,
   strings, numbers, booleans and null.  The printer is the single
   source of truth for the daemon's wire format and the CLI's --json
   output, so it must be deterministic (field order preserved, each
   float as the first of %.12g, %.15g and %.17g that reads back). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

(* A float prints as the first of [%.12g], [%.15g] and [%.17g] whose
   text reads back as the same float.  That is not the shortest
   round-tripping form: 9.2445652173913047 needs 17 digits under this
   rule although a 16-digit form reads back too.  The test oracle
   [Json_ref] states the same rule as a [Printf] chain.  A reply is
   rendered once and then served from the answer cache, so the chain
   runs on answer misses only. *)

external format_float : string -> float -> string = "caml_format_float"

let float_repr x =
  let s = format_float "%.12g" x in
  if float_of_string s = x then s
  else
    let s = format_float "%.15g" x in
    if float_of_string s = x then s else format_float "%.17g" x

let add_float buf x =
  Buffer.add_string buf (if Float.is_finite x then float_repr x else "null")

(* "00" .. "99" as little-endian byte pairs: two digits per division
   by 100 and per buffer write. *)
let digit_pairs =
  Array.init 100 (fun v -> (48 + (v / 10)) lor ((48 + (v mod 10)) lsl 8))

let add_pair buf v = Buffer.add_uint16_le buf (Array.unsafe_get digit_pairs v)

(* The digits of [n >= 0]. *)
let rec add_digits buf n =
  if n >= 100 then begin
    add_digits buf (n / 100);
    add_pair buf (n mod 100)
  end
  else if n >= 10 then add_pair buf n
  else Buffer.add_char buf (Char.unsafe_chr (48 + n))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else begin
    (* -(n / 10) and the last digit stay in range for [min_int]. *)
    Buffer.add_char buf '-';
    if n <= -10 then add_digits buf (-(n / 10));
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  end

(* Whether [s] from [i] on needs no escaping: the common case, written
   with one blit instead of a char-at-a-time walk. *)
let rec clean s i =
  i >= String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' -> false
  | c -> Char.code c >= 0x20 && clean s (i + 1)

let escape_string buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s
  else
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

let rec add_to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float x -> add_float buf x
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
    Buffer.add_char buf '[';
    add_to_buffer buf item;
    add_items buf items;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
    Buffer.add_char buf '{';
    add_field buf field;
    add_fields buf fields;
    Buffer.add_char buf '}'

(* Explicit recursion rather than [List.iteri]: no closure per node. *)
and add_items buf = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buf ',';
    add_to_buffer buf item;
    add_items buf items

and add_field buf (k, item) =
  escape_string buf k;
  Buffer.add_char buf ':';
  add_to_buffer buf item

and add_fields buf = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buf ',';
    add_field buf field;
    add_fields buf fields

let to_string v =
  let buf = Buffer.create 256 in
  add_to_buffer buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Syntax of int * string

(* The parser threads one state record through top-level functions
   rather than closing a dozen local functions over the input, peeks
   without an option, and cuts an escape-free string straight out of
   the input.  Error offsets and messages are those of the
   closure-based parser it replaced, and they are also the request
   scanner's ({!Protocol.parse_line}), which reads a request line in
   one pass and calls back into this grammar for what it does not
   decode itself: an id other than a number, escaped strings and the
   values it ignores. *)
type parser = { s : string; n : int; mutable pos : int }

let fail st msg = raise (Syntax (st.pos, msg))
let at st c = st.pos < st.n && st.s.[st.pos] = c

let skip_ws st =
  while
    st.pos < st.n
    && (match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st ch =
  if at st ch then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C" ch)

let literal st word value =
  let m = String.length word in
  if st.pos + m <= st.n && String.sub st.s st.pos m = word then begin
    st.pos <- st.pos + m;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* Encode a Unicode code point as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > st.n then fail st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match st.s.[st.pos] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    st.pos <- st.pos + 1
  done;
  !v

(* The general string loop, from just after the opening quote. *)
let parse_escaped_string st =
  let buf = Buffer.create 16 in
  let rec loop () =
    if st.pos >= st.n then fail st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if st.pos >= st.n then fail st "unterminated escape";
       let e = st.s.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' -> add_utf8 buf (parse_hex4 st)
       | _ -> fail st "unknown escape");
      loop ()
    | c ->
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

(* The offset of the closing quote when the string from [st.pos] has
   no escape, else -1. *)
let plain_end st =
  let i = ref st.pos in
  while !i < st.n && st.s.[!i] <> '"' && st.s.[!i] <> '\\' do
    incr i
  done;
  if !i < st.n && st.s.[!i] = '"' then !i else -1

(* A string with no escape is the input bytes between its quotes;
   anything else (an escape, no closing quote) takes the general loop
   from the same position, so its errors are unchanged. *)
let parse_string st =
  expect st '"';
  let start = st.pos and e = plain_end st in
  if e >= 0 then begin
    st.pos <- e + 1;
    String.sub st.s start (e - start)
  end
  else parse_escaped_string st

let digits st =
  let d0 = st.pos in
  while
    st.pos < st.n
    && match st.s.[st.pos] with '0' .. '9' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = d0 then fail st "expected digit"

(* Step over a number; whether it has a fraction or an exponent. *)
let number_span st =
  if at st '-' then st.pos <- st.pos + 1;
  digits st;
  let is_float = ref false in
  if at st '.' then begin
    is_float := true;
    st.pos <- st.pos + 1;
    digits st
  end;
  if at st 'e' || at st 'E' then begin
    is_float := true;
    st.pos <- st.pos + 1;
    if at st '+' || at st '-' then st.pos <- st.pos + 1;
    digits st
  end;
  !is_float

let parse_number st =
  let start = st.pos in
  let is_float = number_span st in
  let text = String.sub st.s start (st.pos - start) in
  if is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.n then fail st "unexpected end of input";
  match st.s.[st.pos] with
  | '"' -> String (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else parse_items st []
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else parse_fields st []
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

and parse_items st acc =
  let v = parse_value st in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    parse_items st (v :: acc)
  end
  else if at st ']' then begin
    st.pos <- st.pos + 1;
    List (List.rev (v :: acc))
  end
  else fail st "expected ',' or ']'"

and parse_fields st acc =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    parse_fields st ((k, v) :: acc)
  end
  else if at st '}' then begin
    st.pos <- st.pos + 1;
    Obj (List.rev ((k, v) :: acc))
  end
  else fail st "expected ',' or '}'"

let syntax_message at msg =
  Printf.sprintf "JSON parse error at offset %d: %s" at msg

let of_string s =
  let st = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> st.n then fail st "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (syntax_message at msg)

(* --- cursor access ------------------------------------------------------ *)

let cursor s pos = { s; n = String.length s; pos }

let value_at s pos =
  let st = cursor s pos in
  let v = parse_value st in
  (v, st.pos)

let string_at s pos =
  let st = cursor s pos in
  let v = parse_string st in
  (v, st.pos)

(* --- equality and accessors --------------------------------------------- *)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | String x, String y -> x = y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && equal v v') xs ys
  | _ -> false

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float x -> Some x
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float x when Float.is_integer x && Float.abs x < 1e15 ->
    Some (int_of_float x)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
