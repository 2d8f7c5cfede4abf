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
   [Json_ref] states the rule as a [Printf] chain; the printer below
   must match it byte for byte.

   Numbers are written straight into the caller's buffer without
   allocating.  In the exact range 1e-6 <= |x| < 2^53 the rule is
   decided from the float's bits (DESIGN.md §S31).  Write the normal
   |x| = f * 2^e, take s = 16 - floor(log10 |x|) and t = -(e + s), so
   |x| * 10^s = f * 5^s / 2^t lies in [10^16, 10^17).  Its floor N and
   remainder R fix the correctly rounded 12-, 15- and 17-digit
   candidates, and a candidate C, counted in units of 10^-s like N,
   reads back as x exactly when |(C - N) * 2^t - R| < 5^s / 2: it lies
   within half the gap to x's neighbours (5^s / 4 below x when f = 2^52,
   where the gap below halves).  A half-gap point is never a candidate,
   so the strict test is exact.  The C formatter chain stays as the
   fallback for zeros, subnormals, |x| < 1e-6, |x| >= 2^53 and for a
   tie at the 18th significant digit, which it rounds half to even. *)

external format_float : string -> float -> string = "caml_format_float"

let float_repr_c x =
  let s = format_float "%.12g" x in
  if float_of_string s = x then s
  else
    let s = format_float "%.15g" x in
    if float_of_string s = x then s else format_float "%.17g" x

let powers b n =
  let a = Array.make n 1 in
  for i = 1 to n - 1 do
    a.(i) <- a.(i - 1) * b
  done;
  a

(* 10^0 .. 10^17 and 5^0 .. 5^23 (5^23 < 2^54). *)
let pow10 = powers 10 18
let pow5 = powers 5 24

(* "00" .. "99" as little-endian byte pairs: two digits per division
   by 100 and per buffer write. *)
let digit_pairs =
  Array.init 100 (fun v -> (48 + (v / 10)) lor ((48 + (v mod 10)) lsl 8))

let add_pair buf v = Buffer.add_uint16_le buf (Array.unsafe_get digit_pairs v)

(* [v] as exactly [w] digits, leading zeros included (0 <= v < 10^w). *)
let rec add_fixed buf v w =
  if w >= 2 then begin
    add_fixed buf (v / 100) (w - 2);
    add_pair buf (v mod 100)
  end
  else if w = 1 then Buffer.add_char buf (Char.unsafe_chr (48 + v))

(* The [m]-digit [d] with a '.' after its first [dot] digits
   (0 < dot < m). *)
let add_split buf d m dot =
  let q = pow10.(m - dot) in
  add_fixed buf (d / q) dot;
  Buffer.add_char buf '.';
  add_fixed buf (d mod q) (m - dot)

(* [%.<p>g] layout of the [m]-digit integer [d] (no trailing zeros)
   whose leading digit has decimal exponent [x10]. *)
let add_g buf p d m x10 =
  if x10 < -4 || x10 >= p then begin
    if m > 1 then add_split buf d m 1 else add_fixed buf d 1;
    Buffer.add_string buf (if x10 < 0 then "e-" else "e+");
    add_fixed buf (abs x10) 2
  end
  else if x10 < 0 then begin
    Buffer.add_string buf "0.";
    for _ = 2 to -x10 do
      Buffer.add_char buf '0'
    done;
    add_fixed buf d m
  end
  else if m > x10 + 1 then add_split buf d m (x10 + 1)
  else begin
    add_fixed buf d m;
    for _ = m to x10 do
      Buffer.add_char buf '0'
    done
  end

let rec trailing_zeros d =
  if d mod 10 = 0 then 1 + trailing_zeros (d / 10) else 0

(* Write the [p]-digit rounding [d] of a float whose leading digit has
   decimal exponent [k]; [d = 10^p] when the rounding carried. *)
let add_rounded buf ~neg p d k =
  if neg then Buffer.add_char buf '-';
  if d = pow10.(p) then add_g buf p 1 1 (k + 1)
  else begin
    let z = trailing_zeros d in
    add_g buf p (d / pow10.(z)) (p - z) k
  end

(* Whether the candidate [c] reads back as the float N + R / 2^t (in
   units of 10^-s).  D = 2 * ((C - N) * 2^t - R) has the sign of C - x.
   The gap between neighbours is at most 10^17 / 2^52 < 23 units, so a
   passing candidate has |C - N| < 13 and the shift cannot overflow. *)
let reads_back ~below_pow2 c n r t s =
  let dc = c - n in
  dc > -64 && dc < 64
  &&
  let d = (dc lsl (t + 1)) - (2 * r) in
  if d >= 0 then d < pow5.(s)
  else if below_pow2 then -2 * d < pow5.(s)
  else -d < pow5.(s)

(* Write the float f * 2^e, 1e-6 <= |x| < 2^53 (so -1 <= t <= 51),
   with sign [neg], or return [false] on a tie at the 18th digit.  [s]
   starts at most one too large; N >= 10^17 then steps it down. *)
let rec add_exact buf ~neg f e s =
  let m = pow5.(s) and t = -(e + s) in
  (* f * 5^s = hi * 2^52 + lo, multiplied in 26-bit halves. *)
  let f1 = f lsr 26 and f0 = f land 0x3ffffff in
  let m1 = m lsr 26 and m0 = m land 0x3ffffff in
  let mid = (f1 * m0) + (f0 * m1) in
  let lo = (f0 * m0) + ((mid land 0x3ffffff) lsl 26) in
  let hi = (f1 * m1) + (mid lsr 26) + (lo lsr 52) in
  let lo = lo land 0xfffffffffffff in
  let n =
    if t <= 0 then ((hi lsl 52) lor lo) lsl -t
    else (hi lsl (52 - t)) lor (lo lsr t)
  in
  if n >= pow10.(17) then add_exact buf ~neg f e (s - 1)
  else begin
    let r = if t <= 0 then 0 else lo land ((1 lsl t) - 1) in
    (* When t <= 0, N is exact: r = 0 < half. *)
    let half = if t <= 0 then 1 else 1 lsl (t - 1) in
    (* A tie at the 18th digit is left to the C formatter, which rounds
       it half to even. *)
    let tie = r = half in
    if not tie then begin
      let below_pow2 = f = 1 lsl 52 and k = 16 - s in
      (* The 12- and 15-digit roundings round half up: at a tie the
         candidate lies half a unit of its last digit (at least 50
         units of 10^-s) from x, so it cannot read back either way. *)
      let d12 = (n + 50_000) / 100_000 and d15 = (n + 50) / 100 in
      if reads_back ~below_pow2 (d12 * 100_000) n r t s then
        add_rounded buf ~neg 12 d12 k
      else if reads_back ~below_pow2 (d15 * 100) n r t s then
        add_rounded buf ~neg 15 d15 k
      else add_rounded buf ~neg 17 (if r > half then n + 1 else n) k
    end;
    not tie
  end

let add_float buf x =
  let a = Float.abs x in
  if a >= 1e-6 && a < 0x1p53 then begin
    let bits = Int64.bits_of_float a in
    let be = Int64.to_int (Int64.shift_right_logical bits 52) in
    let f = Int64.to_int (Int64.logand bits 0xfffffffffffffL) lor (1 lsl 52) in
    (* floor(log10 a) is floor((be - 1023) * log10 2) or one more;
       78913 / 2^18 is log10 2 closely enough for every exponent here. *)
    let k = ((be - 1023) * 78913) asr 18 in
    if not (add_exact buf ~neg:(x < 0.) f (be - 1075) (16 - k)) then
      Buffer.add_string buf (float_repr_c x)
  end
  else if Float.is_finite x then Buffer.add_string buf (float_repr_c x)
  else Buffer.add_string buf "null"

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
