(* Minimal JSON printer and recursive-descent parser.

   Kept deliberately small: the protocol only needs objects, arrays,
   strings, numbers, booleans and null.  The printer is the single
   source of truth for the daemon's wire format and the CLI's --json
   output, so it must be deterministic (field order preserved, shortest
   round-tripping float representation). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

(* Shortest decimal representation that reads back to the same float;
   %.17g always round-trips, shorter forms are preferred when exact.

   Float rendering is the daemon's serialization hot spot (an advise
   response is mostly floats), so the chain below calls the runtime's
   formatter directly instead of going through the Printf machinery,
   zeros and integral magnitudes take a [string_of_int] fast path, and
   each domain keeps a small direct-mapped memo of recent renderings —
   warm serving traffic re-prints the same handful of bounds over and
   over.  Every path is byte-identical to the plain
   sprintf-per-attempt chain, retained as {!Ref.float_repr} (the
   property-test reference). *)

external format_float : string -> float -> string = "caml_format_float"

let float_repr_ref x =
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

let float_repr_uncached x =
  (* Integral magnitudes below 1e12 stay in fixed notation under %.12g
     (12 significant digits, trailing zeros stripped), which is exactly
     [string_of_int]'s rendering; zeros are handled by the caller so
     the sign of -0. is preserved. *)
  if Float.is_integer x && Float.abs x < 1e12 then
    string_of_int (int_of_float x)
  else begin
    let s = format_float "%.12g" x in
    if float_of_string s = x then s
    else begin
      let s = format_float "%.15g" x in
      if float_of_string s = x then s else format_float "%.17g" x
    end
  end

(* Direct-mapped per-domain memo keyed by the float's bits.  Entries
   are immutable pairs replaced whole, and the zero bit patterns (the
   initial entries) never reach the memo, so a stale slot can only
   miss, never answer wrong. *)
let repr_memo_size = 1024

let repr_memo_key =
  Domain.DLS.new_key (fun () -> Array.make repr_memo_size (0L, ""))

let float_repr x =
  if not (Float.is_finite x) then "null"
  else if x = 0. then (if 1. /. x < 0. then "-0" else "0")
  else begin
    let bits = Int64.bits_of_float x in
    let memo = Domain.DLS.get repr_memo_key in
    let h = Int64.to_int bits in
    let idx = (h lxor (h asr 21) lxor (h asr 43)) land (repr_memo_size - 1) in
    let b, s = Array.unsafe_get memo idx in
    if Int64.equal b bits then s
    else begin
      let s = float_repr_uncached x in
      Array.unsafe_set memo idx (bits, s);
      s
    end
  end

let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  (* Common case: nothing to escape — one blit instead of a
     char-at-a-time walk. *)
  let rec clean i =
    i >= n
    ||
    match String.unsafe_get s i with
    | '"' | '\\' -> false
    | c -> Char.code c >= 0x20 && clean (i + 1)
  in
  if clean 0 then Buffer.add_string buf s
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
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
         if i > 0 then Buffer.add_char buf ',';
         add_to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
         if i > 0 then Buffer.add_char buf ',';
         escape_string buf k;
         Buffer.add_char buf ':';
         add_to_buffer buf item)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_to_buffer buf v;
  Buffer.contents buf

(* The pre-optimization printer, kept verbatim so the fast path above
   has an in-tree reference to be property-tested against. *)
module Ref = struct
  let float_repr = float_repr_ref

  let to_string v =
    let buf = Buffer.create 256 in
    let rec emit = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float x -> Buffer.add_string buf (float_repr x)
      | String s -> escape_string buf s
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
             if i > 0 then Buffer.add_char buf ',';
             emit item)
          items;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
             if i > 0 then Buffer.add_char buf ',';
             escape_string buf k;
             Buffer.add_char buf ':';
             emit item)
          fields;
        Buffer.add_char buf '}'
    in
    emit v;
    Buffer.contents buf
end

(* --- parsing ------------------------------------------------------------ *)

exception Err of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Err (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" ch)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
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
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' -> add_utf8 buf (parse_hex4 ())
         | _ -> fail "unknown escape");
        loop ()
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Err (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

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
