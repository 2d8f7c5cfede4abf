(* The snapshot file format (DESIGN.md S20).

   Fixed little-endian 128-byte header, then the policy name (games
   only, zero-padded to an 8-byte boundary), then the payload: the
   table's backing Bigarrays verbatim, in native byte order (the header
   carries an endianness tag, so a foreign-order file is rejected
   instead of misread).

     offset  size  field
     0       8     magic "CSMEMOBK"
     8       4     format version (u32; only the current version, 3,
                   loads)
     12      4     kind: 1 = dp table, 2 = game memo (u32)
     16      8     endianness/word tag 0x0102030405060708, native order
     24      8     payload bytes (i64)
     32      8     i0   dp: c        game: answered_p
     40      8     i1   dp: max_p    game: slots
     48      8     i2   dp: max_l    game: states (entries)
     56      8     i3   dp: 0        game: p_key
     64      8     f0   dp: 0        game: c   (f64 bits)
     72      8     f1   dp: 0        game: u   (f64 bits)
     80      8     f2   dp: 0        game: grid (f64 bits)
     88      4     policy-name length (u32; 0 for dp)
     92      4     payload CRC-32 (u32)
     96      4     header CRC-32 (u32, over header + name with this
                   field zeroed)
     100     28    reserved (zero)
     128     ...   policy name, zero-padded to a multiple of 8
     ...     ...   payload

   Payload: dp = the breakpoint-compressed pack of Dp.to_packed
   verbatim (native ints; its own structural validation runs in
   Dp.of_packed on load) — 10-100x smaller than the dense cells for the
   long monotone rows the recurrence produces.  Game = the solver's
   open-addressed memo table in canonical form (Game.Solver.to_snapshot,
   structure checked on load by Game.Solver.snapshot): 2 * slots native
   ints, per slot p (-1 = empty) then the residual key l, then slots
   float64 values (0 in empty slots).  All section offsets are
   multiples of 8, so the typed mappings are element-aligned.

   save: create a temporary sibling at its full size, put the payload
   in place through a shared writable mapping of it, checksum the
   payload from the typed arrays, write the header block with one
   write, close, rename over the target — readers only ever observe
   complete files.  A dp table solved or grown for a bank is filled
   straight into that mapping (a [dp_writer]: Dp writes its pack into
   the array [alloc_dp] maps, and the table keeps reading it), so its
   commit copies nothing and maps nothing.  The temporary file is
   sparse until its pages are written: on a full filesystem a write
   through the mapping raises SIGBUS instead of an I/O error, in the
   fill for a dp writer, in the blit for the other saves.

   load: map the payload privately (shared = false), one typed mapping
   per section, and checksum those same arrays: clean pages are shared
   across every process mapping the file; later in-place solver
   expansion dirties private copy-on-write pages, never the file
   itself. *)

open Cyclesteal

let version = 3
let magic = "CSMEMOBK"
let header_bytes = 128
let endian_tag = 0x0102030405060708L
let kind_dp = 1
let kind_game = 2

type descr =
  | Dp_table of { c : int; max_p : int; max_l : int }
  | Game_memo

(* Every field the header carries, decoded; [name] is the policy name
   (empty for dp tables). *)
type header = {
  h_kind : int;
  h_payload_bytes : int;
  h_i0 : int;
  h_i1 : int;
  h_i2 : int;
  h_i3 : int;
  h_f0 : float;
  h_f1 : float;
  h_f2 : float;
  h_name : string;
  h_payload_crc : int;
}

let pad8 n = (n + 7) land lnot 7
let payload_off ~name_len = header_bytes + pad8 name_len

let corrupt path fmt =
  Printf.ksprintf
    (fun msg ->
      Result.Error (Error.Invalid_params (Printf.sprintf "%s: %s" path msg)))
    fmt

(* --- header encoding ------------------------------------------------------ *)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_i64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_i64 b off = Int64.to_int (Bytes.get_int64_le b off)
let set_f64 b off v = Bytes.set_int64_le b off (Int64.bits_of_float v)
let get_f64 b off = Int64.float_of_bits (Bytes.get_int64_le b off)

let header_crc_off = 96

let encode h =
  let name_len = String.length h.h_name in
  let block = Bytes.make (payload_off ~name_len) '\000' in
  Bytes.blit_string magic 0 block 0 8;
  set_u32 block 8 version;
  set_u32 block 12 h.h_kind;
  Bytes.set_int64_ne block 16 endian_tag;
  set_i64 block 24 h.h_payload_bytes;
  set_i64 block 32 h.h_i0;
  set_i64 block 40 h.h_i1;
  set_i64 block 48 h.h_i2;
  set_i64 block 56 h.h_i3;
  set_f64 block 64 h.h_f0;
  set_f64 block 72 h.h_f1;
  set_f64 block 80 h.h_f2;
  set_u32 block 88 name_len;
  set_u32 block 92 h.h_payload_crc;
  Bytes.blit_string h.h_name 0 block header_bytes name_len;
  set_u32 block header_crc_off
    (Crc32.of_bytes block ~pos:0 ~len:(Bytes.length block));
  block

(* Decode and validate the header + name block read from [path].
   [file_bytes] is the file's total size, checked against the header's
   own payload accounting so truncation is caught before any mapping. *)
let decode ~path ~file_bytes block =
  if Bytes.length block < header_bytes then
    corrupt path "truncated snapshot (%d bytes, header needs %d)"
      (Bytes.length block) header_bytes
  else if Bytes.sub_string block 0 8 <> magic then
    corrupt path "bad magic (not a snapshot file)"
  else begin
    let v = get_u32 block 8 in
    if v <> version then
      corrupt path "format version %d, this build reads version %d" v version
    else if Bytes.get_int64_ne block 16 <> endian_tag then
      corrupt path "foreign byte order or word size"
    else begin
      let kind = get_u32 block 12 in
      let name_len = get_u32 block 88 in
      if kind <> kind_dp && kind <> kind_game then
        corrupt path "unknown snapshot kind %d" kind
      else if name_len > 4096 then
        corrupt path "implausible policy-name length %d" name_len
      else if Bytes.length block < payload_off ~name_len then
        corrupt path "truncated snapshot (header says %d name bytes)" name_len
      else begin
        let stored_crc = get_u32 block header_crc_off in
        let check = Bytes.sub block 0 (payload_off ~name_len) in
        set_u32 check header_crc_off 0;
        let crc = Crc32.of_bytes check ~pos:0 ~len:(Bytes.length check) in
        if crc <> stored_crc then
          corrupt path "header checksum mismatch (%08x, expected %08x)" crc
            stored_crc
        else begin
          let h =
            {
              h_kind = kind;
              h_payload_bytes = get_i64 block 24;
              h_i0 = get_i64 block 32;
              h_i1 = get_i64 block 40;
              h_i2 = get_i64 block 48;
              h_i3 = get_i64 block 56;
              h_f0 = get_f64 block 64;
              h_f1 = get_f64 block 72;
              h_f2 = get_f64 block 80;
              h_name = Bytes.sub_string block header_bytes name_len;
              h_payload_crc = get_u32 block 92;
            }
          in
          if h.h_payload_bytes < 0
             || payload_off ~name_len + h.h_payload_bytes <> file_bytes
          then
            corrupt path "truncated snapshot (%d bytes, header implies %d)"
              file_bytes
              (payload_off ~name_len + h.h_payload_bytes)
          else Ok h
        end
      end
    end
  end

let descr_of_header h =
  if h.h_kind = kind_dp then Dp_table { c = h.h_i0; max_p = h.h_i1; max_l = h.h_i2 }
  else Game_memo

(* --- file plumbing -------------------------------------------------------- *)

let with_fd path flags perm f =
  let fd = Unix.openfile path flags perm in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let map_ints fd ~shared ~pos ~cells : Dp.mat =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout
       shared [| cells |])

let map_floats fd ~shared ~pos ~cells : Game.Solver.floats =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.float64
       Bigarray.c_layout shared [| cells |])

(* A temporary sibling of [path], the unique name it is written under
   before the rename.  The name carries the pid AND a process-local
   counter: two threads persisting the same snapshot concurrently must
   not share a tmp path, or the second open's O_TRUNC shrinks the file
   under the first writer's live mapping (SIGBUS on the next write
   through it) — each writer gets its own file and the renames settle
   last-wins. *)
let tmp_seq = Atomic.make 0

let unlink_quietly tmp = try Unix.unlink tmp with Unix.Unix_error _ -> ()

(* Create the temporary sibling, [total] bytes long, and run [f] on its
   fd (to map or fill the payload); the file is removed if [f] fails. *)
let create_tmp ~path ~total f =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  match
    with_fd tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644 (fun fd ->
        Unix.ftruncate fd total;
        f fd)
  with
  | r -> (tmp, r)
  | exception e ->
    unlink_quietly tmp;
    raise e

(* Stamp the header block (one write at offset 0) on a temporary file
   whose payload is in place, and rename it over [path]; the file is
   removed if either fails. *)
let publish ~tmp ~path header =
  try
    let block = encode header in
    with_fd tmp [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 (fun fd ->
        ignore (Unix.write fd block 0 (Bytes.length block)));
    Unix.rename tmp path
  with e ->
    unlink_quietly tmp;
    raise e

(* Open [path] read-only, read and validate the header + name block and
   hand it to [f] with the fd and the file size; an I/O failure is a
   structured error like any other. *)
let with_header ~path f =
  match
    with_fd path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 (fun fd ->
        let file_bytes = (Unix.fstat fd).Unix.st_size in
        let want = min file_bytes (header_bytes + pad8 4096) in
        let block = Bytes.create want in
        let got = ref 0 in
        let n = ref 1 in
        while !got < want && !n > 0 do
          n := Unix.read fd block !got (want - !got);
          got := !got + !n
        done;
        Result.bind
          (decode ~path ~file_bytes (Bytes.sub block 0 !got))
          (f fd ~file_bytes))
  with
  | result -> result
  | exception Unix.Unix_error (err, _, _) ->
    Result.Error
      (Error.Invalid_params
         (Printf.sprintf "%s: %s" path (Unix.error_message err)))

let peek ~path =
  with_header ~path (fun _ ~file_bytes:_ h -> Ok (descr_of_header h))

(* Validate the header, then hand [f] the fd and the payload offset
   for the payload mappings, whose checksum [f] compares with
   [crc_ok]. *)
let read ~path f =
  with_header ~path (fun fd ~file_bytes:_ h ->
      f fd h ~off:(payload_off ~name_len:(String.length h.h_name)))

let crc_ok ~path h crc =
  if crc = h.h_payload_crc then Ok ()
  else
    corrupt path "payload checksum mismatch (%08x, expected %08x)" crc
      h.h_payload_crc

(* --- dp tables ------------------------------------------------------------ *)

let word = Sys.word_size / 8

let dp_header ~c ~max_p ~max_l ~words ~crc =
  {
    h_kind = kind_dp;
    h_payload_bytes = words * word;
    h_i0 = c;
    h_i1 = max_p;
    h_i2 = max_l;
    h_i3 = 0;
    h_f0 = 0.;
    h_f1 = 0.;
    h_f2 = 0.;
    h_name = "";
    h_payload_crc = crc;
  }

(* A dp snapshot in the making: the bounds it will carry, and once
   [alloc_dp] ran, its temporary file and the shared mapping of the
   payload the pack is written into. *)
type dp_writer = {
  w_path : string;
  w_c : int;
  w_max_p : int;
  w_max_l : int;
  mutable w_tmp : (string * Dp.mat) option;
}

let dp_writer ~path ~c ~max_p ~max_l =
  { w_path = path; w_c = c; w_max_p = max_p; w_max_l = max_l; w_tmp = None }

let alloc_dp w words =
  if w.w_tmp <> None then invalid_arg "Snapshot.alloc_dp: pack already allocated";
  let tmp, pack =
    create_tmp ~path:w.w_path ~total:(header_bytes + (words * word)) (fun fd ->
        map_ints fd ~shared:true ~pos:header_bytes ~cells:words)
  in
  w.w_tmp <- Some (tmp, pack);
  pack

let pending w = w.w_tmp <> None

(* The pack's words are already in the file: checksum them where they
   lie, write the header, rename. *)
let commit_dp w =
  match w.w_tmp with
  | None -> ()
  | Some (tmp, pack) ->
    w.w_tmp <- None;
    let words = Bigarray.Array1.dim pack in
    publish ~tmp ~path:w.w_path
      (dp_header ~c:w.w_c ~max_p:w.w_max_p ~max_l:w.w_max_l ~words
         ~crc:(Crc32.of_ints pack ~pos:0 ~len:words))

let abort_dp w =
  match w.w_tmp with
  | None -> ()
  | Some (tmp, _) ->
    w.w_tmp <- None;
    unlink_quietly tmp

(* The table's resident breakpoint pack verbatim (the pack its last
   solve or grow published; nothing is re-packed here) — usually
   10-100x smaller than the dense cells, so warm start moves
   proportionally fewer bytes. *)
let save_dp ~path dp =
  let pack = Dp.to_packed dp in
  let w = dp_writer ~path ~c:(Dp.c dp) ~max_p:(Dp.max_p dp) ~max_l:(Dp.max_l dp) in
  Bigarray.Array1.blit pack (alloc_dp w (Bigarray.Array1.dim pack));
  commit_dp w

let load_dp ~path ~c =
  read ~path (fun fd h ~off ->
      if h.h_kind <> kind_dp then corrupt path "not a dp-table snapshot"
      else if h.h_i0 <> c then
        corrupt path "holds a table for c = %d ticks, expected c = %d" h.h_i0 c
      else if h.h_i1 < 0 || h.h_i2 < 0 || h.h_payload_bytes mod word <> 0
      then
        corrupt path "payload is %d bytes, not a whole pack" h.h_payload_bytes
      else begin
        let words = h.h_payload_bytes / word in
        let pack = map_ints fd ~shared:false ~pos:off ~cells:words in
        Result.bind (crc_ok ~path h (Crc32.of_ints pack ~pos:0 ~len:words)) (fun () ->
            match
              Error.guard (fun () ->
                  Dp.of_packed ~c:h.h_i0 ~max_p:h.h_i1 ~max_l:h.h_i2 pack)
            with
            | Ok _ as ok -> ok
            | Error e ->
              corrupt path "rejected by Dp.of_packed: %s" (Error.to_string e))
      end)

(* --- game memos ----------------------------------------------------------- *)

let slot_bytes = (2 * word) + 8  (* two key words, one float64 value *)

let save_game ~path ~c ~u ~policy ~p_key (s : Game.Solver.snapshot) =
  let keys = s.Game.Solver.s_keys and vals = s.Game.Solver.s_vals in
  let slots = Bigarray.Array1.dim vals in
  let header =
    {
      h_kind = kind_game;
      h_payload_bytes = slots * slot_bytes;
      h_i0 = s.Game.Solver.s_answered_p;
      h_i1 = slots;
      h_i2 = s.Game.Solver.s_states;
      h_i3 = p_key;
      h_f0 = c;
      h_f1 = u;
      h_f2 = s.Game.Solver.s_grid;
      h_name = policy;
      h_payload_crc =
        Crc32.of_floats vals ~pos:0 ~len:slots
          ~crc:(Crc32.of_ints keys ~pos:0 ~len:(2 * slots));
    }
  in
  let off = payload_off ~name_len:(String.length policy) in
  let tmp, () =
    create_tmp ~path ~total:(off + header.h_payload_bytes) (fun fd ->
        Bigarray.Array1.blit keys (map_ints fd ~shared:true ~pos:off ~cells:(2 * slots));
        Bigarray.Array1.blit vals
          (map_floats fd ~shared:true ~pos:(off + (2 * word * slots)) ~cells:slots))
  in
  publish ~tmp ~path header

let load_game ~path ~c ~u ~grid ~policy ~p_key =
  read ~path (fun fd h ~off ->
      if h.h_kind <> kind_game then corrupt path "not a game-memo snapshot"
      else if
        Int64.bits_of_float h.h_f0 <> Int64.bits_of_float c
        || Int64.bits_of_float h.h_f1 <> Int64.bits_of_float u
        || Int64.bits_of_float h.h_f2 <> Int64.bits_of_float grid
        || h.h_name <> policy
        || h.h_i3 <> p_key
      then
        corrupt path
          "holds memo (c=%g, u=%g, grid=%g, policy=%s, p_key=%d), expected \
           (c=%g, u=%g, grid=%g, policy=%s, p_key=%d)"
          h.h_f0 h.h_f1 h.h_f2 h.h_name h.h_i3 c u grid policy p_key
      else
        let slots = h.h_i1 in
        if slots < 1 || h.h_payload_bytes <> slots * slot_bytes then
          corrupt path "payload is %d bytes, %d slots imply %d"
            h.h_payload_bytes slots (slots * slot_bytes)
        else
          let keys = map_ints fd ~shared:false ~pos:off ~cells:(2 * slots)
          and vals = map_floats fd ~shared:false ~pos:(off + (2 * word * slots)) ~cells:slots in
          let crc =
            Crc32.of_floats vals ~pos:0 ~len:slots
              ~crc:(Crc32.of_ints keys ~pos:0 ~len:(2 * slots))
          in
          Result.bind (crc_ok ~path h crc) (fun () ->
              match
                Error.guard (fun () ->
                    Game.Solver.snapshot ~grid ~answered_p:h.h_i0 ~states:h.h_i2 ~keys ~vals)
              with
              | Ok _ as ok -> ok
              | Error e -> corrupt path "rejected: %s" (Error.to_string e)))
