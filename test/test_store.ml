(* Tests for the persistent memo tier (DESIGN.md S20): snapshot
   round-trips are bit-identical, every corruption mode degrades to a
   structured error (and, through a bank-backed cache, to a fresh
   solve), and the daemon's counter families reset together. *)

open Cyclesteal

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let tmp_dir () =
  let dir = Filename.temp_file "csstore" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rec rm_rf dir =
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_DIR -> rm_rf path
      | _ -> ( try Sys.remove path with Sys_error _ -> ())
      | exception Unix.Unix_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ()

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let mat_equal (a : Dp.mat) (b : Dp.mat) =
  let open Bigarray.Array1 in
  dim a = dim b
  &&
  let rec go i = i >= dim a || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0

(* Bit equality of two memo tables, keys and values alike. *)
let memo_equal (a : Game.Solver.snapshot) (b : Game.Solver.snapshot) =
  let open Bigarray.Array1 in
  let va = a.Game.Solver.s_vals and vb = b.Game.Solver.s_vals in
  mat_equal a.Game.Solver.s_keys b.Game.Solver.s_keys
  && dim va = dim vb
  &&
  let rec go i =
    i >= dim va
    || (Int64.equal
          (Int64.bits_of_float (unsafe_get va i))
          (Int64.bits_of_float (unsafe_get vb i))
        && go (i + 1))
  in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [to_packed] is exact for any cell contents, so equal packs and
   bounds mean equal tables, values and argmax alike. *)
let dp_tables_equal a b =
  Dp.c a = Dp.c b
  && Dp.max_p a = Dp.max_p b
  && Dp.max_l a = Dp.max_l b
  && mat_equal (Dp.to_packed a) (Dp.to_packed b)

(* --- CRC-32 ----------------------------------------------------------------- *)

(* The standard check value: CRC-32 of the ASCII digits 1 to 9. *)
let test_crc_check_value () =
  let s = "123456789" in
  Alcotest.(check int) "reference" 0xCBF43926 (Oracle.Crc32_ref.of_string s);
  Alcotest.(check int) "of_bytes" 0xCBF43926
    (Store.Crc32.of_bytes (Bytes.of_string s) ~pos:0 ~len:9)

(* The table-driven fold against the bit-at-a-time reference, over
   random lengths and offsets. *)
let prop_crc_matches_reference =
  QCheck.Test.make ~name:"Crc32 = bitwise reference, any length and offset"
    ~count:300
    QCheck.(triple (string_of_size (Gen.int_range 0 300)) (int_range 0 15) (int_range 0 15))
    (fun (s, pre, post) ->
       let buf = String.make pre 'x' ^ s ^ String.make post 'y' in
       let len = String.length s in
       Store.Crc32.of_bytes (Bytes.of_string buf) ~pos:pre ~len
       = Oracle.Crc32_ref.of_string s)

(* The byte image of words in a file written in native order. *)
let image words =
  let b = Bytes.create (8 * List.length words) in
  List.iteri
    (fun i w ->
       (if Sys.big_endian then Bytes.set_int64_be else Bytes.set_int64_le) b (8 * i) w)
    words;
  Bytes.to_string b

let ints_of xs = Bigarray.(Array1.of_array int c_layout (Array.of_list xs))
let floats_of xs = Bigarray.(Array1.of_array float64 c_layout (Array.of_list xs))

(* Any int, negative ones (a row's zero_until = -1) and the extremes
   included. *)
let int_word =
  QCheck.Gen.(
    frequency
      [ (4, int); (2, int_range (-3) 3); (1, oneofl [ min_int; max_int; -1; 0 ]) ])

(* Any float64 bit pattern but a NaN's payload (a NaN may come back
   quieted through a float register). *)
let float_word =
  QCheck.Gen.(
    map
      (fun bits ->
         let f = Int64.float_of_bits bits in
         if Float.is_nan f then Float.nan else f)
      (map2 (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
         (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)))

(* The array forms checksum the file's byte image of the words, and a
   continued CRC equals one over the concatenated images. *)
let prop_crc_of_words =
  QCheck.Test.make ~name:"Crc32.of_ints/of_floats = reference over the byte image"
    ~count:300
    QCheck.(
      make
        Gen.(
          triple
            (list_size (int_range 0 40) int_word)
            (list_size (int_range 0 40) float_word)
            (int_range 0 3)))
    (fun (xs, fs, skip) ->
       let n = List.length xs in
       let skip = min skip n in
       let ints = ints_of xs and floats = floats_of fs in
       let int_image = image (List.map Int64.of_int xs) in
       let float_image = image (List.map Int64.bits_of_float fs) in
       Store.Crc32.of_ints ints ~pos:0 ~len:n = Oracle.Crc32_ref.of_string int_image
       && Store.Crc32.of_ints ints ~pos:skip ~len:(n - skip)
          = Oracle.Crc32_ref.of_string (String.sub int_image (8 * skip) (8 * (n - skip)))
       && Store.Crc32.of_floats floats ~pos:0 ~len:(List.length fs)
          = Oracle.Crc32_ref.of_string float_image
       && Store.Crc32.of_floats floats ~pos:0 ~len:(List.length fs)
            ~crc:(Store.Crc32.of_ints ints ~pos:0 ~len:n)
          = Oracle.Crc32_ref.of_string (int_image ^ float_image))

(* --- round-trip properties ------------------------------------------------ *)

let prop_dp_round_trip =
  QCheck.Test.make ~name:"dp snapshot round-trips bit-identically" ~count:12
    QCheck.(triple (int_range 1 9) (int_range 1 4) (int_range 64 900))
    (fun (c, p, l) ->
       with_dir (fun dir ->
           let path = Filename.concat dir "t.snap" in
           let t = Dp.solve ~c ~max_p:p ~max_l:l in
           Store.Snapshot.save_dp ~path t;
           match Store.Snapshot.load_dp ~path ~c with
           | Error e -> QCheck.Test.fail_report (Error.to_string e)
           | Ok loaded ->
             if not (dp_tables_equal t loaded) then
               QCheck.Test.fail_report "loaded table differs";
             (* A mapped table grows on the heap (capacity is pinned at
                the solved bounds) and must agree with a fresh solve at
                the larger bounds cell for cell. *)
             Dp.grow loaded ~max_p:(p + 1) ~max_l:(l + 37);
             let fresh = Dp.solve ~c ~max_p:(p + 1) ~max_l:(l + 37) in
             if not (dp_tables_equal fresh loaded) then
               QCheck.Test.fail_report "grown mapped table differs";
             true))

(* Save, load, save again: the second file is byte-identical to the
   first, the loaded solver answers the saved value bit for bit without
   expanding a state, and a snapshot taken from it writes the same
   bytes once more. *)
let prop_game_round_trip =
  QCheck.Test.make ~name:"game memo snapshot round-trips bit-identically"
    ~count:8
    QCheck.(triple (float_range 0.5 2.) (float_range 6_000. 30_000.) (int_range 2 3))
    (fun (c, u, p) ->
       with_dir (fun dir ->
           let path = Filename.concat dir "g.snap" in
           let again = Filename.concat dir "g2.snap" in
           let params = Model.params ~c in
           let opp = Model.opportunity ~lifespan:u ~interrupts:p in
           let grid = u /. 2e5 in
           let policy = Policy.adaptive_guideline in
           let solver = Game.Solver.create ~grid params opp policy in
           let v = Game.Solver.value solver ~p ~residual:u in
           let load path =
             Store.Snapshot.load_game ~path ~c ~u ~grid ~policy:"adaptive"
               ~p_key:p
           in
           let save path snap =
             Store.Snapshot.save_game ~path ~c ~u ~policy:"adaptive" ~p_key:p
               snap
           in
           match Game.Solver.to_snapshot solver with
           | None -> QCheck.Test.fail_report "gridded solver had no snapshot"
           | Some snap ->
             save path snap;
             (match load path with
              | Error e -> QCheck.Test.fail_report (Error.to_string e)
              | Ok snap' ->
                if not (memo_equal snap snap') then
                  QCheck.Test.fail_report "loaded memo differs";
                if snap'.Game.Solver.s_states <> snap.Game.Solver.s_states then
                  QCheck.Test.fail_report "state count differs";
                if snap'.Game.Solver.s_answered_p <> p then
                  QCheck.Test.fail_report "answered budget lost";
                save again snap';
                if read_file path <> read_file again then
                  QCheck.Test.fail_report "second save differs";
                let solver' =
                  Game.Solver.of_snapshot params opp policy snap'
                in
                Game.reset_counters ();
                let v' = Game.Solver.value solver' ~p ~residual:u in
                if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
                then QCheck.Test.fail_report "loaded value differs";
                if (Game.counters ()).Game.states <> 0 then
                  QCheck.Test.fail_report "loaded solver expanded states";
                save again (Option.get (Game.Solver.to_snapshot solver'));
                if read_file path <> read_file again then
                  QCheck.Test.fail_report "resave of the loaded solver differs";
                true)))

(* --- corruption ----------------------------------------------------------- *)

let write_dp_file dir =
  let path = Filename.concat dir "dp_c5.snap" in
  let t = Dp.solve ~c:5 ~max_p:2 ~max_l:300 in
  Store.Snapshot.save_dp ~path t;
  (path, t)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       ignore (Unix.lseek fd off Unix.SEEK_SET);
       let b = Bytes.create 1 in
       ignore (Unix.read fd b 0 1);
       Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
       ignore (Unix.lseek fd off Unix.SEEK_SET);
       ignore (Unix.write fd b 0 1))

(* Rewrite a dp file's format version in place, re-stamping the header
   checksum so the version is the only thing wrong with it — what a
   file left by an older build looks like to this one. *)
let set_version path v =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       (* dp files carry no policy name: the header is the first 128
          bytes, its checksum the u32 at 96. *)
       let h = Bytes.create 128 in
       ignore (Unix.read fd h 0 128);
       Bytes.set_int32_le h 8 (Int32.of_int v);
       Bytes.set_int32_le h 96 0l;
       Bytes.set_int32_le h 96
         (Int32.of_int (Store.Crc32.of_bytes h ~pos:0 ~len:128));
       ignore (Unix.lseek fd 0 Unix.SEEK_SET);
       ignore (Unix.write fd h 0 128))

let expect_load_error ~what ~sub path =
  match Store.Snapshot.load_dp ~path ~c:5 with
  | Ok _ -> Alcotest.failf "%s: load succeeded" what
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S: %s" what sub (Error.to_string e))
      true
      (contains ~sub (Error.to_string e))

let test_corrupt_payload () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      (* name_len = 0 for dp files, so the payload starts right after
         the 128-byte header. *)
      flip_byte path 200;
      expect_load_error ~what:"flipped payload byte" ~sub:"checksum" path)

let test_corrupt_header () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      flip_byte path 33;
      expect_load_error ~what:"flipped header byte" ~sub:"header" path)

let test_truncated () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size / 2);
      expect_load_error ~what:"truncated file" ~sub:"truncated" path;
      Unix.truncate path 40;
      expect_load_error ~what:"header-less file" ~sub:"truncated" path)

let test_version_skew () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      flip_byte path 8;
      expect_load_error ~what:"bumped version" ~sub:"version" path)

(* A file left by the dense-format build (version 1) is rejected as a
   structured format-version error by both [load_dp] and [peek], never
   misread, while the same table written by this build peeks as the
   current version and loads identically. *)
let test_v1_v2_skew () =
  with_dir (fun dir ->
      let v1 = Filename.concat dir "v1.snap"
      and v2 = Filename.concat dir "v2.snap" in
      let t = Dp.solve ~c:5 ~max_p:2 ~max_l:300 in
      Store.Snapshot.save_dp ~path:v1 t;
      Store.Snapshot.save_dp ~path:v2 t;
      set_version v1 1;
      expect_load_error ~what:"v1 file" ~sub:"format version 1" v1;
      (match Store.Snapshot.peek ~path:v1 with
       | Ok _ -> Alcotest.fail "v1 file peeks"
       | Error e ->
         Alcotest.(check bool)
           ("v1 peek names the version: " ^ Error.to_string e)
           true
           (contains ~sub:"format version 1" (Error.to_string e)));
      (match Store.Snapshot.peek ~path:v2 with
       | Ok (Store.Snapshot.Dp_table { c = 5; _ }) -> ()
       | Ok _ -> Alcotest.fail "v2 file peeked as another table"
       | Error e -> Alcotest.fail (Error.to_string e));
      match Store.Snapshot.load_dp ~path:v2 ~c:5 with
      | Ok loaded ->
        Alcotest.(check bool) "v2 load identical" true (dp_tables_equal t loaded)
      | Error e -> Alcotest.fail (Error.to_string e))

let test_bad_magic () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      flip_byte path 0;
      expect_load_error ~what:"bad magic" ~sub:"magic" path)

let test_param_mismatch () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      (match Store.Snapshot.load_dp ~path ~c:6 with
       | Ok _ -> Alcotest.fail "c mismatch: load succeeded"
       | Error e ->
         Alcotest.(check bool) "mentions cost" true
           (contains ~sub:"expected c = 6" (Error.to_string e)));
      (* A dp file is not a game memo. *)
      match
        Store.Snapshot.load_game ~path ~c:5. ~u:1e4 ~grid:0.05
          ~policy:"adaptive" ~p_key:(-1)
      with
      | Ok _ -> Alcotest.fail "kind mismatch: load succeeded"
      | Error _ -> ())

let test_game_identity_mismatch () =
  with_dir (fun dir ->
      let path = Filename.concat dir "g.snap" in
      let c = 1. and u = 10_000. and p = 2 in
      let params = Model.params ~c in
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let grid = u /. 2e5 in
      let solver =
        Game.Solver.create ~grid params opp Policy.adaptive_guideline
      in
      ignore (Game.Solver.value solver ~p ~residual:u);
      let snap = Option.get (Game.Solver.to_snapshot solver) in
      Store.Snapshot.save_game ~path ~c ~u ~policy:"adaptive" ~p_key:p snap;
      let expect what r =
        match r with
        | Ok _ -> Alcotest.failf "%s: load succeeded" what
        | Error _ -> ()
      in
      let load ~c ~u ~grid ~policy ~p_key =
        Store.Snapshot.load_game ~path ~c ~u ~grid ~policy ~p_key
      in
      expect "wrong u" (load ~c ~u:(u +. 1.) ~grid ~policy:"adaptive" ~p_key:p);
      expect "wrong c" (load ~c:(c +. 0.5) ~u ~grid ~policy:"adaptive" ~p_key:p);
      expect "wrong grid" (load ~c ~u ~grid:(grid *. 2.) ~policy:"adaptive" ~p_key:p);
      expect "wrong policy" (load ~c ~u ~grid ~policy:"dp" ~p_key:p);
      expect "wrong p" (load ~c ~u ~grid ~policy:"adaptive" ~p_key:(p + 1));
      match load ~c ~u ~grid ~policy:"adaptive" ~p_key:p with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "exact identity refused: %s" (Error.to_string e))

(* --- game memo structure ----------------------------------------------------- *)

(* A banked game memo (c = 1, u = 10,000, p = 2, adaptive) and the
   bank it sits in; [load] goes through the bank, so every rejection
   below is a counted load failure. *)
let with_game_bank f =
  with_dir (fun dir ->
      let c = 1. and u = 10_000. and p = 2 in
      let grid = u /. 2e5 in
      let params = Model.params ~c in
      let opp = Model.opportunity ~lifespan:u ~interrupts:p in
      let solver = Game.Solver.create ~grid params opp Policy.adaptive_guideline in
      ignore (Game.Solver.value solver ~p ~residual:u);
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      Store.Bank.save_game bank ~c ~u ~policy:"adaptive" ~p_key:p
        (Option.get (Game.Solver.to_snapshot solver));
      let path =
        match Sys.readdir dir with
        | [| name |] -> Filename.concat dir name
        | _ -> Alcotest.fail "expected one memo file"
      in
      let load () =
        Store.Bank.load_game bank ~c ~u ~grid ~policy:"adaptive" ~p_key:p
      in
      f bank path load)

(* Rewrite a game file through [edit] (given the whole file, the
   payload offset and the slot count), then restamp the payload and
   header checksums: the table's structure is the only thing wrong
   with the result. *)
let edit_game path edit =
  let b = Bytes.of_string (read_file path) in
  let name_len = Int32.to_int (Bytes.get_int32_le b 88) in
  let off = 128 + ((name_len + 7) land lnot 7) in
  let slots = Int64.to_int (Bytes.get_int64_le b 40) in
  let b = edit b ~off ~slots in
  let payload = Int64.to_int (Bytes.get_int64_le b 24) in
  Bytes.set_int32_le b 92
    (Int32.of_int (Store.Crc32.of_bytes b ~pos:off ~len:payload));
  Bytes.set_int32_le b 96 0l;
  Bytes.set_int32_le b 96 (Int32.of_int (Store.Crc32.of_bytes b ~pos:0 ~len:off));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let key_word b ~off i = Int64.to_int (Bytes.get_int64_le b (off + (8 * i)))
let set_key_word b ~off i v = Bytes.set_int64_le b (off + (8 * i)) (Int64.of_int v)
let occupied b ~off i = key_word b ~off (2 * i) <> -1

(* The bank rejects the file, counts it and names [sub]. *)
let expect_memo_rejected bank load ~what ~sub =
  let before = (Store.Bank.counters bank).Store.Bank.load_failures in
  (match load () with
   | Some _ -> Alcotest.failf "%s: load succeeded" what
   | None -> ());
  Alcotest.(check int) (what ^ ": counted") (before + 1)
    (Store.Bank.counters bank).Store.Bank.load_failures;
  let err = Option.value ~default:"" (Store.Bank.last_error bank) in
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %S: %s" what sub err)
    true (contains ~sub err)

(* Two neighbouring occupied slots: copying the first key over the
   second leaves that key held twice, where a probe stops at the first
   copy. *)
let test_game_duplicate_key () =
  with_game_bank (fun bank path load ->
      let original = read_file path in
      edit_game path (fun b ~off ~slots ->
          let i =
            let rec go i =
              if i >= slots then Alcotest.fail "no two neighbouring entries"
              else if occupied b ~off i && occupied b ~off ((i + 1) mod slots)
              then i
              else go (i + 1)
            in
            go 0
          in
          let j = (i + 1) mod slots in
          set_key_word b ~off (2 * j) (key_word b ~off (2 * i));
          set_key_word b ~off ((2 * j) + 1) (key_word b ~off ((2 * i) + 1));
          b);
      expect_memo_rejected bank load ~what:"duplicate key" ~sub:"held twice";
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
      Alcotest.(check bool) "the pristine file loads" true (Option.is_some (load ())))

let test_game_wrong_count () =
  with_game_bank (fun bank path load ->
      edit_game path (fun b ~off:_ ~slots:_ ->
          let states = Int64.to_int (Bytes.get_int64_le b 48) in
          Bytes.set_int64_le b 48 (Int64.of_int (states - 1));
          b);
      expect_memo_rejected bank load ~what:"wrong count" ~sub:"entries")

(* Emptying a slot a later key's probe passes strands that key.  Which
   slots those are depends on the hash, so slots are tried in turn
   until one strands a key: each edit must load or fail structured. *)
let test_game_unreachable_key () =
  with_game_bank (fun bank path load ->
      let original = read_file path in
      let stranded = ref 0 in
      let slots = Int64.to_int (Bytes.get_int64_le (Bytes.of_string original) 40) in
      for i = 0 to slots - 1 do
        if !stranded = 0 then begin
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
        let emptied = ref false in
        edit_game path (fun b ~off ~slots:_ ->
            if occupied b ~off i then begin
              emptied := true;
              set_key_word b ~off (2 * i) (-1);
              set_key_word b ~off ((2 * i) + 1) (-1);
              let states = Int64.to_int (Bytes.get_int64_le b 48) in
              Bytes.set_int64_le b 48 (Int64.of_int (states - 1))
            end;
            b);
        if !emptied && Option.is_none (load ()) then begin
          let err = Option.value ~default:"" (Store.Bank.last_error bank) in
          Alcotest.(check bool) ("names the stranded key: " ^ err) true
            (contains ~sub:"unreachable" err);
          incr stranded
        end
        end
      done;
      Alcotest.(check bool) "some key stranded" true (!stranded > 0))

(* A payload cut short by one value, with the header's byte count and
   both checksums made to agree: only the section accounting is off. *)
let test_game_truncated_section () =
  with_game_bank (fun bank path load ->
      edit_game path (fun b ~off:_ ~slots:_ ->
          let payload = Int64.to_int (Bytes.get_int64_le b 24) in
          Bytes.set_int64_le b 24 (Int64.of_int (payload - 8));
          Bytes.sub b 0 (Bytes.length b - 8));
      expect_memo_rejected bank load ~what:"truncated section" ~sub:"slots imply")

(* --- format versions ------------------------------------------------------- *)

(* A v2 file whose breakpoint table is cut short must be rejected as
   truncated (the header still promises the full payload). *)
let test_v2_truncated_pack () =
  with_dir (fun dir ->
      let path, _ = write_dp_file dir in
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size - 8);
      expect_load_error ~what:"truncated breakpoint table" ~sub:"truncated"
        path)

(* --- bank ----------------------------------------------------------------- *)

let test_bank_open_errors () =
  (match Store.Bank.open_dir ~create:false "/no/such/bank" with
   | Ok _ -> Alcotest.fail "missing dir opened"
   | Error e ->
     Alcotest.(check bool) "mentions the path" true
       (contains ~sub:"/no/such/bank" (Error.to_string e)));
  with_dir (fun dir ->
      let file = Filename.concat dir "plain" in
      let oc = open_out file in
      close_out oc;
      (match Store.Bank.open_dir ~create:false file with
       | Ok _ -> Alcotest.fail "file-as-dir opened"
       | Error _ -> ());
      (match Store.Bank.open_dir ~create:true (file ^ "/sub") with
       | Ok _ -> Alcotest.fail "created a dir under a file"
       | Error _ -> ());
      (* create:true builds parents. *)
      match Store.Bank.open_dir ~create:true (Filename.concat dir "a/b") with
      | Ok b -> Alcotest.(check bool) "dir made" true (Sys.is_directory (Store.Bank.dir b))
      | Error e -> Alcotest.fail (Error.to_string e))

let test_bank_dedup_and_counters () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let t = Dp.solve ~c:3 ~max_p:2 ~max_l:300 in
      Store.Bank.save_dp bank t;
      Store.Bank.save_dp bank t;
      let c = Store.Bank.counters bank in
      Alcotest.(check int) "second save deduped" 1 c.Store.Bank.saves;
      Alcotest.(check int) "no failures" 0 c.Store.Bank.save_failures;
      (match Store.Bank.load_dp bank ~c:3 with
       | Some loaded ->
         Alcotest.(check bool) "banked table identical" true
           (dp_tables_equal t loaded)
       | None -> Alcotest.fail "banked table missed");
      Alcotest.(check int) "miss counted" 1
        (Store.Bank.load_dp bank ~c:9 |> Option.is_none |> fun _ ->
         (Store.Bank.counters bank).Store.Bank.misses);
      Alcotest.(check int) "hit counted" 1
        (Store.Bank.counters bank).Store.Bank.hits;
      match Store.Bank.entries bank with
      | [ (_, Store.Snapshot.Dp_table { c = 3; _ }) ] -> ()
      | es -> Alcotest.failf "unexpected entries (%d)" (List.length es))

let test_bank_corrupt_falls_through () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let t = Dp.solve ~c:5 ~max_p:2 ~max_l:300 in
      Store.Bank.save_dp bank t;
      flip_byte (Filename.concat dir "dp_c5.snap") 200;
      (* The bank reports a load failure... *)
      Alcotest.(check bool) "corrupt entry is None" true
        (Option.is_none (Store.Bank.load_dp bank ~c:5));
      let bc = Store.Bank.counters bank in
      Alcotest.(check int) "load failure counted" 1 bc.Store.Bank.load_failures;
      Alcotest.(check bool) "last error kept" true
        (Option.is_some (Store.Bank.last_error bank));
      (* ...and a bank-backed cache answers correctly anyway, by a fresh
         solve. *)
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      let solved = Service.Cache.find_or_solve cache ~c:5 ~p:2 ~l:300 in
      Alcotest.(check int) "fresh solve answers" (Dp.value t ~p:2 ~l:300)
        (Dp.value solved ~p:2 ~l:300);
      let s = Service.Cache.stats cache in
      match s.Service.Cache.bank with
      | None -> Alcotest.fail "bank stats absent"
      | Some b ->
        Alcotest.(check bool) "failures surfaced in stats" true
          (b.Store.Bank.load_failures >= 1))

(* Regression for the tmp-file collision: writers persisting the same
   snapshot name concurrently must each write through their own
   temporary sibling — with a shared tmp path, the second open's
   O_TRUNC shrinks the file under the first writer's live mapping
   (SIGBUS) or interleaves into a CRC-rejected file.  Afterwards
   exactly one complete, valid file must remain, with no tmp litter. *)
let test_concurrent_saves () =
  with_dir (fun dir ->
      let path = Filename.concat dir "t.snap" in
      let tables =
        Array.init 4 (fun i -> Dp.solve ~c:3 ~max_p:2 ~max_l:(300 + (70 * i)))
      in
      for _round = 1 to 5 do
        Array.map
          (fun t -> Domain.spawn (fun () -> Store.Snapshot.save_dp ~path t))
          tables
        |> Array.iter Domain.join
      done;
      (match Store.Snapshot.load_dp ~path ~c:3 with
       | Error e -> Alcotest.fail (Error.to_string e)
       | Ok loaded ->
         Alcotest.(check bool) "a complete written table survives" true
           (Array.exists (fun t -> dp_tables_equal t loaded) tables));
      Alcotest.(check (list string)) "no tmp litter" [ "t.snap" ]
        (Sys.readdir dir |> Array.to_list |> List.sort String.compare))

(* The bank-level race: concurrent save_dp of one identity serializes
   on the in-flight set (racers are dropped, not interleaved) and
   never records a failure. *)
let test_bank_concurrent_saves () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let t = Dp.solve ~c:3 ~max_p:2 ~max_l:400 in
      Array.init 4 (fun _ -> Domain.spawn (fun () -> Store.Bank.save_dp bank t))
      |> Array.iter Domain.join;
      let c = Store.Bank.counters bank in
      Alcotest.(check bool) "at least one save, none failed" true
        (c.Store.Bank.saves >= 1 && c.Store.Bank.save_failures = 0);
      match Store.Bank.load_dp bank ~c:3 with
      | Some loaded ->
        Alcotest.(check bool) "banked table intact" true
          (dp_tables_equal t loaded)
      | None -> Alcotest.fail "banked table missed")

let test_bank_warm_start () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      (* First process: a cold miss solves and writes behind. *)
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      let t = Service.Cache.find_or_solve cache ~c:7 ~p:2 ~l:400 in
      Alcotest.(check int) "write-behind persisted" 1
        (Store.Bank.counters bank).Store.Bank.saves;
      (* Second process: the bank warms the cache; the same query is a
         hit that fills no cell. *)
      let bank2 = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let cache2 = Service.Cache.create ~bank:bank2 ~capacity:4 () in
      Alcotest.(check int) "one table warmed" 1
        (Service.Cache.warm_from_bank cache2);
      Dp.reset_counters ();
      let t2 = Service.Cache.find_or_solve cache2 ~c:7 ~p:2 ~l:400 in
      Alcotest.(check bool) "banked table identical" true (dp_tables_equal t t2);
      Alcotest.(check int) "no cell filled" 0
        (Dp.counters ()).Dp.cells_filled;
      let s = Service.Cache.stats cache2 in
      Alcotest.(check int) "served as a hit" 1 s.Service.Cache.hits;
      Alcotest.(check int) "no miss" 0 s.Service.Cache.misses)

(* --- write-through ---------------------------------------------------------- *)

let tmp_files dir =
  List.filter (fun f -> Filename.check_suffix f ".tmp") (Array.to_list (Sys.readdir dir))

(* A table the cache solves and then grows is served from the pack it
   wrote into its snapshot file: the file reloads to the served pack
   word for word, and is byte for byte the file the copying save
   writes for a fresh solve at the same bounds (as csched precompute
   would). *)
let test_write_through_reloads_served () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      let check_banked what =
        let served = Service.Cache.find_or_solve cache ~c:6 ~p:0 ~l:0 in
        (match Store.Bank.load_dp ~count:false bank ~c:6 with
         | Some loaded ->
           Alcotest.(check bool) (what ^ ": reload = served pack") true
             (dp_tables_equal served loaded)
         | None -> Alcotest.fail (what ^ ": not banked"));
        let copy = Filename.concat dir "copy.snap" in
        Store.Snapshot.save_dp ~path:copy
          (Dp.solve ~c:6 ~max_p:(Dp.max_p served) ~max_l:(Dp.max_l served));
        Alcotest.(check bool) (what ^ ": file = copying save of a fresh solve") true
          (read_file (Filename.concat dir "dp_c6.snap") = read_file copy);
        Sys.remove copy;
        Alcotest.(check (list string)) (what ^ ": no tmp") [] (tmp_files dir)
      in
      ignore (Service.Cache.find_or_solve cache ~c:6 ~p:2 ~l:700);
      check_banked "solved";
      ignore (Service.Cache.find_or_solve cache ~c:6 ~p:3 ~l:3000);
      check_banked "grown";
      Alcotest.(check int) "two saves" 2 (Store.Bank.counters bank).Store.Bank.saves)

(* Cold fetches of one c racing on four domains of one bank-backed
   cache: every caller gets the same table, the bank holds exactly one
   file for it and no temporary file (the losers' files are removed). *)
let test_write_through_cold_race () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      let go = Atomic.make false in
      let tables =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                Service.Cache.find_or_solve cache ~c:3 ~p:2 ~l:20000))
      in
      Atomic.set go true;
      let tables = Array.map Domain.join tables in
      Array.iter
        (fun t -> Alcotest.(check bool) "one table served" true (t == tables.(0)))
        tables;
      Alcotest.(check (list string)) "one file, no tmp" [ "dp_c3.snap" ]
        (Array.to_list (Sys.readdir dir));
      match Store.Bank.load_dp ~count:false bank ~c:3 with
      | Some loaded ->
        Alcotest.(check bool) "banked = served" true (dp_tables_equal tables.(0) loaded)
      | None -> Alcotest.fail "not banked")

(* A banked table that the query cannot be grown onto within the cell
   budget (p = 1000 at l = 256 banked, p = 2 at l = 100000 asked) is
   replaced by a table solved at the query's bounds, which answers as
   a fresh solve does and is written behind in its place. *)
let test_bank_load_over_budget () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      ignore
        (Service.Cache.find_or_solve
           (Service.Cache.create ~bank ~capacity:4 ())
           ~c:1 ~p:1000 ~l:256);
      let bank2 = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let cache = Service.Cache.create ~bank:bank2 ~capacity:4 () in
      let t = Service.Cache.find_or_solve cache ~c:1 ~p:2 ~l:100000 in
      Alcotest.(check (pair int int)) "solved at the query's bounds"
        (2, 131072) (Dp.max_p t, Dp.max_l t);
      let fresh = Dp.solve ~c:1 ~max_p:2 ~max_l:100000 in
      List.iter
        (fun (p, l) ->
           Alcotest.(check (pair int (list int)))
             (Printf.sprintf "W^(%d)[%d] as a fresh solve" p l)
             (Dp.value fresh ~p ~l, Dp.optimal_episode fresh ~p ~l)
             (Dp.value t ~p ~l, Dp.optimal_episode t ~p ~l))
        [ (2, 100000); (1, 5000); (0, 77) ];
      let s = Service.Cache.stats cache in
      Alcotest.(check (pair int int)) "a miss, not a growth" (1, 0)
        (s.Service.Cache.misses, s.Service.Cache.growths);
      match Store.Bank.load_dp bank2 ~c:1 with
      | Some banked ->
        Alcotest.(check bool) "written behind" true (dp_tables_equal t banked)
      | None -> Alcotest.fail "replacement not banked")

(* Prop 4.1 on the tables a bank-backed cache serves: W nondecreasing
   in L and nonincreasing in p, and W^(p)[L] = 0 for L <= (p+1)c, on
   every row — of a table mapped from the bank, and of the same table
   after the cache grew it past its banked bounds. *)
let prop41_cells ~c ~max_p ~max_l value =
  for p = 0 to max_p do
    for l = 0 to max_l do
      let w = value ~p ~l in
      let where = Printf.sprintf "W^(%d)[%d] = %d" p l w in
      if l > 0 && w < value ~p ~l:(l - 1) then
        Alcotest.failf "%s falls in L" where;
      if p > 0 && w > value ~p:(p - 1) ~l then
        Alcotest.failf "%s rises in p" where;
      if l <= (p + 1) * c && w <> 0 then Alcotest.failf "%s, not 0" where
    done
  done

let prop41_rows t =
  prop41_cells ~c:(Dp.c t) ~max_p:(Dp.max_p t) ~max_l:(Dp.max_l t) (Dp.value t)

let test_bank_served_prop41 () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      ignore (Service.Cache.find_or_solve cache ~c:6 ~p:2 ~l:400);
      let bank2 = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let cache2 = Service.Cache.create ~bank:bank2 ~capacity:4 () in
      Alcotest.(check int) "one table warmed" 1
        (Service.Cache.warm_from_bank cache2);
      let loaded = Service.Cache.find_or_solve cache2 ~c:6 ~p:2 ~l:400 in
      Alcotest.(check int) "served from the bank" 1
        (Service.Cache.stats cache2).Service.Cache.hits;
      prop41_rows loaded;
      let grown = Service.Cache.find_or_solve cache2 ~c:6 ~p:5 ~l:1500 in
      Alcotest.(check int) "grown in place" 1
        (Service.Cache.stats cache2).Service.Cache.growths;
      Alcotest.(check bool) "covers the grown bounds" true
        (Dp.max_p grown >= 5 && Dp.max_l grown >= 1500);
      prop41_rows grown)

(* The same after a shard restart, through the wire: a bank-backed
   router's only shard is killed, its replacement comes back bank-warm,
   and its [dp] answers, first inside the banked bounds (read from the
   mapped pack) and then past them (the pack grown), agree with the
   reference cell for cell, value and episode, and satisfy Prop 4.1. *)
let test_restarted_shard_serves_dp () =
  with_dir (fun dir ->
      let c = 4 and banked_p = 2 and banked_l = 120 in
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      ignore
        (Service.Cache.find_or_solve
           (Service.Cache.create ~bank ~capacity:4 ())
           ~c ~p:banked_p ~l:banked_l);
      let bank = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let router = Service.Router.create ~domains:1 ~bank ~capacity:4 () in
      Fun.protect
        ~finally:(fun () -> Service.Router.shutdown router)
        (fun () ->
           Alcotest.(check int) "one table warmed" 1
             (Service.Router.warm_from_bank router);
           let line ~p ~l =
             Printf.sprintf {|{"op":"dp","c_ticks":%d,"l":%d,"p":%d}|} c l p
           in
           Service.Router.inject_failure router ~shard:0 Service.Router.Die;
           (match Service.Router.run router [| line ~p:1 ~l:50 |] with
            | [| { Service.Batch.result = Error (Error.Unavailable _); _ } |] ->
              ()
            | _ -> Alcotest.fail "the killed batch did not answer unavailable");
           Alcotest.(check int) "one restart" 1 (Service.Router.restarts router);
           let serve ~max_p ~max_l =
             let reference = Oracle.Dp_ref.solve ~c ~max_p ~max_l in
             let cells =
               Array.init
                 ((max_p + 1) * (max_l + 1))
                 (fun i -> (i / (max_l + 1), i mod (max_l + 1)))
             in
             let outcomes =
               Service.Router.run router
                 (Array.map (fun (p, l) -> line ~p ~l) cells)
             in
             let served = Array.make (Array.length cells) 0 in
             Array.iteri
               (fun i (o : Service.Batch.outcome) ->
                  let p, l = cells.(i) in
                  let field name =
                    match o.Service.Batch.result with
                    | Ok v -> Service.Json.member name v
                    | Error e -> Alcotest.failf "p=%d l=%d: %s" p l (Error.to_string e)
                  in
                  let int v = Option.get (Service.Json.to_int v) in
                  let value = int (Option.get (field "value")) in
                  let episode =
                    List.map int
                      (Option.get (Service.Json.to_list (Option.get (field "episode"))))
                  in
                  if value <> Oracle.Dp_ref.value reference ~p ~l then
                    Alcotest.failf "W^(%d)[%d] = %d, reference %d" p l value
                      (Oracle.Dp_ref.value reference ~p ~l);
                  if episode <> Oracle.Dp_ref.episode reference ~p ~l then
                    Alcotest.failf "episode at p=%d l=%d differs from the reference"
                      p l;
                  served.(i) <- value)
               outcomes;
             prop41_cells ~c ~max_p ~max_l (fun ~p ~l ->
                 served.((p * (max_l + 1)) + l))
           in
           serve ~max_p:banked_p ~max_l:banked_l;
           let s = Service.Router.cache_stats router in
           Alcotest.(check (pair int int)) "banked table served, not grown"
             (1, 0) (s.Service.Cache.hits, s.Service.Cache.growths);
           serve ~max_p:(banked_p + 2) ~max_l:(2 * banked_l);
           Alcotest.(check int) "grown past the banked bounds" 1
             (Service.Router.cache_stats router).Service.Cache.growths;
           Alcotest.(check int) "no second restart" 1
             (Service.Router.restarts router)))

(* A bank heals an old-version file with no migration step: the load
   fails structured and counted, the cache answers exactly as a
   bankless one, and the write-behind rewrites the file at the current
   version. *)
let test_bank_heals_old_version () =
  with_dir (fun dir ->
      let c = 5 and p = 2 and l = 300 in
      let path = Filename.concat dir (Printf.sprintf "dp_c%d.snap" c) in
      Store.Snapshot.save_dp ~path (Dp.solve ~c ~max_p:p ~max_l:l);
      set_version path 1;
      let req = Service.Protocol.Dp_query { c_ticks = c; l; p } in
      let answer cache =
        match Service.Protocol.handle ~cache req with
        | Ok payload -> Service.Json.to_string payload
        | Error e -> Alcotest.fail (Error.to_string e)
      in
      let bank = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      Alcotest.(check int) "nothing warmed" 0
        (Service.Cache.warm_from_bank cache);
      Alcotest.(check string) "answer = bankless cache"
        (answer (Service.Cache.create ~capacity:4 ()))
        (answer cache);
      let s = Service.Cache.stats cache in
      (match s.Service.Cache.bank with
       | Some b ->
         Alcotest.(check bool) "load failure counted" true
           (b.Store.Bank.load_failures >= 1)
       | None -> Alcotest.fail "bank stats absent");
      (match s.Service.Cache.bank_last_error with
       | Some e ->
         Alcotest.(check bool) ("last error names the version: " ^ e) true
           (contains ~sub:"format version 1" e)
       | None -> Alcotest.fail "no last error");
      (* [peek] accepts only the current version. *)
      match Store.Snapshot.peek ~path with
      | Error e -> Alcotest.failf "rewritten file: %s" (Error.to_string e)
      | Ok Store.Snapshot.Game_memo -> Alcotest.fail "rewritten as a memo"
      | Ok (Store.Snapshot.Dp_table { max_p; max_l; _ }) -> (
        match Store.Snapshot.load_dp ~path ~c with
        | Error e -> Alcotest.fail (Error.to_string e)
        | Ok loaded ->
          Alcotest.(check bool) "rewritten table = solve" true
            (dp_tables_equal (Dp.solve ~c ~max_p ~max_l) loaded)))

(* A mixed-vintage bank migrates through serving alone: an old-version
   file and a corrupt one are counted load failures, every answer
   matches a bankless cache, and the write-behind rewrites both at the
   current version while the current file and a non-snapshot file are
   left alone.  A second cache over the same directory then warms every
   table with no load failure: nothing is left to migrate. *)
let test_bank_migrate () =
  with_dir (fun dir ->
      let file c = Filename.concat dir (Printf.sprintf "dp_c%d.snap" c) in
      (* Bounds already canonical (even p, power-of-two l >= 256), so
         the current file covers its query and is served as is. *)
      let queries = [ (3, 2, 256); (5, 2, 512); (7, 2, 256) ] in
      List.iter
        (fun (c, p, l) ->
           Store.Snapshot.save_dp ~path:(file c) (Dp.solve ~c ~max_p:p ~max_l:l))
        queries;
      set_version (file 3) 1;
      flip_byte (file 7) 200;
      let readme = Filename.concat dir "README" in
      let oc = open_out readme in
      output_string oc "not a snapshot\n";
      close_out oc;
      let current = In_channel.with_open_bin (file 5) In_channel.input_all in
      let answer cache (c, p, l) =
        let req = Service.Protocol.Dp_query { c_ticks = c; l; p } in
        match Service.Protocol.handle ~cache req with
        | Ok payload -> Service.Json.to_string payload
        | Error e -> Alcotest.fail (Error.to_string e)
      in
      let bankless = Service.Cache.create ~capacity:4 () in
      let bank = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      Alcotest.(check int) "only the current file warms" 1
        (Service.Cache.warm_from_bank cache);
      List.iter
        (fun q ->
           Alcotest.(check string) "answer = bankless cache" (answer bankless q)
             (answer cache q))
        queries;
      (match (Service.Cache.stats cache).Service.Cache.bank with
       | Some b ->
         Alcotest.(check bool) "both bad files counted" true
           (b.Store.Bank.load_failures >= 2)
       | None -> Alcotest.fail "bank stats absent");
      Alcotest.(check string) "current file untouched" current
        (In_channel.with_open_bin (file 5) In_channel.input_all);
      Alcotest.(check bool) "non-snapshot file left alone" true
        (Sys.file_exists readme);
      List.iter
        (fun (c, _, _) ->
           match Store.Snapshot.load_dp ~path:(file c) ~c with
           | Error e -> Alcotest.failf "dp_c%d: %s" c (Error.to_string e)
           | Ok loaded ->
             Alcotest.(check bool)
               (Printf.sprintf "dp_c%d = solve" c)
               true
               (dp_tables_equal
                  (Dp.solve ~c ~max_p:(Dp.max_p loaded) ~max_l:(Dp.max_l loaded))
                  loaded))
        queries;
      let bank2 = Result.get_ok (Store.Bank.open_dir ~create:false dir) in
      let cache2 = Service.Cache.create ~bank:bank2 ~capacity:4 () in
      Alcotest.(check int) "second pass warms every table" 3
        (Service.Cache.warm_from_bank cache2);
      Alcotest.(check int) "second pass has no load failure" 0
        (Store.Bank.counters bank2).Store.Bank.load_failures)

(* --- stats reset ---------------------------------------------------------- *)

let test_reset_counters_all_groups () =
  with_dir (fun dir ->
      let bank = Result.get_ok (Store.Bank.open_dir ~create:true dir) in
      let cache = Service.Cache.create ~bank ~capacity:4 () in
      (* Touch every counter family: dp solve + repeat (hit, miss,
         kernel fill, bank miss + save), corrupt entry (bank load
         failure + last error), and a game evaluation (solver miss,
         game states). *)
      ignore (Service.Cache.find_or_solve cache ~c:4 ~p:2 ~l:300);
      ignore (Service.Cache.find_or_solve cache ~c:4 ~p:2 ~l:300);
      flip_byte (Filename.concat dir "dp_c4.snap") 200;
      ignore (Store.Bank.load_dp bank ~c:4);
      let req =
        Service.Protocol.Evaluate
          { c = 1.; u = 8_000.; p = 2; policy = "adaptive"; periods = None }
      in
      (match Service.Protocol.handle ~cache req with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Error.to_string e));
      let s = Service.Cache.stats cache in
      Alcotest.(check bool) "counters moved" true
        (s.Service.Cache.hits > 0
         && s.Service.Cache.misses > 0
         && s.Service.Cache.kernel.Dp.cells_filled > 0
         && s.Service.Cache.solver_misses > 0
         && s.Service.Cache.game.Game.states > 0
         &&
         match s.Service.Cache.bank with
         | Some b -> b.Store.Bank.saves > 0 && b.Store.Bank.load_failures > 0
         | None -> false);
      Alcotest.(check bool) "last error kept" true
        (Option.is_some s.Service.Cache.bank_last_error);
      (* One reset zeroes every family atomically-together. *)
      Service.Cache.reset_counters cache;
      let s = Service.Cache.stats cache in
      Alcotest.(check bool) "every family zero" true
        (s.Service.Cache.hits = 0
         && s.Service.Cache.misses = 0
         && s.Service.Cache.growths = 0
         && s.Service.Cache.evictions = 0
         && s.Service.Cache.kernel.Dp.cells_filled = 0
         && s.Service.Cache.kernel.Dp.candidates_visited = 0
         && s.Service.Cache.solver_hits = 0
         && s.Service.Cache.solver_misses = 0
         && s.Service.Cache.game.Game.states = 0
         && s.Service.Cache.game.Game.memo_hits = 0
         &&
         match s.Service.Cache.bank with
         | Some b ->
           b.Store.Bank.hits = 0 && b.Store.Bank.misses = 0
           && b.Store.Bank.load_failures = 0
           && b.Store.Bank.saves = 0
           && b.Store.Bank.save_failures = 0
         | None -> false);
      Alcotest.(check bool) "last error cleared" true
        (Option.is_none s.Service.Cache.bank_last_error);
      (* Residency survives a reset: the table still answers as a hit. *)
      ignore (Service.Cache.find_or_solve cache ~c:4 ~p:2 ~l:300);
      Alcotest.(check int) "still resident" 1
        (Service.Cache.stats cache).Service.Cache.hits)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "check value 0xCBF43926" `Quick test_crc_check_value;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference;
          QCheck_alcotest.to_alcotest prop_crc_of_words;
        ] );
      ("round-trip", qc [ prop_dp_round_trip; prop_game_round_trip ]);
      ( "corruption",
        [
          Alcotest.test_case "flipped payload byte" `Quick test_corrupt_payload;
          Alcotest.test_case "flipped header byte" `Quick test_corrupt_header;
          Alcotest.test_case "truncated file" `Quick test_truncated;
          Alcotest.test_case "version skew" `Quick test_version_skew;
          Alcotest.test_case "v1/v2 skew" `Quick test_v1_v2_skew;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "param mismatch" `Quick test_param_mismatch;
          Alcotest.test_case "game identity mismatch" `Quick
            test_game_identity_mismatch;
          Alcotest.test_case "truncated breakpoint table" `Quick
            test_v2_truncated_pack;
          Alcotest.test_case "game memo: duplicate key" `Quick
            test_game_duplicate_key;
          Alcotest.test_case "game memo: wrong count" `Quick
            test_game_wrong_count;
          Alcotest.test_case "game memo: unreachable key" `Quick
            test_game_unreachable_key;
          Alcotest.test_case "game memo: truncated section" `Quick
            test_game_truncated_section;
        ] );
      ( "bank",
        [
          Alcotest.test_case "open_dir errors" `Quick test_bank_open_errors;
          Alcotest.test_case "dedup + counters" `Quick
            test_bank_dedup_and_counters;
          Alcotest.test_case "corrupt entry falls through" `Quick
            test_bank_corrupt_falls_through;
          Alcotest.test_case "warm start" `Quick test_bank_warm_start;
          Alcotest.test_case "write-through reloads the served pack" `Quick
            test_write_through_reloads_served;
          Alcotest.test_case "write-through cold race leaves one file" `Quick
            test_write_through_cold_race;
          Alcotest.test_case "concurrent snapshot saves" `Quick
            test_concurrent_saves;
          Alcotest.test_case "concurrent bank saves" `Quick
            test_bank_concurrent_saves;
          Alcotest.test_case "migrate mixed-vintage bank" `Quick
            test_bank_migrate;
          Alcotest.test_case "old-version file heals" `Quick
            test_bank_heals_old_version;
          Alcotest.test_case "Prop 4.1 on loaded and grown tables" `Quick
            test_bank_served_prop41;
          Alcotest.test_case "banked table over the budget is replaced" `Quick
            test_bank_load_over_budget;
          Alcotest.test_case "restarted shard serves dp = Dp_ref, Prop 4.1"
            `Quick test_restarted_shard_serves_dp;
        ] );
      ( "stats reset",
        [
          Alcotest.test_case "all families reset together" `Quick
            test_reset_counters_all_groups;
        ] );
    ]
