open Cyclesteal

type counters = {
  hits : int;
  misses : int;
  load_failures : int;
  saves : int;
  save_failures : int;
}

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  load_failures : int Atomic.t;
  saves : int Atomic.t;
  save_failures : int Atomic.t;
  lock : Mutex.t;  (** guards [last_error], [banked] and [in_flight] *)
  mutable last_error : string option;
  banked : (string, int) Hashtbl.t;
      (** file name -> solved size already on disk (cells for dp,
          states for games); the write-behind dedup, seeded by loads *)
  in_flight : (string, unit) Hashtbl.t;
      (** names with a save currently being written; a racing save of
          the same name is dropped instead of writing a duplicate (the
          entry re-persists on its next growth) *)
}

let dir t = t.dir

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ?(create = false) path =
  Error.guard (fun () ->
      (try if create then mkdir_p path
       with Unix.Unix_error (err, _, arg) ->
         Error.invalidf "bank directory %s: cannot create %s: %s" path arg
           (Unix.error_message err));
      (match Sys.is_directory path with
      | true -> ()
      | false -> Error.invalidf "bank path %s is not a directory" path
      | exception Sys_error _ ->
        Error.invalidf "bank directory %s does not exist" path);
      {
        dir = path;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        load_failures = Atomic.make 0;
        saves = Atomic.make 0;
        save_failures = Atomic.make 0;
        lock = Mutex.create ();
        last_error = None;
        banked = Hashtbl.create 64;
        in_flight = Hashtbl.create 4;
      })

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let note_failure t counter e =
  Atomic.incr counter;
  locked t (fun () -> t.last_error <- Some e)

let mark_banked t name size = locked t (fun () -> Hashtbl.replace t.banked name size)

(* Atomically decide whether this save should run: skipped when the
   bank already holds the identity at this size, or when another
   thread's save of the same name is in flight — unique tmp names make
   the race merely wasteful, this makes it a no-op.  A true claim must
   be released with [finish_save]. *)
let claim_save t name size =
  locked t (fun () ->
      if Hashtbl.find_opt t.banked name = Some size
         || Hashtbl.mem t.in_flight name
      then false
      else begin
        Hashtbl.replace t.in_flight name ();
        true
      end)

let finish_save t name = locked t (fun () -> Hashtbl.remove t.in_flight name)

(* --- file naming ---------------------------------------------------------- *)

let sanitize s =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch
      | _ -> '-')
    s

let dp_name ~c = Printf.sprintf "dp_c%d.snap" c

(* Floats are keyed by their bit patterns: the bank must distinguish
   identities the cache distinguishes, and %g would collide them. *)
let game_name ~c ~u ~policy ~p_key =
  Printf.sprintf "game_%s_c%016Lx_u%016Lx_%s.snap" (sanitize policy)
    (Int64.bits_of_float c) (Int64.bits_of_float u)
    (if p_key < 0 then "pany" else Printf.sprintf "p%d" p_key)

(* --- loads ---------------------------------------------------------------- *)

(* [count = false] keeps hit/miss counters untouched (startup warming
   must not pre-inflate serving stats); failures are always counted —
   a corrupt file is worth surfacing whoever found it. *)
let load t name ~count ~size load_file =
  let path = Filename.concat t.dir name in
  if not (Sys.file_exists path) then begin
    if count then Atomic.incr t.misses;
    None
  end
  else
    match load_file ~path with
    | Ok v ->
      if count then Atomic.incr t.hits;
      mark_banked t name (size v);
      Some v
    | Error e ->
      note_failure t t.load_failures (Error.to_string e);
      None

let load_dp ?(count = true) t ~c =
  load t (dp_name ~c) ~count
    ~size:(fun dp -> (Dp.max_p dp + 1) * (Dp.max_l dp + 1))
    (fun ~path -> Snapshot.load_dp ~path ~c)

let load_game t ~c ~u ~grid ~policy ~p_key =
  load t
    (game_name ~c ~u ~policy ~p_key)
    ~count:true
    ~size:(fun (s : Game.Solver.snapshot) -> s.Game.Solver.s_states)
    (fun ~path -> Snapshot.load_game ~path ~c ~u ~grid ~policy ~p_key)

(* --- saves ---------------------------------------------------------------- *)

let io_failure t path err arg =
  note_failure t t.save_failures
    (Printf.sprintf "%s: %s: %s" path arg (Unix.error_message err))

(* [write ~path] runs when the claim succeeds, [skip ()] when it does
   not. *)
let save ?(skip = ignore) t name ~size write =
  if not (claim_save t name size) then skip ()
  else
    Fun.protect
      ~finally:(fun () -> finish_save t name)
      (fun () ->
        let path = Filename.concat t.dir name in
        match write ~path with
        | () ->
          Atomic.incr t.saves;
          mark_banked t name size
        | exception Unix.Unix_error (err, _, arg) -> io_failure t path err arg)

let dp_cells ~max_p ~max_l = (max_p + 1) * (max_l + 1)

let save_dp t dp =
  save t
    (dp_name ~c:(Dp.c dp))
    ~size:(dp_cells ~max_p:(Dp.max_p dp) ~max_l:(Dp.max_l dp))
    (fun ~path -> Snapshot.save_dp ~path dp)

(* --- write-through -------------------------------------------------------- *)

type dp_writer = {
  bank : t;
  name : string;
  cells : int;
  snap : Snapshot.dp_writer;
}

let dp_writer t ~c ~max_p ~max_l =
  let name = dp_name ~c in
  {
    bank = t;
    name;
    cells = dp_cells ~max_p ~max_l;
    snap = Snapshot.dp_writer ~path:(Filename.concat t.dir name) ~c ~max_p ~max_l;
  }

(* A pack the bank cannot hold is still a pack: the table is served
   from the heap and this save is counted as failed. *)
let dp_pack w words =
  try Snapshot.alloc_dp w.snap words
  with Unix.Unix_error (err, _, arg) ->
    io_failure w.bank (Filename.concat w.bank.dir w.name) err arg;
    Dp.heap_pack words

let commit_dp w =
  if Snapshot.pending w.snap then
    save w.bank w.name ~size:w.cells
      ~skip:(fun () -> Snapshot.abort_dp w.snap)
      (fun ~path:_ -> Snapshot.commit_dp w.snap)

let abort_dp w = Snapshot.abort_dp w.snap

let save_game t ~c ~u ~policy ~p_key (s : Game.Solver.snapshot) =
  save t
    (game_name ~c ~u ~policy ~p_key)
    ~size:s.Game.Solver.s_states
    (fun ~path -> Snapshot.save_game ~path ~c ~u ~policy ~p_key s)

(* --- enumeration and accounting ------------------------------------------- *)

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error e ->
    note_failure t t.load_failures e;
    []
  | names ->
    Array.sort String.compare names;
    Array.to_list names
    |> List.filter_map (fun name ->
           if Filename.check_suffix name ".snap" then
             match Snapshot.peek ~path:(Filename.concat t.dir name) with
             | Ok d -> Some (name, d)
             | Error e ->
               note_failure t t.load_failures (Error.to_string e);
               None
           else None)

let counters t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    load_failures = Atomic.get t.load_failures;
    saves = Atomic.get t.saves;
    save_failures = Atomic.get t.save_failures;
  }

let last_error t = locked t (fun () -> t.last_error)

let reset_counters t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.load_failures 0;
  Atomic.set t.saves 0;
  Atomic.set t.save_failures 0;
  locked t (fun () -> t.last_error <- None)
