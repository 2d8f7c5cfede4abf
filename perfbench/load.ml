(* The untraced run: spawn the shipped cschedd, drive it from this one
   process over [conns] Unix-socket connections in a closed loop, check
   every reply against the oracle, and read the daemon's peak RSS and
   CPU time from /proc. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* --- the child daemon ---------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let reap ?(grace = 5.) d =
  let rec wait deadline =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.002;
      wait deadline
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait (now () + int_of_float (grace *. 1e9))

(* SIGTERM (the daemon's clean shutdown), then SIGKILL after a grace
   period; waits until the process is gone so no write-behind outlives
   the run. *)
let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap d;
    try Unix.unlink d.sock with Unix.Unix_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop !live)

let spawn ~exe ~sock ~flags =
  let args = Array.of_list ((exe :: "--socket" :: sock :: flags)) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe args null null Unix.stderr)
  in
  let d = { pid; sock } in
  live := d :: !live;
  d

let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Connect, retrying while the daemon is still starting. *)
let connect d ~timeout =
  let deadline = now () + int_of_float (timeout *. 1e9) in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> Some fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now () > deadline || not (alive d) then None
      else begin
        Unix.sleepf 1e-4;
        go ()
      end
  in
  go ()

(* --- /proc --------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let vm_hwm_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
  |> Option.value ~default:0

(* utime + stime, in clock ticks (fields 14 and 15 of stat; the command
   name in field 2 may hold spaces, so count from its closing paren). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  int_of_string f.(11) + int_of_string f.(12)

(* --- line I/O ------------------------------------------------------------ *)

type reader = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let reader fd = { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

(* Index of the next newline in the buffered bytes, if any. *)
let newline r =
  match Bytes.index_from_opt r.buf r.lo '\n' with
  | Some i when i < r.hi -> Some i
  | _ -> None

(* Read more bytes; false on EOF or a reset connection. *)
let fill r =
  if r.lo > 0 then begin
    Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
    r.hi <- r.hi - r.lo;
    r.lo <- 0
  end;
  if r.hi = Bytes.length r.buf then false
  else
    match Unix.read r.fd r.buf r.hi (Bytes.length r.buf - r.hi) with
    | 0 -> false
    | n ->
      r.hi <- r.hi + n;
      true
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let rec read_line r =
  match newline r with
  | Some i ->
    let s = Bytes.sub_string r.buf r.lo (i - r.lo) in
    r.lo <- i + 1;
    Some s
  | None -> if fill r then read_line r else None

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  match go 0 with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

(* One request-reply on a fresh connection (the set-up probe, stats). *)
let ask d ~timeout line =
  match connect d ~timeout with
  | None -> None
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        if write_all fd (line ^ "\n") then read_line (reader fd) else None)

(* Spawn, then probe until the first correct reply: the set-up time. *)
let start ~exe ~sock ~flags (s : Gen.stream) =
  let t0 = now () in
  let d = spawn ~exe ~sock ~flags in
  match ask d ~timeout:60. s.Gen.probe.Gen.text with
  | Some reply when String.equal reply s.Gen.expected.(s.Gen.probe.Gen.pos) ->
    Ok (d, float_of_int (now () - t0) *. 1e-9)
  | Some reply -> Error (d, "set-up probe answered wrongly: " ^ reply)
  | None -> Error (d, "daemon never answered the set-up probe")

(* --- the closed loop ----------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat : int array;  (** round trips in ns, first [n] valid *)
  mutable n : int;
  first_rtt : int array;  (** per stream position, first round trip; -1 *)
  mutable slices : slice list;  (** closed slices, newest first *)
}

(* A stretch of the timed phase: the round trips [first, last) of
   [lat], its wall time and the daemon CPU ticks it took.  Metrics are
   taken per slice and reported as medians over slices, so a burst of
   contention from outside the benchmark moves few slices. *)
and slice = {
  first : int;
  last : int;
  ns : int;
  cpu : int;
  steal : float;  (** share of the host's CPU time stolen by the hypervisor *)
}

(* Guest-wide (steal, total) jiffies from /proc/stat. *)
let host_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | first :: _ ->
    let f =
      String.split_on_char ' ' first
      |> List.filter (fun x -> x <> "" && x <> "cpu")
      |> List.map int_of_string
    in
    (List.nth f 7, List.fold_left ( + ) 0 f)
  | [] -> (0, 0)

let tally (s : Gen.stream) =
  {
    attempted = 0;
    failed = 0;
    lat = Array.make 65536 0;
    n = 0;
    first_rtt = Array.make (Array.length s.Gen.lines) (-1);
    slices = [];
  }

(* Slices during which the hypervisor stole at most [max_steal] of the
   host's CPU time. *)
let quiet_slices t ~max_steal = List.length (List.filter (fun sl -> sl.steal <= max_steal) t.slices)

let record t ~pos rtt =
  if t.n = Array.length t.lat then begin
    let a = Array.make (2 * t.n) 0 in
    Array.blit t.lat 0 a 0 t.n;
    t.lat <- a
  end;
  t.lat.(t.n) <- rtt;
  t.n <- t.n + 1;
  if t.first_rtt.(pos) < 0 then t.first_rtt.(pos) <- rtt

(* Does the line at [r.lo, i) equal [s]? *)
let line_equals r i s =
  i - r.lo = String.length s
  &&
  let rec go k = k = String.length s || (Bytes.get r.buf (r.lo + k) = String.get s k && go (k + 1)) in
  go 0

type conn = {
  rd : reader;
  windows : Gen.line array array;
  texts : string array;
  mutable next : int;  (** windows sent so far *)
  mutable cur : Gen.line array;
  mutable got : int;
  mutable sent_at : int;
  mutable active : bool;
}

(* Drive every connection in a closed loop: write a window, wait for all
   its replies, write the next.  [cycle] restarts a connection's windows
   when they run out; without it each connection runs its windows once.
   No window starts once [stop ()] holds.  A connection that closes or stays
   silent for [stall] seconds fails its outstanding lines.  A slice
   closes every [slice_ns] and when the loop ends; [cpu] reads the
   daemon's CPU ticks. *)
let run_loop ?(slice_ns = max_int) ?(cpu = fun () -> 0) t (s : Gen.stream) fds ~cycle ~stop =
  let stall_ns = 20_000_000_000 in
  let conns =
    Array.mapi
      (fun i fd ->
        let windows = s.Gen.conns.(i) in
        {
          rd = reader fd;
          windows;
          texts =
            Array.map
              (fun w ->
                String.concat "" (Array.to_list (Array.map (fun l -> l.Gen.text ^ "\n") w)))
              windows;
          next = 0;
          cur = [||];
          got = 0;
          sent_at = 0;
          active = true;
        })
      fds
  in
  let fail_rest c =
    t.failed <- t.failed + (Array.length c.cur - c.got);
    c.active <- false
  in
  let send c =
    let k = c.next mod Array.length c.windows in
    if (c.next >= Array.length c.windows && not cycle) || stop () then
      c.active <- false
    else begin
      c.cur <- c.windows.(k);
      c.got <- 0;
      c.next <- c.next + 1;
      t.attempted <- t.attempted + Array.length c.cur;
      c.sent_at <- now ();
      if not (write_all c.rd.fd c.texts.(k)) then fail_rest c
    end
  in
  let t0 = now () in
  let open_t = ref t0 and open_n = ref t.n and open_cpu = ref (cpu ()) in
  let open_host = ref (host_ticks ()) in
  let close_slice t1 =
    let c = cpu () and ((st, tot) as h) = host_ticks () in
    let st0, tot0 = !open_host in
    if t.n > !open_n then
      t.slices <-
        {
          first = !open_n;
          last = t.n;
          ns = t1 - !open_t;
          cpu = c - !open_cpu;
          steal = (if tot > tot0 then float_of_int (st - st0) /. float_of_int (tot - tot0) else 0.);
        }
        :: t.slices;
    open_t := t1;
    open_n := t.n;
    open_cpu := c;
    open_host := h
  in
  Array.iter send conns;
  let last = ref t0 in
  let rec loop () =
    let open_fds =
      Array.to_list conns |> List.filter (fun c -> c.active) |> List.map (fun c -> c.rd.fd)
    in
    if open_fds <> [] then begin
      (match Unix.select open_fds [] [] 1.0 with
       | ready, _, _ ->
         if ready = [] && now () - !last > stall_ns then
           Array.iter (fun c -> if c.active then fail_rest c) conns;
         Array.iter
           (fun c ->
             if c.active && List.memq c.rd.fd ready then begin
               if not (fill c.rd) then fail_rest c
               else
                 let rec drain () =
                   match newline c.rd with
                   | Some i when c.active ->
                     let t1 = now () in
                     last := t1;
                     let l = c.cur.(c.got) in
                     if line_equals c.rd i s.Gen.expected.(l.Gen.pos) then
                       record t ~pos:l.Gen.pos (t1 - c.sent_at)
                     else t.failed <- t.failed + 1;
                     c.rd.lo <- i + 1;
                     c.got <- c.got + 1;
                     if t1 - !open_t >= slice_ns then close_slice t1;
                     if c.got = Array.length c.cur then send c;
                     drain ()
                   | _ -> ()
                 in
                 drain ()
             end)
           conns
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* The tail after [stop] drains with fewer connections busy, so
     a short last slice is dropped unless it is the loop's only one. *)
  if !last - !open_t >= slice_ns / 2 || !open_t = t0 then close_slice !last

(* Open [n] connections; a refused one counts its first window as
   failed and is left out. *)
let open_conns t d (s : Gen.stream) n =
  Array.init n (fun i ->
      match connect d ~timeout:10. with
      | Some fd -> Some fd
      | None ->
        let w = s.Gen.conns.(i).(0) in
        t.attempted <- t.attempted + Array.length w;
        t.failed <- t.failed + Array.length w;
        None)

let close_conns fds = Array.iter (Option.iter Unix.close) fds

(* Drive the loop over the connections that opened, keeping each one's
   own window sequence. *)
let drive ?slice_ns t d (s : Gen.stream) ~conns ~cycle ~stop =
  let fds = open_conns t d s conns in
  let idx = List.filter (fun i -> Option.is_some fds.(i)) (List.init conns Fun.id) in
  let sub = { s with Gen.conns = Array.of_list (List.map (fun i -> s.Gen.conns.(i)) idx) } in
  run_loop ?slice_ns ~cpu:(fun () -> cpu_ticks d.pid) t sub
    (Array.of_list (List.map (fun i -> Option.get fds.(i)) idx))
    ~cycle ~stop;
  close_conns fds

(* Send the warm-up lines one at a time, checking each reply. *)
let warm t d (s : Gen.stream) =
  if Array.length s.Gen.warmup > 0 then begin
    let warm_s = { s with Gen.conns = [| Array.map (fun l -> [| l |]) s.Gen.warmup |] } in
    let scratch = tally s in
    (match connect d ~timeout:10. with
     | Some fd ->
       run_loop scratch warm_s [| fd |] ~cycle:false ~stop:(fun () -> false);
       Unix.close fd
     | None -> scratch.failed <- scratch.failed + 1);
    t.attempted <- t.attempted + scratch.attempted;
    t.failed <- t.failed + scratch.failed
  end

(* The daemon's own counters, via the [stats] op. *)
let stats d =
  match ask d ~timeout:10. {|{"id":0,"op":"stats"}|} with
  | None -> None
  | Some reply ->
    (match Service.Json.of_string reply with
     | Ok j -> Service.Json.member "result" j
     | Error _ -> None)

let reset_stats d = ignore (ask d ~timeout:10. {|{"id":0,"op":"stats","reset":true}|})
