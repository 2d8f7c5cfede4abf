(* Repeated timing for the bench suites.

   A series is a warm-up run followed by [reps] timed repetitions on the
   monotonic clock, summarised by its median, quartiles and extremes: one
   sample says nothing about noise, and a speedup between two series
   counts only when their interquartile ranges do not overlap.  A suite
   describes each series once, as a {!row}; {!report} prints the rows as
   a console table and returns them as JSON, and {!run} writes the
   suite's BENCH file with the facts of the host that produced it. *)

module Json = Service.Json

(* How many runs a series gets: [warmups] discarded, then [reps] timed. *)
type plan = { warmups : int; reps : int }

(* A [--quick] smoke runs each series once, cold; a full suite warms up
   once and then times [reps] repetitions. *)
let plan ~quick reps = if quick then { warmups = 0; reps = 1 } else { warmups = 1; reps }

type t = { n : int; median : float; min : float; max : float; q1 : float; q3 : float }

let summarise samples =
  let min, max = Csutil.Stats.min_max samples in
  {
    n = Array.length samples;
    median = Csutil.Stats.median samples;
    min;
    max;
    q1 = Csutil.Stats.quantile samples 0.25;
    q3 = Csutil.Stats.quantile samples 0.75;
  }

(* [time_with plan ~setup f] times [f] on a fresh [setup ()] per run,
   [setup] itself untimed.  [reset] runs just before the last
   repetition, so process-wide counters read afterwards cover exactly
   one run: dividing by the run count would fold the warm-ups in.
   Returns the summary and the last run's result. *)
let time_with ?(reset = ignore) plan ~setup f =
  let run () =
    let x = setup () in
    let t0 = Csutil.Clock.now () in
    let v = f x in
    (Csutil.Clock.now () -. t0, v)
  in
  for _ = 1 to plan.warmups do
    ignore (run ())
  done;
  let samples = Array.make plan.reps 0. and last = ref None in
  for i = 0 to plan.reps - 1 do
    if i = plan.reps - 1 then reset ();
    let dt, v = run () in
    samples.(i) <- dt;
    last := Some v
  done;
  (summarise samples, Option.get !last)

let time ?reset plan f = time_with ?reset plan ~setup:ignore f

let within_noise a b = a.q1 <= b.q3 && b.q1 <= a.q3

(* [name] = how many times faster [s] runs than [base], by medians, with
   a [<name>_within_noise] flag when the two IQRs overlap. *)
let speedup name ~base s =
  [
    (name, Json.Float (base.median /. s.median));
    (name ^ "_within_noise", Json.Bool (within_noise base s));
  ]

(* One series of a suite: its name, its timing ([None] for a series
   recorded by its counts only) and any extra counters. *)
type row = { name : string; timing : t option; fields : (string * Json.t) list }

let row ?timing ?(fields = []) name = { name; timing; fields }

let timing_json s =
  [
    ("n", Json.Int s.n);
    ("median", Json.Float s.median);
    ("min", Json.Float s.min);
    ("max", Json.Float s.max);
    ("q1", Json.Float s.q1);
    ("q3", Json.Float s.q3);
  ]

let cell = function
  | Json.Float x -> Printf.sprintf "%.3g" x
  | Json.Int i -> string_of_int i
  | Json.Bool b -> string_of_bool b
  | v -> Json.to_string v

(* Print [rows] through [emit] (so [--csv] sees them) and return them as
   a JSON list. *)
let report ~emit ~title rows =
  let t =
    Csutil.Table.create ~title
      ~aligns:Csutil.Table.[ Left; Right; Right; Right; Right; Right; Right; Left ]
      [ "series"; "n"; "median s"; "q1"; "q3"; "min"; "max"; "counters" ]
  in
  List.iter
    (fun r ->
       let timing =
         match r.timing with
         | Some s ->
           string_of_int s.n
           :: List.map (Printf.sprintf "%.3g") [ s.median; s.q1; s.q3; s.min; s.max ]
         | None -> List.init 6 (fun _ -> "-")
       in
       let counters = List.map (fun (k, v) -> k ^ "=" ^ cell v) r.fields in
       Csutil.Table.add_row t ((r.name :: timing) @ [ String.concat "  " counters ]))
    rows;
  emit t;
  Json.List
    (List.map
       (fun r ->
          Json.Obj
            ((("series", Json.String r.name)
              :: Option.fold ~none:[] ~some:timing_json r.timing)
             @ r.fields))
       rows)

(* [git args]'s trimmed output, or [None] outside a checkout. *)
let git args =
  match Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let out = String.trim (In_channel.input_all ic) in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> Some out
     | _ -> None)

(* The facts a reader needs to compare two BENCH files: the commit
   ([dirty] when tracked files differ from it), the compiler, and how
   many domains the host offers a pool. *)
let host () =
  Json.Obj
    [
      ("commit", Json.String (Option.value (git "rev-parse HEAD") ~default:"unknown"));
      ( "dirty",
        Json.Bool (Option.fold ~none:false ~some:(( <> ) "")
                     (git "status --porcelain --untracked-files=no")) );
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("domains_available", Json.Int (Csutil.Par.available_domains ()));
    ]

(* Run [suite ~quick], writing [out] (when given) with the host and the
   suite's wall time.  A [--quick] smoke is given no [out] and fails
   past a generous 120 s bound that only a badly broken kernel (or
   machine) blows. *)
let run ~bench ~quick ?out suite =
  let t0 = Csutil.Clock.now () in
  let fields = suite ~quick in
  let wall = Csutil.Clock.now () -. t0 in
  if quick && wall > 120. then begin
    Printf.eprintf "bench %s --quick exceeded its 120 s bound: %.1f s\n" bench wall;
    exit 1
  end;
  Printf.printf "bench %s%s: every check passed; %.2f s\n" bench
    (if quick then " --quick" else "") wall;
  match out with
  | Some out ->
    let doc =
      Json.Obj
        ((("bench", Json.String bench) :: ("host", host ())
          :: ("wall_seconds", Json.Float wall) :: fields))
    in
    Out_channel.with_open_text out (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n');
    Printf.printf "wrote %s\n" out
  | None -> ()
