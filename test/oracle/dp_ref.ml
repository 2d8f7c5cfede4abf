(* The exhaustive references for the integer-grid DP of paper Section 4.

   [solve] is the naive fill of

     W(0)[L] = L (-) c
     W(p)[0] = 0
     W(p)[L] = max_{1 <= t <= L} min (W(p-1)[L - t], (t (-) c) + W(p)[L - t])

   scanning every period length t and keeping the lowest optimal one,
   O(max_p * max_l^2) candidates.  It keeps its cells as two plain dense
   arrays and shares nothing with [Dp]: not the fill scratch, not the
   breakpoint pack, not the pack's readers.  So a fault in any of those
   shows as a cell that differs from this table.

   [brute_force_committed] checks the recurrence itself: it searches
   committed episode schedules rather than period-by-period play. *)

type t = {
  c : int;
  max_p : int;
  max_l : int;
  value : int array; (* value.(p * (max_l + 1) + l) = W(p)[l] *)
  first : int array; (* the lowest optimal first period at (p, l) *)
}

let solve ~c ~max_p ~max_l =
  if c < 1 then Cyclesteal.Error.invalid "Dp_ref.solve: c must be >= 1 tick";
  if max_p < 0 then
    Cyclesteal.Error.invalid "Dp_ref.solve: max_p must be non-negative";
  if max_l < 0 then
    Cyclesteal.Error.invalid "Dp_ref.solve: max_l must be non-negative";
  let stride = max_l + 1 in
  let v = Array.make ((max_p + 1) * stride) 0 in
  let f = Array.make ((max_p + 1) * stride) 0 in
  for l = 0 to max_l do
    v.(l) <- max 0 (l - c);
    f.(l) <- l
  done;
  for p = 1 to max_p do
    let row = p * stride in
    let prev = row - stride in
    for l = 1 to max_l do
      let best = ref 0 and best_t = ref l in
      for t = 1 to l do
        let survive = max 0 (t - c) + v.(row + l - t) in
        let killed = v.(prev + l - t) in
        let cand = min killed survive in
        if cand > !best then begin
          best := cand;
          best_t := t
        end
      done;
      v.(row + l) <- !best;
      f.(row + l) <- !best_t
    done
  done;
  { c; max_p; max_l; value = v; first = f }

let c t = t.c
let max_p t = t.max_p
let max_l t = t.max_l

let index t ~p ~l =
  if p < 0 || p > t.max_p || l < 0 || l > t.max_l then
    invalid_arg
      (Printf.sprintf "Dp_ref: (p = %d, l = %d) outside 0..%d x 0..%d" p l
         t.max_p t.max_l);
  (p * (t.max_l + 1)) + l

let value t ~p ~l = t.value.(index t ~p ~l)
let first t ~p ~l = t.first.(index t ~p ~l)

(* The argmax chain at fixed p: the periods optimal play runs while no
   interrupt comes.  A zero-valued cell records first = l, so the chain
   ends there in one period. *)
let episode t ~p ~l =
  let rec go l acc =
    if l = 0 then List.rev acc
    else
      let tk = first t ~p ~l in
      go (l - tk) (tk :: acc)
  in
  go l []

(* For each composition t_1..t_m of l, the adversary either lets the
   episode run or kills some period k at its last instant, after which
   play continues optimally (recursively brute-forced) with p - 1
   interrupts.  Exponential in l: use only for l <~ 16. *)
let rec brute_force_committed ~c ~p ~l =
  if l <= 0 then 0
  else if p = 0 then max 0 (l - c)
  else begin
    let best = ref 0 in
    let rec extend ~remaining ~banked ~adversary_min =
      if remaining = 0 then best := max !best (min adversary_min banked)
      else
        for tk = 1 to remaining do
          let after_kill =
            brute_force_committed ~c ~p:(p - 1) ~l:(remaining - tk)
          in
          extend
            ~remaining:(remaining - tk)
            ~banked:(banked + max 0 (tk - c))
            ~adversary_min:(min adversary_min (banked + after_kill))
        done
    in
    extend ~remaining:l ~banked:0 ~adversary_min:max_int;
    !best
  end
