(* The serve-live input: an event-time trace that turns bursty halfway.

   The first half is Poisson at [rate] events per trace-second; the
   second half superposes 16 Pareto ON/OFF sources (shape [beta], mean
   period 50 bins, ON rate 2 * rate / 16, deterministic spacing within
   an ON period) at the same mean rate — the splice [wanpoisson serve
   --source splice] generates internally. It is drawn from Stdlib
   [Random.State] seeded by the workload seed, never from the repo's
   Prng, so the input does not depend on code under test. Times are
   rendered with microsecond resolution; [next] returns them as integer
   microseconds, non-decreasing. *)

let sources = 16

type t = {
  rs : Random.State.t;
  horizon : float;
  half : float;
  rate : float;
  beta : float;
  mean_period : float;
  mutable t : float;  (* Poisson clock *)
  mutable onoff : bool;  (* past the splice point *)
  next : float array;  (* per source: next emission time *)
  on_end : float array;  (* per source: end of the current ON period *)
  gap : float;
}

let create ~seed ~duration ~rate ~bin ~beta =
  {
    rs = Random.State.make [| seed; 0x5e7e |];
    horizon = duration;
    half = duration /. 2.;
    rate;
    beta;
    mean_period = 50. *. bin;
    t = 0.;
    onoff = false;
    next = Array.make sources infinity;
    on_end = Array.make sources neg_infinity;
    gap = 1. /. (2. *. rate /. float_of_int sources);
  }

let uniform_pos t = 1. -. Random.State.float t.rs 1.

let pareto t =
  let location = t.mean_period *. (t.beta -. 1.) /. t.beta in
  location *. (uniform_pos t ** (-1. /. t.beta))

(* Source [s] starts an ON period at [from]: first emission half a gap
   in. An ON period too short for one emission falls straight through
   to the next OFF period. *)
let rec start_on t s from =
  if from >= t.horizon then t.next.(s) <- infinity
  else begin
    let len = pareto t in
    let first = from +. (t.gap /. 2.) in
    t.on_end.(s) <- Float.min t.horizon (from +. len);
    if first < t.on_end.(s) then t.next.(s) <- first
    else start_on t s (from +. len +. pareto t)
  end

let start_onoff t =
  t.onoff <- true;
  for s = 0 to sources - 1 do
    if Random.State.bool t.rs then start_on t s t.half
    else start_on t s (t.half +. pareto t)
  done

(* Next event time in trace-seconds, or [infinity] at the end. *)
let next_time t =
  if not t.onoff then begin
    t.t <- t.t -. (log (uniform_pos t) /. t.rate);
    if t.t < t.half then t.t
    else begin
      start_onoff t;
      infinity
    end
  end
  else infinity

let next_onoff t =
  let best = ref 0 in
  for s = 1 to sources - 1 do
    if t.next.(s) < t.next.(!best) then best := s
  done;
  let s = !best in
  let v = t.next.(s) in
  if v < infinity then begin
    let nx = v +. t.gap in
    if nx < t.on_end.(s) then t.next.(s) <- nx
    else start_on t s (t.on_end.(s) +. pareto t)
  end;
  v

let next t =
  let v =
    let p = next_time t in
    if p < infinity then p else next_onoff t
  in
  if v < infinity then int_of_float (Float.round (v *. 1e6)) else -1

(* The time serve parses back from the rendered digits (correctly
   rounded, like its float_of_string). *)
let seconds us = float_of_int us /. 1e6

let digits = Bytes.create 20

(* Append "S.UUUUUU\n" to [b] at [pos]; returns the new position. [b]
   must have room for 32 bytes. *)
let render b pos us =
  let s = us / 1_000_000 and f = us mod 1_000_000 in
  let pos = ref pos in
  let n = ref 0 in
  let v = ref s in
  if !v = 0 then begin
    Bytes.set digits 0 '0';
    n := 1
  end;
  while !v > 0 do
    Bytes.set digits !n (Char.chr (48 + (!v mod 10)));
    v := !v / 10;
    incr n
  done;
  for i = !n - 1 downto 0 do
    Bytes.set b !pos (Bytes.get digits i);
    incr pos
  done;
  Bytes.set b !pos '.';
  incr pos;
  let d = ref 100_000 in
  while !d > 0 do
    Bytes.set b !pos (Char.chr (48 + (f / !d mod 10)));
    incr pos;
    d := !d / 10
  done;
  Bytes.set b !pos '\n';
  !pos + 1
