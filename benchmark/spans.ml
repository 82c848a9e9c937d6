(* The traced run's span recorder.

   Deliberately not Engine.Telemetry, which is code under test: spans
   live in preallocated parallel arrays, so recording one allocates
   nothing and costs two clock reads and two minor-word reads. Spans are
   taken around calls into a layer at chunk granularity, never per
   event, and nest strictly (a span ends before its parent does). Each
   records a work count ([units]) at the same boundary, so ratios are
   measured where the work happens. *)

type t = {
  name : string array;
  parent : int array;
  t0 : float array;
  t1 : float array;
  w0 : float array;  (* Gc.minor_words at entry *)
  w1 : float array;
  units : float array;
  mutable n : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable dropped : int;  (* spans lost to a full recorder *)
  counters : (string, float ref) Hashtbl.t;
}

(* One time base for every recorder in the process. *)
let epoch = Unix.gettimeofday ()

let create ?(capacity = 1 lsl 14) () =
  {
    name = Array.make capacity "";
    parent = Array.make capacity (-1);
    t0 = Array.make capacity 0.;
    t1 = Array.make capacity 0.;
    w0 = Array.make capacity 0.;
    w1 = Array.make capacity 0.;
    units = Array.make capacity 0.;
    n = 0;
    cur = -1;
    dropped = 0;
    counters = Hashtbl.create 16;
  }

(* A span id, or -1 when the recorder is full. *)
let enter t name =
  if t.n = Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.cur;
    t.cur <- i;
    t.w0.(i) <- Gc.minor_words ();
    t.t0.(i) <- Unix.gettimeofday ();
    i
  end

let leave t i ~units =
  if i >= 0 then begin
    t.t1.(i) <- Unix.gettimeofday ();
    t.w1.(i) <- Gc.minor_words ();
    t.units.(i) <- units;
    t.cur <- t.parent.(i)
  end

(* [span t name f]: run [f] inside a span; [f] returns its result and
   the work count it did. *)
let span t name f =
  let i = enter t name in
  match f () with
  | v, units ->
    leave t i ~units;
    v
  | exception e ->
    leave t i ~units:0.;
    raise e

let count t name v =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add t.counters name (ref v)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0.

(* What recording one span costs: the median over batches of 4096
   empty spans on a scratch recorder. Tracing overhead is this times the
   spans a run recorded, as a share of the run. *)
let cost_per_span () =
  let r = create ~capacity:4096 () in
  let batch () =
    r.n <- 0;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 4096 do
      span r "calibration" (fun () -> ((), 1.))
    done;
    (Unix.gettimeofday () -. t0) /. 4096.
  in
  let times = List.init 15 (fun _ -> batch ()) |> List.sort Float.compare in
  List.nth times 7

(* ---------------- read-out ---------------- *)

type agg = {
  calls : int;
  total_s : float;
  self_s : float;  (* total minus the time child spans cover *)
  self_words : float;
  work : float;
}

let empty = { calls = 0; total_s = 0.; self_s = 0.; self_words = 0.; work = 0. }

(* Per-span self time and self words. Spans nest strictly, so the part
   of a span's interval its children cover is the sum of their
   durations. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.t1.(i) -. t.t0.(i)) in
  let words = Array.init t.n (fun i -> t.w1.(i) -. t.w0.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      self.(p) <- self.(p) -. (t.t1.(i) -. t.t0.(i));
      words.(p) <- words.(p) -. (t.w1.(i) -. t.w0.(i))
    end
  done;
  (self, words)

let aggregate t =
  let self, words = self_times t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let a = Option.value ~default:empty (Hashtbl.find_opt tbl t.name.(i)) in
    Hashtbl.replace tbl t.name.(i)
      {
        calls = a.calls + 1;
        total_s = a.total_s +. (t.t1.(i) -. t.t0.(i));
        self_s = a.self_s +. self.(i);
        self_words = a.self_words +. words.(i);
        work = a.work +. t.units.(i);
      }
  done;
  tbl

let total_self t =
  let self, _ = self_times t in
  Array.fold_left ( +. ) 0. self

(* Chrome trace-event JSON, one lane per recorder. *)
let chrome_events ~pid t b =
  for i = 0 to t.n - 1 do
    if Buffer.length b > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"units\":%.17g,\"minor_words\":%.17g}}"
      t.name.(i) pid
      ((t.t0.(i) -. epoch) *. 1e6)
      ((t.t1.(i) -. t.t0.(i)) *. 1e6)
      t.units.(i)
      (t.w1.(i) -. t.w0.(i))
  done
