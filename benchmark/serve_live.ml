(* The serve-live workload: an open-loop replay into [wanpoisson serve].

   One process, one thread. Every millisecond the generator renders the
   events that have fallen due (trace time / [speed] after the start)
   and writes them to serve's stdin without blocking; whatever the pipe
   refuses waits in a backlog, so a slow serve makes the generator late
   instead of slowing the offered load. Between ticks it reads serve's
   stdout and stamps each line with its arrival time. *)

let trace_rate = 1000.  (* events per trace-second *)
let offered_rate = 5e5  (* events per wall-second *)
let speed = offered_rate /. trace_rate
let bin = 0.01
let beta = 1.2
let cadence = 64  (* serve's default --cadence *)
let tick_s = 0.001

let args = [ "serve"; "--source"; "stdin"; "--bin"; "0.01" ]

let generator ~seed ~replay_s =
  Trace_gen.create ~seed ~duration:(replay_s *. speed) ~rate:trace_rate ~bin ~beta

type result = {
  usage : Proc.usage;
  sent : int;  (* event lines written *)
  expected : int;  (* estimates the input implies: bins / cadence *)
  received : int;  (* valid estimate lines *)
  latencies : float array;  (* per valid estimate, arrival order *)
  arrivals : float array;  (* their arrival times (Unix seconds) *)
  late : float array;  (* generator lateness, one sample per tick *)
  end_late_s : float;  (* lateness when the last event went out *)
  drifts : int;
  stdout : string;
  problems : string list;  (* failed checks; empty when all pass *)
}

(* Check serve's output against what was sent. *)
let check ~table ~sent ~code ~lines ~times =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if code <> 0 then problem "serve exited with %d" code;
  let bins = Latency.bins table in
  let expected = bins / cadence in
  let lat = ref [] and arr = ref [] in
  let received = ref 0 and drifts = ref 0 and summaries = ref 0 in
  let bad = ref 0 in
  List.iteri
    (fun i line ->
      match Jsonl.fields line with
      | None -> incr bad
      | Some fs -> (
        match List.assoc_opt "type" fs with
        | Some "estimate" -> (
          match (Jsonl.int_field fs "seq", Jsonl.int_field fs "upto") with
          | Some seq, Some upto
            when seq = !received + 1 && upto = seq * cadence ->
            let due = Latency.closing_due table upto in
            if Float.is_nan due then incr bad
            else begin
              incr received;
              lat := (times.(i) -. due) :: !lat;
              arr := times.(i) :: !arr
            end
          | _ -> incr bad)
        | Some "drift" -> incr drifts
        | Some "summary" ->
          incr summaries;
          if Jsonl.int_field fs "bins" <> Some bins then
            problem "summary bins differ from the %d sent" bins;
          if List.assoc_opt "events" fs
             <> Some (Printf.sprintf "%.6g" (float_of_int sent))
          then problem "summary events differ from the %d lines sent" sent;
          if Jsonl.int_field fs "estimates" <> Some !received then
            problem "summary estimates differ from the lines received"
        | _ -> incr bad))
    lines;
  if !bad > 0 then problem "%d output lines failed to parse or check" !bad;
  if !summaries <> 1 then problem "%d summary lines" !summaries;
  if !received <> expected then
    problem "%d estimates for %d bins, expected %d" !received bins expected;
  ( expected,
    !received,
    Array.of_list (List.rev !lat),
    Array.of_list (List.rev !arr),
    !drifts,
    List.rev !problems )

let session ~exe ~seed ~replay_s ~err ~deadline_s =
  let gen = generator ~seed ~replay_s in
  let table = Latency.create () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let ferr =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let t_start = Unix.gettimeofday () in
  let pid = Proc.spawn exe args ~stdin:in_r ~stdout:out_w ~stderr:ferr in
  List.iter Unix.close [ in_r; out_w; ferr ];
  Unix.set_nonblock in_w;
  let t0 = Unix.gettimeofday () in
  (* Backlog of rendered lines: bytes [lo, hi) of [pend]; [batches]
     holds, per tick, (stream offset past its last byte, due time of its
     first event). *)
  let pend = ref (Bytes.create (1 lsl 20)) in
  let lo = ref 0 and hi = ref 0 in
  let produced = ref 0 and written = ref 0 in
  let batches = Queue.create () in
  let sent = ref 0 in
  let next_us = ref (Trace_gen.next gen) in
  let gen_done = ref (!next_us < 0) in
  let last_due = ref t0 in
  let in_open = ref true in
  let late = ref [] and end_late = ref 0. in
  let out = Buffer.create (1 lsl 20) in
  let times = ref [] in
  let rbuf = Bytes.create 65536 in
  let eof = ref false and killed = ref false and broken = ref false in
  let next_tick = ref t0 in
  let ensure_room () =
    if !hi + 32 > Bytes.length !pend then begin
      let live = !hi - !lo in
      let cap = Bytes.length !pend in
      let b = Bytes.create (if (2 * live) + 64 > cap then 2 * cap else cap) in
      Bytes.blit !pend !lo b 0 live;
      pend := b;
      lo := 0;
      hi := live
    end
  in
  let generate now =
    let batch_due = ref nan in
    while
      (not !gen_done)
      && t0 +. (Trace_gen.seconds !next_us /. speed) <= now
    do
      let t = Trace_gen.seconds !next_us in
      let due = t0 +. (t /. speed) in
      if Float.is_nan !batch_due then batch_due := due;
      Latency.record table ~idx:(Latency.bin_index ~bin t) ~due;
      ensure_room ();
      let h = Trace_gen.render !pend !hi !next_us in
      produced := !produced + (h - !hi);
      hi := h;
      incr sent;
      last_due := due;
      next_us := Trace_gen.next gen;
      if !next_us < 0 then begin
        gen_done := true;
        Latency.finish table ~eof_due:due
      end
    done;
    if not (Float.is_nan !batch_due) then Queue.push (!produced, !batch_due) batches
  in
  (* How far behind schedule the oldest unwritten event is. *)
  let lateness now =
    while
      match Queue.peek_opt batches with
      | Some (stop, _) -> stop <= !written
      | None -> false
    do
      ignore (Queue.pop batches)
    done;
    match Queue.peek_opt batches with Some (_, due) -> now -. due | None -> 0.
  in
  let try_write () =
    if !hi > !lo then
      match Unix.single_write in_w !pend !lo (!hi - !lo) with
      | n ->
        lo := !lo + n;
        written := !written + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* serve stopped reading: drop the rest, then collect its exit. *)
        broken := true;
        gen_done := true;
        lo := !hi
  in
  let stamp now n =
    Buffer.add_subbytes out rbuf 0 n;
    let s = Buffer.length out in
    for i = s - n to s - 1 do
      if Buffer.nth out i = '\n' then
        times := now :: !times
    done
  in
  while not !eof do
    let now = Unix.gettimeofday () in
    if now -. t_start > deadline_s && not !killed then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      killed := true
    end;
    if now >= !next_tick then begin
      generate now;
      try_write ();
      late := lateness now :: !late;
      while !next_tick <= now do
        next_tick := !next_tick +. tick_s
      done
    end;
    if !in_open && !gen_done && !hi = !lo then begin
      end_late := now -. !last_due;
      Unix.close in_w;
      in_open := false
    end;
    let want_write = !in_open && !hi > !lo in
    let timeout =
      if not !gen_done then Float.max 0. (!next_tick -. Unix.gettimeofday ())
      else if want_write then 0.002
      else 0.05
    in
    match
      Unix.select [ out_r ] (if want_write then [ in_w ] else []) [] timeout
    with
    | r, w, _ ->
      if w <> [] then try_write ();
      if r <> [] then begin
        let n = Unix.read out_r rbuf 0 (Bytes.length rbuf) in
        if n = 0 then eof := true else stamp (Unix.gettimeofday ()) n
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if !in_open then Unix.close in_w;
  Unix.close out_r;
  let code, cpu_s, maxrss_kb = Proc.reap ~timeout:30. pid in
  let usage = { Proc.code; wall_s = Unix.gettimeofday () -. t0; cpu_s; maxrss_kb } in
  let stdout = Buffer.contents out in
  let n_lines = List.length !times in
  let lines = List.filteri (fun i _ -> i < n_lines) (String.split_on_char '\n' stdout) in
  let times = Array.of_list (List.rev !times) in
  let expected, received, latencies, arrivals, drifts, problems =
    check ~table ~sent:!sent ~code ~lines ~times
  in
  let problems =
    (if !killed then [ Printf.sprintf "serve killed after %.0f s" deadline_s ] else [])
    @ (if !broken then [ "serve closed its input early" ] else [])
    @ problems
  in
  {
    usage;
    sent = !sent;
    expected;
    received;
    latencies;
    arrivals;
    late = Array.of_list (List.rev !late);
    end_late_s = !end_late;
    drifts;
    stdout;
    problems;
  }

(* Bursts of estimate lines: runs whose gaps stay under 50 ms. Returns
   (mean lines per burst, mean seconds from a burst's first line to its
   last). *)
let bursts arrivals =
  let n = Array.length arrivals in
  if n = 0 then (nan, nan)
  else begin
    let count = ref 0 and drain = ref 0. and first = ref arrivals.(0) in
    for i = 1 to n do
      if i = n || arrivals.(i) -. arrivals.(i - 1) > 0.05 then begin
        incr count;
        drain := !drain +. (arrivals.(i - 1) -. !first);
        if i < n then first := arrivals.(i)
      end
    done;
    (float_of_int n /. float_of_int !count, !drain /. float_of_int !count)
  end

(* The whole trace as text, as fast as the reader takes it: the traced
   run's stdin for an in-process [Serve.run]. *)
let emit ~seed ~replay_s oc =
  let gen = generator ~seed ~replay_s in
  let b = Bytes.create 65536 in
  let pos = ref 0 in
  let us = ref (Trace_gen.next gen) in
  while !us >= 0 do
    if !pos + 32 > Bytes.length b then begin
      output oc b 0 !pos;
      pos := 0
    end;
    pos := Trace_gen.render b !pos !us;
    us := Trace_gen.next gen
  done;
  output oc b 0 !pos;
  flush oc

(* The same trace binned exactly as serve bins it. *)
let counts ~seed ~replay_s =
  let gen = generator ~seed ~replay_s in
  let c = ref (Array.make 65536 0.) in
  let top = ref (-1) in
  let n = ref 0 in
  let us = ref (Trace_gen.next gen) in
  while !us >= 0 do
    let i = Latency.bin_index ~bin (Trace_gen.seconds !us) in
    if i >= Array.length !c then begin
      let a = Array.make (Int.max (i + 1) (2 * Array.length !c)) 0. in
      Array.blit !c 0 a 0 (Array.length !c);
      c := a
    end;
    !c.(i) <- !c.(i) +. 1.;
    top := Int.max !top i;
    incr n;
    us := Trace_gen.next gen
  done;
  (Array.sub !c 0 (!top + 1), !n)
