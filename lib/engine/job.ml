(* Sharded-job runner: the worker loop, coordinator and inline path every
   job shares. See job.mli for the contract and the frame-kind table. *)

type ('spec, 'partial, 'result) t = {
  name : string;
  unit_name : string;
  units : 'spec -> int;
  compute : 'spec -> tick:(events:int -> unit) -> int -> 'partial;
  encode : Buffer.t -> 'partial -> unit;
  decode : Frame.Rd.cursor -> 'partial;
  merge : 'spec -> 'partial array -> 'result;
  spec_to_json : 'spec -> Json.t;
  spec_of_json : Json.t -> ('spec, string) result;
}

type options = {
  workers : int;
  heartbeat_s : float;
  stall_timeout_s : float;
  metrics : bool;
  trace : bool;
  logs : bool;
  progress : bool;
  inject_crash : int;
  inject_stall : int;
}

let default_options =
  {
    workers = 1;
    heartbeat_s = 1.;
    stall_timeout_s = 30.;
    metrics = false;
    trace = false;
    logs = false;
    progress = false;
    inject_crash = -1;
    inject_stall = -1;
  }

(* ---------------- frames ---------------- *)

let kind_partial = 1
let kind_counters = 2
let kind_done = 3

let partial_frame job u p =
  let b = Buffer.create 1024 in
  Frame.Wr.u32 b u;
  job.encode b p;
  { Frame.kind = kind_partial; payload = Buffer.contents b }

let counters_frame counters =
  let b = Buffer.create 128 in
  Frame.Wr.u16 b (List.length counters);
  List.iter
    (fun (name, v) ->
      Frame.Wr.str b name;
      Frame.Wr.i64 b v)
    counters;
  { Frame.kind = kind_counters; payload = Buffer.contents b }

let done_frame ~units ~events ~wall_s ~rss_kb =
  let b = Buffer.create 32 in
  Frame.Wr.u32 b units;
  Frame.Wr.i64 b events;
  Frame.Wr.f64 b wall_s;
  Frame.Wr.i64 b rss_kb;
  { Frame.kind = kind_done; payload = Buffer.contents b }

type 'p msg =
  | Partial of int * 'p
  | Counters of (string * int) list
  | Done of int * int * float * int  (* units, events, wall_s, rss_kb *)

let decode_msg job (f : Frame.t) =
  let open Frame.Rd in
  match
    let c = of_string f.payload in
    let m =
      if f.kind = kind_partial then
        let u = u32 c in
        Partial (u, job.decode c)
      else if f.kind = kind_counters then
        Counters
          (List.init (u16 c) (fun _ ->
               let name = str c in
               (name, i64 c)))
      else if f.kind = kind_done then begin
        let units = u32 c in
        let events = i64 c in
        let wall_s = f64 c in
        Done (units, events, wall_s, i64 c)
      end
      else raise (Malformed (Printf.sprintf "unknown frame kind %d" f.kind))
    in
    if not (at_end c) then
      raise (Malformed (Printf.sprintf "trailing bytes in frame kind %d" f.kind));
    m
  with
  | m -> Ok m
  | exception Malformed e -> Error e

let decode_partial job f =
  match decode_msg job f with
  | Ok (Partial (u, p)) -> Ok (u, p)
  | Ok _ -> Error (Printf.sprintf "frame kind %d is not a partial" f.Frame.kind)
  | Error e -> Error e

(* ---------------- the unit grid ---------------- *)

let place job parts u p =
  if u < 0 || u >= Array.length parts then
    Error
      (Printf.sprintf "%s %d out of range (%d units)" job.unit_name u
         (Array.length parts))
  else if Option.is_some parts.(u) then
    Error (Printf.sprintf "%s %d shipped twice" job.unit_name u)
  else begin
    parts.(u) <- Some p;
    Ok ()
  end

let complete job parts =
  let missing =
    List.filter
      (fun u -> Option.is_none parts.(u))
      (List.init (Array.length parts) Fun.id)
  in
  match missing with
  | [] -> Ok (Array.map Option.get parts)
  | _ ->
    Error
      (Printf.sprintf "missing %s%s %s" job.unit_name
         (if List.length missing > 1 then "s" else "")
         (String.concat ", " (List.map string_of_int missing)))

let collect job ~units pairs =
  let parts = Array.make units None in
  let rec go = function
    | [] -> complete job parts
    | (u, p) :: rest -> (
      match place job parts u p with Ok () -> go rest | Error e -> Error e)
  in
  go pairs

(* ---------------- worker side ---------------- *)

let kb_or_unknown = function Some kb -> kb | None -> -1

(* Worker [index]'s units in index order, each shipped through [emit]
   as one partial frame. Heartbeats ride the job's tick: every tick past
   the period emits one, and an immediate first beat arms the
   coordinator's deadline from spawn. Returns (units, events). *)
let fold_units job spec o ~index ~emit =
  let n = job.units spec in
  let compute = job.compute spec in
  let t0 = Unix.gettimeofday () in
  let units_done = ref 0 and events = ref 0 in
  let last_hb = ref neg_infinity in
  let heartbeat ev =
    if o.heartbeat_s > 0. then begin
      let now = Unix.gettimeofday () in
      if now -. !last_hb >= o.heartbeat_s then begin
        last_hb := now;
        let total = !events + ev in
        emit
          (Obs_frame.heartbeat_frame
             {
               Obs_frame.hb_index = index;
               hb_events = total;
               hb_shards = !units_done;
               hb_rate = float_of_int total /. Float.max (now -. t0) 1e-9;
               hb_rss_kb = kb_or_unknown (Procstat.rss_kb ());
             })
      end
    end
  in
  heartbeat 0;
  let u = ref index in
  while !u < n do
    let unit_events = ref 0 in
    let tick ~events:ev =
      unit_events := ev;
      heartbeat ev
    in
    let p =
      Telemetry.span ~name:(job.name ^ ".unit") (fun () -> compute ~tick !u)
    in
    emit (partial_frame job !u p);
    incr units_done;
    events := !events + !unit_events;
    (* Testing hooks, after at least one shipped partial: a SIGKILL
       leaves the stream without its done frame, exactly like a real
       crash; a silent wedge is what the heartbeat deadline is for. *)
    if o.inject_crash = index then Unix.kill (Unix.getpid ()) Sys.sigkill;
    if o.inject_stall = index then
      while true do
        Unix.sleep 3600
      done;
    u := !u + o.workers
  done;
  (!units_done, !events)

let emit_stdout f =
  output_string stdout (Frame.encode f);
  flush stdout

let work job spec o ~index =
  set_binary_mode_out stdout true;
  if o.metrics || o.trace then begin
    Telemetry.set_enabled true;
    Telemetry.reset ()
  end;
  if o.logs then Log.set_enabled true;
  let t0 = Unix.gettimeofday () in
  Log.info (job.name ^ ".worker_start")
    [
      ("worker", Log.I index);
      ("pid", Log.I (Unix.getpid ()));
      ("units", Log.I (job.units spec));
    ];
  let units, events = fold_units job spec o ~index ~emit:emit_stdout in
  if o.metrics then emit_stdout (counters_frame (Telemetry.counters ()));
  if o.trace then
    emit_stdout
      (Obs_frame.telemetry_frame ~index
         ~epoch_unix_s:(Telemetry.epoch_unix_s ())
         (Telemetry.events ()));
  if o.logs then emit_stdout (Obs_frame.logs_frame ~index (Log.events ()));
  emit_stdout
    (done_frame ~units ~events
       ~wall_s:(Unix.gettimeofday () -. t0)
       ~rss_kb:(kb_or_unknown (Procstat.peak_rss_kb ())))

(* The worker's argument: its index, the options a worker acts on, and
   the job's own spec codec. *)
let worker_arg job spec o ~index =
  Json.to_string
    (Json.Obj
       [
         ("index", Json.Int index);
         ("workers", Json.Int o.workers);
         ("heartbeat_s", Json.Float o.heartbeat_s);
         ("metrics", Json.Bool o.metrics);
         ("trace", Json.Bool o.trace);
         ("logs", Json.Bool o.logs);
         ("inject_crash", Json.Int o.inject_crash);
         ("inject_stall", Json.Int o.inject_stall);
         ("spec", job.spec_to_json spec);
       ])

let parse_worker_arg job json =
  match Json.parse json with
  | Error e -> Error ("bad worker spec: " ^ e)
  | Ok j -> (
    let field k f = Option.bind (Json.member k j) f in
    let int k = field k Json.to_int_opt in
    let bool k = field k (function Json.Bool b -> Some b | _ -> None) in
    match
      ( (int "index", int "workers", field "heartbeat_s" Json.to_float_opt),
        (bool "metrics", bool "trace", bool "logs"),
        (int "inject_crash", int "inject_stall", Json.member "spec" j) )
    with
    | ( (Some index, Some workers, Some heartbeat_s),
        (Some metrics, Some trace, Some logs),
        (Some inject_crash, Some inject_stall, Some spec) ) ->
      Result.map
        (fun spec ->
          ( index,
            spec,
            { default_options with
              workers; heartbeat_s; metrics; trace; logs; inject_crash;
              inject_stall } ))
        (job.spec_of_json spec)
    | _ -> Error "bad worker spec: missing field")

type any = Any : (_, _, _) t -> any

let worker_entry jobs name json =
  match List.find_opt (fun (Any job) -> job.name = name) jobs with
  | None ->
    prerr_endline ("job-worker: unknown job " ^ name);
    2
  | Some (Any job) -> (
    match parse_worker_arg job json with
    | Error e ->
      Printf.eprintf "%s-worker: %s\n%!" name e;
      2
    | Ok (index, spec, o) -> (
      match job.units spec with
      | exception Invalid_argument e ->
        Printf.eprintf "%s-worker: %s\n%!" name e;
        2
      | _ -> (
        try
          work job spec o ~index;
          0
        with e ->
          Printf.eprintf "%s-worker %d: %s\n%!" name index
            (Printexc.to_string e);
          3)))

(* ---------------- coordinator side ---------------- *)

type worker_report = {
  w_index : int;
  w_pid : int;
  w_status : string;
  w_events : int;
  w_units : int;
  w_wall_s : float;
  w_rss_kb : int;
  w_stalled : bool;
}

type obs = {
  o_workers : worker_report list;
  o_spans : (int * float * Telemetry.event list) list;
  o_counters : (int * (string * int) list) list;
}

let check_options job o =
  let bad flag want =
    invalid_arg (Printf.sprintf "%s: --%s must be %s" job.name flag want)
  in
  if o.workers < 1 || o.workers > 1024 then bad "workers" "in [1, 1024]";
  if not (Float.is_finite o.heartbeat_s && o.heartbeat_s >= 0.) then
    bad "heartbeat" "finite and >= 0";
  if not (Float.is_finite o.stall_timeout_s && o.stall_timeout_s >= 0.) then
    bad "stall-timeout" "finite and >= 0"

(* The stderr progress line: one line, rewritten in place, summing the
   latest heartbeat of every worker. Stdout never sees it. *)
type board = {
  b_events : int array;
  b_rate : float array;
  b_rss : int array;
  mutable b_shown : bool;
}

let progress_update name board (hb : Obs_frame.heartbeat) =
  if hb.hb_index >= 0 && hb.hb_index < Array.length board.b_events then begin
    board.b_events.(hb.hb_index) <- hb.hb_events;
    board.b_rate.(hb.hb_index) <- hb.hb_rate;
    board.b_rss.(hb.hb_index) <- Int.max hb.hb_rss_kb 0;
    board.b_shown <- true;
    Printf.eprintf "\r[%s] %.2fM events  %.2fM ev/s  workers-rss %d MB   %!"
      name
      (float_of_int (Array.fold_left ( + ) 0 board.b_events) /. 1e6)
      (Array.fold_left ( +. ) 0. board.b_rate /. 1e6)
      (Array.fold_left ( + ) 0 board.b_rss / 1024)
  end

let progress_finish board =
  if board.b_shown then Printf.eprintf "\n%!";
  board.b_shown <- false

let run job ~exe o spec =
  check_options job o;
  let n = job.units spec in
  let ev suffix = job.name ^ "." ^ suffix in
  let board =
    {
      b_events = Array.make o.workers 0;
      b_rate = Array.make o.workers 0.;
      b_rss = Array.make o.workers 0;
      b_shown = false;
    }
  in
  let spans = ref [] in
  (* Observability frames are consumed as they arrive; analysis frames
     stay in the outcome for the index-ordered absorb below. *)
  let on_frame windex (f : Frame.t) =
    Obs_frame.is_obs f
    && begin
         (match Obs_frame.decode f with
         | Ok (Obs_frame.Heartbeat hb) ->
           if o.progress then progress_update job.name board hb
         | Ok (Obs_frame.Telemetry (i, epoch, events)) ->
           spans := (i, epoch, events) :: !spans
         | Ok (Obs_frame.Logs (i, events)) ->
           (* Re-emit with worker attribution: one totally-ordered JSONL
              stream for the whole run under the coordinator's sink. *)
           List.iter
             (fun (e : Log.event) ->
               Log.event e.ev_level e.ev_name
                 (List.filter
                    (fun (k, _) -> k <> "worker" && k <> "w_seq" && k <> "w_t_us")
                    e.fields
                 @ [
                     ("worker", Log.I i);
                     ("w_seq", Log.I e.seq);
                     ("w_t_us", Log.F e.t_us);
                   ]))
             events
         | Error m ->
           Log.warn (ev "bad_obs_frame")
             [ ("worker", Log.I windex); ("reason", Log.S m) ]);
         true
       end
  in
  let on_stall index pid =
    progress_finish board;
    Log.error (ev "worker_stalled")
      [
        ("worker", Log.I index);
        ("pid", Log.I pid);
        ("deadline_s", Log.F o.stall_timeout_s);
      ]
  in
  let outcomes =
    Telemetry.span ~name:(ev "drain") (fun () ->
        Farm.run ~exe
          ~argv:(fun i ->
            [| exe; "job-worker"; job.name; worker_arg job spec o ~index:i |])
          ~workers:o.workers
          ~is_final:(fun f -> f.Frame.kind = kind_done)
          ~on_frame
          ?stall_timeout:
            (if o.stall_timeout_s > 0. then Some o.stall_timeout_s else None)
          ~on_stall ())
  in
  progress_finish board;
  let parts = Array.make n None in
  let worker_counters = ref [] in
  (* One worker's frames into the shared unit grid: its report, and the
     failure line when it died, stalled or shipped a bad frame. *)
  let absorb (w : Farm.outcome) =
    let done_info = ref (0, 0, 0., -1) in
    let bad_frame = ref None in
    List.iter
      (fun f ->
        if !bad_frame = None then
          match decode_msg job f with
          | Error m -> bad_frame := Some m
          | Ok (Partial (u, p)) -> (
            match place job parts u p with
            | Ok () -> ()
            | Error m -> bad_frame := Some m)
          | Ok (Counters cs) ->
            List.iter
              (fun (k, v) -> Telemetry.add (Telemetry.counter (ev ("rollup." ^ k))) v)
              cs;
            worker_counters := (w.index, cs) :: !worker_counters
          | Ok (Done (units, events, wall_s, rss_kb)) ->
            done_info := (units, events, wall_s, rss_kb);
            Log.info (ev "worker_done")
              [
                ("worker", Log.I w.index);
                ("pid", Log.I w.pid);
                ("units", Log.I units);
                ("events", Log.I events);
                ("wall_s", Log.F wall_s);
                ("rss_kb", Log.I rss_kb);
              ])
      w.frames;
    let units, events, wall_s, rss_kb = !done_info in
    let status = Farm.status_to_string w.status in
    let report =
      {
        w_index = w.index;
        w_pid = w.pid;
        w_status = status;
        w_events = events;
        w_units = units;
        w_wall_s = wall_s;
        w_rss_kb = rss_kb;
        w_stalled = w.stalled;
      }
    in
    let reason =
      if Farm.ok w then !bad_frame else Some (Option.value ~default:status w.failure)
    in
    ( report,
      Option.map
        (fun reason ->
          (* A stalled worker was logged at its deadline; anything else
             is a death. *)
          if not w.stalled then
            Log.error (ev "worker_died")
              [
                ("worker", Log.I w.index);
                ("pid", Log.I w.pid);
                ("status", Log.S status);
                ("reason", Log.S reason);
              ];
          Printf.sprintf "worker %d (pid %d) %s: %s, %s" w.index w.pid
            (if w.stalled then "stalled" else "died")
            status reason)
        reason )
  in
  let absorbed =
    Telemetry.span ~name:(ev "absorb") (fun () -> List.map absorb outcomes)
  in
  let obs =
    {
      o_workers = List.map fst absorbed;
      o_spans = List.sort compare !spans;
      o_counters = List.sort compare !worker_counters;
    }
  in
  match List.filter_map snd absorbed with
  | _ :: _ as failures -> Error (String.concat "; " failures)
  | [] ->
    Result.map
      (fun parts ->
        (Telemetry.span ~name:(ev "merge") (fun () -> job.merge spec parts), obs))
      (complete job parts)

let trace_processes obs =
  let coord_epoch = Telemetry.epoch_unix_s () in
  {
    Telemetry.pr_label = "coordinator";
    pr_events = Telemetry.events ();
    pr_counters = Telemetry.counters ();
    pr_offset_us = 0.;
  }
  :: List.map
       (fun (i, epoch, events) ->
         {
           Telemetry.pr_label = Printf.sprintf "worker %d" i;
           pr_events = events;
           pr_counters = Option.value ~default:[] (List.assoc_opt i obs.o_counters);
           pr_offset_us = (epoch -. coord_epoch) *. 1e6;
         })
       obs.o_spans

(* ---------------- inline reference path ---------------- *)

let run_inline ?(obs = false) job spec =
  let o =
    { default_options with
      heartbeat_s = (if obs then default_options.heartbeat_s else 0.) }
  in
  let fail e = failwith (job.name ^ " inline: " ^ e) in
  let pairs = ref [] in
  (* Every frame crosses the codec exactly as it would the pipe. *)
  let emit f =
    match Frame.decode (Frame.encode f) 0 with
    | Error e -> fail (Frame.error_to_string e)
    | Ok (f, _) ->
      if f.Frame.kind = kind_partial then
        match decode_partial job f with
        | Ok pair -> pairs := pair :: !pairs
        | Error e -> fail e
  in
  ignore (fold_units job spec o ~index:0 ~emit);
  match collect job ~units:(job.units spec) (List.rev !pairs) with
  | Ok parts -> job.merge spec parts
  | Error e -> fail e
