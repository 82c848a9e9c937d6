(* The five end-to-end workloads, driven against the built CLI with
   every option at its default unless stated, tracing off.

   A batch workload repeats its command for the run's seconds and
   reports medians over the runs; serve-live is one open-loop session.
   Every run is checked (Checks), and a failed check fails its
   operation: one batch run, or one expected serve estimate. *)

type ctx = {
  exe : string;  (* the wanpoisson CLI *)
  work : string;  (* scratch directory for captured output *)
  seed : int;
  seconds : float;
  full : bool;  (* false: the smoke test's 1/100 scale *)
  deadline : float;  (* Unix time by which every child must be done *)
  log : string -> unit;
}

type result = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float) list;
  cli_cpu_s : float;  (* median CPU of one operation *)
  stdout : string;  (* the last operation's *)
}

type batch = {
  args : ctx -> string list;
  setup : string list;  (* the same command at its smallest input *)
  check : ctx -> string -> string list;
  single_process : bool;  (* its stderr "peak RSS" line covers the whole tree *)
}

type kind = Batch of batch | Serve

type t = { name : string; kind : kind }

let seed_arg ctx = [ "--seed"; string_of_int ctx.seed ]

let farm_events ctx = if ctx.full then 5e7 else 5e5
let stream_bins ctx = if ctx.full then 2_000_000 else 20_000
let netsim_packets ctx = if ctx.full then 1.2e7 else 1.2e5
let serve_replay_s ctx = if ctx.full then 0.75 *. ctx.seconds else 0.15
let small_paper_id = "x-pareto"

(* One worker process each for farm and netsim: two workers on two
   cores leave no core free, so a neighbour's load on either one
   stretches the wall time of the whole run. One worker still crosses
   the process and frame layers; stdout is the same at any --workers. *)
let farm_cmd events =
  [ "farm"; "--model"; "poisson"; "--events"; events; "--rate"; "1000"; "--bin"; "0.01";
    "--workers"; "1" ]
let stream_cmd bins = [ "stream"; "--model"; "onoff"; "--events"; bins; "--bin"; "0.01" ]

let netsim_cmd packets =
  [ "netsim"; "--model"; "onoff"; "--events"; packets; "--sources"; "1000"; "--replicas"; "8";
    "--discipline"; "red"; "--topology"; "tandem:2"; "--workers"; "1" ]

let all =
  [
    {
      name = "poisson-farm";
      kind =
        Batch
          {
            args = (fun ctx -> farm_cmd (Printf.sprintf "%g" (farm_events ctx)) @ seed_arg ctx);
            setup = farm_cmd "1e4";
            check = (fun ctx out -> Checks.farm ~events:(farm_events ctx) out);
            single_process = false;
          };
    };
    {
      name = "onoff-stream";
      kind =
        Batch
          {
            args = (fun ctx -> stream_cmd (string_of_int (stream_bins ctx)) @ seed_arg ctx);
            setup = stream_cmd "1e4";
            check = (fun ctx out -> Checks.stream ~bins:(stream_bins ctx) out);
            single_process = true;
          };
    };
    {
      name = "onoff-netsim";
      kind =
        Batch
          {
            args =
              (fun ctx -> netsim_cmd (Printf.sprintf "%g" (netsim_packets ctx)) @ seed_arg ctx);
            setup = netsim_cmd "1e4";
            check = (fun ctx out -> Checks.netsim ~packets:(netsim_packets ctx) out);
            single_process = false;
          };
    };
    {
      name = "serve-live";
      kind = Serve;
    };
    {
      name = "paper-repro";
      kind =
        Batch
          {
            args =
              (fun ctx ->
                [ "run"; (if ctx.full then "all" else small_paper_id); "--jobs"; "2" ]
                @ seed_arg ctx);
            setup = [ "list" ];
            check = (fun ctx out -> Checks.paper ~full:ctx.full out);
            single_process = false;
          };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let setup_runs = 15

let timeout ctx = Float.max 1. (ctx.deadline -. Unix.gettimeofday ())

(* Median wall time of [setup_runs] runs of the smallest input. *)
let setup ctx w args =
  let out = Filename.concat ctx.work (w.name ^ ".setup.out") in
  let err = Filename.concat ctx.work (w.name ^ ".setup.err") in
  let walls = ref [] and failed = ref 0 in
  for _ = 1 to setup_runs do
    let u = Proc.run ~timeout:(timeout ctx) ~out ~err ctx.exe args in
    walls := u.Proc.wall_s :: !walls;
    if u.Proc.code <> 0 then incr failed
  done;
  (Pct.median !walls, !failed)

let rss_problems ~name (u : Proc.usage) err =
  match Checks.stderr_rss_kb err with
  | None -> [ name ^ ": no peak RSS line on stderr" ]
  | Some _ when Proc.self_hwm_kb () >= u.maxrss_kb -> []  (* the figure is the harness's *)
  | Some kb ->
    let gap = Float.abs (float_of_int (u.maxrss_kb - kb)) /. float_of_int kb in
    if gap > 0.05 then
      [ Printf.sprintf "%s: wait4 max RSS %d kB vs stderr %d kB" name u.maxrss_kb kb ]
    else []

let pin_problems ctx ~name out =
  if ctx.full && ctx.seed = 42 && (name <> "serve-live" || serve_replay_s ctx = 15.) then
    Checks.pin ~workload:name out
  else []

(* Median and tail of latency samples, with the tail's percentile. *)
let latency_metrics samples =
  let a = Pct.sorted samples in
  let p = Pct.tail_percentile (Array.length a) in
  (Pct.percentile a 0.5, Pct.percentile a p, p)

let run_batch ctx w b ~budget ~with_setup =
  let setup_s, setup_failed =
    if with_setup then setup ctx w b.setup else (nan, 0)
  in
  let out = Filename.concat ctx.work (w.name ^ ".out") in
  let err = Filename.concat ctx.work (w.name ^ ".err") in
  let t0 = Unix.gettimeofday () in
  let ops = ref [] and failed = ref 0 and problems = ref [] and last = ref "" in
  let continue = ref true in
  while !continue do
    let u = Proc.run ~timeout:(timeout ctx) ~out ~err ctx.exe (b.args ctx) in
    let stdout = Proc.read_file out and stderr = Proc.read_file err in
    let ps =
      (if u.code <> 0 then [ Printf.sprintf "%s: exit %d" w.name u.code ] else [])
      @ b.check ctx stdout
      @ pin_problems ctx ~name:w.name stdout
      @ if b.single_process then rss_problems ~name:w.name u stderr else []
    in
    ctx.log
      (Printf.sprintf "%s run %d: wall %.3f s, cpu %.3f s, max RSS %.1f MB%s" w.name
         (List.length !ops + 1) u.wall_s u.cpu_s
         (float_of_int u.maxrss_kb /. 1024.)
         (if ps = [] then "" else ": " ^ String.concat "; " ps));
    if ps <> [] then incr failed;
    problems := !problems @ ps;
    ops := u :: !ops;
    last := stdout;
    let now = Unix.gettimeofday () in
    continue :=
      now -. t0 +. u.wall_s <= budget && now +. (2. *. u.wall_s) < ctx.deadline
  done;
  let ops = !ops in
  let p50, tail, p = latency_metrics (List.map (fun (u : Proc.usage) -> u.wall_s) ops) in
  let cpu = Pct.median (List.map (fun (u : Proc.usage) -> u.cpu_s) ops) in
  let rss = Pct.median (List.map (fun (u : Proc.usage) -> float_of_int u.maxrss_kb /. 1024.) ops) in
  ctx.log
    (Printf.sprintf
       "%s: %d runs; latency p50 %.4f s, tail (p%g) %.4f s; setup %.4f s; harness max RSS %.1f MB"
       w.name (List.length ops) p50 (100. *. p) tail setup_s
       (float_of_int (Proc.self_hwm_kb ()) /. 1024.));
  {
    attempted = List.length ops + (if with_setup then setup_runs else 0);
    failed = !failed + setup_failed;
    problems = !problems @ (if setup_failed > 0 then [ w.name ^ ": setup run failed" ] else []);
    metrics =
      [ ("lat_p50_s", p50); ("lat_tail_s", tail); ("cpu_s", cpu); ("peak_rss_mb", rss);
        ("setup_s", setup_s) ];
    cli_cpu_s = cpu;
    stdout = !last;
  }

(* A generator that ends further behind schedule than this has let a
   backlog grow: the offered load was not sustained. *)
let max_end_late_s = 1.

let run_serve ctx w ~with_setup =
  let setup_s, setup_failed =
    if with_setup then setup ctx w Serve_live.args else (nan, 0)
  in
  let err = Filename.concat ctx.work (w.name ^ ".err") in
  let s =
    Serve_live.session ~exe:ctx.exe ~seed:ctx.seed ~replay_s:(serve_replay_s ctx) ~err
      ~deadline_s:(timeout ctx)
  in
  let late = Pct.sorted (Array.to_list s.late) in
  let late_p99 = Pct.percentile late 0.99 and late_max = Pct.percentile late 1. in
  let ps =
    s.problems
    @ (if ctx.full && s.end_late_s > max_end_late_s then
         [ Printf.sprintf "serve-live: generator ended %.2f s behind schedule" s.end_late_s ]
       else [])
    @ pin_problems ctx ~name:w.name s.stdout
    @ rss_problems ~name:w.name s.usage (Proc.read_file err)
  in
  let p50, tail, p = latency_metrics (Array.to_list s.latencies) in
  let burst_lines, burst_drain = Serve_live.bursts s.arrivals in
  ctx.log
    (Printf.sprintf
       "serve-live: %d events sent, %d/%d estimates, %d drifts; latency p50 %.4f s, p%g %.4f s \
        (%d beyond); generator late p99 %.4f s, max %.4f s, at end %.4f s; bursts of %.0f \
        lines drained in %.3f s; serve wall %.2f s, cpu %.3f s, max RSS %.1f MB; setup %.4f s%s"
       s.sent s.received s.expected s.drifts p50 (100. *. p) tail
       (Pct.beyond ~n:(Array.length s.latencies) p)
       late_p99
       late_max s.end_late_s burst_lines burst_drain s.usage.wall_s s.usage.cpu_s
       (float_of_int s.usage.maxrss_kb /. 1024.)
       setup_s
       (if ps = [] then "" else ": " ^ String.concat "; " ps));
  let failed_estimates = if ps = [] then 0 else Int.max 1 (s.expected - s.received) in
  {
    attempted = Int.max 1 s.expected + (if with_setup then setup_runs else 0);
    failed = failed_estimates + setup_failed;
    problems = ps @ (if setup_failed > 0 then [ "serve-live: setup run failed" ] else []);
    metrics =
      [ ("lat_p50_s", p50); ("lat_tail_s", tail); ("cpu_s", s.usage.cpu_s);
        ("peak_rss_mb", float_of_int s.usage.maxrss_kb /. 1024.); ("setup_s", setup_s) ];
    cli_cpu_s = s.usage.cpu_s;
    stdout = s.stdout;
  }

(* [budget]: seconds a batch workload keeps starting runs for (at least
   one); serve-live's replay length follows [ctx.seconds] instead. *)
let run ?budget ctx w ~with_setup =
  let budget = Option.value budget ~default:ctx.seconds in
  match w.kind with
  | Batch b -> run_batch ctx w b ~budget ~with_setup
  | Serve -> run_serve ctx w ~with_setup
