(* The repository benchmark. See benchmark/README.md.

     run.exe --workload NAME --seed S --seconds T --trace 0|1
     run.exe --smoke
     run.exe --set N --seconds T --out FILE
     run.exe --compare A.json B.json

   The last line of a --workload run's stdout is its result: one JSON
   object with [correct], [attempted], [failed] and [metrics]. *)

module W = Wpbench

let usage = "run.exe (--workload NAME --seed S --seconds T --trace 0|1 | --smoke | --set N \
             --seconds T --out FILE | --compare A B)"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 2) fmt

(* The CLI this executable was built beside (benchmark/dune makes it a
   build dependency). *)
let cli () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) Cli_path.relative
  in
  if not (Sys.file_exists exe) then fail "no CLI at %s" exe;
  exe

let work () =
  let dir = ".bench" in
  W.Proc.mkdir_p dir;
  dir

let started = Unix.gettimeofday ()

(* Every run ends within 180 s; children are killed past this. *)
let deadline = started +. 170.

let log s = prerr_endline s

let print_result ~attempted ~failed ~problems metrics =
  List.iter (fun p -> prerr_endline ("benchmark: FAILED " ^ p)) problems;
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  let metrics = List.map (fun (k, v) -> (k, if Float.is_finite v then v else -1.)) metrics in
  let failed = if bad <> [] then Int.max failed 1 else failed in
  let correct = failed = 0 && problems = [] && bad = [] in
  print_endline (W.Metrics.result_line ~correct ~attempted:(Int.max 1 attempted) ~failed metrics)

let workload_run ~name ~seed ~seconds ~trace =
  let w = match W.Workloads.find name with Some w -> w | None -> fail "unknown workload %S" name in
  let ctx =
    { W.Workloads.exe = cli (); work = work (); seed; seconds; full = true; deadline; log }
  in
  if trace then begin
    let r = W.Layers.run ~self:Sys.executable_name ctx w in
    let write file s =
      let oc = open_out (Filename.concat ctx.work file) in
      output_string oc s;
      close_out oc
    in
    write ("trace-" ^ name ^ ".json") r.chrome;
    write ("layers-" ^ name ^ ".txt") r.table;
    print_result ~attempted:r.attempted ~failed:r.failed ~problems:r.problems r.metrics
  end
  else begin
    let r = W.Workloads.run ctx w ~with_setup:true in
    print_result ~attempted:r.attempted ~failed:r.failed ~problems:r.problems r.metrics
  end

(* Every workload at 1/100 scale with every check on, then a small
   traced run; exit 0 only when all of it is correct. *)
let smoke () =
  let logged = Buffer.create 4096 in
  let log s = Buffer.add_string logged (s ^ "\n") in
  let ctx =
    {
      W.Workloads.exe = cli ();
      work = work ();
      seed = 42;
      seconds = 0.;
      full = false;
      deadline;
      log;
    }
  in
  let problems =
    List.concat_map
      (fun w -> (W.Workloads.run ctx w ~with_setup:true).W.Workloads.problems)
      W.Workloads.all
  in
  let traced =
    match W.Workloads.find "serve-live" with
    | Some w -> (W.Layers.run ~self:Sys.executable_name ctx w).W.Layers.problems
    | None -> [ "no serve-live workload" ]
  in
  match problems @ traced with
  | [] -> prerr_endline "benchmark smoke: all workloads correct"
  | ps ->
    prerr_string (Buffer.contents logged);
    List.iter (fun p -> prerr_endline ("benchmark smoke: FAILED " ^ p)) ps;
    exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let smoke_ = ref false and emit = ref false and set = ref 0 and out = ref "" in
  let compare = ref false and files = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "S input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "T how long a run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--smoke", Arg.Set smoke_, " every workload at 1/100 scale with all checks, then exit");
      ("--set", Arg.Set_int set, "N run every workload at seeds 1..N");
      ("--out", Arg.Set_string out, "FILE where --set writes its runs");
      ("--compare", Arg.Set compare, " A B: compare two --set files");
      ("--emit-trace", Arg.Set emit, " write the serve-live trace for --seed/--seconds to stdout");
    ]
  in
  Arg.parse specs (fun a -> files := !files @ [ a ]) usage;
  if !files <> [] && not !compare then fail "%s" usage;
  if !emit then W.Serve_live.emit ~seed:!seed ~replay_s:!seconds stdout
  else if !smoke_ then smoke ()
  else if !set > 0 then begin
    if !out = "" then fail "--set needs --out FILE";
    let s =
      W.Sets.run ~self:Sys.executable_name ~work:(work ()) ~runs:!set ~seconds:!seconds ~out:!out
    in
    print_string (W.Sets.summary s)
  end
  else if !compare then begin
    let load f =
      match Engine.Json.parse (W.Proc.read_file f) with Ok j -> j | Error e -> fail "%s: %s" f e
    in
    match !files with
    | [ a; b ] ->
      let table, regressions = W.Sets.compare ~bench:(load "BENCHMARK.json") (load a) (load b) in
      print_string (W.Sets.summary (load a));
      print_string (W.Sets.summary (load b));
      print_string table;
      if regressions > 0 then exit 1
    | _ -> fail "%s" usage
  end
  else if !workload <> "" then
    workload_run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  else fail "%s" usage
