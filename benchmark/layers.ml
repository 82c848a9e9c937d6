(* The traced run's per-layer metrics.

   Every workload reports every per-layer metric. A layer its own
   composition runs is measured there, at the workload's scale; a layer
   it does not run is measured in the other compositions, run beside it
   at the smoke test's 1/100 scale (and the RNG floor in its own
   kernel). So on poisson-farm, [network.ns_per_packet] comes from a
   small netsim composition, while [pyramid.push_ns_per_bin] comes from
   the farm's own cascade. *)

let per_unit ?(scale = 1e9) ?(words = false) span _r tbl =
  match Hashtbl.find_opt tbl span with
  | Some (a : Spans.agg) when a.work > 0. ->
    Some ((if words then a.self_words else a.self_s) *. scale /. a.work)
  | _ -> None

let per_call ~scale span _r tbl =
  match Hashtbl.find_opt tbl span with
  | Some (a : Spans.agg) when a.calls > 0 -> Some (a.self_s *. scale /. float_of_int a.calls)
  | _ -> None

let ratio_of_counters num den r _tbl =
  let d = Spans.counter r den in
  if d > 0. then Some (Spans.counter r num /. d) else None

let counter name r _tbl =
  let v = Spans.counter r name in
  if v > 0. then Some v else None

let self_of tbl span =
  match Hashtbl.find_opt tbl span with Some (a : Spans.agg) -> a.self_s | None -> 0.

let registry_spans tbl =
  Hashtbl.fold
    (fun name (a : Spans.agg) acc ->
      if String.length name > 9 && String.sub name 0 9 = "registry." then
        (String.sub name 9 (String.length name - 9), a.total_s) :: acc
      else acc)
    tbl []

(* Layer metrics read from a composition's spans; [None] when the
   composition does not run that layer. *)
let layer_metrics =
  [
    ("rng.ns_per_draw", per_unit "rng.fill_float");
    ("poisson_proc.ns_per_event", per_unit "poisson_proc.generate");
    ("poisson_proc.words_per_event", per_unit ~scale:1. ~words:true "poisson_proc.generate");
    ("sink_counts.ns_per_event", per_unit "sink_counts.push");
    ("pyramid.push_ns_per_bin", per_unit "pyramid.push");
    ("pyramid.push_words_per_bin", per_unit ~scale:1. ~words:true "pyramid.push");
    ("pyramid.snapshot_bytes", ratio_of_counters "pyramid.snapshot_bytes" "pyramid.snapshots");
    ("pyramid.merge_ns", per_call ~scale:1e9 "pyramid.merge");
    ("onoff.ns_per_bin", per_unit "onoff.iter");
    ("rs_sink.ns_per_bin", per_unit "rs_sink.push");
    ( "readout.ms",
      fun _r tbl ->
        Option.map (fun (a : Spans.agg) -> a.total_s *. 1e3) (Hashtbl.find_opt tbl "readout") );
    ("sketch.add_ns_per_value", per_unit "sketch.add");
    ("sketch.merge_ns", per_call ~scale:1e9 "sketch.merge");
    ("sketch.bytes", ratio_of_counters "sketch.bytes" "sketch.encoded");
    ("frame.count", counter "frame.count");
    ("frame.bytes", counter "frame.bytes");
    ( "frame.ns_per_byte",
      fun r tbl ->
        let b = Spans.counter r "frame.bytes" in
        if b > 0. then Some ((self_of tbl "frame.encode" +. self_of tbl "frame.decode") *. 1e9 /. b)
        else None );
    ("superpose.ns_per_arrival", per_unit "superpose.iter");
    ("superpose.words_per_arrival", per_unit ~scale:1. ~words:true "superpose.iter");
    ("network.ns_per_packet", per_unit "network.push");
    ("network.words_per_packet", per_unit ~scale:1. ~words:true "network.push");
    ( "network.served_frac",
      fun r _tbl ->
        let s = Spans.counter r "network.served0" and d = Spans.counter r "network.dropped0" in
        if s +. d > 0. then Some (s /. (s +. d)) else None );
    ("network.create_ms", per_call ~scale:1e3 "network.create");
    ( "serve.ingest_ns_per_event",
      (* Serve.run minus its Window and CUSUM work, replayed alone. *)
      fun _r tbl ->
        match Hashtbl.find_opt tbl "serve.run" with
        | Some (a : Spans.agg) when a.work > 0. ->
          Some
            ((a.self_s -. self_of tbl "window.push" -. self_of tbl "cusum.observe")
            *. 1e9 /. a.work)
        | _ -> None );
    ("window.ns_per_bin", per_unit "window.push");
    ( "window.ns_per_estimate",
      fun r tbl ->
        let n = Spans.counter r "window.estimates" in
        if n > 0. then Some (self_of tbl "window.push" *. 1e9 /. n) else None );
    ("window.words_per_bin", per_unit ~scale:1. ~words:true "window.push");
    ("cusum.ns_per_observe", per_unit "cusum.observe");
    ("pareto_count.ns_per_arrival", per_unit "pareto_count.count");
    ( "registry.sum_s",
      fun _r tbl ->
        match registry_spans tbl with
        | [] -> None
        | l -> Some (List.fold_left (fun acc (_, s) -> acc +. s) 0. l) );
    ( "registry.slowest_s",
      fun _r tbl ->
        match registry_spans tbl with
        | [] -> None
        | l -> Some (List.fold_left (fun acc (_, s) -> Float.max acc s) 0. l) );
  ]

(* Bytes a per-bin (or per-event) layer reads per unit of work: one
   float. Its ceiling is that many bytes at the in-cache sum rate. *)
let per_bin_layers =
  [ "sink_counts.ns_per_event"; "pyramid.push_ns_per_bin"; "onoff.ns_per_bin"; "rs_sink.ns_per_bin";
    "sketch.add_ns_per_value"; "window.ns_per_bin" ]

let pct_of_ceiling (host : Host.t) ns = 8. /. host.sum_gbps_512k /. ns *. 100.

type recorded = {
  label : string;  (* workload name, "(small)" when run beside *)
  rec_ : Spans.t;
  tbl : (string, Spans.agg) Hashtbl.t;
}

let recorded label rec_ = { label; rec_; tbl = Spans.aggregate rec_ }

(* A composition that raises (a layer rejecting its own output, say)
   is a failed check, not a crash of the benchmark. *)
let compose ~self ~seed (ctx : Workloads.ctx) name r =
  match
    match name with
    | "poisson-farm" -> Traced.farm r ~seed ~events:(Workloads.farm_events ctx)
    | "onoff-stream" -> Traced.stream r ~seed ~bins:(Workloads.stream_bins ctx)
    | "onoff-netsim" -> Traced.netsim r ~seed ~packets:(Workloads.netsim_packets ctx)
    | "serve-live" -> Traced.serve r ~self ~seed ~replay_s:(Workloads.serve_replay_s ctx)
    | _ -> Traced.paper r ~seed ~ids:(if ctx.full then None else Some [ Workloads.small_paper_id ])
  with
  | o -> o
  | exception e ->
    let problem = "composed " ^ name ^ ": " ^ Printexc.to_string e in
    { Traced.root_s = nan; problems = [ problem ]; text = "" }

type report = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float) list;
  table : string;
  chrome : string;
}

let run ~self (ctx : Workloads.ctx) (w : Workloads.t) =
  let log = ctx.log in
  (* The CLI's own cost at this seed, what the composition must add up
     to: measured just before and just after it, so a host that drifts
     in between moves both sides alike. *)
  let cli_run () = Workloads.run ~budget:(ctx.seconds /. 8.) ctx w ~with_setup:false in
  let before = cli_run () in
  let rec_ = Spans.create () in
  let on = compose ~self ~seed:ctx.seed ctx w.name rec_ in
  let after = cli_run () in
  let cli_cpu_s = (before.cli_cpu_s +. after.cli_cpu_s) /. 2. in
  let small_ctx = { ctx with full = false } in
  let others =
    List.filter_map
      (fun (o : Workloads.t) ->
        if o.name = w.name then None
        else begin
          let r = Spans.create ~capacity:4096 () in
          let outcome = compose ~self ~seed:ctx.seed small_ctx o.name r in
          Some (recorded (o.name ^ " (small)") r, outcome)
        end)
      Workloads.all
  in
  let kernels = Spans.create ~capacity:64 () in
  Traced.rng_kernel kernels;
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let host = Host.measure () in
  let own_r = recorded w.name rec_ in
  let recs = (own_r :: List.map fst others) @ [ recorded "kernels" kernels ] in
  let lookup f = List.find_map (fun c -> f c.rec_ c.tbl) recs in
  let missing = ref [] in
  let layer =
    List.map
      (fun (name, f) ->
        match lookup f with
        | Some v -> (name, v)
        | None ->
          missing := name :: !missing;
          (name, nan))
      layer_metrics
  in
  let residual = Float.abs (1. -. (on.Traced.root_s /. cli_cpu_s)) in
  let overhead = float_of_int rec_.Spans.n *. Spans.cost_per_span () /. on.Traced.root_s in
  let metrics =
    layer
    @ [ ("trace.top_heap_mb", top_heap_mb); ("trace.overhead_frac", overhead);
        ("trace.residual_frac", residual) ]
    @ Host.to_list host
  in
  (* Agreement between the composition and the CLI run. *)
  let agree =
    match w.name with
    | "paper-repro" | "serve-live" when on.Traced.text <> after.stdout ->
      [ w.name ^ ": composed output differs from the CLI's" ]
    | _ -> []
  in
  let composed =
    on.Traced.problems
    @ List.concat_map (fun (_, o) -> o.Traced.problems) others
    @ agree
    @ List.rev_map (fun m -> "no measurement for " ^ m) !missing
  in
  (* The per-layer table: self time by span, per composition. *)
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "traced %s, seed %d: CLI cpu %.3f s (median %.3f s before, %.3f s after); composition %.3f s\n"
    w.name ctx.seed cli_cpu_s before.cli_cpu_s after.cli_cpu_s on.Traced.root_s;
  Printf.bprintf b "residual %.1f%% of CLI cpu, tracing overhead %+.1f%%, top heap %.1f MB\n\n"
    (100. *. residual) (100. *. overhead) top_heap_mb;
  List.iter
    (fun c ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.tbl [] in
      let rows =
        List.sort (fun (_, (a : Spans.agg)) (_, b) -> Float.compare b.self_s a.self_s) rows
      in
      let total = Spans.total_self c.rec_ in
      Printf.bprintf b "%s (%d spans, %d dropped)\n  %-28s %7s %10s %9s %14s %12s\n" c.label
        c.rec_.Spans.n c.rec_.Spans.dropped "span"
        "calls" "self s" "share" "work" "words/unit";
      List.iter
        (fun (k, (a : Spans.agg)) ->
          Printf.bprintf b "  %-28s %7d %10.4f %8.1f%% %14.0f %12.3f\n" k a.calls a.self_s
            (100. *. a.self_s /. total) a.work
            (if a.work > 0. then a.self_words /. a.work else nan))
        rows;
      Buffer.add_char b '\n')
    recs;
  Printf.bprintf b
    "per-bin layers against the in-cache sum ceiling (%.2f GB/s = %.3f ns per float):\n"
    host.sum_gbps_512k (8. /. host.sum_gbps_512k);
  List.iter
    (fun m ->
      let v = List.assoc m metrics in
      Printf.bprintf b "  %-28s %9.3f ns  %5.1f%% of ceiling\n" m v (pct_of_ceiling host v))
    per_bin_layers;
  (match registry_spans own_r.tbl with
  | [] -> ()
  | l ->
    Printf.bprintf b "\nslowest registry entries:\n";
    List.iteri
      (fun i (id, s) -> if i < 8 then Printf.bprintf b "  %-16s %8.3f s\n" id s)
      (List.sort (fun (_, a) (_, b) -> Float.compare b a) l));
  let chrome = Buffer.create (1 lsl 16) in
  List.iteri (fun i c -> Spans.chrome_events ~pid:(i + 1) c.rec_ chrome) recs;
  log (Buffer.contents b);
  {
    attempted = before.attempted + after.attempted + 1 + List.length others;
    failed = before.failed + after.failed + (if composed = [] then 0 else 1);
    problems = before.problems @ after.problems @ composed;
    metrics;
    table = Buffer.contents b;
    chrome = "{\"traceEvents\":[\n" ^ Buffer.contents chrome ^ "\n]}\n";
  }
