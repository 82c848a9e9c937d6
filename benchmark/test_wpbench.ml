(* Unit tests for the benchmark's own arithmetic. *)

open Wpbench

let close = Alcotest.float 1e-12

(* ---------------- percentile rule ---------------- *)

let test_nearest_rank () =
  let a = Pct.sorted (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "p50 of 1..100" 50. (Pct.percentile a 0.5);
  Alcotest.check close "p99 of 1..100" 99. (Pct.percentile a 0.99);
  Alcotest.check close "p999 of 1..100" 100. (Pct.percentile a 0.999);
  Alcotest.(check int) "one sample beyond p99 of 100" 1 (Pct.beyond ~n:100 0.99)

let test_tail_choice () =
  let p = Pct.tail_percentile in
  (* ~11.7k serve estimates: p999 has 11 samples beyond it. *)
  Alcotest.check close "11700 -> p999" 0.999 (p 11700);
  Alcotest.check close "10000 -> p999 (exactly 10 beyond)" 0.999 (p 10000);
  Alcotest.check close "9999 -> p99" 0.99 (p 9999);
  Alcotest.check close "1000 -> p99" 0.99 (p 1000);
  Alcotest.check close "999 -> p90" 0.9 (p 999);
  Alcotest.check close "100 -> p90" 0.9 (p 100);
  Alcotest.check close "99 -> median" 0.5 (p 99);
  Alcotest.check close "15 batch runs -> median" 0.5 (p 15);
  Alcotest.check close "1 -> median" 0.5 (p 1)

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Pct.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  Alcotest.check close "median of even count" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ])

(* ---------------- serve upto -> due time ---------------- *)

let test_closing_due () =
  let bin = 0.01 in
  let t = Latency.create () in
  (* Events at trace times with their due wall times: bins 0, 0, 2, 5. *)
  List.iter
    (fun (time, due) -> Latency.record t ~idx:(Latency.bin_index ~bin time) ~due)
    [ (0.001, 10.); (0.009, 11.); (0.025, 12.); (0.05, 13.) ];
  Latency.finish t ~eof_due:14.;
  Alcotest.(check int) "bins up to the last event's" 6 (Latency.bins t);
  (* upto = U is closed by the first event in bin >= U. *)
  Alcotest.check close "upto 1 closed by the bin-2 event" 12. (Latency.closing_due t 1);
  Alcotest.check close "upto 2 closed by the bin-2 event" 12. (Latency.closing_due t 2);
  Alcotest.check close "upto 3 closed by the bin-5 event" 13. (Latency.closing_due t 3);
  Alcotest.check close "upto 5 closed by the bin-5 event" 13. (Latency.closing_due t 5);
  Alcotest.check close "upto 6: the trailing bin closes at end of input" 14.
    (Latency.closing_due t 6);
  Alcotest.(check bool) "upto 7 never closes" true (Float.is_nan (Latency.closing_due t 7))

let test_bin_index_matches_serve () =
  (* serve parses the rendered text; the due table uses the same float. *)
  let b = Bytes.create 64 in
  let us = 123_456_789 in
  let pos = Trace_gen.render b 0 us in
  let text = Bytes.sub_string b 0 (pos - 1) in
  Alcotest.(check string) "rendered" "123.456789" text;
  Alcotest.(check int) "bin of the parsed text"
    (int_of_float (float_of_string text /. 0.01))
    (Latency.bin_index ~bin:0.01 (Trace_gen.seconds us))

(* ---------------- self time from nested spans ---------------- *)

let test_self_time () =
  let r = Spans.create ~capacity:16 () in
  let set i ~t0 ~t1 =
    r.Spans.t0.(i) <- t0;
    r.Spans.t1.(i) <- t1
  in
  (* root [0, 10] holds a [1, 4] (which holds a' [2, 3]) and b [5, 9]. *)
  let root = Spans.enter r "root" in
  let a = Spans.enter r "a" in
  let a' = Spans.enter r "a" in
  Spans.leave r a' ~units:1.;
  Spans.leave r a ~units:2.;
  let b = Spans.enter r "b" in
  Spans.leave r b ~units:4.;
  Spans.leave r root ~units:0.;
  set root ~t0:0. ~t1:10.;
  set a ~t0:1. ~t1:4.;
  set a' ~t0:2. ~t1:3.;
  set b ~t0:5. ~t1:9.;
  let self, _ = Spans.self_times r in
  Alcotest.check close "root self" 3. self.(root);
  Alcotest.check close "outer a self" 2. self.(a);
  Alcotest.check close "inner a self" 1. self.(a');
  Alcotest.check close "b self" 4. self.(b);
  Alcotest.check close "self times add up to the root" 10. (Spans.total_self r);
  let tbl = Spans.aggregate r in
  let agg = Hashtbl.find tbl "a" in
  Alcotest.(check int) "a calls" 2 agg.Spans.calls;
  Alcotest.check close "a self summed" 3. agg.Spans.self_s;
  Alcotest.check close "a work summed" 3. agg.Spans.work

let test_full_recorder () =
  let r = Spans.create ~capacity:1 () in
  Alcotest.(check int) "value passes through" 7 (Spans.span r "x" (fun () -> (7, 1.)));
  Alcotest.(check int) "past capacity, value still passes" 8 (Spans.span r "y" (fun () -> (8, 1.)));
  Alcotest.(check int) "one span kept" 1 r.Spans.n;
  Alcotest.(check int) "one span dropped" 1 r.Spans.dropped

(* ---------------- process accounting ---------------- *)

let test_reap () =
  let out = "test_reap.out" in
  let u = Proc.run ~out ~err:out "/bin/sh" [ "-c"; "exit 3" ] in
  Alcotest.(check int) "exit status" 3 u.Proc.code;
  let t0 = Unix.gettimeofday () in
  let u = Proc.run ~timeout:1. ~out ~err:out "/bin/sleep" [ "30" ] in
  Alcotest.(check int) "killed by SIGKILL past its deadline" (-9) u.Proc.code;
  Alcotest.(check bool) "within a few seconds" true (Unix.gettimeofday () -. t0 < 5.);
  Sys.remove out

(* ---------------- metric names ---------------- *)

let test_benchmark_json () =
  let j =
    match Engine.Json.parse (Proc.read_file "../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let names key =
    match Engine.Json.member key j with
    | Some (Engine.Json.List l) ->
      List.filter_map (fun m -> Option.bind (Engine.Json.member "name" m) Engine.Json.to_str_opt) l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  Alcotest.(check (list string)) "end_to_end names" (List.map fst Metrics.end_to_end)
    (names "end_to_end");
  Alcotest.(check (list string))
    "per_layer names" (List.map fst Metrics.per_layer) (names "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (names "workloads");
  Alcotest.(check (list string)) "per-layer metrics the traced run computes"
    (List.map fst Metrics.per_layer)
    (List.map fst Layers.layer_metrics
    @ [ "trace.top_heap_mb"; "trace.overhead_frac"; "trace.residual_frac" ]
    @ List.map fst
        (Host.to_list
           { Host.sum_gbps_512k = 0.; copy_gbps_512k = 0.; sum_gbps_64m = 0.; copy_gbps_64m = 0. }))

let test_serve_lines () =
  let fs = Jsonl.fields {|{"type":"estimate","seq":3,"upto":192,"h":null,"rate":1000.5}|} in
  Alcotest.(check (option int))
    "upto" (Some 192)
    (Option.bind fs (fun fs -> Jsonl.int_field fs "upto"));
  Alcotest.(check bool)
    "truncated line rejected" true
    (Jsonl.fields {|{"type":"estimate","seq":3|} = None);
  Alcotest.(check bool) "bare word rejected" true (Jsonl.fields {|{"h":nope}|} = None);
  Alcotest.(check bool) "nan is not JSON" true (Jsonl.fields {|{"h":nan}|} = None)

let () =
  Alcotest.run "benchmark"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail needs 10 samples beyond" `Quick test_tail_choice;
          Alcotest.test_case "quartiles as Python's" `Quick test_quartiles;
        ] );
      ( "serve latency",
        [
          Alcotest.test_case "upto maps to the closing event's due time" `Quick test_closing_due;
          Alcotest.test_case "bin index matches serve's parse" `Quick test_bin_index_matches_serve;
          Alcotest.test_case "estimate lines parse strictly" `Quick test_serve_lines;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "a full recorder drops, never fails" `Quick test_full_recorder;
        ] );
      ("processes", [ Alcotest.test_case "exit status and deadline kill" `Quick test_reap ]);
      ("metrics", [ Alcotest.test_case "names match BENCHMARK.json" `Quick test_benchmark_json ]);
    ]
