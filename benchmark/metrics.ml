(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names; the test suite checks the two agree. *)

let end_to_end =
  [
    ("lat_p50_s", "s");
    ("lat_tail_s", "s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("rng.ns_per_draw", "ns");
    ("poisson_proc.ns_per_event", "ns");
    ("poisson_proc.words_per_event", "words");
    ("sink_counts.ns_per_event", "ns");
    ("pyramid.push_ns_per_bin", "ns");
    ("pyramid.push_words_per_bin", "words");
    ("pyramid.snapshot_bytes", "bytes");
    ("pyramid.merge_ns", "ns");
    ("onoff.ns_per_bin", "ns");
    ("rs_sink.ns_per_bin", "ns");
    ("readout.ms", "ms");
    ("sketch.add_ns_per_value", "ns");
    ("sketch.merge_ns", "ns");
    ("sketch.bytes", "bytes");
    ("frame.count", "count");
    ("frame.bytes", "bytes");
    ("frame.ns_per_byte", "ns");
    ("superpose.ns_per_arrival", "ns");
    ("superpose.words_per_arrival", "words");
    ("network.ns_per_packet", "ns");
    ("network.words_per_packet", "words");
    ("network.served_frac", "ratio");
    ("network.create_ms", "ms");
    ("serve.ingest_ns_per_event", "ns");
    ("window.ns_per_bin", "ns");
    ("window.ns_per_estimate", "ns");
    ("window.words_per_bin", "words");
    ("cusum.ns_per_observe", "ns");
    ("pareto_count.ns_per_arrival", "ns");
    ("registry.sum_s", "s");
    ("registry.slowest_s", "s");
    ("trace.top_heap_mb", "MB");
    ("trace.overhead_frac", "ratio");
    ("trace.residual_frac", "ratio");
    ("host.sum_gbps_512k", "GB/s");
    ("host.copy_gbps_512k", "GB/s");
    ("host.sum_gbps_64m", "GB/s");
    ("host.copy_gbps_64m", "GB/s");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> Option.value ~default:"" (List.assoc_opt name per_layer)

(* The benchmark's one line of result: the last line of stdout. *)
let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name v (unit_of name))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
