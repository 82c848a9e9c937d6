(* The traced run: each workload re-driven in one process from the
   benchmark's own files.

   A composition builds its pipeline only from lower-layer public
   functions (Poisson_proc, Sink, Pyramid, Quantile_sketch, Frame,
   Onoff, Hurst.rs_sink, Superpose, Network, Window, Cusum,
   Pareto_count, and Registry.task / Task.run), with its own RNG keys,
   never the Core drivers' internals. It runs at the workload's scale
   and records a span around every call into a layer. The part that
   re-does the CLI's work is timed as [root_s], which the per-layer self
   times add up to; anything measured beside it (the serve replays, the
   fig15 seed) is recorded outside it. *)

module P = Timeseries.Pyramid
module QS = Stats.Quantile_sketch

type outcome = {
  root_s : float;  (* time of the CLI-equivalent part *)
  problems : string list;  (* failed agreement checks *)
  text : string;  (* paper: the concatenated reports *)
}

let sp r name units f = Spans.span r name (fun () -> (f (), units))

let ceil_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

let key seed a b = (seed * 1_000_003) + (a * 65_537) + b

(* Largest [k] values seen, in any order; the minimum's slot is
   rescanned only when it is replaced. *)
type topk = { arr : float array; mutable n : int; mutable imin : int }

let topk k = { arr = Array.make k neg_infinity; n = 0; imin = 0 }

let topk_offer t v =
  if t.n < Array.length t.arr then begin
    t.arr.(t.n) <- v;
    if v < t.arr.(t.imin) then t.imin <- t.n;
    t.n <- t.n + 1
  end
  else if v > t.arr.(t.imin) then begin
    t.arr.(t.imin) <- v;
    for i = 0 to t.n - 1 do
      if t.arr.(i) < t.arr.(t.imin) then t.imin <- i
    done
  end

let expect_poisson ~problem what ~expected got =
  if Float.abs (got -. expected) > 6. *. sqrt expected then
    problem (Printf.sprintf "%s: %.0f events, expected %.0f +- 6 sqrt" what got expected)

let frame_roundtrip r kind payload decode =
  let s =
    sp r "frame.encode" (float_of_int (String.length payload)) (fun () ->
        Engine.Frame.encode { Engine.Frame.kind; payload })
  in
  Spans.count r "frame.count" 1.;
  Spans.count r "frame.bytes" (float_of_int (String.length s));
  sp r "frame.decode" (float_of_int (String.length s)) (fun () ->
      match Engine.Frame.decode s 0 with
      | Ok (f, _) when f.Engine.Frame.kind = kind -> decode f.Engine.Frame.payload
      | Ok _ -> failwith "frame kind changed in transit"
      | Error e -> failwith (Engine.Frame.error_to_string e))

(* ---------------- poisson-farm ---------------- *)

let farm r ~seed ~events =
  let rate = 1000. and bin = 0.01 and chunk = 65536 and shards = 128 in
  let n_bins = Int.max 1 (int_of_float (Float.round (events /. rate /. bin))) in
  let gen_bins =
    Int.max 1 (int_of_float (Float.round (float_of_int chunk /. (rate *. bin))))
  in
  let macro = ceil_pow2 (Int.max gen_bins ((n_bins + shards - 1) / shards)) in
  let n_macro = (n_bins + macro - 1) / macro in
  let t0 = Unix.gettimeofday () in
  let merged = P.create () in
  let sketch = QS.create ~accuracy:0.01 () in
  let tops = topk 64 in
  let total = ref 0. in
  for i = 0 to n_macro - 1 do
    let lo = i * macro in
    let len = Int.min n_bins (lo + macro) - lo in
    let pyr = P.create () and sk = QS.create ~accuracy:0.01 () in
    let shard_tops = topk 64 in
    let events = ref 0. in
    let consume =
      Timeseries.Sink.make ~name:"shard"
        ~push:(fun counts ->
          let n = float_of_int (Array.length counts) in
          sp r "pyramid.push" n (fun () -> P.push pyr counts);
          sp r "sketch.add" n (fun () -> Array.iter (QS.add sk) counts);
          (* The farm's own tail sink and running total. *)
          sp r "farm.tail" n (fun () ->
              Array.iter
                (fun v ->
                  events := !events +. v;
                  topk_offer shard_tops v)
                counts))
        ~finish:(fun () -> ())
        ()
    in
    let sink =
      Timeseries.Sink.counts ~t_start:(float_of_int lo *. bin) ~bin ~n_bins:len ~chunk
        consume
    in
    let n_windows = (len + gen_bins - 1) / gen_bins in
    for j = 0 to n_windows - 1 do
      let wlo = lo + (j * gen_bins) in
      let whi = Int.min (lo + len) (wlo + gen_bins) in
      let rng = Prng.Rng.create (key seed i j) in
      let evs =
        Spans.span r "poisson_proc.generate" (fun () ->
            let e =
              Traffic.Poisson_proc.homogeneous ~rate
                ~duration:(float_of_int (whi - wlo) *. bin)
                rng
            in
            (e, float_of_int (Array.length e)))
      in
      let evs = Traffic.Arrival.shift (float_of_int wlo *. bin) evs in
      sp r "sink_counts.push" (float_of_int (Array.length evs)) (fun () ->
          Timeseries.Sink.push sink evs)
    done;
    sp r "sink_counts.finish" 0. (fun () -> Timeseries.Sink.finish sink);
    let snap = sp r "pyramid.snapshot" 1. (fun () -> P.snapshot pyr) in
    let snap_s = P.snapshot_to_string snap in
    Spans.count r "pyramid.snapshots" 1.;
    Spans.count r "pyramid.snapshot_bytes" (float_of_int (String.length snap_s));
    let sk_s = QS.to_string sk in
    Spans.count r "sketch.encoded" 1.;
    Spans.count r "sketch.bytes" (float_of_int (String.length sk_s));
    let tail =
      let b = Buffer.create 600 in
      Engine.Frame.Wr.i64 b (int_of_float !events);
      Engine.Frame.Wr.u32 b shard_tops.n;
      for k = 0 to shard_tops.n - 1 do
        Engine.Frame.Wr.f64 b shard_tops.arr.(k)
      done;
      Buffer.contents b
    in
    (* The coordinator's side: decode the three partials, merge in
       shard order. *)
    let snap =
      frame_roundtrip r 1 snap_s (fun p ->
          match P.snapshot_of_string p with Ok s -> s | Error e -> failwith e)
    in
    let shard_total, shard_tops =
      frame_roundtrip r 2 tail (fun p ->
          let c = Engine.Frame.Rd.of_string p in
          let ev = Engine.Frame.Rd.i64 c in
          let n = Engine.Frame.Rd.u32 c in
          (ev, Array.init n (fun _ -> Engine.Frame.Rd.f64 c)))
    in
    let sk =
      frame_roundtrip r 5 sk_s (fun p ->
          match QS.of_string p with Ok s -> s | Error e -> failwith e)
    in
    sp r "pyramid.merge" 1. (fun () -> P.merge_into merged snap);
    sp r "sketch.merge" 1. (fun () -> QS.merge_into sketch sk);
    total := !total +. float_of_int shard_total;
    Array.iter (topk_offer tops) shard_tops
  done;
  let h =
    sp r "readout" 1. (fun () ->
        let levels =
          let rec go m acc = if m > n_bins / 8 then List.rev acc else go (2 * m) (m :: acc) in
          go 1 []
        in
        let h = (Lrd.Hurst.variance_time_of_pyramid ~levels merged).Lrd.Hurst.h in
        ignore (try Some (Lrd.Wavelet.estimate_of_pyramid merged) with Invalid_argument _ -> None);
        ignore (QS.quantiles sketch [ 0.5; 0.9; 0.99; 0.999 ]);
        let t = Array.sub tops.arr 0 tops.n in
        Array.sort (fun a b -> Float.compare b a) t;
        let k = Array.length t - 1 in
        if k >= 8 && t.(k) > 0. then ignore (Stats.Fit.hill t ~k);
        h)
  in
  let root_s = Unix.gettimeofday () -. t0 in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  expect_poisson ~problem "composed farm" ~expected:(float_of_int n_bins *. rate *. bin) !total;
  if P.count merged <> n_bins then problem "composed farm: bin count differs from the plan";
  if not (h > 0.4 && h < 0.6) then problem (Printf.sprintf "composed farm: H = %g" h);
  { root_s; problems = !problems; text = "" }

(* ---------------- onoff-stream ---------------- *)

let stream r ~seed ~bins =
  let bin = 0.01 and rate = 1000. in
  let t0 = Unix.gettimeofday () in
  let levels = Timeseries.Counts.default_levels bins in
  let pyr = P.create ~levels () in
  let rs = Lrd.Hurst.rs_sink ~max_block:(Int.max 1 (Int.min 32768 (bins / 4))) () in
  let sk = QS.create ~accuracy:0.01 () in
  let total = ref 0. in
  let sources =
    List.init 16 (fun _ ->
        Traffic.Onoff.pareto_source ~beta:1.5 ~mean_period:(50. *. bin) ~on_rate:rate)
  in
  sp r "onoff.iter" (float_of_int bins) (fun () ->
      Traffic.Onoff.iter_chunks ~chunk:65536 ~sources ~dt:bin ~n:bins
        (Prng.Rng.create (key seed 1 0))
        (fun c ->
          let n = float_of_int (Array.length c) in
          sp r "pyramid.push" n (fun () -> P.push pyr c);
          sp r "rs_sink.push" n (fun () -> Timeseries.Sink.push rs c);
          sp r "sketch.add" n (fun () -> Array.iter (QS.add sk) c);
          total := Array.fold_left ( +. ) !total c));
  let h_vt, h_rs =
    sp r "readout" 1. (fun () ->
        let h_vt = (Lrd.Hurst.variance_time_of_pyramid ~levels pyr).Lrd.Hurst.h in
        let h_rs = (Timeseries.Sink.finish rs).Lrd.Hurst.h in
        ignore (try Some (Lrd.Wavelet.estimate_of_pyramid pyr) with Invalid_argument _ -> None);
        ignore (QS.quantiles sk [ 0.5; 0.9; 0.99; 0.999 ]);
        (h_vt, h_rs))
  in
  let root_s = Unix.gettimeofday () -. t0 in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  if P.count pyr <> bins then problem "composed stream: bin count differs";
  let expected = 8. *. rate *. bin *. float_of_int bins in
  if Float.abs (!total /. expected -. 1.) > Checks.onoff_events_tol ~bins then
    problem (Printf.sprintf "composed stream: %.0f events, expected about %.0f" !total expected);
  if not (h_vt > 0. && h_vt < 1.5 && h_rs > 0. && h_rs < 1.5) then
    problem (Printf.sprintf "composed stream: H(vt) %g, H(R/S) %g" h_vt h_rs);
  { root_s; problems = !problems; text = "" }

(* ---------------- onoff-netsim ---------------- *)

let netsim r ~seed ~packets =
  let replicas = 8 and n_sources = 1000 and on_rate = 4. and buffer = 64 in
  let lambda = float_of_int n_sources *. on_rate /. 2. in
  let service = 0.8 /. lambda in
  let horizon = packets /. float_of_int replicas /. lambda in
  let red =
    {
      Queueing.Network.min_th = 0.25 *. float_of_int buffer;
      max_th = 0.75 *. float_of_int buffer;
      max_p = 0.1;
      weight = 0.002;
    }
  in
  let t0 = Unix.gettimeofday () in
  let merged = Array.init 4 (fun _ -> QS.create ~accuracy:0.01 ()) in
  let total = ref 0 and util0 = ref 0. and offered0 = ref 0 in
  let served0 = ref 0 and dropped0 = ref 0 in
  for rep = 0 to replicas - 1 do
    let net =
      sp r "network.create" 1. (fun () ->
          Queueing.Network.create ~sketch_accuracy:0.01 ~seed:(key seed 2 rep)
            ~topology:(Queueing.Network.Tandem 2) ~discipline:(Queueing.Network.Red red)
            ~buffer ~services:[| service; service |] ())
    in
    let sources =
      List.init n_sources (fun _ ->
          Traffic.Onoff.pareto_source ~beta:1.5 ~mean_period:10. ~on_rate)
    in
    let n = ref 0 in
    Spans.span r "superpose.iter" (fun () ->
        Traffic.Superpose.iter ~chunk:65536 ~sources ~horizon
          (Prng.Rng.create (key seed 3 rep))
          (fun times srcs len ->
            sp r "network.push" (float_of_int len) (fun () ->
                Queueing.Network.push_chunk net ~times ~srcs ~pos:0 ~len);
            n := !n + len);
        ((), float_of_int !n));
    let links = sp r "network.finish" 0. (fun () -> Queueing.Network.finish net) in
    (* Ship the replica partial as the netsim workers do: counts plus
       one sketch per link and class. *)
    let payload =
      let b = Buffer.create 4096 in
      Engine.Frame.Wr.i64 b !n;
      Array.iter
        (fun (l : Queueing.Network.link_stats) ->
          Engine.Frame.Wr.f64 b l.utilization;
          Array.iter
            (fun (c : Queueing.Network.class_stats) ->
              Engine.Frame.Wr.i64 b c.served;
              Engine.Frame.Wr.i64 b c.dropped;
              let s = QS.to_string c.sketch in
              Spans.count r "sketch.encoded" 1.;
              Spans.count r "sketch.bytes" (float_of_int (String.length s));
              Engine.Frame.Wr.str b s)
            l.classes)
        links;
      Buffer.contents b
    in
    let n_links = Array.length links in
    let got, parts =
      frame_roundtrip r 6 payload (fun p ->
          let c = Engine.Frame.Rd.of_string p in
          let got = Engine.Frame.Rd.i64 c in
          let parts =
            Array.init n_links (fun _ ->
                let util = Engine.Frame.Rd.f64 c in
                let cls =
                  Array.init 2 (fun _ ->
                      let served = Engine.Frame.Rd.i64 c in
                      let dropped = Engine.Frame.Rd.i64 c in
                      match QS.of_string (Engine.Frame.Rd.str c) with
                      | Ok s -> (served, dropped, s)
                      | Error e -> failwith e)
                in
                (util, cls))
          in
          (got, parts))
    in
    total := !total + got;
    Array.iteri
      (fun li (util, cls) ->
        if li = 0 then util0 := !util0 +. util;
        Array.iteri
          (fun ci (served, dropped, s) ->
            if li = 0 then begin
              offered0 := !offered0 + served + dropped;
              served0 := !served0 + served;
              dropped0 := !dropped0 + dropped
            end;
            sp r "sketch.merge" 1. (fun () -> QS.merge_into merged.((2 * li) + ci) s))
          cls)
      parts
  done;
  sp r "readout" 1. (fun () ->
      Array.iter (fun s -> ignore (QS.quantiles s [ 0.5; 0.99; 0.999 ])) merged);
  let root_s = Unix.gettimeofday () -. t0 in
  Spans.count r "network.served0" (float_of_int !served0);
  Spans.count r "network.dropped0" (float_of_int !dropped0);
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let util = !util0 /. float_of_int replicas in
  if !offered0 <> !total then problem "composed netsim: link 0 served + dropped <> packets";
  (match Checks.util_tol ~packets with
  | Some tol when Float.abs (util -. 0.8) > tol ->
    problem (Printf.sprintf "composed netsim: link 0 utilisation %g" util)
  | _ -> ());
  if Float.abs ((float_of_int !total /. packets) -. 1.) > Checks.netsim_packets_tol ~packets
  then problem (Printf.sprintf "composed netsim: %d packets for %g" !total packets);
  { root_s; problems = !problems; text = "" }

(* ---------------- serve-live ---------------- *)

let with_stdin fd f =
  let saved = Unix.dup ~cloexec:true Unix.stdin in
  Unix.dup2 ~cloexec:false fd Unix.stdin;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 ~cloexec:false saved Unix.stdin;
      Unix.close saved)
    f

let serve r ~self ~seed ~replay_s =
  let spec = { Core.Serve.default with Core.Serve.source = "stdin"; bin = Serve_live.bin } in
  (* In-process Serve.run on the same trace, fed through stdin by a
     child that renders it as fast as serve reads. *)
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Proc.spawn self
      [ "--emit-trace"; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%.17g" replay_s ]
      ~stdin:Unix.stdin ~stdout:wr ~stderr:Unix.stderr
  in
  Unix.close wr;
  let out = Buffer.create (1 lsl 20) in
  let fmt = Format.formatter_of_buffer out in
  let t0 = Unix.gettimeofday () in
  let summary =
    Fun.protect
      ~finally:(fun () -> Unix.close rd)
      (fun () ->
        with_stdin rd (fun () ->
            Spans.span r "serve.run" (fun () ->
                let s = Core.Serve.run ~fmt spec in
                (s, s.Core.Serve.total))))
  in
  let root_s = Unix.gettimeofday () -. t0 in
  let code, _, _ = Proc.reap ~timeout:60. pid in
  (* Attribution: replay the same bins through Window and the three
     CUSUM monitors, in serve's 65536-bin buffers. *)
  let counts, n_events = Serve_live.counts ~seed ~replay_s in
  let pending = ref [] and estimates = ref 0 in
  let d = Core.Serve.default in
  let win =
    Core.Streaming.Window.create ~kind:Core.Streaming.Window.Sliding ~window:d.Core.Serve.window
      ~cadence:d.Core.Serve.cadence ~top_k:d.Core.Serve.top_k ~bin:Serve_live.bin
      ~emit:(fun e -> pending := e :: !pending)
      ()
  in
  let mon drift threshold = Stats.Cusum.create ~drift ~threshold ~warmup:d.Core.Serve.warmup () in
  let m_h = mon d.Core.Serve.h_drift d.Core.Serve.h_threshold
  and m_rate = mon d.Core.Serve.rate_drift d.Core.Serve.rate_threshold
  and m_alpha = mon d.Core.Serve.alpha_drift d.Core.Serve.alpha_threshold in
  let watch m v =
    match Stats.Cusum.observe m v with Some _ -> Stats.Cusum.recalibrate m | None -> ()
  in
  let n = Array.length counts in
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min 65536 (n - !pos) in
    sp r "window.push" (float_of_int len) (fun () ->
        Core.Streaming.Window.push_slice win counts !pos len);
    let es = List.rev !pending in
    pending := [];
    estimates := !estimates + List.length es;
    sp r "cusum.observe" (float_of_int (3 * List.length es)) (fun () ->
        List.iter
          (fun (e : Core.Streaming.Window.estimate) ->
            watch m_h e.h.Lrd.Hurst.h;
            watch m_rate (if e.rate > 0. then Float.log2 e.rate else nan);
            watch m_alpha e.alpha)
          es);
    pos := !pos + len
  done;
  Spans.count r "window.estimates" (float_of_int !estimates);
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  if code <> 0 then problem "trace emitter failed";
  if summary.Core.Serve.bins <> n then
    problem (Printf.sprintf "composed serve: %d bins, trace has %d" summary.Core.Serve.bins n);
  if int_of_float summary.Core.Serve.total <> n_events then
    problem "composed serve: event count differs";
  if summary.Core.Serve.estimates <> !estimates || !estimates <> n / Serve_live.cadence then
    problem "composed serve: estimate count differs from the replay";
  { root_s; problems = !problems; text = Buffer.contents out }

(* ---------------- paper-repro ---------------- *)

(* [ids = None]: the whole registry, as [run all] does. *)
let paper r ~seed ~ids =
  Core.Cache.clear ();
  let entries =
    match ids with
    | None -> Core.Registry.all
    | Some ids -> List.filter (fun (e : Core.Registry.entry) -> List.mem e.id ids) Core.Registry.all
  in
  let b = Buffer.create (1 lsl 16) in
  let problems = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (e : Core.Registry.entry) ->
      match
        sp r ("registry." ^ e.id) 1. (fun () ->
            Engine.Task.run ~seed (Core.Registry.task e))
      with
      | a -> Buffer.add_string b a.Engine.Artifact.text
      | exception ex -> problems := (e.id ^ ": " ^ Printexc.to_string ex) :: !problems)
    entries;
  let root_s = Unix.gettimeofday () -. t0 in
  (* One fig15 seed, beside the registry: the critical path's kernel. *)
  let bin = if ids = None then 1e6 else 1e3 in
  Spans.span r "pareto_count.count" (fun () ->
      let c =
        Lrd.Pareto_count.count_process ~beta:1.0 ~a:1.0 ~bin ~bins:1000 (Prng.Rng.create 1000)
      in
      ((), Array.fold_left ( +. ) 0. c));
  { root_s; problems = List.rev !problems; text = Buffer.contents b }

(* ---------------- kernels ---------------- *)

(* The RNG floor: bulk uniform draws into an unboxed array. *)
let rng_kernel r =
  let a = Array.make 65536 0. in
  let g = Prng.Rng.create 7 in
  for _ = 1 to 16 do
    sp r "rng.fill_float" 65536. (fun () -> Prng.Rng.fill_float g a 0 65536)
  done
