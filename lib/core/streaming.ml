type spec = {
  model : string;
  events : float;
  rate : float;
  bin : float;
  beta : float;
  chunk : int;
  seed : int;
  materialized : bool;
  wavelet : bool;
}

let default =
  {
    model = "poisson";
    events = 1e6;
    rate = 1000.;
    bin = 1.;
    beta = 1.5;
    chunk = 65536;
    seed = 42;
    materialized = false;
    wavelet = true;
  }

type result = {
  bins : int;
  total : float;  (* events actually counted *)
  mean : float;
  h_vt : Lrd.Hurst.estimate;
  h_rs : Lrd.Hurst.estimate;
  h_wav : Lrd.Wavelet.estimate option;
      (* [None] when disabled by the spec or too few bins/octaves *)
  count_sketch : Stats.Quantile_sketch.t;
      (* per-bin count quantiles; identical on both analysis paths *)
  chunks : int;  (* chunks pushed through the pyramid *)
  levels : int;  (* dyadic cascade depth *)
  resident : int;  (* peak floats resident in the pyramid *)
}

(* Same accuracy as the farm's per-bin sketches, so the count-q report
   lines are directly comparable across drivers. *)
let sketch_accuracy = 0.01

let rs_max_block n_bins = Int.max 1 (Int.min 32768 (n_bins / 4))

(* Shared read-out: the analysis sinks every model's count chunks feed.
   Registering [default_levels n_bins] up front makes every variance-time
   level exact, so the streamed estimate equals the materialized one. *)
let analysis_sinks n_bins =
  let levels = Timeseries.Counts.default_levels n_bins in
  let pyr = Timeseries.Pyramid.create ~levels () in
  let rs = Lrd.Hurst.rs_sink ~max_block:(rs_max_block n_bins) () in
  let total =
    Timeseries.Sink.fold ~init:0. ~f:(fun acc c ->
        Array.fold_left ( +. ) acc c)
  in
  let sketch = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy () in
  let sketch_sink =
    Timeseries.Sink.make ~name:"count-sketch"
      ~push:(Array.iter (Stats.Quantile_sketch.add sketch))
      ~finish:(fun () -> sketch)
      ()
  in
  let sink =
    Timeseries.Sink.tee (Timeseries.Sink.of_pyramid pyr)
      (Timeseries.Sink.tee rs (Timeseries.Sink.tee total sketch_sink))
  in
  (levels, sink)

let wavelet_of_pyramid pyr =
  match Lrd.Wavelet.estimate_of_pyramid pyr with
  | e -> Some e
  | exception Invalid_argument _ -> None

let result_of ~wavelet ~levels ~n_bins (pyr, (h_rs, (total, sketch))) =
  {
    bins = n_bins;
    total;
    mean = Timeseries.Pyramid.mean pyr;
    h_vt = Lrd.Hurst.variance_time_of_pyramid ~levels pyr;
    h_rs;
    h_wav = (if wavelet then wavelet_of_pyramid pyr else None);
    count_sketch = sketch;
    chunks = Timeseries.Pyramid.chunks pyr;
    levels = Timeseries.Pyramid.depth pyr;
    resident = Timeseries.Pyramid.resident_floats pyr;
  }

(* Poisson: independent per-shard event streams on bin-aligned windows,
   generated one after another and folded into the counting sink in
   shard order. Every shard draws from [Task.derive_rng ~seed "stream#c"],
   so the sample path depends only on (seed, rate, bin, chunk, bins).
   Shards are sized to hold ~[chunk] expected events each, so O(chunk)
   floats are in flight whatever the event density. *)
let poisson_shards ~seed ~rate ~bin ~chunk ~n_bins f =
  let shard_bins =
    Int.max 1 (int_of_float (Float.round (float_of_int chunk /. (rate *. bin))))
  in
  for c = 0 to ((n_bins + shard_bins - 1) / shard_bins) - 1 do
    let lo_bin = c * shard_bins in
    let hi_bin = Int.min n_bins (lo_bin + shard_bins) in
    let rng = Engine.Task.derive_rng ~seed (Printf.sprintf "stream#%d" c) in
    let duration = float_of_int (hi_bin - lo_bin) *. bin in
    f
      (Traffic.Arrival.shift (float_of_int lo_bin *. bin)
         (Traffic.Poisson_proc.homogeneous ~rate ~duration rng))
  done

let run_poisson spec =
  let n_bins =
    Int.max 1 (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))
  in
  let levels, analysis = analysis_sinks n_bins in
  let sink =
    Timeseries.Sink.counts ~bin:spec.bin ~n_bins ~chunk:spec.chunk analysis
  in
  poisson_shards ~seed:spec.seed ~rate:spec.rate ~bin:spec.bin
    ~chunk:spec.chunk ~n_bins (Timeseries.Sink.push sink);
  (n_bins, levels, Timeseries.Sink.finish sink)

let run_counts spec iter =
  let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
  let levels, sink = analysis_sinks n_bins in
  iter ~n_bins (Timeseries.Sink.push sink);
  (n_bins, levels, Timeseries.Sink.finish sink)

let pareto_location ~beta = if beta > 1. then (beta -. 1.) /. beta else 1.

let onoff_sources spec =
  List.init 16 (fun _ ->
      Traffic.Onoff.pareto_source ~beta:spec.beta
        ~mean_period:(50. *. spec.bin) ~on_rate:spec.rate)

let stream spec =
  let rng () = Engine.Task.derive_rng ~seed:spec.seed "stream" in
  match spec.model with
  | "poisson" -> run_poisson spec
  | "pareto" ->
    run_counts spec (fun ~n_bins push ->
        Lrd.Pareto_count.iter_count_chunks ~chunk:spec.chunk ~beta:spec.beta
          ~a:1. ~bin:spec.bin ~bins:n_bins (rng ()) push)
  | "mginf" ->
    run_counts spec (fun ~n_bins push ->
        let service =
          Dist.Pareto.sample
            (Dist.Pareto.create
               ~location:(pareto_location ~beta:spec.beta)
               ~shape:spec.beta)
        in
        Traffic.Mg_inf.iter_chunks ~chunk:spec.chunk ~rate:spec.rate ~service
          ~dt:spec.bin ~n:n_bins (rng ()) push)
  | "onoff" ->
    run_counts spec (fun ~n_bins push ->
        Traffic.Onoff.iter_chunks ~chunk:spec.chunk
          ~sources:(onoff_sources spec) ~dt:spec.bin ~n:n_bins (rng ()) push)
  | m ->
    invalid_arg
      (Printf.sprintf
         "Streaming.stream: unknown model %S (want poisson|pareto|mginf|onoff)"
         m)

(* The materialized baseline: the same sample path built as one big
   array, analysed through the pre-streaming entry points
   ([Counts.of_events] / [Hurst.variance_time] / [Hurst.rescaled_range]).
   Used by [make stream-smoke] to check the streamed estimates agree. *)
let materialize spec =
  let counts =
    match spec.model with
    | "poisson" ->
      let n_bins =
        Int.max 1
          (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))
      in
      let pieces = ref [] in
      poisson_shards ~seed:spec.seed ~rate:spec.rate ~bin:spec.bin
        ~chunk:spec.chunk ~n_bins (fun a -> pieces := a :: !pieces);
      let events = Array.concat (List.rev !pieces) in
      Timeseries.Counts.of_events ~bin:spec.bin
        ~t_end:(float_of_int n_bins *. spec.bin)
        events
    | "pareto" ->
      let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
      Lrd.Pareto_count.count_process ~beta:spec.beta ~a:1. ~bin:spec.bin
        ~bins:n_bins
        (Engine.Task.derive_rng ~seed:spec.seed "stream")
    | "mginf" ->
      let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
      let service =
        Dist.Pareto.sample
          (Dist.Pareto.create
             ~location:(pareto_location ~beta:spec.beta)
             ~shape:spec.beta)
      in
      Traffic.Mg_inf.count_process ~rate:spec.rate ~service ~dt:spec.bin
        ~n:n_bins
        (Engine.Task.derive_rng ~seed:spec.seed "stream")
    | "onoff" ->
      let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
      Traffic.Onoff.count_process ~sources:(onoff_sources spec) ~dt:spec.bin
        ~n:n_bins
        (Engine.Task.derive_rng ~seed:spec.seed "stream")
    | m -> invalid_arg (Printf.sprintf "Streaming.materialize: unknown model %S" m)
  in
  let n_bins = Array.length counts in
  let h_vt = Lrd.Hurst.variance_time counts in
  let h_rs =
    if n_bins >= 32 then Lrd.Hurst.rescaled_range ~max_block:(rs_max_block n_bins) counts
    else { Lrd.Hurst.h = nan; slope = nan; r2 = nan }
  in
  let h_wav =
    if spec.wavelet && n_bins >= 16 then
      match Lrd.Wavelet.estimate counts with
      | e -> Some e
      | exception Invalid_argument _ -> None
    else None
  in
  (* The identical sketch the streamed path builds: the chunking only
     changes add order, and bucket increments commute. *)
  let count_sketch = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy () in
  Array.iter (Stats.Quantile_sketch.add count_sketch) counts;
  {
    bins = n_bins;
    total = Array.fold_left ( +. ) 0. counts;
    mean = Stats.Descriptive.mean counts;
    h_vt;
    h_rs;
    h_wav;
    count_sketch;
    chunks = 0;
    levels = 0;
    resident = n_bins;
  }

(* The spec boundary: NaN compares false, so every float check is
   phrased to reject it. *)
let validate spec =
  let bad flag want =
    invalid_arg (Printf.sprintf "stream: --%s must be %s" flag want)
  in
  if not (Float.is_finite spec.events && spec.events >= 1.) then
    bad "events" "finite and at least 1";
  if not (Float.is_finite spec.rate && spec.rate > 0.) then
    bad "rate" "finite and positive";
  if not (Float.is_finite spec.bin && spec.bin > 0.) then
    bad "bin" "finite and positive";
  if not (Float.is_finite spec.beta && spec.beta > 0.) then
    bad "beta" "finite and positive";
  if spec.chunk < 1 then bad "chunk" "at least 1"

let run spec =
  validate spec;
  if spec.materialized then materialize spec
  else
    let n_bins, levels, out = stream spec in
    result_of ~wavelet:spec.wavelet ~levels ~n_bins out

let pp fmt spec r =
  Format.fprintf fmt "stream model=%s events=%g bins=%d bin=%g seed=%d%s@."
    spec.model spec.events r.bins spec.bin spec.seed
    (if spec.materialized then " (materialized)" else "");
  Format.fprintf fmt "  total-count   %.0f@." r.total;
  Format.fprintf fmt "  mean/bin      %.6f@." r.mean;
  Format.fprintf fmt "  H(var-time)   %.6f  (slope %.6f, r2 %.4f)@."
    r.h_vt.Lrd.Hurst.h r.h_vt.Lrd.Hurst.slope r.h_vt.Lrd.Hurst.r2;
  Format.fprintf fmt "  H(R/S)        %.6f  (r2 %.4f)@." r.h_rs.Lrd.Hurst.h
    r.h_rs.Lrd.Hurst.r2;
  if spec.wavelet then
    (match r.h_wav with
    | Some w ->
      Format.fprintf fmt
        "  H(wavelet)    %.6f  (slope %.6f, r2 %.4f, se %.4f, j %d..%d)@."
        w.Lrd.Wavelet.h w.Lrd.Wavelet.slope w.Lrd.Wavelet.r2
        w.Lrd.Wavelet.stderr_h w.Lrd.Wavelet.j_lo w.Lrd.Wavelet.j_hi
    | None -> Format.fprintf fmt "  H(wavelet)    n/a@.");
  (let q = Stats.Quantile_sketch.quantiles r.count_sketch in
   match q [ 0.5; 0.9; 0.99; 0.999 ] with
   | [ p50; p90; p99; p999 ] ->
     Format.fprintf fmt
       "  count-q       p50=%.6g p90=%.6g p99=%.6g p999=%.6g  (rel-err <= \
        %g)@."
       p50 p90 p99 p999
       (Stats.Quantile_sketch.accuracy r.count_sketch)
   | _ -> ());
  if not spec.materialized then
    Format.fprintf fmt "  pyramid       chunks=%d levels=%d resident-floats=%d@."
      r.chunks r.levels r.resident

(* ------------------------- windowed estimation ---------------------- *)

module Window = struct
  type kind = Tumbling | Sliding

  type estimate = {
    seq : int;
    upto : int;
    covered : int;
    h : Lrd.Hurst.estimate;
    hw : float;  (* rolling wavelet H; nan when too few octaves *)
    rate : float;
    alpha : float;
    q50 : float;  (* per-bin count quantiles over the covered window, *)
    q99 : float;  (* from the panes' mergeable sketches (1% accuracy) *)
    q999 : float;
  }

  (* One tumbling pane: a dyadic-ladder pyramid (no registered levels, so
     every snapshot merge is alignment-legal and every variance-time
     level exact) plus the pane's top-[k] bin counts for the Hill tail
     read-out. *)
  type pane = {
    pyr : Timeseries.Pyramid.t;
    top : float array;
    mutable tn : int;  (* filled slots in [top] *)
    mutable tmin : int;  (* index of the smallest filled slot *)
    sk : Stats.Quantile_sketch.t;  (* the pane's per-bin count sketch *)
  }

  type t = {
    kind : kind;
    window : int;  (* pane size in bins; a power of two *)
    cadence : int;  (* sliding emit period; divides [window] *)
    bin : float;
    emit : estimate -> unit;
    mutable cur : pane;
    mutable prev : Timeseries.Pyramid.snapshot option;
    mutable prev_top : float array;  (* completed pane's top-k, sorted desc *)
    mutable prev_sk : Stats.Quantile_sketch.t option;
        (* completed pane's sketch; merged with the current partial
           pane's for the sliding read-out, like the pyramid snapshot *)
    mutable fill : int;  (* bins in [cur] *)
    mutable since : int;  (* bins since the last sliding emit *)
    mutable total : int;  (* bins consumed overall *)
    mutable seq : int;  (* estimates emitted *)
  }

  let ceil_pow2 n =
    let p = ref 1 in
    while !p < n do
      p := !p lsl 1
    done;
    !p

  let fresh_pane k =
    {
      pyr = Timeseries.Pyramid.create ();
      top = Array.make k neg_infinity;
      tn = 0;
      tmin = 0;
      sk = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy ();
    }

  let create ~kind ~window ?cadence ?(top_k = 64) ~bin ~emit () =
    if window < 16 then
      invalid_arg
        (Printf.sprintf "Streaming.Window.create: window = %d (want >= 16)"
           window);
    if bin <= 0. then
      invalid_arg
        (Printf.sprintf "Streaming.Window.create: bin = %g (want > 0)" bin);
    if top_k < 2 then
      invalid_arg
        (Printf.sprintf "Streaming.Window.create: top_k = %d (want >= 2)" top_k);
    (* Power-of-two panes make the pane merge unconditionally exact
       (count of the full pane has maximal 2-adic valuation); a
       power-of-two cadence then divides the pane, so emits and pane
       rotations never straddle. *)
    let window = ceil_pow2 window in
    let cadence =
      match cadence with
      | None -> Int.max 1 (window / 4)
      | Some c ->
        if c < 1 then
          invalid_arg
            (Printf.sprintf "Streaming.Window.create: cadence = %d (want >= 1)"
               c);
        Int.min window (ceil_pow2 c)
    in
    {
      kind;
      window;
      cadence;
      bin;
      emit;
      cur = fresh_pane top_k;
      prev = None;
      prev_top = [||];
      prev_sk = None;
      fill = 0;
      since = 0;
      total = 0;
      seq = 0;
    }

  let window t = t.window
  let cadence t = t.cadence
  let period t = match t.kind with Sliding -> t.cadence | Tumbling -> t.window
  let bins t = t.total

  let pane_offer p v =
    if p.tn < Array.length p.top then begin
      p.top.(p.tn) <- v;
      if v < p.top.(p.tmin) then p.tmin <- p.tn;
      p.tn <- p.tn + 1
    end
    else if v > p.top.(p.tmin) then begin
      p.top.(p.tmin) <- v;
      (* O(k) rescan only on replacement of the minimum. *)
      for i = 0 to p.tn - 1 do
        if p.top.(i) < p.top.(p.tmin) then p.tmin <- i
      done
    end

  let sorted_desc_top p =
    let a = Array.sub p.top 0 p.tn in
    Array.sort (fun x y -> Float.compare y x) a;
    a

  (* Hill tail index over the window's largest bin counts: uses the top
     [k] order statistics with the (k+1)-th as threshold, needing at
     least 8 positive exceedances of a positive threshold to bother. *)
  let hill_of_tops tops =
    let k = Array.length tops - 1 in
    if k < 8 || tops.(k) <= 0. then nan else Stats.Fit.hill tops ~k

  let merge_desc a b keep =
    let out = Array.make (Int.min keep (Array.length a + Array.length b)) 0. in
    let i = ref 0 and j = ref 0 in
    for o = 0 to Array.length out - 1 do
      if
        !j >= Array.length b
        || (!i < Array.length a && a.(!i) >= b.(!j))
      then begin
        out.(o) <- a.(!i);
        incr i
      end
      else begin
        out.(o) <- b.(!j);
        incr j
      end
    done;
    out

  (* Dyadic variance-time ladder for a window of [covered] bins: every
     level is exact in the pane pyramids, and capping at [covered / 8]
     keeps >= 8 blocks under the shallowest fitted point. *)
  let vt_levels covered =
    let rec go m acc = if m > covered / 8 then List.rev acc else go (2 * m) (m :: acc) in
    go 1 []

  (* Variance-time H, or nan (like [hw]) when the window cannot support
     a fit: too shallow, no events (no mean to normalise by), or fewer
     than two levels with positive variance (constant or periodic
     counts). A quiet or regular stretch must not end the stream. *)
  let vt_hurst levels pyr =
    let none = { Lrd.Hurst.h = nan; slope = nan; r2 = nan } in
    if List.length levels < 3 || Timeseries.Pyramid.mean pyr = 0. then none
    else
      let curve = Timeseries.Variance_time.curve_of_pyramid ~levels pyr in
      let varying =
        Array.fold_left
          (fun n p -> if p.Timeseries.Variance_time.normalised > 0. then n + 1 else n)
          0 curve
      in
      if varying < 2 then none
      else
        let fit = Timeseries.Variance_time.slope curve in
        {
          Lrd.Hurst.h = Timeseries.Variance_time.hurst_of_slope fit.slope;
          slope = fit.slope;
          r2 = fit.r2;
        }

  let estimate_of t pyr tops sketch covered =
    let levels = vt_levels covered in
    let h = vt_hurst levels pyr in
    t.seq <- t.seq + 1;
    let q = Stats.Quantile_sketch.quantile sketch in
    {
      seq = t.seq;
      upto = t.total;
      covered;
      h;
      hw =
        (match Lrd.Wavelet.estimate_of_pyramid pyr with
        | e -> e.Lrd.Wavelet.h
        | exception Invalid_argument _ -> nan);
      rate = Timeseries.Pyramid.mean pyr /. t.bin;
      alpha = hill_of_tops tops;
      q50 = q 0.5;
      q99 = q 0.99;
      q999 = q 0.999;
    }

  let emit_sliding t =
    let k = Array.length t.cur.top in
    let cur_top = sorted_desc_top t.cur in
    match t.prev with
    | None ->
      if t.fill >= 16 then
        t.emit (estimate_of t t.cur.pyr cur_top t.cur.sk t.fill)
    | Some prev ->
      (* Full previous pane + current partial pane: the rolling window
         covers the last [window + fill] bins. The merge replays
         concatenation exactly (see {!Timeseries.Pyramid.merge_into});
         the sketch merge is bucket-wise and order-free. *)
      let p = Timeseries.Pyramid.of_snapshot prev in
      Timeseries.Pyramid.merge_into p (Timeseries.Pyramid.snapshot t.cur.pyr);
      let tops = merge_desc t.prev_top cur_top k in
      let sk =
        match t.prev_sk with
        | None -> t.cur.sk
        | Some prev_sk -> Stats.Quantile_sketch.merge prev_sk t.cur.sk
      in
      t.emit (estimate_of t p tops sk (t.window + t.fill))

  let rotate t =
    (match t.kind with
    | Tumbling ->
      t.emit (estimate_of t t.cur.pyr (sorted_desc_top t.cur) t.cur.sk t.window)
    | Sliding ->
      t.prev <- Some (Timeseries.Pyramid.snapshot t.cur.pyr);
      t.prev_top <- sorted_desc_top t.cur;
      t.prev_sk <- Some t.cur.sk);
    t.cur <- fresh_pane (Array.length t.cur.top);
    t.fill <- 0

  let push_slice t xs pos len =
    let pos = ref pos and len = ref len in
    while !len > 0 do
      let room = t.window - t.fill in
      let take = Int.min !len room in
      let take =
        match t.kind with
        | Sliding -> Int.min take (t.cadence - t.since)
        | Tumbling -> take
      in
      Timeseries.Pyramid.push_slice t.cur.pyr xs !pos take;
      for i = !pos to !pos + take - 1 do
        pane_offer t.cur xs.(i);
        Stats.Quantile_sketch.add t.cur.sk xs.(i)
      done;
      t.fill <- t.fill + take;
      t.total <- t.total + take;
      pos := !pos + take;
      len := !len - take;
      (match t.kind with
      | Sliding ->
        t.since <- t.since + take;
        if t.since = t.cadence then begin
          emit_sliding t;
          t.since <- 0
        end
      | Tumbling -> ());
      if t.fill = t.window then rotate t
    done

  let push t xs = push_slice t xs 0 (Array.length xs)

  let sink t =
    Timeseries.Sink.make ~name:"window"
      ~push:(fun chunk -> push t chunk)
      ~finish:(fun () -> t)
      ()
end
