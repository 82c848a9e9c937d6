type spec = {
  source : string;
  events : float;
  rate : float;
  bin : float;
  beta : float;
  chunk : int;
  seed : int;
  window : int;
  cadence : int;
  sliding : bool;
  top_k : int;
  emit : string;
  h_drift : float;
  h_threshold : float;
  rate_drift : float;
  rate_threshold : float;
  alpha_drift : float;
  alpha_threshold : float;
  warmup : int;
}

let default =
  {
    source = "splice";
    events = 1e6;
    rate = 100.;
    bin = 1.;
    beta = 1.2;
    chunk = 65536;
    seed = 42;
    window = 256;
    cadence = 64;
    sliding = true;
    top_k = 64;
    emit = "jsonl";
    h_drift = 0.05;
    h_threshold = 0.25;
    rate_drift = 0.15;
    rate_threshold = 0.75;
    alpha_drift = 0.5;
    alpha_threshold = 2.5;
    warmup = 6;
  }

type summary = {
  bins : int;
  total : float;  (* events counted *)
  estimates : int;
  drifts : int;
  last : Streaming.Window.estimate option;
  interarrival : Stats.Quantile_sketch.t option;
      (* true inter-arrival sketch; stdin source only, where raw event
         times (not just bin counts) pass through the driver *)
}

(* JSON-safe float: JSON has no NaN/inf, so unavailable estimates
   serialise as null. %.6g is locale-independent in OCaml — the output
   is byte-deterministic for a fixed seed. *)
let jf v =
  if Float.is_nan v || not (Float.is_finite v) then "null"
  else Printf.sprintf "%.6g" v

let pp_estimate fmt spec (e : Streaming.Window.estimate) =
  match spec.emit with
  | "jsonl" ->
    Format.fprintf fmt
      "{\"type\":\"estimate\",\"seq\":%d,\"upto\":%d,\"covered\":%d,\"h\":%s,\"r2\":%s,\"hw\":%s,\"rate\":%s,\"alpha\":%s,\"q50\":%s,\"q99\":%s,\"q999\":%s}@."
      e.seq e.upto e.covered (jf e.h.Lrd.Hurst.h) (jf e.h.Lrd.Hurst.r2)
      (jf e.hw) (jf e.rate) (jf e.alpha) (jf e.q50) (jf e.q99) (jf e.q999)
  | _ ->
    Format.fprintf fmt
      "est seq=%-4d upto=%-8d covered=%-6d H=%s r2=%s Hw=%s rate=%s alpha=%s \
       q50=%s q99=%s q999=%s@."
      e.seq e.upto e.covered (jf e.h.Lrd.Hurst.h) (jf e.h.Lrd.Hurst.r2)
      (jf e.hw) (jf e.rate) (jf e.alpha) (jf e.q50) (jf e.q99) (jf e.q999)

let side_name = function Stats.Cusum.Up -> "up" | Stats.Cusum.Down -> "down"

let pp_drift fmt spec ~metric ~target (e : Streaming.Window.estimate)
    (a : Stats.Cusum.alarm) =
  match spec.emit with
  | "jsonl" ->
    Format.fprintf fmt
      "{\"type\":\"drift\",\"metric\":%S,\"side\":%S,\"seq\":%d,\"upto\":%d,\"stat\":%s,\"value\":%s,\"target\":%s}@."
      metric (side_name a.side) e.seq e.upto (jf a.stat) (jf a.value) (jf target)
  | _ ->
    Format.fprintf fmt
      "DRIFT metric=%s side=%s seq=%d upto=%d stat=%s value=%s target=%s@."
      metric (side_name a.side) e.seq e.upto (jf a.stat) (jf a.value) (jf target)

(* The three rolling-estimate monitors. H is watched directly; the rate
   on a log2 scale (so thresholds are relative, not absolute); the Hill
   tail index directly with generous slack (it is the noisiest of the
   three). All self-calibrate against the stream's opening regime. *)
type monitors = {
  m_h : Stats.Cusum.t;
  m_rate : Stats.Cusum.t;
  m_alpha : Stats.Cusum.t;
}

let make_monitors spec =
  {
    m_h =
      Stats.Cusum.create ~drift:spec.h_drift ~threshold:spec.h_threshold
        ~warmup:spec.warmup ();
    m_rate =
      Stats.Cusum.create ~drift:spec.rate_drift ~threshold:spec.rate_threshold
        ~warmup:spec.warmup ();
    m_alpha =
      Stats.Cusum.create ~drift:spec.alpha_drift ~threshold:spec.alpha_threshold
        ~warmup:spec.warmup ();
  }

let observe_monitors fmt spec mons drifts (e : Streaming.Window.estimate) =
  let watch det metric value =
    match Stats.Cusum.observe det value with
    | None -> ()
    | Some a ->
      incr drifts;
      let target =
        match Stats.Cusum.target det with Some m -> m | None -> nan
      in
      (* Adopt the post-shift regime as the new baseline: one drift
         event per regime change, not one per estimate while the shift
         persists. *)
      Stats.Cusum.recalibrate det;
      pp_drift fmt spec ~metric ~target e a;
      Engine.Log.warn "serve.drift"
        [
          ("metric", Engine.Log.S metric);
          ("side", Engine.Log.S (side_name a.Stats.Cusum.side));
          ("seq", Engine.Log.I e.seq);
          ("upto", Engine.Log.I e.upto);
          ("stat", Engine.Log.F a.stat);
          ("value", Engine.Log.F a.value);
          ("target", Engine.Log.F target);
        ]
  in
  watch mons.m_h "h" e.h.Lrd.Hurst.h;
  watch mons.m_rate "rate" (if e.rate > 0. then Float.log2 e.rate else nan);
  watch mons.m_alpha "alpha" e.alpha

(* ------------------------- count sources --------------------------- *)

(* The stdin scanner skips blank lines and [#] comments and ignores the
   whitespace [String.trim] strips (space, tab, CR, LF, form feed). *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

(* 10^k for k <= 15, each exactly representable. *)
let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15 |]

(* Parse the trimmed text [b.[lo, hi)] into [out.(0)]; false when it is
   not a float. A plain decimal of at most 15 digits and one '.' is
   [m / 10^k] with [m] and [10^k] both exact, and IEEE division rounds
   that quotient correctly, so this fast path is bit-equal to [strtod]
   and allocates nothing. Anything else (signs, exponents, hex, '_',
   nan, inf) goes to [float_of_string_opt], which keeps its syntax. *)
let parse_into b lo hi out =
  let m = ref 0 and digits = ref 0 and frac = ref (-1) in
  let plain = ref true and i = ref lo in
  while !plain && !i < hi do
    let c = Bytes.unsafe_get b !i in
    if c >= '0' && c <= '9' then begin
      m := (!m * 10) + (Char.code c - 48);
      incr digits;
      if !frac >= 0 then incr frac
    end
    else if c = '.' && !frac < 0 then frac := 0
    else plain := false;
    incr i
  done;
  if !plain && !digits >= 1 && !digits <= 15 then begin
    out.(0) <- float_of_int !m /. pow10.(Int.max 0 !frac);
    true
  end
  else
    match float_of_string_opt (Bytes.sub_string b lo (hi - lo)) with
    | Some t ->
      out.(0) <- t;
      true
    | None -> false

let parse_time s =
  let out = [| nan |] in
  if parse_into (Bytes.unsafe_of_string s) 0 (String.length s) out then
    Some out.(0)
  else None

(* Bytes per [input] call; lines straddling two blocks are carried. *)
let block_size = 65536

(* The most bins handed to the window at once. A power of two, like
   every emit period, so capping a handoff at it only adds cuts the
   default 65536-bin buffer always made. *)
let max_handoff = 65536

(* Incremental event-time binner for unbounded stdin streams:
   [Sink.counts] needs the horizon up front, this does not. Closed bins
   go to [push_counts] each time they reach a multiple of [period], the
   window's estimate boundary, so every estimate is written as soon as
   its last bin closes. Never at a read boundary: pyramid moment merges
   round by slice edge (~1 ulp), and stdout would then depend on pipe
   timing. The trailing partial bin is emitted, so every event lands in
   some bin. *)
let bin_stdin ?ia ~bin ~period push_counts ic =
  let buf = Array.make (Int.min period max_handoff) 0. in
  let size = Array.length buf in
  let fill = ref 0 and cur = ref 0 and cnt = ref 0 in
  let events = ref 0 and lineno = ref 0 in
  (* Float state sits in float arrays, which store unboxed, so the
     per-event path allocates nothing; inter-arrivals reach the sketch
     in batches through [add_slice], which builds the same sketch. *)
  let parsed = [| 0. |] and last = [| neg_infinity |] in
  let gaps = Array.make 4096 0. and n_gaps = ref 0 in
  let flush_gaps () =
    Option.iter (fun sk -> Stats.Quantile_sketch.add_slice sk gaps 0 !n_gaps) ia;
    n_gaps := 0
  in
  let hand_off () =
    push_counts buf 0 !fill;
    fill := 0
  in
  (* Close bins [!cur, i): the open bin's count, then the empty gap in
     zero runs that stop at each handoff. *)
  let close_until i =
    buf.(!fill) <- float_of_int !cnt;
    incr fill;
    cnt := 0;
    if !fill = size then hand_off ();
    let gap = ref (i - !cur - 1) in
    while !gap > 0 do
      let run = Int.min !gap (size - !fill) in
      Array.fill buf !fill run 0.;
      fill := !fill + run;
      gap := !gap - run;
      if !fill = size then hand_off ()
    done;
    cur := i
  in
  let reject b lo hi why =
    invalid_arg
      (Printf.sprintf "serve: line %d: event time %S %s" !lineno
         (Bytes.sub_string b lo (hi - lo))
         why)
  in
  let line b lo hi =
    incr lineno;
    let lo = ref lo and hi = ref hi in
    while !lo < !hi && is_blank (Bytes.unsafe_get b !lo) do
      incr lo
    done;
    while !hi > !lo && is_blank (Bytes.unsafe_get b (!hi - 1)) do
      decr hi
    done;
    let lo = !lo and hi = !hi in
    if lo < hi && Bytes.get b lo <> '#' then begin
      if not (parse_into b lo hi parsed) then
        reject b lo hi "does not parse as a number";
      let t = parsed.(0) in
      if Float.is_nan t then reject b lo hi "is NaN";
      if not (Float.is_finite t) then reject b lo hi "is not finite";
      if t < 0. then reject b lo hi "is negative";
      if t < last.(0) then
        reject b lo hi
          (Printf.sprintf
             "is before the previous time %s (times must be non-decreasing)"
             (Float.to_string last.(0)));
      let x = t /. bin in
      if not (x < 0x1p53) then
        reject b lo hi
          (Printf.sprintf "has bin index time / bin = %g, not below 2^53" x);
      if Option.is_some ia && !events > 0 then begin
        gaps.(!n_gaps) <- t -. last.(0);
        incr n_gaps;
        if !n_gaps = Array.length gaps then flush_gaps ()
      end;
      last.(0) <- t;
      incr events;
      let i = int_of_float x in
      if i > !cur then close_until i;
      incr cnt
    end
  in
  let blk = Bytes.create block_size in
  let carry = ref (Bytes.create 256) and clen = ref 0 in
  let keep lo len =
    if !clen + len > Bytes.length !carry then begin
      let c = Bytes.create (2 * (!clen + len)) in
      Bytes.blit !carry 0 c 0 !clen;
      carry := c
    end;
    Bytes.blit blk lo !carry !clen len;
    clen := !clen + len
  in
  let n = ref (input ic blk 0 block_size) in
  while !n > 0 do
    let start = ref 0 in
    for i = 0 to !n - 1 do
      if Bytes.unsafe_get blk i = '\n' then begin
        if !clen = 0 then line blk !start i
        else begin
          keep !start (i - !start);
          line !carry 0 !clen;
          clen := 0
        end;
        start := i + 1
      end
    done;
    keep !start (!n - !start);
    n := input ic blk 0 block_size
  done;
  if !clen > 0 then line !carry 0 !clen;
  flush_gaps ();
  if !events > 0 then close_until (!cur + 1);
  if !fill > 0 then hand_off ()

let poisson_counts ~rate ~bin ~chunk ~n_bins rng push_counts =
  let d = Dist.Poisson_d.create ~mean:(rate *. bin) in
  let buf = Array.make (Int.max 1 chunk) 0. in
  let left = ref n_bins in
  while !left > 0 do
    let take = Int.min !left (Array.length buf) in
    for i = 0 to take - 1 do
      buf.(i) <- float_of_int (Dist.Poisson_d.sample d rng)
    done;
    push_counts buf 0 take;
    left := !left - take
  done

(* ON/OFF aggregate tuned to the same marginal rate as the Poisson
   source (16 sources at ~50% duty), so a Poisson -> ON/OFF splice
   shifts the correlation structure (H) without moving the rate — the
   drift the H monitor, not the rate monitor, should flag. *)
let onoff_sources_matched spec =
  List.init 16 (fun _ ->
      Traffic.Onoff.pareto_source ~beta:spec.beta
        ~mean_period:(50. *. spec.bin)
        ~on_rate:(2. *. spec.rate /. 16.))

let onoff_counts spec ~n_bins rng push_counts =
  Traffic.Onoff.iter_chunks ~chunk:spec.chunk
    ~sources:(onoff_sources_matched spec) ~dt:spec.bin ~n:n_bins rng
    (fun c -> push_counts c 0 (Array.length c))

(* Diurnally modulated Poisson: the paper's Fig. 1 WWW profile replayed
   as a rate envelope. One "day" is compressed to [day_bins] bins (at
   least 4 cycles over the run when the stream is long enough), the
   per-hour arrival rate is [24 * fraction * rate] so the daily average
   stays [rate], and bins are sampled independently Poisson. The rolling
   variance-time H reads the slow envelope as spurious long memory; the
   wavelet H differences it away — the serve-side demo of the estimator
   disagreement. *)
let diurnal_counts spec ~n_bins rng push_counts =
  let profile = Trace.Diurnal.www in
  let day_bins = Int.max 96 (n_bins / 4) in
  (* Linearly interpolate between the hourly weights: a continuous
     piecewise-linear envelope. Stepping the rate once per hour instead
     would inject discontinuities whose Haar details contaminate every
     octave — exactly the artefact the wavelet's trend robustness (one
     vanishing moment, so constants cancel and smooth drift is confined
     to the coarsest octaves) is supposed to dodge. *)
  let rate_at i =
    let u = float_of_int (i mod day_bins) /. float_of_int day_bins *. 24. in
    let h = int_of_float u in
    let frac = u -. float_of_int h in
    let f0 = Trace.Diurnal.fraction profile h
    and f1 = Trace.Diurnal.fraction profile (h + 1) in
    spec.rate *. 24. *. (f0 +. (frac *. (f1 -. f0)))
  in
  let buf = Array.make (Int.max 1 spec.chunk) 0. in
  let fill = ref 0 in
  for i = 0 to n_bins - 1 do
    let d =
      Dist.Poisson_d.create ~mean:(Float.max 1e-9 (rate_at i *. spec.bin))
    in
    buf.(!fill) <- float_of_int (Dist.Poisson_d.sample d rng);
    incr fill;
    if !fill = Array.length buf then begin
      push_counts buf 0 !fill;
      fill := 0
    end
  done;
  if !fill > 0 then push_counts buf 0 !fill

let n_bins_of spec =
  Int.max 1 (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))

let feed ?ia ~ic ~period spec push_counts =
  let rng tag = Engine.Task.derive_rng ~seed:spec.seed ("serve" ^ tag) in
  match spec.source with
  | "stdin" -> bin_stdin ?ia ~bin:spec.bin ~period push_counts ic
  | "poisson" ->
    poisson_counts ~rate:spec.rate ~bin:spec.bin ~chunk:spec.chunk
      ~n_bins:(n_bins_of spec) (rng "") push_counts
  | "onoff" -> onoff_counts spec ~n_bins:(n_bins_of spec) (rng "") push_counts
  | "diurnal" ->
    diurnal_counts spec ~n_bins:(n_bins_of spec) (rng "") push_counts
  | "splice" ->
    (* First half Poisson, second half ON/OFF at the same marginal rate:
       the canonical injected regime change. *)
    let n = n_bins_of spec in
    let n1 = n / 2 in
    poisson_counts ~rate:spec.rate ~bin:spec.bin ~chunk:spec.chunk ~n_bins:n1
      (rng "#poisson") push_counts;
    onoff_counts spec ~n_bins:(n - n1) (rng "#onoff") push_counts
  | s ->
    invalid_arg
      (Printf.sprintf
         "serve: unknown source %S (want splice|poisson|onoff|diurnal|stdin)" s)

let run ?(fmt = Format.std_formatter) ?(ic = stdin) spec =
  let mons = make_monitors spec in
  let drifts = ref 0 in
  let estimates = ref 0 in
  let last = ref None in
  let total = ref 0. in
  let emit e =
    incr estimates;
    last := Some e;
    pp_estimate fmt spec e;
    observe_monitors fmt spec mons drifts e
  in
  let win =
    Streaming.Window.create
      ~kind:(if spec.sliding then Streaming.Window.Sliding else Tumbling)
      ~window:spec.window ~cadence:spec.cadence ~top_k:spec.top_k ~bin:spec.bin
      ~emit ()
  in
  let ia =
    if spec.source = "stdin" then Some (Stats.Quantile_sketch.create ())
    else None
  in
  feed ?ia ~ic ~period:(Streaming.Window.period win) spec (fun buf pos len ->
      for i = pos to pos + len - 1 do
        total := !total +. buf.(i)
      done;
      Streaming.Window.push_slice win buf pos len);
  let s =
    {
      bins = Streaming.Window.bins win;
      total = !total;
      estimates = !estimates;
      drifts = !drifts;
      last = !last;
      interarrival = ia;
    }
  in
  let iaq =
    match ia with
    | Some sk when Stats.Quantile_sketch.count sk > 0 ->
      let q p = Stats.Quantile_sketch.quantile sk p in
      Some (q 0.5, q 0.99, q 0.999)
    | _ -> None
  in
  (match spec.emit with
  | "jsonl" ->
    let ia_fields =
      match iaq with
      | None -> ""
      | Some (q50, q99, q999) ->
        Printf.sprintf ",\"ia50\":%s,\"ia99\":%s,\"ia999\":%s" (jf q50) (jf q99)
          (jf q999)
    in
    Format.fprintf fmt
      "{\"type\":\"summary\",\"bins\":%d,\"events\":%s,\"estimates\":%d,\"drifts\":%d%s}@."
      s.bins (jf s.total) s.estimates s.drifts ia_fields
  | _ ->
    let ia_fields =
      match iaq with
      | None -> ""
      | Some (q50, q99, q999) ->
        Printf.sprintf " ia50=%s ia99=%s ia999=%s" (jf q50) (jf q99) (jf q999)
    in
    Format.fprintf fmt "serve done bins=%d events=%s estimates=%d drifts=%d%s@."
      s.bins (jf s.total) s.estimates s.drifts ia_fields);
  s
