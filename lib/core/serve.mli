(** The [wanpoisson serve] driver: live rolling analysis of an event
    stream with drift detection.

    Counts flow from a source — stdin event times, or a generated
    process — through a {!Streaming.Window} manager that republishes
    rolling estimates (variance-time Hurst, Hill tail index, event
    rate) at a fixed cadence, in O(log window + top_k) state per pane.
    Three self-calibrating CUSUM monitors ({!Stats.Cusum}) watch the
    estimate stream; when one trips, the driver prints a drift record
    and raises an [Engine.Log] [serve.drift] structured warning naming
    the metric, side, accumulated statistic and calibration target.

    Sources:
    - ["splice"] (default): first half Poisson, second half Pareto
      ON/OFF tuned to the {e same marginal rate} — an injected
      correlation-structure regime change that the H monitor, not the
      rate monitor, should flag;
    - ["poisson"] / ["onoff"]: the stationary halves alone;
    - ["diurnal"]: Poisson with the paper's Fig. 1 WWW hourly profile
      replayed as a compressed rate envelope (daily average = [rate]).
      The rolling variance-time H absorbs the envelope as spurious
      long memory while the rolling wavelet H ([hw]) stays near 0.5 —
      the live demonstration of why the logscale diagram is the
      estimator to trust under nonstationarity;
    - ["stdin"]: newline-separated non-decreasing event times (blank
      lines and [#] comments skipped, surrounding whitespace and CR
      ignored), binned incrementally with no horizon needed up front.
      Closed bins reach the window at each estimate boundary, so an
      estimate is written as soon as the event that closes its last bin
      is read. The scanner reads 64 KiB blocks and parses plain
      decimals without allocating.

    Every estimate record also carries rolling per-bin count quantiles
    ([q50]/[q99]/[q999]) read from the window panes'
    {!Stats.Quantile_sketch}es, and the stdin source summarises the true
    inter-arrival distribution ([ia50]/[ia99]/[ia999]) from a sketch fed
    with successive event-time differences.

    Output is deterministic for a fixed seed: estimates, drifts and the
    final summary as JSONL ([emit = "jsonl"]) or aligned text. *)

type spec = {
  source : string;  (** splice | poisson | onoff | diurnal | stdin *)
  events : float;  (** generated sources: expected event count *)
  rate : float;  (** events per time unit *)
  bin : float;  (** bin width (s) *)
  beta : float;  (** Pareto shape for the ON/OFF source *)
  chunk : int;
      (** count-buffer size for the generated sources; the stdin source
          hands bins over at estimate boundaries instead, so its output
          does not depend on it *)
  seed : int;
  window : int;  (** window size in bins (rounded up to a power of 2) *)
  cadence : int;  (** bins between rolling estimates *)
  sliding : bool;  (** sliding (default) or tumbling windows *)
  top_k : int;  (** order statistics retained for the Hill read-out *)
  emit : string;  (** jsonl | text *)
  h_drift : float;  (** CUSUM slack for the H monitor *)
  h_threshold : float;  (** CUSUM decision interval for H *)
  rate_drift : float;  (** slack for the rate monitor (log2 scale) *)
  rate_threshold : float;
  alpha_drift : float;  (** slack for the tail-index monitor *)
  alpha_threshold : float;
  warmup : int;  (** estimates averaged into each monitor's baseline *)
}

val default : spec

type summary = {
  bins : int;
  total : float;  (** events counted *)
  estimates : int;
  drifts : int;
  last : Streaming.Window.estimate option;
  interarrival : Stats.Quantile_sketch.t option;
      (** True inter-arrival quantile sketch (1% accuracy) — [Some] for
          the ["stdin"] source only, where raw event times (not just bin
          counts) pass through the driver. Its p50/p99/p999 are appended
          to the summary record ([ia50]/[ia99]/[ia999]) when at least
          one inter-arrival was observed. *)
}

val run : ?fmt:Format.formatter -> ?ic:in_channel -> spec -> summary
(** Stream, estimate, detect; returns the end-of-stream summary (also
    printed as the final output record). The ["stdin"] source reads
    [ic] (default [stdin]).

    Raises [Invalid_argument] on an unknown [source] or window
    parameters {!Streaming.Window.create} rejects, and on a stdin event
    time that does not parse, is NaN, infinite or negative, is earlier
    than the time before it, or whose bin index [time / bin] is at
    least 2^53. Stdin errors read
    [serve: line N: event time "TEXT" REASON], with [N] counting every
    line from 1; the estimates before the bad line have already been
    printed. *)

val parse_time : string -> float option
(** The stdin scanner's parse of one trimmed line: a plain decimal of at
    most 15 digits and one ['.'] is read exactly, without allocating;
    anything else goes to [float_of_string_opt]. Either way the result
    is bit-equal to [float_of_string_opt]. *)
