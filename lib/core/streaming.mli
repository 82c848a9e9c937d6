(** The [wanpoisson stream] driver: one-pass LRD analysis of traces that
    never materialise.

    A model generates its count series in chunks ({!Traffic.Poisson_proc},
    {!Lrd.Pareto_count}, {!Traffic.Mg_inf}, {!Traffic.Onoff}); the chunks
    flow through one {!Timeseries.Sink} tee into the aggregation pyramid
    (variance-time curve), the R/S sink and a running total — so a
    10^8-event Poisson trace is analysed in O(levels x chunk) memory.

    Poisson generation is sharded: bin-aligned windows holding ~[chunk]
    expected events each are generated one after another and folded into
    the sink in shard order, each from its own
    [Task.derive_rng ~seed "stream#c"] stream. (Process-parallel Poisson
    analysis is [wanpoisson farm]; this driver stays for the renewal
    models, which cannot be cut into shards.) Because every
    {!Timeseries.Counts.default_levels} level is
    registered in the pyramid up front, the streamed variance-time (and
    R/S) estimates match the materialized ones on the same sample path
    to rounding — the pyramid's decomposed subscribers sum block
    boundary runs whose parenthesisation depends on the chunking, so
    agreement is to ~1 ulp rather than bit-exact. [make stream-smoke]
    checks equal event totals and Hurst agreement within the 0.03
    acceptance band; the test suite pins the 1e-9 relative bound. *)

type spec = {
  model : string;  (** poisson | pareto | mginf | onoff *)
  events : float;
      (** poisson: expected event count (bins = events/rate/bin);
          other models: the number of count bins to sample. *)
  rate : float;  (** poisson / mginf arrival rate; onoff per-source ON rate *)
  bin : float;  (** bin width (s) *)
  beta : float;  (** Pareto shape for pareto / mginf / onoff *)
  chunk : int;  (** chunk size (bins or events) for the streaming path *)
  seed : int;
  materialized : bool;
      (** analyse the same sample path through the array entry points
          (O(bins) memory) instead of the sinks — the baseline the smoke
          test diffs against *)
  wavelet : bool;
      (** report the Abry-Veitch wavelet H (default true). The octave
          energies are accumulated by the pyramid either way (a fused
          ~3 flop/pair side effect of the cascade); this gates only the
          read-out and the report line. *)
}

val default : spec

type result = {
  bins : int;
  total : float;  (** events actually counted *)
  mean : float;
  h_vt : Lrd.Hurst.estimate;
  h_rs : Lrd.Hurst.estimate;
  h_wav : Lrd.Wavelet.estimate option;
      (** Abry-Veitch wavelet H from the streamed octave energies
          (batch [Lrd.Wavelet.estimate] when materialized — the same
          logscale diagram bit-for-bit on the same counts); [None] when
          disabled or the series is too short for 2 fitted octaves. *)
  count_sketch : Stats.Quantile_sketch.t;
      (** Per-bin count quantile sketch (1% accuracy). Bucket increments
          commute, so the streamed and materialized paths build the
          identical sketch on the same sample path — the count-q report
          line is byte-identical between them. *)
  chunks : int;  (** chunks pushed through the pyramid (0 if materialized) *)
  levels : int;  (** dyadic cascade depth (0 if materialized) *)
  resident : int;  (** peak floats resident in the pyramid *)
}

val run : spec -> result
(** Raises [Invalid_argument] on an unknown [model], or naming the
    option on a non-finite or out-of-range field. The onoff model's
    streaming and materialized paths are different (equally valid) sample
    paths — the streaming path gives each source a split RNG sub-stream;
    the other models agree bit for bit. *)

val pp : Format.formatter -> spec -> result -> unit
(** Deterministic fixed-precision report (what [wanpoisson stream]
    prints). *)

(** Windowed rolling estimation over a stream of count bins.

    A window manager consumes bin-count chunks and republishes rolling
    estimates — variance-time Hurst, Hill tail index of the marginal,
    event rate — without ever materialising the window. Both kinds are
    built from {e tumbling panes}: power-of-two-sized pyramids with a
    dyadic variance-time ladder, so reading a sliding window is one
    exact snapshot merge (full previous pane + partial current pane; see
    {!Timeseries.Pyramid.merge_into}) and never a moment subtraction.

    - [Tumbling]: one estimate per completed pane, covering exactly
      [window] bins.
    - [Sliding]: one estimate every [cadence] bins, covering the last
      [window + fill] bins (between [window] and [2 * window] once the
      first pane completes; the opening partial pane is estimated alone
      once it holds >= 16 bins).

    Memory is O(log window + top_k) per pane — the window itself is
    never stored. *)
module Window : sig
  type kind = Tumbling | Sliding

  type estimate = {
    seq : int;  (** 1-based estimate index. *)
    upto : int;  (** Bins consumed when this estimate was emitted. *)
    covered : int;  (** Bins the estimate covers (ending at [upto]). *)
    h : Lrd.Hurst.estimate;
        (** Variance-time Hurst over the window's dyadic ladder
            ([nan] when the window is too shallow for 3 levels, holds
            no events, or has fewer than 2 levels with positive
            variance). *)
    hw : float;
        (** Rolling Abry-Veitch wavelet H over the same merged window
            pyramid ([nan] when too few octaves) — the estimator that
            stays honest under diurnal drift, where the variance-time
            ladder absorbs the trend as spurious long memory. *)
    rate : float;  (** Events per time unit: mean bin count / bin width. *)
    alpha : float;
        (** Hill tail index over the window's top-[top_k] bin counts
            ([nan] when fewer than 9 positive exceedances). *)
    q50 : float;
        (** Rolling per-bin count quantiles over the covered window,
            read from the panes' {!Stats.Quantile_sketch}es (1%
            accuracy); the sliding read-out merges the previous pane's
            sketch with the current partial one, exactly like the
            pyramid snapshot. *)
    q99 : float;
    q999 : float;
  }

  type t

  val create :
    kind:kind ->
    window:int ->
    ?cadence:int ->
    ?top_k:int ->
    bin:float ->
    emit:(estimate -> unit) ->
    unit ->
    t
  (** [window] (bins) is rounded up to a power of two; [cadence]
      (sliding only; default [window / 4]) is rounded up to a power of
      two and clamped to [window], so it always divides the pane.
      [top_k] (default 64) bounds the tail read-out. Raises
      [Invalid_argument] when [window < 16], [bin <= 0], [cadence < 1]
      or [top_k < 2]. *)

  val push : t -> float array -> unit
  (** Feed bin counts; [emit] fires synchronously as boundaries pass. *)

  val push_slice : t -> float array -> int -> int -> unit

  val window : t -> int
  (** The effective (rounded) pane size. *)

  val cadence : t -> int

  val period : t -> int
  (** Bins between estimates: [cadence] when sliding, [window] when
      tumbling. [push_slice] cuts every slice at these boundaries, so
      handing bins over exactly at them gives the window the same
      pyramid pushes — and bit-identical estimates — as any larger
      slices whose edges fall on them. *)

  val bins : t -> int
  (** Total bins consumed. *)

  val sink : t -> t Timeseries.Sink.t
  (** The manager as a chunked consumer ([finish] hands it back). *)
end
