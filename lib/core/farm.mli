(** The [wanpoisson farm] driver: sharded multi-process trace analysis.

    The stream of count bins is cut into a fixed grid of {e macro-shards}
    — power-of-two bin ranges whose layout depends only on the spec,
    never on the worker count. Each worker process owns the macro-shards
    congruent to its index mod [workers]; per shard it generates the
    Poisson events for that bin range (generation windows and RNG
    streams are keyed by absolute shard/window coordinates, the PR-5
    sharding discipline), folds them through the local streaming stack
    ({!Timeseries.Sink.counts} → {!Timeseries.Pyramid} + a top-k tail
    sink) in O(levels x chunk) memory, and {!Engine.Job} ships its
    partial ({!Timeseries.Pyramid.snapshot}, tail and sketch) to the
    coordinator as one binary frame. The merge
    {!Timeseries.Pyramid.merge_into}s the snapshots in {e global shard
    order} — a left fold whose shape is identical at any worker count —
    so stdout is byte-identical at [--workers 1] and [--workers 64].

    Every macro-shard holds a power of two bins (the last may be
    partial), so each merge satisfies the alignment contract
    [b <= 2^v2(a)] unconditionally; the pyramid is dyadic-only (no
    registered levels) and the variance-time read-out uses the dyadic
    ladder, exactly like {!Core.Streaming.Window}.

    Only the Poisson model farms out: its increments over disjoint
    bin-aligned windows are independent, so per-window RNG streams keyed
    by absolute position reproduce one global sample path at any
    partition. The renewal/busy-period models ([pareto], [mginf],
    [onoff]) carry cross-bin state whose law at a shard boundary has no
    closed form — sharding them would silently change the model, so
    {!plan} rejects them instead. *)

type spec = {
  model : string;  (** Only ["poisson"]; see above. *)
  events : float;  (** Expected events; bins = events / rate / bin. *)
  rate : float;
  bin : float;
  chunk : int;  (** Streaming chunk size (bins / events per buffer). *)
  seed : int;
  shards : int;  (** Target macro-shard count (layout rounds to powers
                     of two); actual count is {!plan}'s [n_macro]. *)
  top_k : int;  (** Tail-sink size for the Hill read-out. *)
}

val default : spec

type plan = {
  n_bins : int;
  macro_bins : int;  (** Bins per macro-shard; a power of two. *)
  n_macro : int;
  gen_bins : int;  (** Bins per generation window (~[chunk] events). *)
}

val plan : spec -> plan
(** Raises [Invalid_argument] naming the option on an unsupported model
    or an out-of-range or non-finite field. *)

type result = {
  bins : int;
  macro_bins : int;
  n_macro : int;
  total : float;  (** Events actually counted. *)
  mean : float;
  h_vt : Lrd.Hurst.estimate;  (** Variance-time H over the dyadic ladder. *)
  h_wav : Lrd.Wavelet.estimate option;
      (** Abry-Veitch wavelet H from the shard-merged octave energies
          (the snapshot wire codec carries them, so no worker ever
          holds more than its macro-shards); [None] when the plan is
          too shallow for 2 fitted octaves. *)
  alpha : float;  (** Hill tail index over the merged top-[top_k] bin
                      counts ([nan] below 9 positive exceedances). *)
  count_sketch : Stats.Quantile_sketch.t;
      (** Per-bin count quantile sketch: per-shard partials merged in
          global shard order (bit-identical at any worker count; the
          read-out carries the sketch's documented relative-error
          bound). *)
  chunks : int;
  levels : int;
  resident : int;
}

type partial
(** One macro-shard: its pyramid snapshot, top-[top_k] bin counts,
    per-bin count sketch and event count. *)

val job : (spec, partial, result) Engine.Job.t
(** The farm as a sharded job: units are the macro-shards, merged in
    global shard order. Run it with {!Engine.Job.run} (worker processes)
    or {!Engine.Job.run_inline}; both give the identical [result]. *)

val pp : Format.formatter -> spec -> result -> unit
(** Deterministic fixed-precision report. Deliberately omits the worker
    count and any timing: stdout must be byte-identical at any
    [--workers]. *)
