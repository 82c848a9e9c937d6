(** Sharded jobs: one runner for every computation that splits into a
    fixed grid of independent units and merges their partials in unit
    order.

    A job names five things: a unit count, a stateless worker fold from
    a unit index to a partial, the partial's wire codec, an order-fixed
    merge, and the spec's JSON codec. This module owns the rest, once:
    the worker loop (worker [w] of [n] computes the units
    [u ≡ w (mod n)]), heartbeats, counter/telemetry/log frames, the done
    frame and the test hooks; the coordinator on top of the {!Farm}
    process pool (observability-frame drain, progress line, unit range,
    duplicate and missing checks, [<name>.worker_died] /
    [<name>.worker_stalled] events, worker reports and merged trace
    lanes); the hidden [job-worker NAME JSON] entry; and the in-process
    {!run_inline} reference path.

    The unit grid depends only on the spec and the merge is a left fold
    in unit-index order, so the result is bit-identical at any worker
    count, and equal to {!run_inline}'s.

    Frame kinds (analysis kinds stay below 16; {!Obs_frame} owns 16+):
    {v
      1 partial   u32 unit | job-encoded partial
      2 counters  u16 n | n x (str name | i64 value)
      3 done      u32 units | i64 events | f64 wall_s | i64 peak_rss_kb
    v} *)

type ('spec, 'partial, 'result) t = {
  name : string;
      (** Worker-entry key and prefix of every span, counter and log
          event the runner records (["farm"] -> [farm.worker_died]). *)
  unit_name : string;  (** For diagnostics: ["macro-shard"], ["replica"]. *)
  units : 'spec -> int;
      (** Size of the unit grid. Validates the spec: raises
          [Invalid_argument] naming the offending option. *)
  compute : 'spec -> tick:(events:int -> unit) -> int -> 'partial;
      (** [compute spec ~tick u]: the partial of unit [u]. Must depend
          on [(spec, u)] only. [tick ~events] reports the events folded
          into this unit so far; it is the heartbeat point, and the
          value of the last call — made once every event is folded — is
          the unit's event count in worker reports. Partially applying
          [compute spec] may do per-spec setup once. *)
  encode : Buffer.t -> 'partial -> unit;
  decode : Frame.Rd.cursor -> 'partial;
      (** Inverse of [encode]; raises {!Frame.Rd.Malformed}. *)
  merge : 'spec -> 'partial array -> 'result;
      (** Receives every unit's partial, in unit order. *)
  spec_to_json : 'spec -> Json.t;
  spec_of_json : Json.t -> ('spec, string) result;
}

(** {1 Runner options} *)

type options = {
  workers : int;  (** Worker processes. *)
  heartbeat_s : float;
      (** Worker heartbeat period (0 = none). Heartbeats ride the
          job's [tick], so they prove liveness mid-unit; a first beat
          at spawn arms the deadline. *)
  stall_timeout_s : float;
      (** A worker silent (no frame of any kind) for longer is logged
          as [<name>.worker_stalled], SIGKILLed, and fails the run
          (0 = never). *)
  metrics : bool;  (** Roll worker counters up to the coordinator. *)
  trace : bool;  (** Ship worker span tables for the merged trace. *)
  logs : bool;
      (** Ship worker log events; the coordinator re-emits them with
          [worker]/[w_seq]/[w_t_us] fields. *)
  progress : bool;  (** Live stderr progress line from heartbeats. *)
  inject_crash : int;
      (** Testing hook: this worker SIGKILLs itself after its first
          shipped partial (-1 = off). *)
  inject_stall : int;
      (** Testing hook: this worker wedges, alive and silent, after its
          first shipped partial (-1 = off). *)
}

val default_options : options
(** One worker, 1 s heartbeats, 30 s stall deadline, no observability,
    hooks off. *)

(** {1 Coordinator} *)

type worker_report = {
  w_index : int;
  w_pid : int;
  w_status : string;  (** {!Farm.status_to_string}. *)
  w_events : int;  (** From the done frame (0 if it never arrived). *)
  w_units : int;
  w_wall_s : float;
  w_rss_kb : int;  (** Worker peak RSS; [-1] when unavailable. *)
  w_stalled : bool;
}

type obs = {
  o_workers : worker_report list;  (** One per worker, index order. *)
  o_spans : (int * float * Telemetry.event list) list;
      (** Worker index, worker telemetry epoch (Unix s), span table.
          Non-empty only under [trace]. *)
  o_counters : (int * (string * int) list) list;
      (** Per-worker counter rollups. Non-empty only under [metrics]. *)
}

val run :
  ('s, 'p, 'r) t -> exe:string -> options -> 's -> ('r * obs, string) result
(** Spawn [options.workers] processes re-executing [exe] as
    [exe job-worker NAME JSON], drain partial and observability frames
    concurrently, and merge. [Error] naming the worker when any worker
    exits abnormally, breaks its frame stream, misses the heartbeat
    deadline, or ships a bad unit; naming the units when any are
    missing. Nothing is merged on failure. Raises [Invalid_argument]
    only on a bad spec or options, before any spawn. *)

val trace_processes : obs -> Telemetry.process list
(** Lanes for {!Telemetry.to_chrome_trace_multi}: the coordinator first
    (its epoch anchors the timeline), then one ["worker N"] lane per
    shipped span table. *)

val run_inline : ?obs:bool -> ('s, 'p, 'r) t -> 's -> 'r
(** The same worker loop, partial-frame round trip and unit-order merge
    in one process; returns what {!run} returns at any worker count.
    [obs] (default false) adds what a metrics+trace+heartbeat worker
    adds — the per-unit span and cadence-gated heartbeat frames — so the
    pair measures the observability cost. *)

(** {1 Worker entry} *)

type any = Any : (_, _, _) t -> any

val worker_entry : any list -> string -> string -> int
(** [worker_entry jobs name json]: the hidden [job-worker NAME JSON]
    subcommand. Runs the named job's units for the worker index in
    [json], writes frames to stdout and returns the exit code; never
    raises (failures print to stderr and return nonzero). *)

(** {1 Partial codec} *)

val partial_frame : ('s, 'p, 'r) t -> int -> 'p -> Frame.t
(** The partial frame of unit [u]. *)

val decode_partial : ('s, 'p, 'r) t -> Frame.t -> (int * 'p, string) result
(** Inverse of {!partial_frame}: the unit index and partial, or an
    error for any other kind, a malformed body or trailing bytes. *)

val collect :
  ('s, 'p, 'r) t -> units:int -> (int * 'p) list -> ('p array, string) result
(** Place decoded partials on the unit grid: [Error] naming the unit on
    an out-of-range or duplicate index, or the missing units. *)
