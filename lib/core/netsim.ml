(* The [wanpoisson netsim] driver: replica-sharded network simulation.

   Contrast with Core.Farm's macro-shard rule: the poisson farm can cut
   ONE sample path into bin-aligned windows because Poisson increments
   over disjoint windows are independent. A queueing network carries
   state (ring occupancy, server free times, RED averages) whose law at
   a cut point has no closed form, so the netsim unit of distribution
   is a whole REPLICA — an independent simulation under its own
   derive_rng stream, keyed by absolute replica index exactly like the
   PR-5/PR-7 task discipline. Engine.Job runs the replicas: worker w
   owns those congruent to w mod workers, and the merge folds partials
   in replica-index order (sketch merges, count sums, max folds — all
   order-fixed), so stdout is byte-identical at any --workers. *)

type spec = {
  model : string;  (* "onoff" | "poisson" *)
  events : float;  (* total packets across all replicas *)
  replicas : int;
  sources : int;
  beta : float;
  mean_period : float;
  on_rate : float;
  rate : float;
  load : float;
  topology : string;  (* "tandem:K" | "fanin:M" *)
  discipline : string;  (* "droptail" | "red" | "priority" *)
  buffer : int;
  chunk : int;
  seed : int;
}

let default =
  {
    model = "onoff";
    events = 1e6;
    replicas = 8;
    sources = 64;
    beta = 1.5;
    mean_period = 10.;
    on_rate = 4.;
    rate = 1000.;
    load = 0.8;
    topology = "tandem:2";
    discipline = "droptail";
    buffer = 64;
    chunk = 65536;
    seed = 42;
  }

(* All replica sketches and the coordinator's merge targets share one
   accuracy so merge_into never sees mismatched grids. *)
let sketch_accuracy = 0.01

(* RED parameters derived from the buffer size: thresholds at 1/4 and
   3/4 occupancy, gentle 10% ceiling, classic 0.002 EWMA weight. *)
let red_of_buffer b =
  {
    Queueing.Network.min_th = 0.25 *. float_of_int b;
    max_th = 0.75 *. float_of_int b;
    max_p = 0.1;
    weight = 0.002;
  }

type plan = {
  topo : Queueing.Network.topology;
  disc : Queueing.Network.discipline;
  n_links : int;
  lambda : float;  (* aggregate packet rate *)
  service : float;  (* per-link service time: load / lambda *)
  horizon : float;  (* per-replica simulated span *)
}

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "tandem"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 && k <= 8 -> (Queueing.Network.Tandem k, k)
    | _ -> invalid_arg "netsim: tandem link count must be in [1, 8]")
  | [ "fanin"; m ] -> (
    match int_of_string_opt m with
    | Some m when m >= 1 && m <= 7 -> (Queueing.Network.Fan_in m, m + 1)
    | _ -> invalid_arg "netsim: fan-in ingress count must be in [1, 7]")
  | _ -> invalid_arg "netsim: topology must be tandem:K or fanin:M"

let plan spec =
  let topo, n_links = parse_topology spec.topology in
  let disc =
    match spec.discipline with
    | "droptail" -> Queueing.Network.Drop_tail
    | "priority" -> Queueing.Network.Priority
    | "red" ->
      if spec.buffer < 1 then
        invalid_arg "netsim: red needs --buffer >= 1";
      Queueing.Network.Red (red_of_buffer spec.buffer)
    | _ -> invalid_arg "netsim: discipline must be droptail, red or priority"
  in
  if spec.model <> "onoff" && spec.model <> "poisson" then
    invalid_arg "netsim: model must be onoff or poisson";
  if not (spec.events >= 1. && spec.events <= 1e12) then
    invalid_arg "netsim: events must be in [1, 1e12]";
  if spec.replicas < 1 || spec.replicas > 4096 then
    invalid_arg "netsim: replicas must be in [1, 4096]";
  if spec.chunk < 256 || spec.chunk > 1 lsl 24 then
    invalid_arg "netsim: chunk must be in [256, 2^24]";
  if spec.buffer < 0 || spec.buffer > 1_000_000 then
    invalid_arg "netsim: buffer must be in [0, 1e6]";
  if spec.model = "onoff" then begin
    if spec.sources < 1 || spec.sources > 1_000_000 then
      invalid_arg "netsim: sources must be in [1, 1e6]";
    if not (spec.beta > 1. && spec.beta <= 10.) then
      invalid_arg "netsim: beta must be in (1, 10]";
    if not (Float.is_finite spec.mean_period && spec.mean_period > 0.) then
      invalid_arg "netsim: mean-period must be finite and positive";
    if not (Float.is_finite spec.on_rate && spec.on_rate > 0.) then
      invalid_arg "netsim: on-rate must be finite and positive"
  end
  else if not (Float.is_finite spec.rate && spec.rate > 0.) then
    invalid_arg "netsim: rate must be finite and positive";
  if not (spec.load > 0. && spec.load <= 4.) then
    invalid_arg "netsim: load must be in (0, 4]";
  let lambda =
    if spec.model = "poisson" then spec.rate
    else float_of_int spec.sources *. spec.on_rate /. 2.
  in
  {
    topo;
    disc;
    n_links;
    lambda;
    service = spec.load /. lambda;
    horizon = spec.events /. float_of_int spec.replicas /. lambda;
  }

(* ---------------- per-replica simulation ---------------- *)

(* One traffic class on one link of one replica. *)
type class_part = {
  cp_served : int;
  cp_dropped : int;
  cp_sum_wait : float;
  cp_max_wait : float;
  cp_sketch : Stats.Quantile_sketch.t;
}

type link_part = {
  lp_util : float;
  lp_hash : int;
  lp_classes : class_part array;  (* length 2 *)
}

type partial = { q_events : int; q_links : link_part array }

(* Replica r's traffic stream is keyed by its absolute index — the
   netsim analogue of the farm's "farm#shard#window" keying — so the
   set of sample paths is fixed by (seed, spec) alone, never by which
   worker ran which replica. *)
let replica_rng spec r =
  Engine.Task.derive_rng ~seed:spec.seed (Printf.sprintf "netsim#%d" r)

let compute_replica ~spec ~(plan : plan) ~tick r =
  let rng = replica_rng spec r in
  let net =
    Queueing.Network.create ~sketch_accuracy
      ~seed:((spec.seed * 0x9e3779b9) lxor r)
      ~topology:plan.topo ~discipline:plan.disc ~buffer:spec.buffer
      ~services:(Array.make plan.n_links plan.service)
      ()
  in
  let events = ref 0 in
  (match spec.model with
  | "onoff" ->
    let sources =
      List.init spec.sources (fun _ ->
          Traffic.Onoff.pareto_source ~beta:spec.beta
            ~mean_period:spec.mean_period ~on_rate:spec.on_rate)
    in
    Traffic.Superpose.iter ~chunk:spec.chunk ~sources ~horizon:plan.horizon
      rng (fun times srcs len ->
        Queueing.Network.push_chunk net ~times ~srcs ~pos:0 ~len;
        events := !events + len;
        tick ~events:!events)
  | _ ->
    (* Poisson packets take their global sequence index as source id:
       classes alternate and fan-in ingress round-robins, chunk-size
       independent by construction. *)
    let srcs = ref [||] in
    Traffic.Poisson_proc.iter_chunks ~chunk:spec.chunk ~rate:spec.rate
      ~duration:plan.horizon rng (fun times ->
        let len = Array.length times in
        if Array.length !srcs < len then srcs := Array.make len 0;
        let s = !srcs in
        let base = !events in
        for j = 0 to len - 1 do
          s.(j) <- base + j
        done;
        Queueing.Network.push_chunk net ~times ~srcs:s ~pos:0 ~len;
        events := !events + len;
        tick ~events:!events));
  let stats = Queueing.Network.finish net in
  let q_links =
    Array.map
      (fun (l : Queueing.Network.link_stats) ->
        {
          lp_util = l.utilization;
          lp_hash = l.drop_hash;
          lp_classes =
            Array.map
              (fun (c : Queueing.Network.class_stats) ->
                {
                  cp_served = c.served;
                  cp_dropped = c.dropped;
                  cp_sum_wait = c.mean_wait *. float_of_int c.served;
                  cp_max_wait = c.max_wait;
                  cp_sketch = c.sketch;
                })
              l.classes;
        })
      stats
  in
  { q_events = !events; q_links }

(* ---------------- partial codec ---------------- *)

let encode b p =
  let open Engine.Frame.Wr in
  i64 b p.q_events;
  u16 b (Array.length p.q_links);
  Array.iter
    (fun lp ->
      f64 b lp.lp_util;
      i64 b lp.lp_hash;
      Array.iter
        (fun cp ->
          i64 b cp.cp_served;
          i64 b cp.cp_dropped;
          f64 b cp.cp_sum_wait;
          f64 b cp.cp_max_wait;
          blob b (Stats.Quantile_sketch.to_string cp.cp_sketch))
        lp.lp_classes)
    p.q_links

let decode c =
  let open Engine.Frame.Rd in
  let q_events = i64 c in
  let n_links = u16 c in
  if n_links < 1 || n_links > 8 then raise (Malformed "bad link count");
  let class_part _ =
    let cp_served = i64 c in
    let cp_dropped = i64 c in
    let cp_sum_wait = f64 c in
    let cp_max_wait = f64 c in
    match Stats.Quantile_sketch.of_string (blob c) with
    | Ok cp_sketch ->
      { cp_served; cp_dropped; cp_sum_wait; cp_max_wait; cp_sketch }
    | Error e -> raise (Malformed e)
  in
  let link_part _ =
    let lp_util = f64 c in
    let lp_hash = i64 c in
    { lp_util; lp_hash; lp_classes = Array.init 2 class_part }
  in
  { q_events; q_links = Array.init n_links link_part }

(* ---------------- coordinator merge ---------------- *)

type merged_class = {
  c_served : int;
  c_dropped : int;
  c_loss : float;  (* dropped / offered *)
  c_mean_wait : float;
  c_max_wait : float;
  c_p50 : float;
  c_p99 : float;
  c_p999 : float;
  c_sketch : Stats.Quantile_sketch.t;
}

type merged_link = {
  m_util : float;  (* mean across replicas *)
  m_hash : int;  (* replica-order chained drop hashes *)
  m_classes : merged_class array;
}

type result = { total_events : int; links : merged_link array }

(* [parts] holds every replica exactly once, index order. Every fold
   below (sums, maxes, sketch merges, the hash chain) runs left to
   right over that fixed order, so the result — and the printed report
   — is bit-identical at any worker count. *)
let merge_parts ~(plan : plan) (parts : partial array) =
  let link l =
    let lps = Array.map (fun p -> p.q_links.(l)) parts in
    let merge_class c =
      let served = ref 0 and dropped = ref 0 in
      let sum_wait = ref 0. and max_wait = ref 0. in
      let sketch = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy () in
      Array.iter
        (fun lp ->
          let cp = lp.lp_classes.(c) in
          served := !served + cp.cp_served;
          dropped := !dropped + cp.cp_dropped;
          sum_wait := !sum_wait +. cp.cp_sum_wait;
          if cp.cp_max_wait > !max_wait then max_wait := cp.cp_max_wait;
          Stats.Quantile_sketch.merge_into sketch cp.cp_sketch)
        lps;
      let offered = !served + !dropped in
      let q =
        if Stats.Quantile_sketch.count sketch = 0 then fun _ -> 0.
        else Stats.Quantile_sketch.quantile sketch
      in
      {
        c_served = !served;
        c_dropped = !dropped;
        c_loss =
          (if offered = 0 then 0.
           else float_of_int !dropped /. float_of_int offered);
        c_mean_wait =
          (if !served = 0 then 0. else !sum_wait /. float_of_int !served);
        c_max_wait = !max_wait;
        c_p50 = q 0.5;
        c_p99 = q 0.99;
        c_p999 = q 0.999;
        c_sketch = sketch;
      }
    in
    {
      m_util =
        Array.fold_left (fun u lp -> u +. lp.lp_util) 0. lps
        /. float_of_int (Array.length parts);
      m_hash =
        Array.fold_left
          (fun h lp -> ((h * 0x01000193) lxor lp.lp_hash) land max_int)
          0x811c9dc5 lps;
      m_classes = Array.init 2 merge_class;
    }
  in
  {
    total_events = Array.fold_left (fun n p -> n + p.q_events) 0 parts;
    links = Array.init plan.n_links link;
  }

(* ---------------- the job ---------------- *)

let spec_to_json spec =
  Engine.Json.Obj
    [
      ("model", Engine.Json.Str spec.model);
      ("events", Engine.Json.Float spec.events);
      ("replicas", Engine.Json.Int spec.replicas);
      ("sources", Engine.Json.Int spec.sources);
      ("beta", Engine.Json.Float spec.beta);
      ("mean_period", Engine.Json.Float spec.mean_period);
      ("on_rate", Engine.Json.Float spec.on_rate);
      ("rate", Engine.Json.Float spec.rate);
      ("load", Engine.Json.Float spec.load);
      ("topology", Engine.Json.Str spec.topology);
      ("discipline", Engine.Json.Str spec.discipline);
      ("buffer", Engine.Json.Int spec.buffer);
      ("chunk", Engine.Json.Int spec.chunk);
      ("seed", Engine.Json.Int spec.seed);
    ]

let spec_of_json j =
  let int k = Option.bind (Engine.Json.member k j) Engine.Json.to_int_opt in
  let flt k = Option.bind (Engine.Json.member k j) Engine.Json.to_float_opt in
  let str k = Option.bind (Engine.Json.member k j) Engine.Json.to_str_opt in
  match
    ( (str "model", flt "events", int "replicas", int "sources", flt "beta"),
      (flt "mean_period", flt "on_rate", flt "rate", flt "load"),
      (str "topology", str "discipline", int "buffer", int "chunk", int "seed") )
  with
  | ( (Some model, Some events, Some replicas, Some sources, Some beta),
      (Some mean_period, Some on_rate, Some rate, Some load),
      (Some topology, Some discipline, Some buffer, Some chunk, Some seed) ) ->
    Ok
      { model; events; replicas; sources; beta; mean_period; on_rate; rate;
        load; topology; discipline; buffer; chunk; seed }
  | _ -> Error "bad netsim spec: missing field"

let job =
  {
    Engine.Job.name = "netsim";
    unit_name = "replica";
    units =
      (fun spec ->
        ignore (plan spec);
        spec.replicas);
    compute =
      (fun spec ->
        let plan = plan spec in
        fun ~tick r -> compute_replica ~spec ~plan ~tick r);
    encode;
    decode;
    merge = (fun spec parts -> merge_parts ~plan:(plan spec) parts);
    spec_to_json;
    spec_of_json;
  }

(* Deliberately omits the worker count and any timing: stdout must be
   byte-identical at any --workers. *)
let pp fmt spec r =
  let plan_ = plan spec in
  Format.fprintf fmt
    "netsim model=%s events=%g replicas=%d topology=%s discipline=%s \
     buffer=%d seed=%d@."
    spec.model spec.events spec.replicas spec.topology spec.discipline
    spec.buffer spec.seed;
  Format.fprintf fmt "  packets       %d@." r.total_events;
  Format.fprintf fmt "  service       %.6g s/pkt  (load %.2f, lambda %g pkt/s)@."
    plan_.service spec.load plan_.lambda;
  Array.iteri
    (fun l (ml : merged_link) ->
      Format.fprintf fmt "  link %d  util %.6f  drop-hash %08x@." l ml.m_util
        (ml.m_hash land 0xffffffff);
      Array.iteri
        (fun c (mc : merged_class) ->
          Format.fprintf fmt
            "    class %d  served %d  dropped %d  loss %.6f  wait mean %.6g \
             max %.6g  p50 %.6g p99 %.6g p999 %.6g@."
            c mc.c_served mc.c_dropped mc.c_loss mc.c_mean_wait mc.c_max_wait
            mc.c_p50 mc.c_p99 mc.c_p999)
        ml.m_classes)
    r.links
