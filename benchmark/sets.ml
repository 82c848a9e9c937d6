(* Sets of runs, and the comparison of two sets.

   A set runs each workload once per seed, 1 to N, each run a fresh
   process exactly as a single [--workload] invocation, and records
   every end-to-end value, with the host sentinel taken before each
   workload and after the last.
   Comparing two sets applies the bounds in BENCHMARK.json to each
   metric and workload. *)

module J = Engine.Json

let member_exn k j =
  match J.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let num j =
  match j with
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> failwith "expected a number"

let host_json (h : Host.t) = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (Host.to_list h))

let host_of_json j =
  let f k = num (member_exn k j) in
  {
    Host.sum_gbps_512k = f "host.sum_gbps_512k";
    copy_gbps_512k = f "host.copy_gbps_512k";
    sum_gbps_64m = f "host.sum_gbps_64m";
    copy_gbps_64m = f "host.copy_gbps_64m";
  }

let hosts set =
  List.map host_of_json (Option.value ~default:[] (J.to_list_opt (member_exn "host" set)))

(* The set's sentinel: each figure's median over its measurements. *)
let host set = Host.median (hosts set)

(* The result line a run printed last. *)
let parse_result out =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | last :: _ -> J.parse last
  | [] -> Error "no output"

let run ~self ~work ~runs ~seconds ~out =
  let hosts = ref [] in
  let per_workload =
    List.map
      (fun (w : Workloads.t) ->
        let w = w.name in
        hosts := Host.measure () :: !hosts;
        let results =
          List.init runs (fun i ->
              let seed = i + 1 in
              let o = Filename.concat work "set.out" in
              let e = Filename.concat work (Printf.sprintf "set-%s-%d.err" w seed) in
              let u =
                Proc.run ~out:o ~err:e self
                  [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                    Printf.sprintf "%g" seconds; "--trace"; "0" ]
              in
              match parse_result (Proc.read_file o) with
              | Ok j ->
                Printf.eprintf "set: %s seed %d: %s\n%!" w seed
                  (J.to_string (member_exn "metrics" j));
                J.Obj [ ("seed", J.Int seed); ("exit", J.Int u.Proc.code); ("result", j) ]
              | Error m ->
                Printf.eprintf "set: %s seed %d: no result (%s)\n%!" w seed m;
                J.Obj [ ("seed", J.Int seed); ("exit", J.Int u.Proc.code) ])
        in
        (w, J.List results))
      Workloads.all
  in
  hosts := Host.measure () :: !hosts;
  let j =
    J.Obj
      [
        ("seconds", J.Float seconds);
        ("host", J.List (List.rev_map host_json !hosts));
        ("workloads", J.Obj per_workload);
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string ~indent:true j);
  close_out oc;
  j

(* Per workload and end-to-end metric: the values over the set's runs,
   and the failures. *)
let values set =
  let ws = match member_exn "workloads" set with J.Obj l -> l | _ -> [] in
  List.map
    (fun (w, runs) ->
      let runs = Option.value ~default:[] (J.to_list_opt runs) in
      let failed =
        List.fold_left
          (fun acc r ->
            match J.member "result" r with
            | Some res when J.member "correct" res = Some (J.Bool true) -> acc
            | _ -> acc + 1)
          0 runs
      in
      let metric m =
        List.filter_map
          (fun r ->
            Option.bind (J.member "result" r) (fun res ->
                Option.bind (J.member "metrics" res) (fun ms ->
                    Option.map (fun v -> num (member_exn "value" v)) (J.member m ms))))
          runs
      in
      (w, failed, List.map (fun (m, _) -> (m, metric m)) Metrics.end_to_end))
    ws

let summary set =
  let b = Buffer.create 2048 in
  Printf.bprintf b "%-14s %-12s %5s %12s %12s %12s %8s\n" "workload" "metric" "runs" "q1" "median"
    "q3" "spread";
  List.iter
    (fun (w, failed, ms) ->
      List.iter
        (fun (m, vs) ->
          let q1, q2, q3 = Pct.quartiles vs in
          Printf.bprintf b "%-14s %-12s %5d %12.5g %12.5g %12.5g %7.2f%%\n" w m (List.length vs) q1
            q2 q3 (100. *. Pct.spread vs))
        ms;
      if failed > 0 then Printf.bprintf b "%-14s %d runs incorrect\n" w failed)
    (values set);
  let h = host set in
  Printf.bprintf b "host sum/copy GB/s, 512 KiB and 64 MiB (median of %d): %.2f %.2f %.2f %.2f\n"
    (List.length (hosts set)) h.sum_gbps_512k h.copy_gbps_512k h.sum_gbps_64m h.copy_gbps_64m;
  Buffer.contents b

(* Bounds and directions from BENCHMARK.json. *)
let bounds bench =
  List.map
    (fun m ->
      let s k = Option.bind (J.member k m) J.to_str_opt |> Option.value ~default:"" in
      (s "name", (s "better", num (member_exn "bound" m))))
    (Option.value ~default:[] (J.to_list_opt (member_exn "end_to_end" bench)))

(* Verdict per metric and workload: "within" its bound, "REGRESSED"
   beyond it, "unresolved" when either set's spread exceeds the bound,
   and "noisy" for every pair when the host sentinel moved by more than
   a tenth between the sets. Returns the table and the regression
   count. *)
let compare ~bench a b =
  let bounds = bounds bench in
  let noisy = Host.drift (host a) (host b) > 0.1 in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "host drift between sets: %.1f%%%s\n"
    (100. *. Host.drift (host a) (host b))
    (if noisy then " (over 10%: every comparison is noisy)" else "");
  Printf.bprintf buf "%-14s %-12s %12s %12s %9s %8s %8s  %s\n" "workload" "metric" "median A"
    "median B" "change" "spread" "bound" "verdict";
  let regressions = ref 0 in
  let vb = values b in
  List.iter
    (fun (w, _, ms) ->
      match List.find_opt (fun (w', _, _) -> w' = w) vb with
      | None -> ()
      | Some (_, _, ms') ->
        List.iter
          (fun (m, va) ->
            let vb = Option.value ~default:[] (List.assoc_opt m ms') in
            let better, bound = Option.value ~default:("lower", 0.) (List.assoc_opt m bounds) in
            let ma = Pct.median va and mb = Pct.median vb in
            let change = (mb -. ma) /. ma in
            let worse = if better = "lower" then change else -.change in
            let spread = Float.max (Pct.spread va) (Pct.spread vb) in
            let verdict =
              if noisy then "noisy"
              else if spread > bound && m <> "setup_s" then "unresolved"
              else if worse > bound then begin
                incr regressions;
                "REGRESSED"
              end
              else "within"
            in
            Printf.bprintf buf "%-14s %-12s %12.5g %12.5g %+8.2f%% %7.2f%% %7.0f%%  %s\n" w m ma mb
              (100. *. change) (100. *. spread) (100. *. bound) verdict)
          ms)
    (values a);
  (Buffer.contents buf, !regressions)
