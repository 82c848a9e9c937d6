(* Output checks that hold for any seed. Each returns the problems it
   found; an empty list means the output is correct. *)

(* Tolerances. Poisson totals are held to 6 standard deviations. ON/OFF
   totals are heavy-tailed (beta = 1.5), so they get a relative band
   wide enough for any seed at the workload's scale: over seeds 1-12 the
   deviation stayed within 2.1% at 2e6 bins and 7.7% at 2e4, and the
   netsim packet count within 0.5% at 1.2e7 and 1.4% at 1.2e5.
   Utilisation is only pinned at full scale: a replica a few seconds
   long does not reach its steady-state load. *)
let onoff_events_tol ~bins = if bins >= 1_000_000 then 0.1 else 0.4
let netsim_packets_tol ~packets = if packets >= 1e6 then 0.05 else 0.15
let util_tol ~packets = if packets >= 1e6 then Some 0.02 else None

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let lines s = String.split_on_char '\n' s

(* The value after [key] on the first line holding it, e.g. "bins=5"
   with [key = "bins="], or "total-count   12" with [key = "total-count"]. *)
let field out key =
  List.find_map
    (fun line ->
      let ws = words line in
      let rec go = function
        | w :: rest when w = key -> ( match rest with v :: _ -> Some v | [] -> None)
        | w :: rest ->
          let n = String.length key in
          if String.length w > n && String.sub w 0 n = key then
            Some (String.sub w n (String.length w - n))
          else go rest
        | [] -> None
      in
      go ws)
    (lines out)

let float_field out key = Option.bind (field out key) float_of_string_opt
let int_field out key = Option.bind (field out key) int_of_string_opt

let farm ~events out =
  let ps = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ps := s :: !ps) fmt in
  let n_bins = Int.max 1 (int_of_float (Float.round (events /. 1000. /. 0.01))) in
  (match int_field out "bins=" with
  | Some b when b = n_bins -> ()
  | _ -> add "farm: bins differ from the plan's %d" n_bins);
  (match float_field out "total-count" with
  | Some n when Float.abs (n -. events) <= 6. *. sqrt events -> ()
  | Some n -> add "farm: %.0f events, expected %.0f +- 6 sqrt" n events
  | None -> add "farm: no total-count line");
  List.rev !ps

let stream ~bins out =
  let ps = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ps := s :: !ps) fmt in
  (match int_field out "bins=" with
  | Some b when b = bins -> ()
  | _ -> add "stream: bins differ from the %d asked for" bins);
  let expected = 8. *. 1000. *. 0.01 *. float_of_int bins in
  (match float_field out "total-count" with
  | Some n when Float.abs ((n /. expected) -. 1.) <= onoff_events_tol ~bins -> ()
  | Some n -> add "stream: %.0f events, expected about %.0f" n expected
  | None -> add "stream: no total-count line");
  List.rev !ps

let netsim ~packets out =
  let ps = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ps := s :: !ps) fmt in
  let ls = lines out in
  let n = int_field out "packets" in
  (match n with
  | Some n when Float.abs ((float_of_int n /. packets) -. 1.) <= netsim_packets_tol ~packets -> ()
  | Some n -> add "netsim: %d packets for %g" n packets
  | None -> add "netsim: no packets line");
  (* Link 0's block: its header, then one line per class. *)
  let rec link0 = function
    | l :: rest when List.mem "link" (words l) && List.nth_opt (words l) 1 = Some "0" ->
      let rec classes acc = function
        | c :: rest when List.hd (words c @ [ "" ]) = "class" -> classes (c :: acc) rest
        | _ -> List.rev acc
      in
      Some (l, classes [] rest)
    | _ :: rest -> link0 rest
    | [] -> None
  in
  (match link0 ls with
  | None -> add "netsim: no link 0 block"
  | Some (header, classes) ->
    let num key l = float_field l key in
    let offered =
      List.fold_left
        (fun acc c ->
          match (num "served" c, num "dropped" c) with
          | Some s, Some d -> acc +. s +. d
          | _ -> nan)
        0. classes
    in
    if List.length classes <> 2 || Some (int_of_float offered) <> n then
      add "netsim: link 0 served + dropped <> packets";
    match (num "util" header, util_tol ~packets) with
    | Some u, Some tol when Float.abs (u -. 0.8) > tol -> add "netsim: link 0 utilisation %g" u
    | None, _ -> add "netsim: no link 0 utilisation"
    | _ -> ());
  List.rev !ps

(* Report headings: a line underlined by exactly as many dashes. *)
let headings out =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      if a <> "" && String.length b = String.length a && String.for_all (( = ) '-') b
      then go (a :: acc) rest
      else go acc rest
    | _ -> List.rev acc
  in
  go [] (lines out)

let headings_hash out = Engine.Sha256.hex (String.concat "\n" (headings out))

(* The 44 experiments' headings, in registry order: every experiment
   reported, none failed. (The text under them depends on the seed only
   in x-buffer-sizing.) *)
let paper_headings_pin = "5ece628394517d0f6d5eebdb40ff33458d7af574295f6223180d216d9154e2d4"

let paper ~full out =
  let ps = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ps := s :: !ps) fmt in
  if full then begin
    if headings_hash out <> paper_headings_pin then
      add "paper: report headings differ from the pinned registry"
  end
  else if headings out = [] then add "paper: no report";
  List.rev !ps

(* Each workload's stdout hash at seed 42 and full scale; serve-live's
   at the 15 s replay of a 20 s run. *)
let pins =
  [
    ("poisson-farm", "cdb48d400b19bed5434a99fcacec25c0d040545d6960598758f89094616596ad");
    ("onoff-stream", "89da2dc2bb8ca87e99bf4244b1b356305b387ac617139221c286b41661454e40");
    ("onoff-netsim", "f0a6eab229d360fac1005c35025b621d286a8507df4b652f99df57185b3663ba");
    ("serve-live", "bb4f6370a11ace0ca6207167e3e2bee3deaa05b4638aea1b7778a3d1438abf4a");
    ("paper-repro", "0b4a0a8faf2ab9fc034d400d0eeef79fe08efdfb47cf27f7c14495f347dc46a4");
  ]

let pin ~workload out =
  match List.assoc_opt workload pins with
  | Some h when Engine.Sha256.hex out <> h ->
    [ workload ^ ": stdout hash differs from the seed-42 pin" ]
  | _ -> []

(* "peak RSS N kB" on a single-process workload's stderr. *)
let stderr_rss_kb err =
  List.find_map
    (fun line ->
      let rec go = function
        | "peak" :: "RSS" :: v :: _ -> int_of_string_opt v
        | _ :: rest -> go rest
        | [] -> None
      in
      go (words (String.map (fun c -> if c = ',' then ' ' else c) line)))
    (lines err)
