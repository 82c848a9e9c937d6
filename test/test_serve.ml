(* Core.Serve: the stdin scanner, its hostile-input errors, and the
   estimate-aligned handoff to the window. *)

open Helpers

let stdin_spec = { Core.Serve.default with Core.Serve.source = "stdin"; bin = 1. }

(* Run [Serve.run] over [text] as its stdin; [out] sees the channel and
   every formatter write, so a test can look at how far the scanner had
   read when a record came out. *)
let serve ?(spec = stdin_spec) ?out text =
  let path = Filename.temp_file "serve" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      In_channel.with_open_bin path (fun ic ->
          let b = Buffer.create 4096 in
          let write s pos len =
            Option.iter (fun f -> f ic (String.sub s pos len)) out;
            Buffer.add_substring b s pos len
          in
          let fmt = Format.make_formatter write ignore in
          let summary = Core.Serve.run ~fmt ~ic spec in
          (Buffer.contents b, summary)))

let output ?spec text = fst (serve ?spec text)

(* Sorted event times: 0..3 in each of [n] unit bins. *)
let random_times ?(seed = 5) n =
  let r = rng ~seed () in
  List.concat_map
    (fun i ->
      List.init (Prng.Rng.int r 4) (fun _ -> float_of_int i +. Prng.Rng.float r)
      |> List.sort Float.compare)
    (List.init n Fun.id)

let lines ts = String.concat "" (List.map (Printf.sprintf "%.6f\n") ts)

(* ---------------- the fast-path parse ---------------- *)

let same_parse s =
  match (Core.Serve.parse_time s, float_of_string_opt s) with
  | None, None -> ()
  | Some a, Some b when Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) -> ()
  | got, want ->
    let show = function None -> "None" | Some x -> Printf.sprintf "%h" x in
    Alcotest.failf "parse %S: got %s, want %s" s (show got) (show want)

let test_parse_random_decimals () =
  let r = rng ~seed:11 () in
  for _ = 1 to 100_000 do
    same_parse (Printf.sprintf "%d.%06d" (Prng.Rng.int r 100_000) (Prng.Rng.int r 1_000_000))
  done

let test_parse_edges () =
  List.iter same_parse
    [
      "0"; "0.0"; "000.5"; "123456789012345"; "1234567890.12345"; "0.12345678901234";
      "1234567890123456"; "0.1234567890123456"; "9007199254740993"; "1."; ".5"; ".";
      "1e3"; "0x1p3"; "1_000"; "+1"; "-0.5"; "-0"; "nan"; "inf"; "-inf"; "1.2.3";
      "1 2"; "abc"; "";
    ]

(* ---------------- the block scanner ---------------- *)

let test_scanner_syntax () =
  let ts = random_times 400 in
  let clean = output (lines ts) in
  (* CRLF, tabs and spaces around the value, comments and blank lines
     between events, and no newline after the last one. *)
  let messy =
    String.concat ""
      (List.mapi
         (fun i t ->
           let v = Printf.sprintf "%.6f" t in
           match i mod 4 with
           | 0 -> v ^ "\r\n"
           | 1 -> "\t " ^ v ^ "\t\n# a comment\n"
           | 2 -> "\n  \r\n" ^ v ^ " \n"
           | _ -> v ^ "\n")
         ts)
  in
  let messy = String.sub messy 0 (String.length messy - 1) in
  check_true "last line has no newline" (messy.[String.length messy - 1] <> '\n');
  Alcotest.(check string) "same output" clean (output messy);
  let _, s = serve messy in
  check_int "every event counted" (List.length ts) (int_of_float s.Core.Serve.total)

let test_scanner_block_edges () =
  let ts = random_times 3000 in
  let clean = output (lines ts) in
  (* Values padded so that many lines cross 64 KiB block edges, one
     comment longer than two blocks, and a value inside padding that
     spans a whole block. *)
  let b = Buffer.create (1 lsl 18) in
  List.iteri
    (fun i t ->
      if i = 100 then Buffer.add_string b ("#" ^ String.make 150_000 'x' ^ "\n");
      if i = 2000 then Buffer.add_string b (String.make 70_000 ' ');
      Buffer.add_string b (Printf.sprintf "%s%.6f\n" (String.make (i mod 37) ' ') t))
    ts;
  let text = Buffer.contents b in
  check_true "several blocks" (String.length text > 4 * 65536);
  Alcotest.(check string) "same output" clean (output text)

let test_scanner_allocates_nothing_per_event () =
  (* Every event in one bin: the window sees a single bin, so what the
     run allocates beyond a fixed cost is the scanner's. *)
  let words n =
    let text = String.concat "" (List.init n (fun _ -> "0.5\n")) in
    let before = Gc.minor_words () in
    ignore (serve text);
    Gc.minor_words () -. before
  in
  let small = words 10_000 and big = words 110_000 in
  check_true
    (Printf.sprintf "%.0f extra words for 100000 events" (big -. small))
    (big -. small < 10_000.)

(* ---------------- hostile input ---------------- *)

let rejects name text prefix =
  tc ("rejects " ^ name) (fun () ->
      check_invalid_arg name prefix (fun () -> serve text))

let hostile =
  [
    rejects "unparsable text" "0.5\n1\n# c\nx1\n" "serve: line 4: event time \"x1\" does not parse";
    rejects "nan after later times" "0.5\n10\nnan\n3\n" "serve: line 3: event time \"nan\" is NaN";
    rejects "inf" "0.5\ninf\n" "serve: line 2: event time \"inf\" is not finite";
    rejects "-inf" "-inf\n" "serve: line 1: event time \"-inf\" is not finite";
    rejects "a negative time" "\n-0.25\n1\n" "serve: line 2: event time \"-0.25\" is negative";
    rejects "an out-of-order time" "1\n5\n3\n"
      "serve: line 3: event time \"3\" is before the previous time 5.";
    rejects "a bin index past 2^53" "1\n1e16\n" "serve: line 2: event time \"1e16\" has bin index";
  ]

(* ---------------- quiet and regular windows ---------------- *)

let test_quiet_gap () =
  (* 600 empty bins: whole panes hold no events, so the variance-time
     curve has no mean to normalise by. *)
  let out, s = serve "0.5\n600\n" in
  check_int "bins" 601 s.Core.Serve.bins;
  check_true "a quiet estimate" (contains out "\"rate\":0,");
  check_true "h reads null" (contains out "\"h\":null,\"r2\":null");
  check_true "summary printed" (contains out "\"type\":\"summary\"")

let test_periodic_counts () =
  (* One event per bin: every variance is 0, so no level can be fitted. *)
  let out, s = serve (lines (List.init 1000 (fun i -> float_of_int i +. 0.5))) in
  check_int "estimates" (1000 / 64) s.Core.Serve.estimates;
  check_true "h reads null" (contains out "\"h\":null")

(* ---------------- the handoff ---------------- *)

let test_output_ignores_chunk () =
  let text = lines (random_times ~seed:9 20_000) in
  let base = output text in
  List.iter
    (fun chunk ->
      Alcotest.(check string)
        (Printf.sprintf "chunk %d" chunk)
        base
        (output ~spec:{ stdin_spec with chunk } text))
    [ 1; 1000; 4096; 65537 ];
  let tumbling = { stdin_spec with sliding = false } in
  Alcotest.(check string)
    "tumbling, chunk 1000"
    (output ~spec:tumbling text)
    (output ~spec:{ tumbling with chunk = 1000 } text)

let test_first_estimate_is_prompt () =
  let ts = random_times ~seed:3 100_000 in
  let text = lines ts in
  (* End of the line holding the first event of bin 64, which closes the
     first cadence of bins. *)
  let closing =
    let rec go off = function
      | t :: rest ->
        let off = off + String.length (Printf.sprintf "%.6f\n" t) in
        if t >= 64. then off else go off rest
      | [] -> Alcotest.fail "no event in bin 64"
    in
    go 0 ts
  in
  let first = ref None in
  let out ic _ = if !first = None then first := Some (pos_in ic) in
  let text_out, _ = serve ~out text in
  let first_line = List.hd (String.split_on_char '\n' text_out) in
  check_true "the first record is estimate 1" (contains first_line "\"seq\":1,\"upto\":64,");
  match !first with
  | None -> Alcotest.fail "nothing written"
  | Some read ->
    check_true
      (Printf.sprintf "read %d bytes; bin 64 opens by byte %d" read closing)
      (read <= closing + 65536);
    check_true "long before the end" (read < String.length text / 2)

let test_window_period () =
  let make kind =
    Core.Streaming.Window.create ~kind ~window:256 ~cadence:64 ~bin:1. ~emit:ignore ()
  in
  check_int "sliding" 64 (Core.Streaming.Window.period (make Core.Streaming.Window.Sliding));
  check_int "tumbling" 256 (Core.Streaming.Window.period (make Core.Streaming.Window.Tumbling))

let suite =
  ( "serve",
    [
      tc "fast parse = float_of_string (1e5 decimals)" test_parse_random_decimals;
      tc "fast parse = float_of_string (edge strings)" test_parse_edges;
      tc "scanner: CRLF, tabs, comments, no final newline" test_scanner_syntax;
      tc "scanner: lines across 64 KiB blocks" test_scanner_block_edges;
      tc "scanner allocates nothing per event" test_scanner_allocates_nothing_per_event;
    ]
    @ hostile
    @ [
        tc "quiet gap longer than the window" test_quiet_gap;
        tc "constant counts" test_periodic_counts;
        tc "stdin output ignores --chunk" test_output_ignores_chunk;
        tc "first estimate at bin 64, not at a buffer fill" test_first_estimate_is_prompt;
        tc "window period" test_window_period;
      ] )
