(* Host sentinel: what this box can do, measured next to every result.

   A sequential float-array sum (four accumulators, so the loop is bound
   by loads rather than by add latency) and a copy, at an in-cache
   working set (512 KiB) and a memory-bound one (64 MiB). Per-bin layers
   are reported against the in-cache sum as a "% of ceiling", and two
   sets whose host figures differ by more than a tenth are compared as
   noisy rather than resolved. *)

type t = {
  sum_gbps_512k : float;
  copy_gbps_512k : float;
  sum_gbps_64m : float;
  copy_gbps_64m : float;
}

let sum4 a =
  let n = Array.length a in
  let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
  let i = ref 0 in
  while !i + 3 < n do
    s0 := !s0 +. Array.unsafe_get a !i;
    s1 := !s1 +. Array.unsafe_get a (!i + 1);
    s2 := !s2 +. Array.unsafe_get a (!i + 2);
    s3 := !s3 +. Array.unsafe_get a (!i + 3);
    i := !i + 4
  done;
  while !i < n do
    s0 := !s0 +. a.(!i);
    incr i
  done;
  !s0 +. !s1 +. !s2 +. !s3

(* Median over [samples] timings of [reps] calls, as bytes per second. *)
let rate ~bytes ~samples ~reps f =
  let times =
    List.init samples (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          f ()
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int reps)
  in
  bytes /. Pct.median times /. 1e9

let sink = ref 0.

let measure () =
  let kernels ~floats ~samples ~reps =
    let a = Array.init floats (fun i -> float_of_int (i land 1023)) in
    let b = Array.make floats 0. in
    let bytes = float_of_int (8 * floats) in
    let s = rate ~bytes ~samples ~reps (fun () -> sink := !sink +. sum4 a) in
    let c = rate ~bytes ~samples ~reps (fun () -> Array.blit a 0 b 0 floats) in
    (s, c)
  in
  let sum_gbps_512k, copy_gbps_512k = kernels ~floats:65536 ~samples:9 ~reps:64 in
  let sum_gbps_64m, copy_gbps_64m = kernels ~floats:(8 lsl 20) ~samples:9 ~reps:1 in
  { sum_gbps_512k; copy_gbps_512k; sum_gbps_64m; copy_gbps_64m }

let to_list h =
  [
    ("host.sum_gbps_512k", h.sum_gbps_512k);
    ("host.copy_gbps_512k", h.copy_gbps_512k);
    ("host.sum_gbps_64m", h.sum_gbps_64m);
    ("host.copy_gbps_64m", h.copy_gbps_64m);
  ]

(* Per figure, the median over several sentinels. *)
let median hs =
  let m f = Pct.median (List.map f hs) in
  {
    sum_gbps_512k = m (fun h -> h.sum_gbps_512k);
    copy_gbps_512k = m (fun h -> h.copy_gbps_512k);
    sum_gbps_64m = m (fun h -> h.sum_gbps_64m);
    copy_gbps_64m = m (fun h -> h.copy_gbps_64m);
  }

(* Largest relative gap between two sentinels. *)
let drift a b =
  List.fold_left2
    (fun acc (_, x) (_, y) -> Float.max acc (Float.abs (y -. x) /. x))
    0. (to_list a) (to_list b)
