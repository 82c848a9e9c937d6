(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the percentile [p] of [n] samples is the sample of rank
   ceil (p * n). The epsilon keeps 0.99 * 100 at rank 99, not 100. *)
let rank ~n p = Int.max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let beyond ~n p = n - rank ~n p

let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else a.(Int.min n (rank ~n p) - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail a timing is reported at: the highest percentile of this
   ladder that still has at least [min_beyond] samples beyond it, so the
   figure rests on more than a handful of outliers. Falls back to the
   median. *)
let ladder = [ 0.5; 0.9; 0.99; 0.999 ]

let tail_percentile ?(min_beyond = 10) n =
  List.fold_left
    (fun acc p -> if beyond ~n p >= min_beyond then p else acc)
    0.5 ladder

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method), which is how set spreads are judged. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then nan else (q3 -. q1) /. Float.abs q2
