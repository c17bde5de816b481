(* Order statistics for ppcbench.

   Two kinds.  Within a run, exact nearest-rank percentiles over a kept
   sample of nanosecond latencies: Workload.Hist reports a bucket's upper
   bound (up to +1/32 off), which is too coarse for a gate whose spread
   target is a few percent, and it reads the same bucket bound on most
   runs.  Across runs, the quartiles of Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method)
   and [statistics.median], so [ppcbench compare] reads a run set the
   same way an outside checker written in Python would. *)

(* Sorted copy of [len] entries of [a] from [pos]. *)
let sorted_sub a pos len =
  let s = Array.sub a pos len in
  Array.sort Int.compare s;
  s

(* Nearest-rank percentile of a sorted array: the value at rank
   ceil(q * n).  0 when empty. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let mean_int sorted =
  let n = Array.length sorted in
  if n = 0 then 0.
  else Array.fold_left (fun acc x -> acc +. float_of_int x) 0. sorted /. float_of_int n

(* [(q1, median, q3)] as statistics.quantiles(xs, n=4) and
   statistics.median give them; with a single value all three are it. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  let med = Bench_gate.median xs in
  if ld < 2 then (med, med, med)
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, med, q 3)
  end

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs med
