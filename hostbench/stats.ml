(* Order statistics over float samples. Nearest-rank selection: the
   q-quantile of n samples is the ceil(q n)-th smallest, so every reported
   percentile is one of the measured values, never an interpolation. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank n q =
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  if r < 1 then 0 else if r > n then n - 1 else r - 1

let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples" else a.(rank n q)

let percentile xs q = percentile_sorted (sorted xs) q
let median xs = percentile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
