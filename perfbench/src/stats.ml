(* Order statistics and the tail-percentile rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman–Fan type 7). *)
let quantile_sorted (a : float array) p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = float_of_int (n - 1) *. p /. 100. in
  let lo = truncate h in
  if lo >= n - 1 then a.(n - 1)
  else a.(lo) +. ((h -. float_of_int lo) *. (a.(lo + 1) -. a.(lo)))

let quantile xs p = quantile_sorted (sorted xs) p
let median xs = quantile xs 50.

(* Python's [statistics.quantiles(xs, n=4)] with its default
   "exclusive" method, so spreads printed here read like the ones the
   acceptance check computes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let iqr_share xs =
  if List.length xs < 2 then 0.
  else
    let q1, q2, q3 = quartiles xs in
    if q2 = 0. then 0. else (q3 -. q1) /. q2

type tail = {
  percentile : float;
  value : float;
  beyond : int;  (** samples strictly above [value] *)
  label : string;  (** whose latency block the percentile falls in *)
  margin : int;
      (** samples of that block between the percentile and the nearer
          block edge, in sorted order *)
  ok : bool;
}

let min_beyond = 10
let min_margin = 2

let tail ~percentile (samples : (string * float) list) =
  let a = Array.of_list samples in
  Array.stable_sort (fun (_, x) (_, y) -> Float.compare x y) a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let value = quantile_sorted (Array.map snd a) percentile in
  let beyond =
    Array.fold_left (fun k (_, x) -> if x > value then k + 1 else k) 0 a
  in
  let h = float_of_int (n - 1) *. percentile /. 100. in
  let lo = min (n - 1) (truncate h) in
  let hi = min (n - 1) (lo + 1) in
  let label = fst a.(lo) in
  (* Same-label run around the interpolation pair: how far the rank may
     move before the tail lands in another bug's block. *)
  let rec left i =
    if i > 0 && fst a.(i - 1) = label then left (i - 1) else i
  in
  let rec right i =
    if i < n - 1 && fst a.(i + 1) = label then right (i + 1) else i
  in
  let margin =
    if fst a.(hi) <> label then 0 else min (lo - left lo) (right hi - hi)
  in
  { percentile; value; beyond; label; margin;
    ok = beyond >= min_beyond && margin >= min_margin }

let highest_percentile ~n ~min_beyond =
  if n <= min_beyond then 0.
  else 100. *. float_of_int (n - min_beyond) /. float_of_int n
