(** Order statistics for benchmark samples. *)

(* Nearest-rank position of percentile [p] in [n] sorted samples. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

(** Nearest-rank percentile ([nan] if empty). *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    s.(rank n p - 1)
  end

let median a = percentile a 50.0

(** Samples strictly above the nearest-rank percentile [p] of [n]. *)
let beyond n p = n - rank n p

(** The benchmark's tail rule: a tail percentile is reported only when at
    least this many samples lie beyond it. *)
let min_beyond = 10

(** Smallest sample count for which percentile [p] satisfies the rule. *)
let min_samples p =
  let rec go n = if beyond n p >= min_beyond then n else go (n + 1) in
  go 1

(** Indices of the faster half (rounded up) of [walls], fastest first.
    Other tenants of a shared machine only ever slow a pass of work
    down, so timing statistics of passes that repeat the same work are
    taken over the faster half of them. *)
let faster_half walls =
  let idx = Array.init (Array.length walls) Fun.id in
  Array.stable_sort (fun i j -> Float.compare walls.(i) walls.(j)) idx;
  Array.sub idx 0 ((Array.length walls + 1) / 2)

let sum a = Array.fold_left ( +. ) 0.0 a
let ratio num den = if den = 0.0 then 0.0 else num /. den
