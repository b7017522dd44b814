(** The phases of a [serve-mixed] run for a time budget of [seconds]:
    how long each lasts and how many requests it sends. *)

(** Fixed rates of the traced run (req/s); the untraced run has only the
    first. *)
let rates = [ 200; 400; 800 ]

let headline_rate = 200

(** The untraced run replays one [headline_rate] schedule this many
    times, each on a fresh server, and its closed loop [closed_replays]
    times. *)
let replays = 10

let closed_replays = 3

(** Warm-up of every fixed-rate phase. *)
let warmup seconds = 0.0125 *. seconds

(** The measured window of one replay at [headline_rate]: at least the
    one second whose 200 requests a p95 needs. *)
let window seconds = Float.max 1.0 (0.05 *. seconds)

(** One closed-loop replay sends a fixed number of requests, whatever
    the rate they complete at: 80 per second of budget, which takes
    about a tenth of the budget at the 800-1000 req/s measured on 2
    vCPUs. *)
let closed seconds = int_of_float (80.0 *. seconds)

(** The traced run measures each rate over at least the 1000 requests a
    p99 needs. *)
let traced_window seconds rate =
  Float.max (0.125 *. seconds) (float_of_int (Stats.min_samples 99.0) /. float_of_int rate)

let fixed_rate ~rate ~window = int_of_float (float_of_int rate *. window)

(** Requests in the longest phase of either run: the never-sent pool is
    sized for it. *)
let longest seconds =
  let with_warmup rate w = fixed_rate ~rate ~window:(warmup seconds +. w) in
  List.fold_left max (closed seconds)
    (with_warmup headline_rate (window seconds)
    :: List.map (fun r -> with_warmup r (traced_window seconds r)) rates)
