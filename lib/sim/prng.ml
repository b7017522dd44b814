(** Deterministic splitmix64 PRNG.

    All "synthesis noise" in the technology mapper and all stochastic
    choices in the simulator draw from this generator, seeded from stable
    strings (design name + device + resource class), so that benches and
    tests are exactly reproducible run-to-run. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(** FNV-1a hash of a string, for stable seeding. *)
let seed_of_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let of_string s = create (seed_of_string s)

let next_int64 (t : t) : int64 =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform float in [0, 1). *)
let float (t : t) : float =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(** Uniform int in [0, bound). *)
let int (t : t) bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_of_float (float t *. Float.of_int bound)

(** Uniform float in [lo, hi). *)
let range (t : t) lo hi = lo +. (float t *. (hi -. lo))

(** Multiplicative noise: a factor in [1-eps, 1+eps]. *)
let noise (t : t) eps = 1.0 +. range t (-.eps) eps
