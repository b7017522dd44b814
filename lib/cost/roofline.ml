(** Roofline view of a design variant.

    The paper singles out the roofline-for-FPGAs work (da Silva et al.,
    its reference [11]) as "quite relevant and something we are looking
    into for a more useful representation of our cost-model". This module
    provides that representation: for a variant it computes

    - the {e operational intensity} (datapath operations per byte of
      global-memory traffic — fixed by the kernel, not the variant);
    - the {e compute ceiling} of the variant (operations/s its lanes can
      retire at the operating clock);
    - the {e bandwidth ceilings} (sustained global-memory and host
      bandwidth × intensity);
    - the attainable performance and which ceiling binds.

    Sweeping lanes moves the compute ceiling up until it crosses the
    bandwidth roof — the same walls as Fig 15, in roofline form. *)

type t = {
  rf_intensity : float;       (** ops per byte of global traffic *)
  rf_compute_ceiling : float; (** ops/s from the datapath *)
  rf_gmem_roof : float;       (** ops/s allowed by sustained DRAM BW *)
  rf_host_roof : float;       (** ops/s allowed by sustained host BW *)
  rf_attainable : float;      (** min of the applicable ceilings *)
  rf_bound : [ `Compute | `Gmem | `Host ];
}

(** [of_inputs ?form i] — roofline point of a design whose Table-I
    inputs are [i], taken at the clock [i] carries (the device's base
    clock in [tybec cost], {!Report.base_clock_inputs}). With form B
    (the default), host bandwidth is amortized over [i.nki] and usually
    not the binding roof; with form A it frequently is. *)
let of_inputs ?(form = Throughput.FormB) (inputs : Throughput.inputs) : t =
  let nki = inputs.Throughput.nki in
  let ops_per_tuple = float_of_int (max 1 inputs.Throughput.ni) in
  let intensity =
    if inputs.Throughput.bytes_per_tuple > 0.0 then
      ops_per_tuple /. inputs.Throughput.bytes_per_tuple
    else infinity
  in
  let lanes = float_of_int (max 1 (inputs.Throughput.knl * inputs.Throughput.dv)) in
  let compute =
    ops_per_tuple *. inputs.Throughput.fd_hz *. lanes
    /. Float.max 1.0 inputs.Throughput.cpt
  in
  let gmem_roof =
    intensity *. inputs.Throughput.gpb *. inputs.Throughput.rho_g
  in
  let host_sust =
    inputs.Throughput.hpb *. inputs.Throughput.rho_h
    *.
    (match form with
    | Throughput.FormA -> 1.0
    | Throughput.FormB | Throughput.FormC -> float_of_int (max 1 nki))
  in
  let host_roof = intensity *. host_sust in
  let applicable_rooves =
    match form with
    | Throughput.FormC -> [ (`Compute, compute) ]
    | Throughput.FormA | Throughput.FormB ->
        [ (`Compute, compute); (`Gmem, gmem_roof); (`Host, host_roof) ]
  in
  let bound, attainable =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
      (`Compute, infinity) applicable_rooves
  in
  {
    rf_intensity = intensity;
    rf_compute_ceiling = compute;
    rf_gmem_roof = gmem_roof;
    rf_host_roof = host_roof;
    rf_attainable = attainable;
    rf_bound = bound;
  }

let bound_to_string = function
  | `Compute -> "compute"
  | `Gmem -> "gmem-bandwidth"
  | `Host -> "host-bandwidth"

let pp fmt r =
  Format.fprintf fmt
    "OI %.3f ops/B | ceilings: compute %.3g, gmem %.3g, host %.3g ops/s | \
     attainable %.3g (%s-bound)"
    r.rf_intensity r.rf_compute_ceiling r.rf_gmem_roof r.rf_host_roof
    r.rf_attainable
    (bound_to_string r.rf_bound)
