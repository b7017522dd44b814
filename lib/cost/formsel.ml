(** Memory-execution-form selection and index-space tiling.

    The paper defines three memory-execution forms (Fig 6) and notes the
    model is expected "to evolve to take into account tiling an index
    space such that it can lie on a finer-grained spectrum between these
    three main types" (§III-5). This module is that evolution:

    - it decides which form a kernel instance can run in, from the
      NDRange's footprint against the board's memory capacities;
    - for data too large for on-chip memory but heavily re-used
      ([NKI] ≫ 1), it evaluates {e tiled form C}: split the index space
      into tiles that fit in block RAM, run all [NKI] iterations per tile
      from on-chip memory, and pay global-memory traffic once per tile
      (plus a halo of [2·Noff] elements for stencil kernels);
    - it compares the achievable EKIT of every feasible option and
      recommends the best. *)

(** Fraction of device BRAM available for form-C data buffers (the rest
    holds offset windows, FIFOs and framework logic). *)
let bram_data_fraction = 0.7

(** Assumed device-DRAM capacity in bytes (HPC PCIe boards; the paper's
    form-B discussion: kernel instances that fit "the increasingly large
    DRAMs"). *)
let dram_capacity_bytes = 16.0e9

type option_ = {
  fo_form : Throughput.form;
  fo_tiles : int;           (** 1 = untiled *)
  fo_ekit : float;
  fo_breakdown : Throughput.breakdown;
}

type recommendation = {
  fr_options : option_ list;  (** all feasible options, best first *)
  fr_best : option_;
  fr_footprint_bytes : int;   (** NDRange data footprint *)
  fr_onchip_bytes : float;    (** BRAM budget used for the decision *)
}

(* EKIT of a tiled form-C execution: per tile, the data (tile fraction of
   the NDRange, plus halo) crosses global memory once, then NKI iterations
   run compute-bound on-chip. *)
let tiled_ekit (i : Throughput.inputs) ~(tiles : int) : Throughput.breakdown
    =
  let ngs_tile = (i.Throughput.ngs + tiles - 1) / tiles in
  let halo = 2 * i.Throughput.noff in
  let tile_traffic =
    (float_of_int ngs_tile +. float_of_int halo) *. i.Throughput.bytes_per_tuple
  in
  let gmem_per_tile = tile_traffic /. (i.Throughput.gpb *. i.Throughput.rho_g) in
  let comp_per_tile_iter =
    float_of_int ngs_tile *. i.Throughput.cpt
    /. (i.Throughput.fd_hz *. float_of_int (max 1 i.Throughput.knl * max 1 i.Throughput.dv))
  in
  let fill =
    float_of_int i.Throughput.kpd /. i.Throughput.fd_hz
  in
  let host =
    float_of_int i.Throughput.ngs *. i.Throughput.bytes_per_tuple
    /. (i.Throughput.hpb *. i.Throughput.rho_h)
    /. float_of_int (max 1 i.Throughput.nki)
  in
  (* per kernel-instance equivalent time: tile loads amortize over NKI *)
  let t_ki =
    host
    +. (float_of_int tiles
        *. (gmem_per_tile /. float_of_int (max 1 i.Throughput.nki)
           +. comp_per_tile_iter +. fill))
  in
  {
    Throughput.bd_form = Throughput.FormC;
    bd_host_s = host;
    bd_off_s = 0.0;
    bd_fill_s = float_of_int tiles *. fill;
    bd_gmem_s =
      float_of_int tiles *. gmem_per_tile /. float_of_int (max 1 i.Throughput.nki);
    bd_comp_s = float_of_int tiles *. comp_per_tile_iter;
    bd_exec_s = float_of_int tiles *. comp_per_tile_iter;
    bd_total_s = t_ki;
    bd_ekit = (if t_ki > 0.0 then 1.0 /. t_ki else infinity);
    bd_limiter =
      (if float_of_int tiles *. comp_per_tile_iter >= host then
         Throughput.Compute
       else Throughput.Host_bw);
  }

(** [recommend ~device ~footprint i] — evaluate forms A, B, C and tiled C
    for a design whose Table-I inputs at the device's base clock are [i]
    ({!Report.base_clock_inputs}) and whose NDRange moves [footprint]
    bytes, at [i.nki] kernel instances, and recommend the fastest
    feasible execution. *)
let recommend ~(device : Tytra_device.Device.t) ~footprint
    (inputs : Throughput.inputs) : recommendation =
  let nki = inputs.Throughput.nki in
  let onchip =
    bram_data_fraction *. float_of_int device.Tytra_device.Device.bram_bits /. 8.0
  in
  let mk form tiles bd =
    { fo_form = form; fo_tiles = tiles; fo_ekit = bd.Throughput.bd_ekit;
      fo_breakdown = bd }
  in
  let opts = ref [] in
  (* form A: always feasible *)
  opts := mk Throughput.FormA 1 (Throughput.ekit Throughput.FormA inputs) :: !opts;
  (* form B: NDRange must fit device DRAM *)
  if float_of_int footprint <= dram_capacity_bytes then
    opts := mk Throughput.FormB 1 (Throughput.ekit Throughput.FormB inputs) :: !opts;
  (* form C untiled: NDRange fits on-chip *)
  if float_of_int footprint <= onchip then
    opts := mk Throughput.FormC 1 (Throughput.ekit Throughput.FormC inputs) :: !opts
  else if float_of_int footprint <= dram_capacity_bytes && nki > 1 then begin
    (* tiled form C: smallest tile count whose tile fits on-chip *)
    let tiles =
      int_of_float (Float.ceil (float_of_int footprint /. onchip))
    in
    if tiles > 1 && tiles <= inputs.Throughput.ngs then
      opts := mk Throughput.FormC tiles (tiled_ekit inputs ~tiles) :: !opts
  end;
  let sorted =
    List.sort (fun a b -> compare b.fo_ekit a.fo_ekit) !opts
  in
  {
    fr_options = sorted;
    fr_best = List.hd sorted;
    fr_footprint_bytes = footprint;
    fr_onchip_bytes = onchip;
  }

let pp_option fmt o =
  Format.fprintf fmt "form %s%s: EKIT %.4g /s (%s)"
    (Throughput.form_to_string o.fo_form)
    (if o.fo_tiles > 1 then Printf.sprintf " x%d tiles" o.fo_tiles else "")
    o.fo_ekit
    (Throughput.limiter_to_string o.fo_breakdown.Throughput.bd_limiter)

let pp fmt (r : recommendation) =
  Format.fprintf fmt "footprint %d bytes, on-chip budget %.0f bytes@\n"
    r.fr_footprint_bytes r.fr_onchip_bytes;
  List.iter (fun o -> Format.fprintf fmt "  %a@\n" pp_option o) r.fr_options;
  Format.fprintf fmt "recommended: %a" pp_option r.fr_best
