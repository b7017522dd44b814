(** Throughput cost model — EKIT, the Effective Kernel-Instance
    Throughput (paper §V-B, Eqs 1–3).

    The kernel-instance throughput is the number of kernel-instance
    repetitions [NKI] divided by the time to execute them all. That time
    has four components (paper, Form A):

    + host↔device-DRAM transfer of the NDRange data;
    + filling the offset stream buffers until the first work-item can be
      processed ([Noff]);
    + filling the kernel pipeline ([KPD / FD]);
    + executing all work-items — limited by either the external memory
      bandwidth or the device pipelines' peak rate, whichever is smaller.

    Form B scales the host term down by [NKI] (data is moved once); Form C
    replaces the max() with its compute argument (data is on-chip, always
    compute-bound).

    Units: the paper's expressions mix words and bandwidths loosely; here
    every traffic term is in bytes against bandwidths in bytes/s. The
    compute term uses cycles-per-tuple-per-lane [cpt]: 1 for pipelined
    PEs ([NTO·NI] collapses to 1 because a dataflow pipe retires [NI]
    instructions per cycle), [NI] for sequential configurations — this is
    exactly the [NTO] figure {!Tytra_ir.Analysis} extracts. *)

type form = FormA | FormB | FormC

let form_to_string = function FormA -> "A" | FormB -> "B" | FormC -> "C"

(** All inputs of the EKIT expressions (paper Table I). *)
type inputs = {
  ngs : int;            (** work-items in the NDRange *)
  bytes_per_tuple : float;  (** NWPT expressed in bytes *)
  nki : int;            (** kernel-instance repetitions *)
  noff : int;           (** maximum stream offset, elements *)
  off_bytes : float;    (** bytes per offset element *)
  kpd : int;            (** kernel pipeline depth, cycles *)
  fd_hz : float;        (** operating frequency *)
  cpt : float;          (** cycles per tuple per lane (NTO·NI collapsed) *)
  ni : int;
      (** datapath instructions per lane: the roofline's operations per
          tuple ({!Roofline}); the EKIT expressions see it only through
          [cpt] *)
  knl : int;            (** parallel kernel lanes *)
  dv : int;             (** vectorization degree per lane *)
  hpb : float;          (** host peak bandwidth, bytes/s *)
  rho_h : float;        (** host bandwidth scaling factor (empirical) *)
  gpb : float;          (** device-DRAM peak bandwidth, bytes/s *)
  rho_g : float;        (** DRAM bandwidth scaling factor (empirical) *)
  reconfig_s : float;
      (** run-time reconfiguration penalty per kernel instance, seconds —
          the paper's design-space class C6 (Fig 5): kernels too large for
          the fabric swap configurations at run time. 0 for static
          configurations. "Measuring throughput at this granularity allows
          us to [account for] dynamic reconfiguration penalty if
          applicable" (§V-B). *)
}

(** What limits the execution term of the expression. *)
type limiter = Host_bw | Gmem_bw | Compute | Fill

let limiter_to_string = function
  | Host_bw -> "host bandwidth"
  | Gmem_bw -> "global-memory bandwidth"
  | Compute -> "compute"
  | Fill -> "pipeline/offset fill"

(** Per-term breakdown of the EKIT expression; times in seconds per
    kernel instance. *)
type breakdown = {
  bd_form : form;
  bd_host_s : float;   (** host transfer (already scaled by NKI in form B) *)
  bd_off_s : float;    (** offset-buffer fill *)
  bd_fill_s : float;   (** pipeline fill *)
  bd_gmem_s : float;   (** execution limited by DRAM *)
  bd_comp_s : float;   (** execution limited by the datapath *)
  bd_exec_s : float;   (** the max() of the expressions (Eq 1/2) *)
  bd_total_s : float;  (** time per kernel instance *)
  bd_ekit : float;     (** kernel instances per second *)
  bd_limiter : limiter;
}

let pp_breakdown fmt b =
  Format.fprintf fmt
    "form %s: host=%.3g off=%.3g fill=%.3g gmem=%.3g comp=%.3g -> t/KI=%.3g \
     s, EKIT=%.3g /s, limited by %s"
    (form_to_string b.bd_form) b.bd_host_s b.bd_off_s b.bd_fill_s b.bd_gmem_s
    b.bd_comp_s b.bd_total_s b.bd_ekit
    (limiter_to_string b.bd_limiter)

(** [ekit form i] — evaluate the EKIT expression for the given
    memory-execution form (Eq 1 for A, Eq 2 for B, Eq 3 for C). *)
let ekit (form : form) (i : inputs) : breakdown =
  let ngs = float_of_int i.ngs in
  let traffic = ngs *. i.bytes_per_tuple in
  let host_full = traffic /. (i.hpb *. i.rho_h) in
  let host =
    match form with
    | FormA -> host_full
    | FormB | FormC -> host_full /. float_of_int (max 1 i.nki)
  in
  let off = float_of_int i.noff *. i.off_bytes /. (i.gpb *. i.rho_g) in
  let fill = float_of_int i.kpd /. i.fd_hz in
  let gmem = traffic /. (i.gpb *. i.rho_g) in
  let comp =
    ngs *. i.cpt /. (i.fd_hz *. float_of_int (max 1 i.knl * max 1 i.dv))
  in
  let exec = match form with FormC -> comp | FormA | FormB -> Float.max gmem comp in
  let total = host +. off +. fill +. exec +. i.reconfig_s in
  let limiter =
    let cands =
      [
        (Host_bw, host);
        (Fill, off +. fill);
        ((if form = FormC then Compute
          else if gmem > comp then Gmem_bw
          else Compute),
         exec);
      ]
    in
    fst
      (List.fold_left
         (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
         (Compute, neg_infinity) cands)
  in
  {
    bd_form = form;
    bd_host_s = host;
    bd_off_s = off;
    bd_fill_s = fill;
    bd_gmem_s = gmem;
    bd_comp_s = comp;
    bd_exec_s = exec;
    bd_total_s = total;
    bd_ekit = (if total > 0.0 then 1.0 /. total else infinity);
    bd_limiter = limiter;
  }

(** Estimated cycles per kernel instance — the CPKI figure compared in
    the paper's Table II. Device-time only (host transfers excluded, as
    in the paper's measurement). *)
let cpki (form : form) (i : inputs) : float =
  let b = ekit form i in
  (b.bd_total_s -. b.bd_host_s) *. i.fd_hz

(** [inputs_of_design_sym ... sy summary] — assemble the EKIT inputs
    from the IR-derived parameters of the indexed design (whose
    configuration tree classifies as [summary]), the device description
    and the empirical bandwidth calibration (paper Fig 2: IR + target
    description + device-specific costing parameters → estimates). *)
let inputs_of_design_sym ?(device = Tytra_device.Device.stratixv_gsd8)
    ?(calib : Tytra_device.Bandwidth.calib option) ?(nki = 1)
    ?(fmax_mhz : float option) ?(reconfig_s = 0.0) (sy : Tytra_ir.Symtab.t)
    (summary : Tytra_ir.Config_tree.summary) : inputs =
  let open Tytra_ir in
  let d = Symtab.design sy in
  let p = Analysis.params_sym sy summary in
  let calib =
    match calib with
    | Some c -> c
    | None -> Tytra_device.Bandwidth.default_for device
  in
  let total_bytes = Analysis.bytes_per_ndrange_sym sy in
  let bytes_per_tuple =
    if p.Analysis.ngs = 0 then 0.0
    else float_of_int total_bytes /. float_of_int p.Analysis.ngs
  in
  let pat =
    match Analysis.dominant_pattern d with
    | Ast.Cont -> `Cont
    | Ast.Strided _ -> `Strided
    | Ast.Random -> `Random
  in
  (* the empirical size effect (launch/setup amortization, Fig 10) is per
     kernel instance, so the ρ lookup uses the instance's total traffic —
     splitting the same data across more lane streams does not re-pay it *)
  let rho_g =
    Tytra_device.Bandwidth.rho calib ~peak:device.Tytra_device.Device.gpb pat
      ~bytes:(float_of_int total_bytes)
  in
  let rho_h =
    Tytra_device.Bandwidth.rho_host device.Tytra_device.Device.link
      ~bytes:(float_of_int total_bytes)
  in
  let fd_mhz =
    match fmax_mhz with
    | Some f -> f
    | None -> device.Tytra_device.Device.fmax_base_mhz
  in
  let off_bytes =
    (* width of the offset-bearing stream's elements; approximated by the
       widest port of the design, outputs included, and at least 4 bytes *)
    List.fold_left
      (fun acc (pt : Ast.port) ->
        Float.max acc (float_of_int ((Ty.width pt.Ast.pt_ty + 7) / 8)))
      4.0 d.Ast.d_ports
  in
  {
    ngs = p.Analysis.ngs;
    bytes_per_tuple;
    nki;
    noff = p.Analysis.noff;
    off_bytes;
    kpd = p.Analysis.kpd;
    fd_hz = fd_mhz *. 1e6;
    cpt = float_of_int (max 1 p.Analysis.nto);
    ni = p.Analysis.ni;
    knl = p.Analysis.knl;
    dv = p.Analysis.dv;
    hpb = device.Tytra_device.Device.hpb;
    rho_h;
    gpb = device.Tytra_device.Device.gpb;
    rho_g;
    reconfig_s;
  }

(** [inputs_of_design ... d] — {!inputs_of_design_sym} on a fresh index
    of [d] and its classification. *)
let inputs_of_design ?device ?calib ?nki ?fmax_mhz ?reconfig_s
    (d : Tytra_ir.Ast.design) : inputs =
  let sy = Tytra_ir.Symtab.of_design d in
  inputs_of_design_sym ?device ?calib ?nki ?fmax_mhz ?reconfig_s sy
    (Tytra_ir.Config_tree.classify_sym sy)
