(** Admissible cost bounds for DSE pruning — resource lower bounds and
    EKIT upper bounds for a replicated variant, computed from the
    baseline (single-lane pipelined) report {e without lowering the
    variant}.

    The DSE sweep evaluates one cheap baseline per (program, device,
    calibration, form, nki) and then asks, for every candidate lane/vec
    count [pes], two questions a full evaluation would answer three
    orders of magnitude slower:

    - {b can it possibly fit?} Replication shares one PE definition
      (the lowerer emits a single [@f0] for every lane) and adds, per
      extra lane, exactly one PE instance plus its streams' control
      logic — the [est_per_lane] marginal the resource model already
      exposes. So
      {[ usage(pes) = usage(1) + (pes - 1) * per_lane(1) ]}
      holds {e exactly} under the model for ParPipe/ParVecPipe variants,
      and [usage_lb] below is in fact the precise usage: it comes from
      {!Resource_model.replicate}, as the estimate of
      {!Report.replicate} does. It is still
      only used as a lower bound ([b_fits = false] proves the real
      variant cannot fit) so the pruning argument never depends on
      exactness.

    - {b can it possibly beat the incumbent?} EKIT's terms respond to
      replication in known directions: host, offset-fill, DRAM and
      reconfiguration terms are invariant (traffic and ρ-lookups are per
      kernel instance, not per lane); the compute term divides by [pes];
      pipeline fill and compute stretch by the clock derating, which is
      monotone in utilization — and [usage_lb] gives a utilization lower
      bound, hence a clock {e upper} bound [b_fmax_ub_mhz]. Combining
      the optimistic ends of every term yields [b_ekit_ub ≥] the true
      EKIT of the variant.

    Admissibility contract: both bounds are conservative only for
    homogeneous replicated variants of the {e same} program on the
    {e same} (device, calibration, form, nki) as the baseline report,
    where the baseline is the [pes = 1] pipelined configuration (its
    [cpt], [kpd], [noff] and traffic are preserved or worsened by
    replication). Seq and Pipe themselves must be fully evaluated.
    DESIGN.md §9 gives the derivation term by term. *)

type t = {
  b_pes : int;              (** candidate's processing elements (lanes·vec) *)
  b_usage_lb : Tytra_device.Resources.usage;
      (** componentwise lower bound on the variant's usage (exact under
          the model for replicated variants) *)
  b_util_lb : float;        (** utilization of [b_usage_lb] *)
  b_fits : bool;            (** [false] proves the variant cannot fit *)
  b_fmax_ub_mhz : float;    (** upper bound on the derated clock *)
  b_total_lb_s : float;     (** lower bound on time per kernel instance *)
  b_ekit_ub : float;        (** upper bound on the variant's EKIT *)
}

let area_lb (b : t) : int = b.b_usage_lb.Tytra_device.Resources.aluts

(** [of_baseline ~device ~form ~pes baseline] — bounds for a replicated
    variant with [pes] processing elements, from the baseline (Pipe)
    report. Requires [pes ≥ 1]; at [pes = 1] the bounds coincide with
    the baseline's exact figures, the EKIT bound up to its margin. *)
let of_baseline ~(device : Tytra_device.Device.t) ~(form : Throughput.form)
    ~(pes : int) (baseline : Report.t) : t =
  let est = baseline.Report.rp_estimate in
  let bd = baseline.Report.rp_breakdown in
  (* the variant's own estimate, as {!Report.replicate} costs it *)
  let replica = Resource_model.replicate ~device ~pes est in
  let usage_lb = replica.Resource_model.est_usage in
  let util_lb = Tytra_device.Resources.max_utilization device usage_lb in
  let fits = Tytra_device.Resources.fits device usage_lb in
  let fmax_ub = replica.Resource_model.est_fmax_mhz in
  (* clock stretch vs the baseline: both fill and compute are expressed
     in baseline seconds, so scale them by f_baseline / f_ub ≥ 1 *)
  let ratio =
    if fmax_ub > 0.0 then est.Resource_model.est_fmax_mhz /. fmax_ub else 1.0
  in
  let fill_lb = bd.Throughput.bd_fill_s *. ratio in
  let comp_lb = bd.Throughput.bd_comp_s *. ratio /. float_of_int (max 1 pes) in
  let exec_lb =
    match form with
    | Throughput.FormC -> comp_lb
    | Throughput.FormA | Throughput.FormB ->
        Float.max bd.Throughput.bd_gmem_s comp_lb
  in
  (* reconfiguration penalty, recovered from the baseline total; invariant *)
  let reconfig =
    Float.max 0.0
      (bd.Throughput.bd_total_s -. bd.Throughput.bd_host_s
      -. bd.Throughput.bd_off_s -. bd.Throughput.bd_fill_s
      -. bd.Throughput.bd_exec_s)
  in
  let total_lb =
    bd.Throughput.bd_host_s +. bd.Throughput.bd_off_s +. fill_lb +. exec_lb
    +. reconfig
  in
  (* [total_lb] sums the terms in another order, and through other
     roundings, than [Throughput.ekit] does for the variant, so a variant
     that ties the incumbent can get a bound a few ULPs below its own
     EKIT; [Dse] prunes on a strict [<], which would then drop it. A
     relative 1e-9 margin keeps the bound above the rounding noise.
     [Report.replicate] gives the exact total, which differs from this
     sum by up to about 2e-14 relative; the sum stays because the
     pruner's decisions and the bounds [tybec explore] prints for pruned
     candidates are made from it. *)
  let margin = 1.0 +. 1e-9 in
  {
    b_pes = pes;
    b_usage_lb = usage_lb;
    b_util_lb = util_lb;
    b_fits = fits;
    b_fmax_ub_mhz = fmax_ub;
    b_total_lb_s = total_lb;
    b_ekit_ub = (if total_lb > 0.0 then margin /. total_lb else infinity);
  }

let pp fmt (b : t) =
  Format.fprintf fmt
    "pes=%d: usage_lb=%a (util %.0f%%%s), fmax<=%.1f MHz, EKIT<=%.3g /s"
    b.b_pes Tytra_device.Resources.pp b.b_usage_lb
    (100.0 *. b.b_util_lb)
    (if b.b_fits then "" else ", cannot fit")
    b.b_fmax_ub_mhz b.b_ekit_ub
