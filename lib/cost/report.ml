(** One-call evaluation of a design variant: the "Resource estimates /
    Perf' estimate" outputs of the cost-model use-case (paper Fig 2).

    Evaluation keeps no state between calls: every stage is recomputed
    on every call. Within one design, {!Resource_model.estimate_sym}
    costs each distinct PE function once and reuses it for every
    instance.

    Every stage runs on one {!Tytra_ir.Symtab} index and one
    classification of the configuration tree, both taken once per
    evaluation by {!evaluate_sym} (DESIGN.md §10.6).

    {!replicate} costs a replicated variant from its one-lane baseline's
    report in closed form, with no design at all (DESIGN.md §9.1). *)

(** A complete cost-model evaluation of one design variant. *)
type t = {
  rp_design : string;
  rp_device : string;
  rp_estimate : Resource_model.estimate;
  rp_inputs : Throughput.inputs;
      (** the Table-I inputs [rp_breakdown] and [rp_walls] come from *)
  rp_breakdown : Throughput.breakdown;
  rp_walls : Limits.walls;
  rp_balance : Limits.balance_hint;
  rp_valid : bool;     (** fits on the device *)
  rp_utilization : Tytra_device.Resources.utilization;
}

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let assemble ~(device : Tytra_device.Device.t) ~name est inputs breakdown
    walls balance =
  {
    rp_design = name;
    rp_device = device.Tytra_device.Device.dev_name;
    rp_estimate = est;
    rp_inputs = inputs;
    rp_breakdown = breakdown;
    rp_walls = walls;
    rp_balance = balance;
    rp_valid = Tytra_device.Resources.fits device est.Resource_model.est_usage;
    rp_utilization =
      Tytra_device.Resources.utilization device est.Resource_model.est_usage;
  }

(** [evaluate_sym ?device ?calib ?form ?nki sy] — run the complete cost
    model on the indexed design: parse-derived parameters, resource
    accumulation, throughput and wall analysis. This is the fast path
    the estimator speed claim (§VI-A) is about. *)
let evaluate_sym ?(device = Tytra_device.Device.stratixv_gsd8) ?calib
    ?(form = Throughput.FormB) ?(nki = 1) (sy : Tytra_ir.Symtab.t) : t =
  let d = Tytra_ir.Symtab.design sy in
  Tytra_telemetry.Span.with_ ~name:"cost.evaluate"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str d.Tytra_ir.Ast.d_name);
        ("device", Tytra_telemetry.Span.Str device.Tytra_device.Device.dev_name);
        ("form", Tytra_telemetry.Span.Str (Throughput.form_to_string form));
        ("nki", Tytra_telemetry.Span.Int nki) ]
  @@ fun () ->
  Tytra_telemetry.Metrics.incr "cost.evaluations";
  let summary = Tytra_ir.Config_tree.classify_sym sy in
  let est = Resource_model.estimate_sym ~device sy summary in
  let inputs, breakdown =
    Tytra_telemetry.Span.with_ ~name:"cost.throughput" (fun () ->
        let inputs =
          Throughput.inputs_of_design_sym ~device ?calib ~nki
            ~fmax_mhz:est.Resource_model.est_fmax_mhz sy summary
        in
        (inputs, Throughput.ekit form inputs))
  in
  let walls, balance =
    Tytra_telemetry.Span.with_ ~name:"cost.limits" (fun () ->
        (Limits.walls ~device ~est ~inputs, Limits.balance_hint ~device ~est))
  in
  assemble ~device ~name:d.Tytra_ir.Ast.d_name est inputs breakdown walls
    balance

(** [evaluate ?device ?calib ?form ?nki d] — {!evaluate_sym} on a fresh
    index of [d]. *)
let evaluate ?device ?calib ?form ?nki (d : Tytra_ir.Ast.design) : t =
  evaluate_sym ?device ?calib ?form ?nki (Tytra_ir.Symtab.of_design d)

(** [replicate ~device ~form ~name ~lanes ~vec baseline] — the report
    of the variant that replicates [baseline]'s one-lane pipelined
    design to [lanes] lanes of [vec] PEs each, named [name].

    Replication adds identical PE instances and their streams, and
    leaves every per-kernel-instance input of Table I as it was: NGS,
    bytes per tuple, [Noff], KPD, the offset element width and the ρ
    lookups, which take the instance's total traffic. Only KNL, DV and
    the derated clock move. *)
let replicate ~(device : Tytra_device.Device.t) ~form ~name ~lanes ~vec
    (baseline : t) : t =
  Tytra_telemetry.Span.with_ ~name:"cost.replicate" @@ fun () ->
  Tytra_telemetry.Metrics.incr "cost.replications";
  let est =
    {
      (Resource_model.replicate ~device ~pes:(lanes * vec)
         baseline.rp_estimate)
      with
      Resource_model.est_design = name;
    }
  in
  let inputs =
    {
      baseline.rp_inputs with
      Throughput.knl = lanes;
      dv = vec;
      fd_hz = est.Resource_model.est_fmax_mhz *. 1e6;
    }
  in
  assemble ~device ~name est inputs (Throughput.ekit form inputs)
    (Limits.walls ~device ~est ~inputs)
    (Limits.balance_hint ~device ~est)

let base_clock_inputs ~(device : Tytra_device.Device.t) (r : t) =
  { r.rp_inputs with Throughput.fd_hz = device.Tytra_device.Device.fmax_base_mhz *. 1e6 }

let pp fmt (r : t) =
  Format.fprintf fmt "=== cost model: %s on %s ===@\n" r.rp_design r.rp_device;
  Format.fprintf fmt "resources: %a@\n" Resource_model.pp_estimate r.rp_estimate;
  Format.fprintf fmt "utilization: %a%s@\n" Tytra_device.Resources.pp_utilization
    r.rp_utilization
    (if r.rp_valid then "" else "  ** DOES NOT FIT **");
  Format.fprintf fmt "throughput: %a@\n" Throughput.pp_breakdown r.rp_breakdown;
  Format.fprintf fmt "walls: %a@\n" Limits.pp_walls r.rp_walls;
  Format.fprintf fmt "balance: binding=%s headroom=[%s]@\n"
    r.rp_balance.Limits.bh_binding
    (String.concat "; "
       (List.map
          (fun (n, h) -> Printf.sprintf "%s %.0f%%" n (100.0 *. h))
          r.rp_balance.Limits.bh_headroom))

let to_string r = Format.asprintf "%a" pp r

(* Evaluation keeps no stage caches. [benchmark/] still calls these two;
   the ROADMAP item "Next benchmark change" deletes them. *)
let stage_cache_stats () : (string * Tytra_exec.Cache.stats) list = []
let clear_stage_caches () = ()
