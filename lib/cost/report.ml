(** One-call evaluation of a design variant: the "Resource estimates /
    Perf' estimate" outputs of the cost-model use-case (paper Fig 2).

    Evaluation runs one memoized stage: per-function resource costing
    inside {!Resource_model.estimate}, keyed by a structural digest of
    the IR function + calibration (see [resource_model.ml]) and looked
    up once per distinct PE function of a design, so a lane sweep costs
    the shared PE once. It runs through {!Tytra_exec.Cache} and publishes
    hit/miss counters under [cost.stage_cache.resource]. The Table-I
    extraction and the EKIT expression are recomputed on every call:
    keying them (a digest of the whole design) cost more than they do. *)

(** A complete cost-model evaluation of one design variant. *)
type t = {
  rp_design : string;
  rp_device : string;
  rp_estimate : Resource_model.estimate;
  rp_breakdown : Throughput.breakdown;
  rp_walls : Limits.walls;
  rp_balance : Limits.balance_hint;
  rp_valid : bool;     (** fits on the device *)
  rp_utilization : Tytra_device.Resources.utilization;
}

let stage_cache_stats () =
  [ ("cost.stage_cache.resource", Resource_model.pe_cache_stats ()) ]

let clear_stage_caches () = Resource_model.clear_pe_cache ()

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** [evaluate ?device ?calib ?form ?nki d] — run the complete cost model
    on design [d]: parse-derived parameters, resource accumulation,
    throughput and wall analysis. This is the fast path the estimator
    speed claim (§VI-A) is about. *)
let evaluate ?(device = Tytra_device.Device.stratixv_gsd8) ?calib
    ?(form = Throughput.FormB) ?(nki = 1) (d : Tytra_ir.Ast.design) : t =
  Tytra_telemetry.Span.with_ ~name:"cost.evaluate"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str d.Tytra_ir.Ast.d_name);
        ("device", Tytra_telemetry.Span.Str device.Tytra_device.Device.dev_name);
        ("form", Tytra_telemetry.Span.Str (Throughput.form_to_string form));
        ("nki", Tytra_telemetry.Span.Int nki) ]
  @@ fun () ->
  Tytra_telemetry.Metrics.incr "cost.evaluations";
  let est = Resource_model.estimate ~device d in
  let inputs, breakdown =
    Tytra_telemetry.Span.with_ ~name:"cost.throughput" (fun () ->
        let inputs =
          Throughput.inputs_of_design ~device ?calib ~nki
            ~fmax_mhz:est.Resource_model.est_fmax_mhz d
        in
        (inputs, Throughput.ekit form inputs))
  in
  let walls, balance =
    Tytra_telemetry.Span.with_ ~name:"cost.limits" (fun () ->
        (Limits.walls ~device ~est ~inputs, Limits.balance_hint ~device ~est))
  in
  {
    rp_design = d.Tytra_ir.Ast.d_name;
    rp_device = device.Tytra_device.Device.dev_name;
    rp_estimate = est;
    rp_breakdown = breakdown;
    rp_walls = walls;
    rp_balance = balance;
    rp_valid = Tytra_device.Resources.fits device est.Resource_model.est_usage;
    rp_utilization =
      Tytra_device.Resources.utilization device est.Resource_model.est_usage;
  }

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
