(** One-call evaluation of a design variant: the "Resource estimates /
    Perf' estimate" outputs of the cost-model use-case (paper Fig 2).

    Public interface of [Tytra_cost.Report]. [evaluate] is pure and
    re-entrant — it keeps no state between calls — so the parallel DSE
    pool may run any number of evaluations concurrently. Within one
    design, each distinct PE function is costed once and reused for
    every instance.

    {!replicate} costs a replicated (ParPipe / ParVecPipe) variant from
    its one-lane baseline's report in closed form, without its design;
    the DSE costs every replicated point this way (DESIGN.md §9.1). *)

(** A complete cost-model evaluation of one design variant. *)
type t = {
  rp_design : string;
  rp_device : string;
  rp_estimate : Resource_model.estimate;
  rp_inputs : Throughput.inputs;
      (** the Table-I inputs (paper Table I) that [rp_breakdown] and
          [rp_walls] were computed from; {!replicate} starts from a
          baseline's. Not printed by {!pp}. *)
  rp_breakdown : Throughput.breakdown;
  rp_walls : Limits.walls;
  rp_balance : Limits.balance_hint;
  rp_valid : bool;     (** fits on the device *)
  rp_utilization : Tytra_device.Resources.utilization;
}

val evaluate_sym :
  ?device:Tytra_device.Device.t ->
  ?calib:Tytra_device.Bandwidth.calib ->
  ?form:Throughput.form ->
  ?nki:int ->
  Tytra_ir.Symtab.t ->
  t
(** [evaluate_sym ?device ?calib ?form ?nki sy] — run the complete cost
    model on the indexed design: parse-derived parameters, resource
    accumulation, throughput and wall analysis. This is the fast path
    the estimator speed claim (§VI-A) is about. Every stage shares the
    index [sy] and one classification of the configuration tree; the
    DSE passes the index its variant was validated on (DESIGN.md
    §10.6). *)

val evaluate :
  ?device:Tytra_device.Device.t ->
  ?calib:Tytra_device.Bandwidth.calib ->
  ?form:Throughput.form ->
  ?nki:int ->
  Tytra_ir.Ast.design ->
  t
(** [evaluate ?device ?calib ?form ?nki d] — {!evaluate_sym} on a fresh
    index of [d]. *)

val replicate :
  device:Tytra_device.Device.t ->
  form:Throughput.form ->
  name:string ->
  lanes:int ->
  vec:int ->
  t ->
  t
(** [replicate ~device ~form ~name ~lanes ~vec baseline] — the report of
    the variant with [lanes] lanes of [vec] PEs each, named [name]
    (callers take it from [Tytra_front.Lower.design_name]), computed
    from [baseline], the full report of the same program's [Pipe]
    variant on the same [device], calibration, [form] and nki.

    Replication adds identical PE instances and leaves every
    per-kernel-instance figure of Table I unchanged, so the estimate is
    {!Resource_model.replicate} of the baseline's and the Table-I inputs
    are [baseline.rp_inputs] with KNL, DV and the derated clock
    replaced. The result equals {!evaluate_sym} on the replicated
    design field for field, floats bit-equal, and prints the same.
    Counts [cost.replications], under a [cost.replicate] span. *)

val base_clock_inputs : device:Tytra_device.Device.t -> t -> Throughput.inputs
(** [base_clock_inputs ~device r] — [r.rp_inputs] at [device]'s base
    clock instead of the estimated Fmax: the inputs {!Formsel.recommend}
    and {!Roofline.of_inputs} take in [tybec cost], bit-equal to
    {!Throughput.inputs_of_design} on the design without [fmax_mhz]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val stage_cache_stats : unit -> (string * Tytra_exec.Cache.stats) list
(** Always [[]]: evaluation keeps no stage caches. *)

val clear_stage_caches : unit -> unit
(** Does nothing. [stage_cache_stats] and this are kept only because
    [benchmark/] calls them; the ROADMAP item "Next benchmark change"
    deletes both. *)
