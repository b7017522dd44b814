(** One-call evaluation of a design variant: the "Resource estimates /
    Perf' estimate" outputs of the cost-model use-case (paper Fig 2).

    Public interface of [Tytra_cost.Report]. [evaluate] is observably
    pure and re-entrant — its only shared state is a domain-safe
    memoization cache — so the parallel DSE pool may run any number of
    evaluations concurrently.

    Per-function resource costing is memoized (see [report.ml]), with
    hit/miss telemetry under [cost.stage_cache.resource]; Table-I
    parameter extraction and the EKIT expression are recomputed on every
    call. *)

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

val evaluate :
  ?device:Tytra_device.Device.t ->
  ?calib:Tytra_device.Bandwidth.calib ->
  ?form:Throughput.form ->
  ?nki:int ->
  Tytra_ir.Ast.design ->
  t
(** [evaluate ?device ?calib ?form ?nki d] — run the complete cost model
    on design [d]: parse-derived parameters, resource accumulation,
    throughput and wall analysis. This is the fast path the estimator
    speed claim (§VI-A) is about. *)

val stage_cache_stats : unit -> (string * Tytra_exec.Cache.stats) list
(** Hit/miss/eviction statistics of every cost-model stage cache, as
    [(metrics-prefix, stats)] pairs. The one stage cache is
    [cost.stage_cache.resource] (per-PE resource costing). *)

val clear_stage_caches : unit -> unit
(** Drop all stage caches and reset their statistics. Benchmarks call
    this between runs to measure cold-start costs honestly. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
