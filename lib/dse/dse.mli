(** Design-space exploration over the reshaping variant space.

    Public interface of [Tytra_dse.Dse]. A sweep is parameterized by one
    {!config} value; evaluation fans out over a {!Tytra_exec.Pool} and
    memoizes (program, variant, device, calibration, form, nki) points in
    a process-wide {!Tytra_exec.Cache}.

    Every point is lowered (derived from the program's template and
    validated). Seq and Pipe are costed in full by the IR estimator;
    ParPipe and ParVecPipe points are costed in closed form from the
    config's Pipe report by {!Tytra_cost.Report.replicate}, which gives
    the same report field for field. Pipe is evaluated once per config
    and shared by its replicated points.

    With [config.prune] on (the default) the sweep skips full lowering
    for candidates whose {!Tytra_cost.Bounds} prove they cannot fit the
    device or cannot beat an already-evaluated incumbent. Pruning is
    exact with respect to selection: {!best} and {!pareto} over the
    returned points equal those of the exhaustive ([prune = false])
    sweep. The surviving point {e set} may vary with [config.jobs]
    (wider evaluation waves see a later incumbent); tests that compare
    raw point lists across [jobs] values should set [prune = false]. *)

(** One evaluated design point. *)
type point = {
  dp_variant : Tytra_front.Transform.variant;
  dp_design : Tytra_ir.Ast.design;
  dp_report : Tytra_cost.Report.t;
}

val ekit : point -> float
(** Effective kernel-iteration throughput of the point (higher = better). *)

val valid : point -> bool
(** Does the point fit on its device? *)

val area : point -> int
(** ALUT usage of the point — the area axis of the Pareto front. *)

(** Sweep parameters. Build one with record update on
    {!default_config}: [{ default_config with jobs = 8; max_lanes = 32 }]. *)
type config = {
  device : Tytra_device.Device.t;   (** target FPGA platform *)
  calib : Tytra_device.Bandwidth.calib option;
      (** bandwidth calibration; [None] = the device's built-in one *)
  form : Tytra_cost.Throughput.form;  (** memory-execution form (Fig 6) *)
  nki : int;                        (** kernel-instance repetitions *)
  max_lanes : int;                  (** lane-count bound of the space *)
  max_vec : int;                    (** vectorization bound of the space *)
  jobs : int;                       (** evaluation-pool domains; 1 = seq *)
  use_cache : bool;                 (** memoize point evaluations *)
  prune : bool;                     (** bound-based pruning of the space *)
  max_attempts : int;     (** attempts per point (1 = no retry) *)
  retry_delay_s : float;  (** base backoff delay between attempts *)
  deadline_s : float option;
      (** cooperative per-point deadline; [None] = unbounded *)
  fail_fast : bool;
      (** [true]: first point failure (after retries) aborts the sweep
          by re-raising it; [false]: failed points are quarantined into
          [sw_errors] and the sweep completes degraded *)
  checkpoint : string option;
      (** write a resumable checkpoint of the evaluated points here
          (single-config sweeps only; see {!save_checkpoint}) *)
  checkpoint_every : int;  (** points evaluated between checkpoint writes *)
  on_progress : (progress -> unit) option;
      (** called on the sweep's driving domain after every evaluation
          wave (and every checkpoint chunk) with cumulative coverage;
          [tybec explore --progress] renders its live line from this *)
}

(** Cumulative sweep coverage, as passed to [config.on_progress]. In a
    multi-config batch ({!explore_devices}) the counts aggregate over
    every config. *)
and progress = {
  pr_space : int;      (** variants enumerated across all configs *)
  pr_evaluated : int;  (** points lowered and costed so far *)
  pr_pruned : int;     (** candidates skipped by bounds so far *)
  pr_failed : int;     (** candidates quarantined so far *)
  pr_restored : int;   (** points adopted from a checkpoint *)
}

val default_config : config
(** Stratix-V GSD8, device calibration, form B, [nki = 1],
    [max_lanes = 16], [max_vec = 1], [jobs = 1], caching and pruning
    on; resilience off ([max_attempts = 1], no deadline, fail-fast, no
    checkpoint). *)

(** {2 Sweeps} *)

(** Why a candidate was skipped without lowering. *)
type prune_reason =
  | Overflow   (** resource lower bound exceeds the device *)
  | Dominated  (** EKIT upper bound below an incumbent of no more area *)

val prune_reason_to_string : prune_reason -> string

(** A candidate skipped by the pruner, with the bounds that justify it. *)
type bounded = {
  bp_variant : Tytra_front.Transform.variant;
  bp_bounds : Tytra_cost.Bounds.t;
  bp_reason : prune_reason;
}

type sweep_stats = {
  ss_space : int;             (** variants enumerated *)
  ss_evaluated : int;         (** points lowered and costed *)
  ss_pruned_resource : int;   (** skipped: could not fit *)
  ss_pruned_incumbent : int;  (** skipped: could not beat the incumbent *)
  ss_restored : int;          (** taken from a resume checkpoint, not evaluated *)
  ss_failed : int;            (** quarantined after exhausting retries *)
}

val pp_sweep_stats : Format.formatter -> sweep_stats -> unit
(** Restored/failed counts are printed only when nonzero, so clean
    sweeps render exactly as before. *)

(** A candidate whose evaluation failed after exhausting its retry
    budget; quarantined so the rest of the sweep could proceed. *)
type sweep_error = {
  se_variant : Tytra_front.Transform.variant;
  se_error : Tytra_exec.Pool.task_error;
}

val pp_sweep_error : Format.formatter -> sweep_error -> unit

(** Result of one sweep: fully evaluated points, pruned candidates,
    quarantined failures, and the evaluation accounting. *)
type sweep = {
  sw_points : point list;     (** evaluated points, enumeration order *)
  sw_bounded : bounded list;  (** pruned candidates, enumeration order *)
  sw_errors : sweep_error list;
      (** failed candidates, enumeration order; empty on the fail-fast
          path (the first failure raises instead) *)
  sw_stats : sweep_stats;
}

val explore_sweep :
  ?config:config -> ?restore:point list -> Tytra_front.Expr.program -> sweep
(** Sweep the whole variant space, pruning per [config.prune].

    Resilience is governed by [config]: with [max_attempts > 1] failed
    evaluations are retried with exponential backoff; [deadline_s] arms
    a cooperative per-point deadline; with [fail_fast = false] the sweep
    completes in degraded mode, quarantining failures into [sw_errors]
    ([ss_failed], [dse.points_failed] telemetry). [config.checkpoint]
    persists evaluated points periodically ({!save_checkpoint});
    [restore] (typically from {!load_checkpoint}) adopts previously
    evaluated points without re-evaluating them ([ss_restored]).
    Restored points seed the pruning incumbent, so a resumed sweep's
    {!best} and {!pareto} equal an uninterrupted run's. *)

val explore_sweep_in :
  pool:Tytra_exec.Pool.t ->
  ?config:config ->
  ?restore:point list ->
  Tytra_front.Expr.program ->
  sweep
(** {!explore_sweep} on a caller-owned pool instead of a fresh one — the
    long-lived engine ([tybec serve]) shares one pool across requests.
    The pool's width, not [config.jobs], governs the evaluation fan-out,
    so pass a pool of exactly [config.jobs] domains to reproduce
    {!explore_sweep} results under pruning. *)

val explore : ?config:config -> Tytra_front.Expr.program -> point list
(** Evaluated points of {!explore_sweep}, in enumeration order. With
    [config.prune = false] this is the exhaustive sweep, identical for
    every [config.jobs] value. *)

val best : point list -> point option
(** Highest-EKIT point that fits the device, if any. *)

val pareto : point list -> point list
(** The EKIT/ALUT Pareto front of the valid points, in input order.
    O(n log n) sort-and-scan; equal (area, EKIT) duplicates are all
    retained. *)

val guided : ?config:config -> Tytra_front.Expr.program -> point list
(** Follow-the-limiter search: double lanes while compute-limited and
    fitting. Returns the visited points in order. *)

val explore_devices :
  ?config:config ->
  ?devices:Tytra_device.Device.t list ->
  Tytra_front.Expr.program ->
  (Tytra_device.Device.t * point list) list
  * (Tytra_device.Device.t * point) option
(** Per-device sweeps ([config.device] is overridden by each element of
    [devices]) plus the overall winner. All devices share one evaluation
    pool, so the registry-wide sweep saturates [config.jobs] domains. *)

val pp_point : Format.formatter -> point -> unit

(** {2 Checkpoints}

    Versioned, digest-validated sweep checkpoints ({!Checkpoint} is the
    generic layer). The meta digest binds a checkpoint to its program,
    device, calibration, form, nki and enumeration bounds — execution
    knobs (jobs, cache, prune, resilience) are deliberately excluded, so
    a checkpoint written under one of them may resume under another. *)

val save_checkpoint :
  path:string -> config -> Tytra_front.Expr.program -> point list -> unit
(** Atomically write the points as a resume checkpoint for (config,
    program); counts as [dse.checkpoint.writes] telemetry. *)

val load_checkpoint :
  path:string ->
  config ->
  Tytra_front.Expr.program ->
  (point list, string) result
(** Read a checkpoint back, validating that it belongs to (config,
    program). Every failure — missing/corrupt/stale file — is an
    [Error], never an exception. *)

(** {2 Evaluation cache} *)

val cache_stats : unit -> Tytra_exec.Cache.stats
val cache_hit_rate : unit -> float
val clear_cache : unit -> unit
(** Drop all memoized evaluations and reset the cache statistics. *)
