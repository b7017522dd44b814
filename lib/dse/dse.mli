(** Design-space exploration over the reshaping variant space.

    Public interface of [Tytra_dse.Dse]. A sweep is parameterized by one
    {!config} value and runs on its caller's domain, one point after
    another. A sweep keeps no state between calls: two identical sweeps
    do the same work and return the same points.

    Every point is lowered (derived from the program's template and
    validated). Seq and Pipe are costed in full by the IR estimator;
    ParPipe and ParVecPipe points are costed in closed form from the
    config's Pipe report by {!Tytra_cost.Report.replicate}, which gives
    the same report field for field. Pipe is evaluated once per sweep
    and shared by its replicated points. A replicated point's design
    comes from [Tytra_front.Lower.derive], built around the template's
    validated PE function and certified lanes (the first point of each
    PE count) or that count's shell (every later one), and checked
    against them by position, with the full check's verdict (DESIGN.md
    §10.2): it builds no index and runs no delta check unless that
    check fails. An exhaustive sweep interns the lanes of its widest
    variant once, before its first point.

    With [config.prune] on (the default) the sweep skips full lowering
    for candidates whose {!Tytra_cost.Bounds} prove they cannot fit the
    device or cannot beat an already-evaluated incumbent. Pruning is
    exact with respect to selection: {!best} and {!pareto} over the
    returned points equal those of the exhaustive ([prune = false])
    sweep. *)

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
    {!default_config}: [{ default_config with max_lanes = 32 }]. *)
type config = {
  device : Tytra_device.Device.t;   (** target FPGA platform *)
  calib : Tytra_device.Bandwidth.calib option;
      (** bandwidth calibration; [None] = the device's built-in one *)
  form : Tytra_cost.Throughput.form;  (** memory-execution form (Fig 6) *)
  nki : int;                        (** kernel-instance repetitions *)
  max_lanes : int;                  (** lane-count bound of the space *)
  max_vec : int;                    (** vectorization bound of the space *)
  jobs : int;
      (** ignored: every sweep runs on its caller's domain; kept only
          because [benchmark/] sets it *)
  prune : bool;                     (** bound-based pruning of the space *)
}

val default_config : config
(** Stratix-V GSD8, device calibration, form B, [nki = 1],
    [max_lanes = 16], [max_vec = 1], [jobs = 1], pruning on. *)

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
}

val pp_sweep_stats : Format.formatter -> sweep_stats -> unit

(** Result of one sweep: fully evaluated points, pruned candidates and
    the evaluation accounting. *)
type sweep = {
  sw_points : point list;     (** evaluated points, enumeration order *)
  sw_bounded : bounded list;  (** pruned candidates, enumeration order *)
  sw_stats : sweep_stats;
}

val explore_sweep : ?config:config -> Tytra_front.Expr.program -> sweep
(** Sweep the whole variant space, pruning per [config.prune]: Seq and
    Pipe first (with pruning off, the whole space in enumeration order),
    then the bounded candidates one at a time by EKIT upper bound,
    highest first, each after recording those the incumbent now
    dominates. A point that raises aborts the sweep with its exception.
    {!Tytra_exec.Task.check} runs after every point, so a request
    deadline stops the sweep between points, and with a
    {!Tytra_exec.Faultgen} crash installed each point draws one task id
    just before it is evaluated. *)

val explore : ?config:config -> Tytra_front.Expr.program -> point list
(** Evaluated points of {!explore_sweep}, in enumeration order. With
    [config.prune = false] this is the exhaustive sweep. *)

val best : point list -> point option
(** Highest-EKIT point that fits the device, if any. *)

val pareto : point list -> point list
(** The EKIT/ALUT Pareto front of the valid points, in input order.
    O(n log n) sort-and-scan; equal (area, EKIT) duplicates are all
    retained. *)

val pp_point : Format.formatter -> point -> unit

val clear_cache : unit -> unit
(** Does nothing: a sweep holds no state to clear. Kept only because
    [benchmark/] calls it; the ROADMAP item "Next benchmark change"
    deletes it. *)
