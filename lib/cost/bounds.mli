(** Admissible cost bounds for DSE pruning.

    From the baseline (single-lane pipelined) report of a program on a
    given (device, calibration, form, nki), [of_baseline] computes — for
    a replicated variant with [pes] processing elements and {e without
    lowering it} — a componentwise {e lower} bound on its resource usage
    and an {e upper} bound on its EKIT. The sweep may then discard
    candidates whose resource lower bound overflows the device (they
    could never be valid) or whose EKIT upper bound is strictly below an
    already-evaluated incumbent that also uses no more area (they are
    dominated), without changing [best] or [pareto]. See [bounds.ml] and
    DESIGN.md §9 for the admissibility argument.

    Only sound for homogeneous replicated variants (ParPipe /
    ParVecPipe) of the same program and evaluation parameters as the
    baseline; Seq and Pipe must be evaluated in full. *)

type t = {
  b_pes : int;              (** candidate's processing elements (lanes·vec) *)
  b_usage_lb : Tytra_device.Resources.usage;
      (** componentwise lower bound on the variant's usage *)
  b_util_lb : float;        (** utilization of [b_usage_lb] *)
  b_fits : bool;            (** [false] proves the variant cannot fit *)
  b_fmax_ub_mhz : float;    (** upper bound on the derated clock *)
  b_total_lb_s : float;     (** lower bound on time per kernel instance *)
  b_ekit_ub : float;        (** upper bound on the variant's EKIT *)
}

val area_lb : t -> int
(** ALUT component of the usage lower bound — the area figure the DSE
    Pareto front is built over. *)

val of_baseline :
  device:Tytra_device.Device.t ->
  form:Throughput.form ->
  pes:int ->
  Report.t ->
  t
(** [of_baseline ~device ~form ~pes baseline] — bounds for a replicated
    variant with [pes] processing elements. [baseline] must be the full
    report of the [Pipe] variant on the same program, device,
    calibration, form and nki. At [pes = 1] the bounds coincide with the
    baseline's exact figures, the EKIT bound up to a relative 1e-9
    rounding margin. *)

val pp : Format.formatter -> t -> unit
