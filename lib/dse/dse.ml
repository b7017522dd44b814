(** Design-space exploration: generate variants by type transformation,
    lower each to TyTra-IR, cost it, and select — "the compiler costs the
    variants" of paper Fig 1, with the selection policy of §VI-A: as many
    lanes as the resources allow, or until the IO bandwidth saturates.

    The evaluation loop runs through {!Tytra_exec}: points fan out over a
    Domain pool ([config.jobs]) and every (program, variant, device,
    calibration, form, nki) evaluation is memoized in a process-wide LRU
    cache, so repeated sweeps — guided search, cross-device exploration,
    the bench harness — cost one lowering per distinct point.

    With [config.prune] on (the default), the sweep does not even lower
    most of the space: after evaluating the cheap baselines (Seq, Pipe)
    it computes admissible {!Tytra_cost.Bounds} for every replicated
    candidate and skips those that provably cannot fit the device or
    cannot beat an already-evaluated incumbent. Pruning is {e exact}:
    {!best} and {!pareto} over the surviving points equal those of the
    exhaustive sweep, the front as an ordered variant list with its
    equal-(area, EKIT) duplicates (see [prunable] below for the
    invariant, and {!Tytra_cost.Bounds.of_baseline} for the rounding
    margin it needs). *)

open Tytra_front

module Log = (val Logs.src_log (Logs.Src.create "tytra.dse"))

(** One evaluated design point. *)
type point = {
  dp_variant : Transform.variant;
  dp_design : Tytra_ir.Ast.design;
  dp_report : Tytra_cost.Report.t;
}

let ekit (p : point) = p.dp_report.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit
let valid (p : point) = p.dp_report.Tytra_cost.Report.rp_valid

let area (p : point) =
  p.dp_report.Tytra_cost.Report.rp_estimate.Tytra_cost.Resource_model.est_usage
    .Tytra_device.Resources.aluts

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(** Everything a sweep is parameterized by, as one value. *)
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
      (** [true]: first point failure (after retries) aborts the sweep;
          [false]: failed points are quarantined into [sw_errors] *)
  checkpoint : string option;
      (** write a resumable checkpoint of the evaluated points here *)
  checkpoint_every : int;  (** points evaluated between checkpoint writes *)
  on_progress : (progress -> unit) option;
      (** called on the sweep's driving domain after every evaluation
          wave (and every checkpoint chunk) with cumulative coverage;
          the [--progress] live line renders from this *)
}

(** Cumulative sweep coverage, as passed to [config.on_progress].
    Aggregated over every config of a {!sweep_many} batch. *)
and progress = {
  pr_space : int;      (** variants enumerated across all configs *)
  pr_evaluated : int;  (** full evaluations completed so far *)
  pr_pruned : int;     (** candidates skipped by bounds so far *)
  pr_failed : int;     (** candidates quarantined so far *)
  pr_restored : int;   (** points adopted from a checkpoint *)
}

let default_config : config =
  {
    device = Tytra_device.Device.stratixv_gsd8;
    calib = None;
    form = Tytra_cost.Throughput.FormB;
    nki = 1;
    max_lanes = 16;
    max_vec = 1;
    jobs = 1;
    use_cache = true;
    prune = true;
    max_attempts = 1;
    retry_delay_s = 0.05;
    deadline_s = None;
    fail_fast = true;
    checkpoint = None;
    checkpoint_every = 32;
    on_progress = None;
  }

(* ------------------------------------------------------------------ *)
(* Memoized point evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* Lower + cost results are pure functions of the content key below, so
   one process-wide cache serves every entry point. 4096 entries hold a
   full 16-lane × 3-form × all-device sweep several times over. *)
let cache : (Tytra_ir.Ast.design * Tytra_cost.Report.t) Tytra_exec.Cache.t =
  Tytra_exec.Cache.create ~metrics_prefix:"dse.cache" ~capacity:4096 ()

(* Pre-validated lowering templates, one per program digest: the shared
   PE body is compiled and fully validated once per sweep; every
   replicated variant of the same program is then derived from it and
   only its wiring delta re-checked. Templates are small (one instruction
   list), so a handful of entries covers any realistic sweep mix. *)
let template_cache : Tytra_front.Lower.template Tytra_exec.Cache.t =
  Tytra_exec.Cache.create ~metrics_prefix:"dse.template_cache" ~capacity:64 ()

let cache_stats () = Tytra_exec.Cache.stats cache
let cache_hit_rate () = Tytra_exec.Cache.hit_rate cache
let clear_cache () =
  Tytra_exec.Cache.clear cache;
  Tytra_exec.Cache.reset_stats cache;
  Tytra_exec.Cache.clear template_cache;
  Tytra_exec.Cache.reset_stats template_cache

(* Expr programs and calibrations are pure data, so a digest of their
   marshalled bytes is a sound content key. *)
let program_digest (prog : Expr.program) = Tytra_exec.Cache.digest_marshal prog

let calib_digest = function
  | None -> "device-default"
  | Some c -> Tytra_exec.Cache.digest_marshal c

let template_for ~prog_key (prog : Expr.program) : Lower.template =
  Tytra_exec.Cache.find_or_add template_cache
    ~key:(Tytra_exec.Cache.digest_key [ prog_key; "lower-template" ])
    (fun () -> Lower.template prog)

(* Lower one variant by deriving it from the program's template. *)
let lower_point ~prog_key prog v =
  let d = Lower.derive (template_for ~prog_key prog) v in
  Tytra_telemetry.Metrics.incr "dse.points_derived";
  d

let point_key ~(config : config) ~prog_key v =
  Tytra_exec.Cache.digest_key
    [
      prog_key;
      Transform.to_string v;
      config.device.Tytra_device.Device.dev_name;
      calib_digest config.calib;
      Tytra_cost.Throughput.form_to_string config.form;
      string_of_int config.nki;
    ]

(* Evaluate one variant under a per-point span: lane count, form and the
   resulting EKIT become trace attributes, so a sweep reads as a row of
   "dse.point" slices in Perfetto (one lane per pool domain). *)
let eval_point ~(config : config) ~prog_key prog v =
  Tytra_telemetry.Span.with_ ~name:"dse.point"
    ~attrs:
      [ ("variant", Tytra_telemetry.Span.Str (Transform.to_string v));
        ("pes", Tytra_telemetry.Span.Int (Transform.pes v));
        ("form",
         Tytra_telemetry.Span.Str
           (Tytra_cost.Throughput.form_to_string config.form));
      ]
  @@ fun () ->
  let computed = ref false in
  let compute () =
    computed := true;
    let d = lower_point ~prog_key prog v in
    let report =
      Tytra_cost.Report.evaluate ~device:config.device ?calib:config.calib
        ~form:config.form ~nki:config.nki d
    in
    (d, report)
  in
  (* Flight-recorder / event-log detail is gated separately from plain
     metrics: with neither armed, this adds two ref cells and a bool. *)
  let observe = Flightrec.is_enabled () || Tytra_telemetry.Events.active () in
  let t0 = if observe then Tytra_telemetry.Clock.now_ns () else 0L in
  let d, report =
    if config.use_cache then
      Tytra_exec.Cache.find_or_add cache ~key:(point_key ~config ~prog_key v)
        compute
    else compute ()
  in
  let p = { dp_variant = v; dp_design = d; dp_report = report } in
  Tytra_telemetry.Metrics.incr "dse.points_evaluated";
  Tytra_telemetry.Metrics.observe "dse.point.ekit" (ekit p);
  if observe then begin
    let dur_ns =
      Int64.max 0L (Int64.sub (Tytra_telemetry.Clock.now_ns ()) t0)
    in
    let cached = config.use_cache && not !computed in
    let variant = Transform.to_string v in
    if Flightrec.is_enabled () then
      Flightrec.note ~variant
        (Flightrec.Evaluated
           {
             fo_ekit = ekit p;
             fo_valid = valid p;
             fo_cached = cached;
             fo_dur_ns = dur_ns;
           });
    if Tytra_telemetry.Events.active () then
      Tytra_telemetry.Events.emit
        (Tytra_telemetry.Events.Point_evaluated
           { variant; ekit = ekit p; valid = valid p; cached; dur_ns })
  end;
  p

(* ------------------------------------------------------------------ *)
(* Bound-based pruned sweep                                            *)
(* ------------------------------------------------------------------ *)

(** Why a candidate was skipped without lowering. *)
type prune_reason =
  | Overflow   (** resource lower bound exceeds the device *)
  | Dominated  (** EKIT upper bound below an incumbent of no more area *)

let prune_reason_to_string = function
  | Overflow -> "resource overflow"
  | Dominated -> "dominated by incumbent"

(** A candidate skipped by the pruner, with the bounds that justify it. *)
type bounded = {
  bp_variant : Transform.variant;
  bp_bounds : Tytra_cost.Bounds.t;
  bp_reason : prune_reason;
}

type sweep_stats = {
  ss_space : int;             (** variants enumerated *)
  ss_evaluated : int;         (** full lower + cost evaluations performed *)
  ss_pruned_resource : int;   (** skipped: could not fit *)
  ss_pruned_incumbent : int;  (** skipped: could not beat the incumbent *)
  ss_restored : int;          (** taken from a resume checkpoint, not evaluated *)
  ss_failed : int;            (** quarantined after exhausting retries *)
}

(* Restored/failed counts appear only when nonzero, so the stats line of
   a clean, non-resumed sweep is byte-identical to what it always was. *)
let pp_sweep_stats fmt s =
  Format.fprintf fmt "%d variants: %d evaluated, %d pruned (%d overflow, %d dominated)"
    s.ss_space s.ss_evaluated
    (s.ss_pruned_resource + s.ss_pruned_incumbent)
    s.ss_pruned_resource s.ss_pruned_incumbent;
  if s.ss_restored > 0 then Format.fprintf fmt ", %d restored" s.ss_restored;
  if s.ss_failed > 0 then Format.fprintf fmt ", %d failed" s.ss_failed

(** A candidate whose evaluation failed after exhausting its retry
    budget; quarantined so the rest of the sweep can proceed. *)
type sweep_error = {
  se_variant : Transform.variant;
  se_error : Tytra_exec.Pool.task_error;
}

let pp_sweep_error fmt e =
  Format.fprintf fmt "%-16s failed: %a"
    (Transform.to_string e.se_variant)
    Tytra_exec.Pool.pp_task_error e.se_error

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

(* Mutable per-config sweep state; driven by [sweep_many] below. All
   mutation happens on the calling domain — worker domains only run the
   pure [eval_point]. *)
type sweep_state = {
  st_config : config;
  st_prog_key : string;
  st_space : int;
  mutable st_done : (int * point) list;       (* (enumeration index, point) *)
  mutable st_bounded : (int * bounded) list;
  mutable st_errors : (int * sweep_error) list;
  mutable st_restored : int;                  (* of st_done, from a checkpoint *)
  mutable st_queue : (int * Transform.variant * Tytra_cost.Bounds.t) list;
      (* pending candidates, sorted by (ekit_ub desc, index asc) *)
  mutable st_incumbent : (float * int) option; (* (ekit, area) of best valid *)
}

let update_incumbent st (p : point) =
  if valid p then begin
    let e = ekit p and a = area p in
    match st.st_incumbent with
    | None -> st.st_incumbent <- Some (e, a)
    | Some (be, ba) ->
        if e > be || (e = be && a < ba) then st.st_incumbent <- Some (e, a)
  end

(* The pruning invariant: a candidate may be skipped only when some
   *evaluated* valid point provably dominates it. [b.b_ekit_ub < be]
   gives actual_ekit ≤ ekit_ub < incumbent's ekit (strict; the bound's
   rounding margin keeps the ≤ true in floating point), and
   [area_lb b ≥ ba] gives actual_area ≥ area_lb ≥ incumbent's area — so
   the incumbent beats the candidate on throughput and matches-or-beats
   it on area. Such a point can be neither [best] (its EKIT is strictly
   below a valid survivor's) nor on the [pareto] front (the incumbent
   dominates it), hence best/pareto over the survivors equal the
   exhaustive sweep's. *)
let prunable st (b : Tytra_cost.Bounds.t) =
  match st.st_incumbent with
  | None -> false
  | Some (be, ba) ->
      b.Tytra_cost.Bounds.b_ekit_ub < be && Tytra_cost.Bounds.area_lb b >= ba

let record_bounded st idx v b reason =
  Tytra_telemetry.Metrics.incr "dse.points_pruned";
  if Flightrec.is_enabled () || Tytra_telemetry.Events.active () then begin
    let variant = Transform.to_string v in
    let why =
      Printf.sprintf "%s (ekit_ub=%.6g, fits=%b)"
        (prune_reason_to_string reason)
        b.Tytra_cost.Bounds.b_ekit_ub b.Tytra_cost.Bounds.b_fits
    in
    if Flightrec.is_enabled () then
      Flightrec.note ~variant (Flightrec.Pruned why);
    if Tytra_telemetry.Events.active () then
      Tytra_telemetry.Events.emit
        (Tytra_telemetry.Events.Point_pruned { variant; reason = why })
  end;
  st.st_bounded <-
    (idx, { bp_variant = v; bp_bounds = b; bp_reason = reason })
    :: st.st_bounded

let rec take_n n = function
  | x :: tl when n > 0 ->
      let a, b = take_n (n - 1) tl in
      (x :: a, b)
  | l -> ([], l)

(* Evaluate a combined wave of (state, index, variant) items on the
   shared pool; results land back in each state's accumulator. *)
let eval_wave ~pool prog (items : (sweep_state * int * Transform.variant) list)
    =
  Tytra_exec.Pool.map pool
    (fun (st, idx, v) ->
      (st, idx, eval_point ~config:st.st_config ~prog_key:st.st_prog_key prog v))
    items
  |> List.iter (fun (st, idx, p) ->
         st.st_done <- (idx, p) :: st.st_done;
         update_incumbent st p)

(* Resilient twin of [eval_wave]: every point runs under the retry /
   deadline policy, and a failure — after its retry budget — either
   aborts the sweep (fail-fast, re-raised with the original backtrace)
   or is quarantined into the state's error list (best-effort). *)
let eval_wave_resilient ~pool ~retry ~deadline_s ~fail_fast prog
    (items : (sweep_state * int * Transform.variant) list) =
  let outcomes =
    Tytra_exec.Pool.map_result pool ~retry ?deadline_s
      (fun (st, idx, v) ->
        ( st,
          idx,
          eval_point ~config:st.st_config ~prog_key:st.st_prog_key prog v ))
      items
  in
  List.iter2
    (fun (st, idx, v) outcome ->
      match outcome with
      | Ok (_, _, p) ->
          st.st_done <- (idx, p) :: st.st_done;
          update_incumbent st p
      | Error te ->
          Tytra_telemetry.Metrics.incr "dse.points_failed";
          Log.warn (fun m ->
              m "point %s failed: %a" (Transform.to_string v)
                Tytra_exec.Pool.pp_task_error te);
          if Flightrec.is_enabled () || Tytra_telemetry.Events.active ()
          then begin
            let variant = Transform.to_string v in
            let err =
              Format.asprintf "%a" Tytra_exec.Pool.pp_task_error te
            in
            if Flightrec.is_enabled () then
              Flightrec.note ~variant (Flightrec.Failed err);
            if Tytra_telemetry.Events.active () then
              Tytra_telemetry.Events.emit
                (Tytra_telemetry.Events.Point_failed { variant; error = err })
          end;
          st.st_errors <-
            (idx, { se_variant = v; se_error = te }) :: st.st_errors)
    items outcomes;
  if fail_fast then
    match
      List.find_map
        (function Error te -> Some te | Ok _ -> None)
        outcomes
    with
    | Some te ->
        Printexc.raise_with_backtrace te.Tytra_exec.Pool.te_exn
          te.Tytra_exec.Pool.te_backtrace
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                          *)
(* ------------------------------------------------------------------ *)

(* What a checkpoint is compatible with: same program, same device /
   calibration / form / nki and the same enumeration bounds. Execution
   knobs (jobs, cache, prune, resilience) are deliberately excluded —
   they change how a sweep runs, not what its points mean, so a
   checkpoint written under one of them may resume under another. *)
let checkpoint_meta (config : config) prog =
  Tytra_exec.Cache.digest_key
    [
      program_digest prog;
      config.device.Tytra_device.Device.dev_name;
      calib_digest config.calib;
      Tytra_cost.Throughput.form_to_string config.form;
      string_of_int config.nki;
      string_of_int config.max_lanes;
      string_of_int config.max_vec;
    ]

let checkpoint_kind = "dse-sweep"

let save_checkpoint ~path (config : config) prog (points : point list) =
  Checkpoint.save ~path ~kind:checkpoint_kind
    ~meta:(checkpoint_meta config prog)
    points;
  Tytra_telemetry.Metrics.incr "dse.checkpoint.writes";
  if Tytra_telemetry.Events.active () then
    Tytra_telemetry.Events.emit
      (Tytra_telemetry.Events.Checkpoint_written
         { path; points = List.length points })

let load_checkpoint ~path (config : config) prog : (point list, string) result
    =
  Checkpoint.load ~path ~kind:checkpoint_kind
    ~meta:(checkpoint_meta config prog)

(** [sweep_many ~pool configs prog] — run one sweep of [prog] per config,
    interleaved on a single shared pool so a registry-wide device sweep
    saturates [Pool.jobs pool] domains even when each per-device space is
    small. Phases:

    + evaluate every config's baselines (Seq, Pipe — or the whole space
      when that config has [prune = false]) in one combined pool map;
    + derive {!Tytra_cost.Bounds} for each replicated candidate from its
      config's Pipe report; candidates whose resource lower bound
      overflows the device are recorded as {!Overflow} without lowering;
    + rounds: each active config re-checks its pending candidates against
      its current incumbent (recording {!Dominated} prunes), then
      contributes its most-promising survivors (highest EKIT upper bound
      first) to a combined wave of at most [Pool.jobs pool] evaluations.

    For a fixed config the surviving *set* may depend on [jobs] (a wider
    wave evaluates candidates a later incumbent would have pruned), but
    [best] and [pareto] over the survivors are invariant — equal to the
    exhaustive sweep's for every [jobs] value.

    Resilience (retries, deadlines, best-effort quarantine) is governed
    by the {e head} config: per-config policies make no sense on one
    shared pool. [restore] pre-fills the head config's sweep with points
    from a checkpoint (matched by variant; they are not re-evaluated and
    count as [ss_restored]), and [checkpoint] on the head config — only
    honoured for single-config sweeps — persists the evaluated points
    every [checkpoint_every] evaluations. Restored points seed the
    incumbent, and the pruning invariant above is indifferent to {e why}
    an incumbent exists, so a resumed sweep keeps best/pareto equal to
    an uninterrupted one. *)
let sweep_many ~pool ?(restore = []) (configs : config list)
    (prog : Expr.program) : sweep list =
  let prog_key = program_digest prog in
  let states_with_variants =
    List.mapi
      (fun ci config ->
        let variants =
          Transform.enumerate ~max_lanes:config.max_lanes
            ~max_vec:config.max_vec prog
        in
        let st =
          {
            st_config = config;
            st_prog_key = prog_key;
            st_space = List.length variants;
            st_done = [];
            st_bounded = [];
            st_errors = [];
            st_restored = 0;
            st_queue = [];
            st_incumbent = None;
          }
        in
        let indexed =
          List.mapi (fun i v -> (i, v)) variants
          |> List.filter (fun (i, v) ->
                 (* Adopt checkpointed points (head config only) and
                    drop them from every later phase. *)
                 match
                   if ci = 0 then
                     List.find_opt (fun p -> p.dp_variant = v) restore
                   else None
                 with
                 | None -> true
                 | Some p ->
                     st.st_done <- (i, p) :: st.st_done;
                     st.st_restored <- st.st_restored + 1;
                     update_incumbent st p;
                     if Flightrec.is_enabled () then
                       Flightrec.note ~variant:(Transform.to_string v)
                         Flightrec.Restored;
                     false)
        in
        (st, indexed))
      configs
  in
  (* The event log marks each config's sweep here, where the space is
     already enumerated — recomputing it just for the event would cost
     a full [Transform.enumerate] per sweep (~ms on large spaces). *)
  if Tytra_telemetry.Events.active () then
    List.iter
      (fun (st, _) ->
        Tytra_telemetry.Events.emit
          (Tytra_telemetry.Events.Sweep_started
             {
               kernel = prog.Expr.p_kernel.Expr.k_name;
               space = st.st_space;
               jobs = st.st_config.jobs;
               prune = st.st_config.prune;
             }))
      states_with_variants;
  (* Resilience policy, from the head config. The legacy [eval_wave]
     path is kept bit-for-bit for plain sweeps: it is the hot path the
     bench baseline pins, and its first-exception semantics *is* the
     fail-fast contract. *)
  let head = List.hd configs in
  (* Progress notification: cumulative coverage across every config,
     reported on the driving domain after each wave/chunk. The policy
     (like resilience below) comes from the head config. *)
  let notify =
    match head.on_progress with
    | None -> fun () -> ()
    | Some f ->
        let states = List.map fst states_with_variants in
        fun () ->
          f
            (List.fold_left
               (fun acc st ->
                 {
                   pr_space = acc.pr_space + st.st_space;
                   pr_evaluated =
                     acc.pr_evaluated
                     + (List.length st.st_done - st.st_restored);
                   pr_pruned = acc.pr_pruned + List.length st.st_bounded;
                   pr_failed = acc.pr_failed + List.length st.st_errors;
                   pr_restored = acc.pr_restored + st.st_restored;
                 })
               {
                 pr_space = 0;
                 pr_evaluated = 0;
                 pr_pruned = 0;
                 pr_failed = 0;
                 pr_restored = 0;
               }
               states)
  in
  let resilient =
    head.max_attempts > 1
    || head.deadline_s <> None
    || (not head.fail_fast)
    || Tytra_exec.Faultgen.installed () <> None
  in
  let run_wave items =
    if not resilient then eval_wave ~pool prog items
    else
      let retry =
        {
          Tytra_exec.Pool.default_retry with
          max_attempts = max 1 head.max_attempts;
          base_delay_s = head.retry_delay_s;
        }
      in
      eval_wave_resilient ~pool ~retry ~deadline_s:head.deadline_s
        ~fail_fast:head.fail_fast prog items
  in
  (* Checkpointing splits waves into chunks of [checkpoint_every] (but
     never narrower than the pool) and persists after each chunk — with
     pruning off the whole space is a single wave, and the periodic
     write is exactly what makes a SIGKILLed exhaustive sweep
     resumable. *)
  let ckpt =
    match (configs, head.checkpoint) with
    | [ _ ], Some path -> Some path
    | _ -> None
  in
  let head_state = fst (List.hd states_with_variants) in
  let write_ckpt path =
    let pts =
      List.sort (fun (i1, _) (i2, _) -> compare i1 i2) head_state.st_done
      |> List.map snd
    in
    save_checkpoint ~path head prog pts
  in
  let run_wave items =
    (match ckpt with
    | None -> run_wave items
    | Some path ->
        let chunk_size =
          max (max 1 head.checkpoint_every) (Tytra_exec.Pool.jobs pool)
        in
        let rec go = function
          | [] -> ()
          | items ->
              let chunk, rest = take_n chunk_size items in
              run_wave chunk;
              write_ckpt path;
              notify ();
              go rest
        in
        go items);
    notify ()
  in
  (* Phase 1: baselines. Replication bounds derive from the Pipe report,
     so Seq and Pipe (pes < 2) are always evaluated in full; with
     pruning off the whole space is a "baseline". *)
  let baseline_items =
    List.concat_map
      (fun (st, indexed) ->
        List.filter_map
          (fun (i, v) ->
            if (not st.st_config.prune) || Transform.pes v < 2 then
              Some (st, i, v)
            else None)
          indexed)
      states_with_variants
  in
  run_wave baseline_items;
  (* Phase 2: bounds. *)
  let forced =
    List.concat_map
      (fun (st, indexed) ->
        if not st.st_config.prune then []
        else
          let candidates =
            List.filter (fun (_, v) -> Transform.pes v >= 2) indexed
          in
          let pipe =
            List.find_map
              (fun (_, p) ->
                if p.dp_variant = Transform.Pipe then Some p.dp_report
                else None)
              st.st_done
          in
          match pipe with
          | None ->
              (* No Pipe baseline in the space (cannot happen with the
                 current enumerator): fall back to exhaustive. *)
              List.map (fun (i, v) -> (st, i, v)) candidates
          | Some baseline ->
              let queue =
                List.filter_map
                  (fun (i, v) ->
                    let b =
                      Tytra_cost.Bounds.of_baseline ~device:st.st_config.device
                        ~form:st.st_config.form ~pes:(Transform.pes v) baseline
                    in
                    if not b.Tytra_cost.Bounds.b_fits then begin
                      record_bounded st i v b Overflow;
                      None
                    end
                    else Some (i, v, b))
                  candidates
              in
              st.st_queue <-
                List.sort
                  (fun (i1, _, b1) (i2, _, b2) ->
                    let c =
                      compare b2.Tytra_cost.Bounds.b_ekit_ub
                        b1.Tytra_cost.Bounds.b_ekit_ub
                    in
                    if c <> 0 then c else compare i1 i2)
                  queue;
              [])
      states_with_variants
  in
  run_wave forced;
  (* Phase 3: incumbent-pruned waves. *)
  let states = List.map fst states_with_variants in
  let rec rounds () =
    let active = List.filter (fun st -> st.st_queue <> []) states in
    if active <> [] then begin
      let quota =
        max 1 (Tytra_exec.Pool.jobs pool / List.length active)
      in
      let wave =
        List.concat_map
          (fun st ->
            let pruned, rest =
              List.partition (fun (_, _, b) -> prunable st b) st.st_queue
            in
            List.iter (fun (i, v, b) -> record_bounded st i v b Dominated)
              pruned;
            let take, keep = take_n quota rest in
            st.st_queue <- keep;
            List.map (fun (i, v, _) -> (st, i, v)) take)
          active
      in
      run_wave wave;
      rounds ()
    end
  in
  rounds ();
  (* Final write so a completed sweep leaves a complete checkpoint on
     disk (a resume of it restores every point and evaluates nothing). *)
  Option.iter write_ckpt ckpt;
  let sweeps =
    List.map
      (fun st ->
      let by_index (i1, _) (i2, _) = compare i1 i2 in
      let bounded = List.sort by_index st.st_bounded |> List.map snd in
      let errors = List.sort by_index st.st_errors |> List.map snd in
      let n_reason r =
        List.length (List.filter (fun b -> b.bp_reason = r) bounded)
      in
      {
        sw_points = List.sort by_index st.st_done |> List.map snd;
        sw_bounded = bounded;
        sw_errors = errors;
        sw_stats =
          {
            ss_space = st.st_space;
            ss_evaluated = List.length st.st_done - st.st_restored;
            ss_pruned_resource = n_reason Overflow;
            ss_pruned_incumbent = n_reason Dominated;
            ss_restored = st.st_restored;
            ss_failed = List.length errors;
          };
      })
      states
  in
  if Tytra_telemetry.Events.active () then
    List.iter
      (fun sw ->
        Tytra_telemetry.Events.emit
          (Tytra_telemetry.Events.Sweep_finished
             {
               evaluated = sw.sw_stats.ss_evaluated;
               pruned =
                 sw.sw_stats.ss_pruned_resource
                 + sw.sw_stats.ss_pruned_incumbent;
               failed = sw.sw_stats.ss_failed;
               restored = sw.sw_stats.ss_restored;
             }))
      sweeps;
  sweeps

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(** [explore_sweep ?config ?restore prog] — sweep the reshaping design
    space of [prog]: full reports for the surviving points plus the
    bound records of every pruned candidate. [restore] (typically from
    {!load_checkpoint}) pre-fills the sweep with already-evaluated
    points, which are adopted without re-evaluation. *)
let explore_sweep_in ~pool ?(config = default_config) ?restore
    (prog : Expr.program) : sweep =
  Tytra_telemetry.Span.with_ ~name:"dse.explore"
    ~attrs:
      [ ("kernel", Tytra_telemetry.Span.Str prog.Expr.p_kernel.Expr.k_name);
        ("max_lanes", Tytra_telemetry.Span.Int config.max_lanes);
        ("max_vec", Tytra_telemetry.Span.Int config.max_vec);
        ("jobs", Tytra_telemetry.Span.Int config.jobs);
        ("prune", Tytra_telemetry.Span.Str (string_of_bool config.prune)) ]
  @@ fun () ->
  (* sweep_started / sweep_finished events are emitted by [sweep_many],
     which has the enumerated space at hand. *)
  let sw =
    match sweep_many ~pool ?restore [ config ] prog with
    | [ sw ] -> sw
    | _ -> assert false
  in
  Log.info (fun m ->
      m "explored %s (max_lanes %d, jobs %d): %a"
        prog.Expr.p_kernel.Expr.k_name config.max_lanes config.jobs
        pp_sweep_stats sw.sw_stats);
  sw

let explore_sweep ?(config = default_config) ?restore (prog : Expr.program) :
    sweep =
  Tytra_exec.Pool.with_pool ~jobs:config.jobs (fun pool ->
      explore_sweep_in ~pool ~config ?restore prog)

(** [explore ?config prog] — evaluated points of {!explore_sweep}, in
    enumeration order. With [config.prune] off this is the exhaustive
    sweep (identical for every [jobs] value); with pruning on it returns
    the survivors, whose {!best} and {!pareto} equal the exhaustive
    sweep's. *)
let explore ?(config = default_config) (prog : Expr.program) : point list =
  (explore_sweep ~config prog).sw_points

(** [best points] — the highest-EKIT variant among those that fit the
    device (the automated selection of Fig 1's "Selected Variant-X"). *)
let best (points : point list) : point option =
  List.fold_left
    (fun acc p ->
      if not (valid p) then acc
      else
        match acc with
        | None -> Some p
        | Some b -> if ekit p > ekit b then Some p else acc)
    None points

(** [pareto points] — the EKIT/ALUT Pareto front: no retained point is
    beaten on both throughput and area by another valid point.

    Sort-and-scan, O(n log n): order the valid points by (area asc, EKIT
    desc); a point is on the front iff it has the top EKIT of its area
    group and beats the best EKIT seen at any strictly smaller area.
    Equal (area, EKIT) duplicates are all retained, and the front comes
    back in input order — both exactly as the quadratic
    reference-by-definition filter behaves (the randomized test in
    [test_dse.ml] pins that equivalence). *)
let pareto (points : point list) : point list =
  let valid_pts = List.filter valid points in
  let arr = Array.of_list valid_pts in
  let n = Array.length arr in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = compare (area arr.(i)) (area arr.(j)) in
      if c <> 0 then c
      else
        let c = compare (ekit arr.(j)) (ekit arr.(i)) in
        if c <> 0 then c else compare i j)
    order;
  let keep = Array.make n false in
  let best_prev = ref neg_infinity in
  let i = ref 0 in
  while !i < n do
    let a = area arr.(order.(!i)) in
    let j = ref !i in
    while !j < n && area arr.(order.(!j)) = a do incr j done;
    let group_max = ekit arr.(order.(!i)) in
    for k = !i to !j - 1 do
      let e = ekit arr.(order.(k)) in
      if e = group_max && e > !best_prev then keep.(order.(k)) <- true
    done;
    if group_max > !best_prev then best_prev := group_max;
    i := !j
  done;
  let front = List.filteri (fun i _ -> keep.(i)) valid_pts in
  Tytra_telemetry.Metrics.set "dse.pareto_front_size"
    (float_of_int (List.length front));
  front

(** Guided search (the "targeted optimization" of paper §I): follow the
    limiting parameter. Starting from the baseline pipe, double lanes
    while compute-limited and the next variant still fits; stop at a
    bandwidth wall (more lanes cannot help) or the resource wall. Returns
    the visited points in order — a trace of the feedback loop. The loop
    is inherently sequential, but revisited points (e.g. after a prior
    [explore] of the same program) come from the cache. *)
let guided ?(config = default_config) (prog : Expr.program) : point list =
  Tytra_telemetry.Span.with_ ~name:"dse.guided"
    ~attrs:
      [ ("kernel", Tytra_telemetry.Span.Str prog.Expr.p_kernel.Expr.k_name);
        ("max_lanes", Tytra_telemetry.Span.Int config.max_lanes) ]
  @@ fun () ->
  let prog_key = program_digest prog in
  let eval = eval_point ~config ~prog_key prog in
  let applicable l = Transform.applicable prog (Transform.ParPipe l) in
  let rec go acc lanes =
    let v = if lanes = 1 then Transform.Pipe else Transform.ParPipe lanes in
    let p = eval v in
    let acc = p :: acc in
    let limited_by_compute =
      p.dp_report.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_limiter
      = Tytra_cost.Throughput.Compute
    in
    let next = lanes * 2 in
    if
      limited_by_compute && valid p && next <= config.max_lanes
      && applicable next
    then go acc next
    else List.rev acc
  in
  go [] 1

(** Cross-device exploration: evaluate the variant space on every device
    of [devices] (default: the whole registry) and return per-device
    results plus the overall best (device, point) — "performance
    portability" made concrete: the same high-level program, retargeted
    by swapping the one-time device description and calibration. All
    per-device sweeps are interleaved on one shared evaluation pool
    ({!sweep_many}), so the registry-wide sweep saturates [config.jobs]
    domains instead of running devices one after another. *)
let explore_devices ?(config = default_config)
    ?(devices = Tytra_device.Device.all) (prog : Expr.program) :
    (Tytra_device.Device.t * point list) list
    * (Tytra_device.Device.t * point) option =
  Tytra_telemetry.Span.with_ ~name:"dse.explore_devices"
    ~attrs:
      [ ("kernel", Tytra_telemetry.Span.Str prog.Expr.p_kernel.Expr.k_name);
        ("devices", Tytra_telemetry.Span.Int (List.length devices));
        ("jobs", Tytra_telemetry.Span.Int config.jobs) ]
  @@ fun () ->
  let sweeps =
    Tytra_exec.Pool.with_pool ~jobs:config.jobs (fun pool ->
        sweep_many ~pool
          (List.map (fun device -> { config with device }) devices)
          prog)
  in
  let per_device =
    List.map2 (fun device sw -> (device, sw.sw_points)) devices sweeps
  in
  let best_overall =
    List.fold_left
      (fun acc (device, pts) ->
        match best pts with
        | None -> acc
        | Some b -> (
            match acc with
            | None -> Some (device, b)
            | Some (_, prev) -> if ekit b > ekit prev then Some (device, b) else acc))
      None per_device
  in
  (per_device, best_overall)

let pp_point fmt (p : point) =
  Format.fprintf fmt "%-16s EKIT=%10.3g  %s  %s"
    (Transform.to_string p.dp_variant)
    (ekit p)
    (if valid p then "fits " else "OVER ")
    (Tytra_cost.Throughput.limiter_to_string
       p.dp_report.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_limiter)
