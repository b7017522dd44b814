(** Design-space exploration: generate variants by type transformation,
    lower each to TyTra-IR, cost it, and select — "the compiler costs the
    variants" of paper Fig 1, with the selection policy of §VI-A: as many
    lanes as the resources allow, or until the IO bandwidth saturates.

    The paper's estimator analyses the IR of one pipelined lane. Seq and
    Pipe are costed that way, in full on the index of their derived
    design. A replicated variant (ParPipe, ParVecPipe) is derived and
    validated too, so every point carries its design, but it is costed
    in closed form from its config's Pipe report
    ({!Tytra_cost.Report.replicate}, DESIGN.md §9.1): replication adds
    identical PE instances and leaves every per-kernel-instance figure
    as it was. The Pipe report is evaluated once per config and shared
    by all its replicated points. Its design comes from
    {!Lower.derive}, built around the template's validated PE function
    and certified lanes, or around its PE count's shell, and checked by
    position (DESIGN.md §10.2): no replicated point builds an index or
    runs a delta check unless that check fails. [eval_wave] interns the
    lanes of a wave's widest variant before the wave fans out.

    Points fan out over a {!Tytra_exec.Pool} of [config.jobs] domains.
    A sweep keeps no state between calls: it builds its program's
    lowering template once, on the driving domain, and every point is
    derived from it and costed afresh.

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
  prune : bool;                     (** bound-based pruning of the space *)
  on_progress : (progress -> unit) option;
      (** called on the sweep's driving domain after every evaluation
          wave with cumulative coverage; [tybec serve] streams it as
          progress frames *)
}

(** Cumulative sweep coverage, as passed to [config.on_progress].
    Aggregated over every config of a {!sweep_many} batch. *)
and progress = {
  pr_space : int;      (** variants enumerated across all configs *)
  pr_evaluated : int;  (** points lowered and costed so far *)
  pr_pruned : int;     (** candidates skipped by bounds so far *)
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
    prune = true;
    on_progress = None;
  }

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* Count one variant derived from the program's template. *)
let derived x =
  Tytra_telemetry.Metrics.incr "dse.points_derived";
  x

(* The Pipe point of one sweep config, which every replicated point of
   that config is costed from ({!Tytra_cost.Report.replicate}). It is
   set once, under the lock, by whichever point needs it first — the
   Pipe point itself or a replicated point that a wave runs before it —
   so Pipe is evaluated in full once per config at any pool width and
   in any wave order. *)
type baseline = {
  bl_lock : Mutex.t;
  mutable bl_point : (Tytra_ir.Ast.design * Tytra_cost.Report.t) option;
}

let new_baseline () = { bl_lock = Mutex.create (); bl_point = None }

let baseline_point bl compute =
  Mutex.protect bl.bl_lock (fun () ->
      match bl.bl_point with
      | Some dr -> dr
      | None ->
          let dr = compute () in
          bl.bl_point <- Some dr;
          dr)

(* Evaluate one variant under a per-point span: lane count, form and the
   resulting EKIT become trace attributes, so a sweep reads as a row of
   "dse.point" slices in Perfetto (one lane per pool domain). Seq and
   Pipe are costed in full on the index their derivation built
   ([Lower.derive_sym]). A replicated variant is derived too, by
   [Lower.derive], which checks it by position against the template's
   certified lanes and builds no index unless that check fails; it is
   costed in closed form from the config's Pipe report in [baseline]. *)
let eval_point ~(config : config) ~template ~baseline prog v =
  Tytra_telemetry.Span.with_ ~name:"dse.point"
    ~attrs:
      [ ("variant", Tytra_telemetry.Span.Str (Transform.to_string v));
        ("pes", Tytra_telemetry.Span.Int (Transform.pes v));
        ("form",
         Tytra_telemetry.Span.Str
           (Tytra_cost.Throughput.form_to_string config.form));
      ]
  @@ fun () ->
  (* the index lives only while its point is evaluated: the point keeps
     the design and its report *)
  let evaluate v =
    let sy = derived (Lower.derive_sym template v) in
    let report =
      Tytra_cost.Report.evaluate_sym ~device:config.device ?calib:config.calib
        ~form:config.form ~nki:config.nki sy
    in
    (Tytra_ir.Symtab.design sy, report)
  in
  let pipe () =
    baseline_point baseline (fun () -> evaluate Transform.Pipe)
  in
  (* Event-log detail is gated separately from plain metrics: without a
     sink, this adds two ref cells and a bool. *)
  let observe = Tytra_telemetry.Events.active () in
  let t0 = if observe then Tytra_telemetry.Clock.now_ns () else 0L in
  let d, report =
    match v with
    | Transform.Seq -> evaluate v
    | Transform.Pipe -> pipe ()
    | Transform.ParPipe _ | Transform.ParVecPipe _ ->
        let d = derived (Lower.derive template v) in
        ( d,
          Tytra_cost.Report.replicate ~device:config.device ~form:config.form
            ~name:(Lower.design_name prog v) ~lanes:(Transform.lanes v)
            ~vec:(Transform.vec v) (snd (pipe ())) )
  in
  let p = { dp_variant = v; dp_design = d; dp_report = report } in
  Tytra_telemetry.Metrics.incr "dse.points_evaluated";
  Tytra_telemetry.Metrics.observe "dse.point.ekit" (ekit p);
  if observe then begin
    let dur_ns =
      Int64.max 0L (Int64.sub (Tytra_telemetry.Clock.now_ns ()) t0)
    in
    Tytra_telemetry.Events.emit
      (Tytra_telemetry.Events.Point_evaluated
         {
           variant = Transform.to_string v;
           ekit = ekit p;
           valid = valid p;
           dur_ns;
         })
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
  ss_evaluated : int;         (** points lowered and costed *)
  ss_pruned_resource : int;   (** skipped: could not fit *)
  ss_pruned_incumbent : int;  (** skipped: could not beat the incumbent *)
}

let pp_sweep_stats fmt s =
  Format.fprintf fmt "%d variants: %d evaluated, %d pruned (%d overflow, %d dominated)"
    s.ss_space s.ss_evaluated
    (s.ss_pruned_resource + s.ss_pruned_incumbent)
    s.ss_pruned_resource s.ss_pruned_incumbent

(** Result of one sweep: fully evaluated points, pruned candidates and
    the evaluation accounting. *)
type sweep = {
  sw_points : point list;     (** evaluated points, enumeration order *)
  sw_bounded : bounded list;  (** pruned candidates, enumeration order *)
  sw_stats : sweep_stats;
}

(* Mutable per-config sweep state; driven by [sweep_many] below. All
   mutation happens on the calling domain — worker domains only run the
   pure [eval_point]. *)
type sweep_state = {
  st_config : config;
  st_baseline : baseline;
  st_space : int;
  mutable st_done : (int * point) list;       (* (enumeration index, point) *)
  mutable st_bounded : (int * bounded) list;
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
  if Tytra_telemetry.Events.active () then
    Tytra_telemetry.Events.emit
      (Tytra_telemetry.Events.Point_pruned
         {
           variant = Transform.to_string v;
           reason =
             Printf.sprintf "%s (ekit_ub=%.6g, fits=%b)"
               (prune_reason_to_string reason)
               b.Tytra_cost.Bounds.b_ekit_ub b.Tytra_cost.Bounds.b_fits;
         });
  st.st_bounded <-
    (idx, { bp_variant = v; bp_bounds = b; bp_reason = reason })
    :: st.st_bounded

let rec take_n n = function
  | x :: tl when n > 0 ->
      let a, b = take_n (n - 1) tl in
      (x :: a, b)
  | l -> ([], l)

(* Evaluate a combined wave of (state, index, variant) items on the
   shared pool; results land back in each state's accumulator. The
   calling domain first interns the lanes of the wave's widest variant,
   so the template's lanes grow once a wave and no pool domain waits on
   their lock. *)
let eval_wave ~pool ~template prog
    (items : (sweep_state * int * Transform.variant) list) =
  let pes = List.fold_left (fun m (_, _, v) -> max m (Transform.pes v)) 1 items in
  if pes > 1 then ignore (Lower.template_lanes template pes);
  Tytra_exec.Pool.map pool
    (fun (st, idx, v) ->
      ( st,
        idx,
        eval_point ~config:st.st_config ~template ~baseline:st.st_baseline
          prog v ))
    items
  |> List.iter (fun (st, idx, p) ->
         st.st_done <- (idx, p) :: st.st_done;
         update_incumbent st p)

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

    Every wave runs through [eval_wave], so a point that raises aborts
    the whole sweep with its exception. The {e head} config's
    [on_progress], if any, hears cumulative coverage after every wave.
    The program's {!Lower.template} is built once, on the calling
    domain, and every config derives its points from it. No configs, no
    sweeps. *)
let sweep_many ~pool (configs : config list) (prog : Expr.program) :
    sweep list =
  match configs with
  | [] -> []
  | head :: _ ->
      let template = Lower.template prog in
      let states_with_variants =
        List.map
          (fun config ->
            let variants =
              Transform.enumerate ~max_lanes:config.max_lanes
                ~max_vec:config.max_vec prog
            in
            let st =
              {
                st_config = config;
                st_baseline = new_baseline ();
                st_space = List.length variants;
                st_done = [];
                st_bounded = [];
                st_queue = [];
                st_incumbent = None;
              }
            in
            (st, List.mapi (fun i v -> (i, v)) variants))
          configs
      in
      let states = List.map fst states_with_variants in
      (* The event log marks each config's sweep here, where the space is
         already enumerated — recomputing it just for the event would cost
         a full [Transform.enumerate] per sweep (~ms on large spaces). *)
      if Tytra_telemetry.Events.active () then
        List.iter
          (fun st ->
            Tytra_telemetry.Events.emit
              (Tytra_telemetry.Events.Sweep_started
                 {
                   kernel = prog.Expr.p_kernel.Expr.k_name;
                   space = st.st_space;
                   jobs = st.st_config.jobs;
                   prune = st.st_config.prune;
                 }))
          states;
      (* Progress notification: cumulative coverage across every config,
         reported on the driving domain after each wave. The callback comes
         from the head config. *)
      let notify =
        match head.on_progress with
        | None -> fun () -> ()
        | Some f ->
            fun () ->
              f
                (List.fold_left
                   (fun acc st ->
                     {
                       pr_space = acc.pr_space + st.st_space;
                       pr_evaluated = acc.pr_evaluated + List.length st.st_done;
                       pr_pruned = acc.pr_pruned + List.length st.st_bounded;
                     })
                   { pr_space = 0; pr_evaluated = 0; pr_pruned = 0 }
                   states)
      in
      let run_wave items =
        eval_wave ~pool ~template prog items;
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
                          Tytra_cost.Bounds.of_baseline
                            ~device:st.st_config.device ~form:st.st_config.form
                            ~pes:(Transform.pes v) baseline
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
      let sweeps =
        List.map
          (fun st ->
          let by_index (i1, _) (i2, _) = compare i1 i2 in
          let bounded = List.sort by_index st.st_bounded |> List.map snd in
          let n_reason r =
            List.length (List.filter (fun b -> b.bp_reason = r) bounded)
          in
          {
            sw_points = List.sort by_index st.st_done |> List.map snd;
            sw_bounded = bounded;
            sw_stats =
              {
                ss_space = st.st_space;
                ss_evaluated = List.length st.st_done;
                ss_pruned_resource = n_reason Overflow;
                ss_pruned_incumbent = n_reason Dominated;
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
                 }))
          sweeps;
      sweeps

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(** [explore_sweep ?config prog] — sweep the reshaping design space of
    [prog]: full reports for the surviving points plus the bound records
    of every pruned candidate. *)
let explore_sweep ?(config = default_config) (prog : Expr.program) : sweep =
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
    match
      Tytra_exec.Pool.with_pool ~jobs:config.jobs (fun pool ->
          sweep_many ~pool [ config ] prog)
    with
    | [ sw ] -> sw
    | _ -> assert false
  in
  Log.info (fun m ->
      m "explored %s (max_lanes %d, jobs %d): %a"
        prog.Expr.p_kernel.Expr.k_name config.max_lanes config.jobs
        pp_sweep_stats sw.sw_stats);
  sw

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
    is inherently sequential; it builds the program's template once and
    derives every visited point from it. *)
let guided ?(config = default_config) (prog : Expr.program) : point list =
  Tytra_telemetry.Span.with_ ~name:"dse.guided"
    ~attrs:
      [ ("kernel", Tytra_telemetry.Span.Str prog.Expr.p_kernel.Expr.k_name);
        ("max_lanes", Tytra_telemetry.Span.Int config.max_lanes) ]
  @@ fun () ->
  let template = Lower.template prog in
  (* the trace starts at Pipe, which sets the baseline of the rest *)
  let eval = eval_point ~config ~template ~baseline:(new_baseline ()) prog in
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

(* A sweep holds no state to clear. [benchmark/] still calls this
   between sweeps; the ROADMAP item "Next benchmark change" deletes
   it. *)
let clear_cache () = ()
