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
    as it was. The Pipe report is evaluated once per sweep and shared
    by all its replicated points. Its design comes from
    {!Lower.derive}, built around the template's validated PE function
    and certified lanes, or around its PE count's shell, and checked by
    position (DESIGN.md §10.2): no replicated point builds an index or
    runs a delta check unless that check fails.

    A sweep runs on its caller's domain, one point after another: a
    whole 64-lane space costs a few milliseconds, less than fanning it
    out over domains would. It keeps no state between calls: it builds
    its program's lowering template once, and every point is derived
    from it and costed afresh.

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
  jobs : int;
      (** ignored: every sweep runs on its caller's domain; kept only
          because [benchmark/] sets it *)
  prune : bool;                     (** bound-based pruning of the space *)
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
  }

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* Count one variant derived from the program's template. *)
let derived x =
  Tytra_telemetry.Metrics.incr "dse.points_derived";
  x

(* Seq or Pipe, costed in full on the index its derivation built
   ([Lower.derive_sym]); the index lives only while the point is
   evaluated: the point keeps the design and its report. *)
let evaluate ~(config : config) template v =
  let sy = derived (Lower.derive_sym template v) in
  let report =
    Tytra_cost.Report.evaluate_sym ~device:config.device ?calib:config.calib
      ~form:config.form ~nki:config.nki sy
  in
  (Tytra_ir.Symtab.design sy, report)

(* Evaluate one variant under a per-point span: lane count, form and the
   resulting EKIT become trace attributes, so a sweep reads as a row of
   "dse.point" slices in Perfetto. A replicated variant is derived by
   [Lower.derive], which checks it by position against the template's
   certified lanes and builds no index unless that check fails; it is
   costed in closed form from the sweep's Pipe point [pipe], which is
   evaluated in full when first forced. *)
let eval_point ~(config : config) ~template ~pipe prog v =
  Tytra_telemetry.Span.with_ ~name:"dse.point"
    ~attrs:
      [ ("variant", Tytra_telemetry.Span.Str (Transform.to_string v));
        ("pes", Tytra_telemetry.Span.Int (Transform.pes v));
        ("form",
         Tytra_telemetry.Span.Str
           (Tytra_cost.Throughput.form_to_string config.form));
      ]
  @@ fun () ->
  (* Event-log detail is gated separately from plain metrics: without a
     sink, this adds two ref cells and a bool. *)
  let observe = Tytra_telemetry.Events.active () in
  let t0 = if observe then Tytra_telemetry.Clock.now_ns () else 0L in
  let d, report =
    match v with
    | Transform.Seq -> evaluate ~config template v
    | Transform.Pipe -> Lazy.force pipe
    | Transform.ParPipe _ | Transform.ParVecPipe _ ->
        let d = derived (Lower.derive template v) in
        ( d,
          Tytra_cost.Report.replicate ~device:config.device ~form:config.form
            ~name:(Lower.design_name prog v) ~lanes:(Transform.lanes v)
            ~vec:(Transform.vec v) (snd (Lazy.force pipe)) )
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

(* The (ekit, area) of the best valid point evaluated so far, once [p]
   is counted: higher EKIT wins, then smaller area. *)
let better_incumbent incumbent (p : point) =
  if not (valid p) then incumbent
  else
    let e = ekit p and a = area p in
    match incumbent with
    | Some (be, ba) when not (e > be || (e = be && a < ba)) -> incumbent
    | _ -> Some (e, a)

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
let prunable incumbent (b : Tytra_cost.Bounds.t) =
  match incumbent with
  | None -> false
  | Some (be, ba) ->
      b.Tytra_cost.Bounds.b_ekit_ub < be && Tytra_cost.Bounds.area_lb b >= ba

(* With a {!Tytra_exec.Faultgen} crash installed, each point draws its
   task id just before it is evaluated, and the point holding the
   installed id kills the process. *)
let inject_fault () =
  match Tytra_exec.Faultgen.installed () with
  | None -> ()
  | Some _ -> Tytra_exec.Faultgen.inject ~id:(Tytra_exec.Faultgen.next_id ())

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(** [explore_sweep ?config prog] — sweep the reshaping design space of
    [prog] on the calling domain: full reports for the surviving points
    plus the bound records of every pruned candidate.

    + Evaluate the baselines, Seq and Pipe, or with [prune] off the
      whole space in enumeration order, after interning the lanes of
      its widest variant once.
    + Derive {!Tytra_cost.Bounds} for each replicated candidate from the
      Pipe report; a candidate whose resource lower bound overflows the
      device is recorded as {!Overflow} without lowering. The rest are
      queued by EKIT upper bound, highest first, then by index.
    + Rounds: record every queued candidate the incumbent now dominates
      as {!Dominated}, then evaluate the head of the rest.

    A point that raises aborts the sweep with its exception, and
    {!Tytra_exec.Task.check} runs after every point, so a request
    deadline interrupts a sweep between points. *)
let explore_sweep ?(config = default_config) (prog : Expr.program) : sweep =
  let kernel = prog.Expr.p_kernel.Expr.k_name in
  Tytra_telemetry.Span.with_ ~name:"dse.explore"
    ~attrs:
      [ ("kernel", Tytra_telemetry.Span.Str kernel);
        ("max_lanes", Tytra_telemetry.Span.Int config.max_lanes);
        ("max_vec", Tytra_telemetry.Span.Int config.max_vec);
        ("prune", Tytra_telemetry.Span.Str (string_of_bool config.prune)) ]
  @@ fun () ->
  let template = Lower.template prog in
  let variants =
    Transform.enumerate ~max_lanes:config.max_lanes ~max_vec:config.max_vec
      prog
  in
  let space = List.length variants in
  if Tytra_telemetry.Events.active () then
    Tytra_telemetry.Events.emit
      (Tytra_telemetry.Events.Sweep_started
         { kernel; space; prune = config.prune });
  let pipe = lazy (evaluate ~config template Transform.Pipe) in
  (* (enumeration index, point) and (enumeration index, bounded), newest
     first, and the (ekit, area) of the best valid point *)
  let points = ref [] and bounded = ref [] and incumbent = ref None in
  let eval (i, v) =
    inject_fault ();
    let p = eval_point ~config ~template ~pipe prog v in
    points := (i, p) :: !points;
    incumbent := better_incumbent !incumbent p;
    Tytra_exec.Task.check ()
  in
  let record i v b reason =
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
    bounded :=
      (i, { bp_variant = v; bp_bounds = b; bp_reason = reason }) :: !bounded
  in
  let indexed = List.mapi (fun i v -> (i, v)) variants in
  (* Step 1: baselines. Replication bounds derive from the Pipe report,
     so Seq and Pipe (pes < 2) are always evaluated in full; with
     pruning off the whole space is a baseline. *)
  let baselines, candidates =
    if config.prune then
      List.partition (fun (_, v) -> Transform.pes v < 2) indexed
    else begin
      let pes =
        List.fold_left (fun m v -> max m (Transform.pes v)) 1 variants
      in
      if pes > 1 then ignore (Lower.template_lanes template pes);
      (indexed, [])
    end
  in
  List.iter eval baselines;
  (* Step 2: bounds. *)
  let queue =
    List.filter_map
      (fun (i, v) ->
        let b =
          Tytra_cost.Bounds.of_baseline ~device:config.device
            ~form:config.form ~pes:(Transform.pes v)
            (snd (Lazy.force pipe))
        in
        if b.Tytra_cost.Bounds.b_fits then Some (i, v, b)
        else begin
          record i v b Overflow;
          None
        end)
      candidates
    |> List.sort (fun (i1, _, b1) (i2, _, b2) ->
           let c =
             compare b2.Tytra_cost.Bounds.b_ekit_ub
               b1.Tytra_cost.Bounds.b_ekit_ub
           in
           if c <> 0 then c else compare i1 i2)
  in
  (* Step 3: incumbent-pruned rounds. *)
  let rec rounds queue =
    let dominated, rest =
      List.partition (fun (_, _, b) -> prunable !incumbent b) queue
    in
    List.iter (fun (i, v, b) -> record i v b Dominated) dominated;
    match rest with
    | [] -> ()
    | (i, v, _) :: rest ->
        eval (i, v);
        rounds rest
  in
  rounds queue;
  let by_index (i1, _) (i2, _) = compare i1 i2 in
  let bounded = List.sort by_index !bounded |> List.map snd in
  let n_reason r =
    List.length (List.filter (fun b -> b.bp_reason = r) bounded)
  in
  let sw =
    {
      sw_points = List.sort by_index !points |> List.map snd;
      sw_bounded = bounded;
      sw_stats =
        {
          ss_space = space;
          ss_evaluated = List.length !points;
          ss_pruned_resource = n_reason Overflow;
          ss_pruned_incumbent = n_reason Dominated;
        };
    }
  in
  let st = sw.sw_stats in
  if Tytra_telemetry.Events.active () then
    Tytra_telemetry.Events.emit
      (Tytra_telemetry.Events.Sweep_finished
         {
           evaluated = st.ss_evaluated;
           pruned = st.ss_pruned_resource + st.ss_pruned_incumbent;
         });
  Log.info (fun m ->
      m "explored %s (max_lanes %d): %a" kernel config.max_lanes
        pp_sweep_stats st);
  sw

(** [explore ?config prog] — evaluated points of {!explore_sweep}, in
    enumeration order. With [config.prune] off this is the exhaustive
    sweep; with pruning on it returns the survivors, whose {!best} and
    {!pareto} equal the exhaustive sweep's. *)
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
