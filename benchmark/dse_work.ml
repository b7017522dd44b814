(* dse-exhaustive and dse-pruned: cold design-space sweeps.

   A pass runs every config of the workload once, each sweep on cleared
   DSE and cost-stage caches. A sweep's latency is its time per variant
   decided. Passes repeat until the time budget is spent; timings come
   from the faster half of the passes (dse-exhaustive) or from whole
   type/device cycles (dse-pruned, see Gen.dse_pruned). The traced run
   replays each sweep's variants through the public layer calls under
   the benchmark's spans. *)

open Tybench
module Dse = Tytra_dse.Dse
module Report = Tytra_cost.Report
module Transform = Tytra_front.Transform
module Lower = Tytra_front.Lower

let config ~prune ~jobs (s : Gen.sweep) =
  { Dse.default_config with
    device = s.Gen.sw_device; form = s.Gen.sw_form; nki = 100;
    max_lanes = 64; max_vec = 8; jobs; prune }

(* The selection a sweep makes: the best variant, and the Pareto front
   as a set of (area, EKIT) points. Pruning must not change it. The
   front is compared as a set because a pruned sweep keeps one of two
   variants with equal area and EKIT where the exhaustive front lists
   both. *)
let selection (sw : Dse.sweep) =
  let pts = sw.Dse.sw_points in
  let best =
    Option.fold ~none:"-" ~some:(fun p -> Transform.to_string p.Dse.dp_variant) (Dse.best pts)
  in
  let front =
    List.sort_uniq compare
      (List.map (fun p -> Printf.sprintf "%d:%.6g" (Dse.area p) (Dse.ekit p)) (Dse.pareto pts))
  in
  Common.digest (String.concat " " (best :: front))

(* A sweep on cleared caches and a collected heap, as in a fresh
   `tybec explore` process: its time and peak memory then do not depend
   on which sweeps ran before it. *)
let cold_sweep ?(rid = -1) ?(name = "dse.sweep") cfg prog =
  Dse.clear_cache ();
  Report.clear_stage_caches ();
  Gc.full_major ();
  Common.time (fun () ->
      Trace.with_span ~rid name (fun () -> Dse.explore_sweep ~config:cfg prog))

(* ---- traced replay ---- *)

(* Spans that partition a sweep's work; whatever the sweep spends
   outside them is unattributed. *)
let partition = [ "front.enumerate"; "front.template"; "dse.point"; "cost.bounds" ]

let replay ~rid cfg prog (sw : Dse.sweep) =
  Dse.clear_cache ();
  Report.clear_stage_caches ();
  let device = cfg.Dse.device and form = cfg.Dse.form and nki = cfg.Dse.nki in
  let span name f = Trace.with_span ~rid name f in
  span "dse.replay" @@ fun () ->
  let variants =
    span "front.enumerate" (fun () ->
        Transform.enumerate ~max_lanes:cfg.Dse.max_lanes
          ~max_vec:cfg.Dse.max_vec prog)
  in
  let tpl = span "front.template" (fun () -> Lower.template prog) in
  let points =
    List.map
      (fun (p : Dse.point) ->
        span "dse.point" (fun () ->
            let d = span "front.lower" (fun () -> Lower.derive tpl p.Dse.dp_variant) in
            let r = span "cost.evaluate" (fun () -> Report.evaluate ~device ~form ~nki d) in
            { p with Dse.dp_design = d; dp_report = r }))
      sw.Dse.sw_points
  in
  (if cfg.Dse.prune then
     match List.find_opt (fun p -> p.Dse.dp_variant = Transform.Pipe) points with
     | Some base ->
         List.iter
           (fun v ->
             if Transform.pes v >= 2 then
               ignore
                 (span "cost.bounds" (fun () ->
                      Tytra_cost.Bounds.of_baseline ~device ~form
                        ~pes:(Transform.pes v) base.Dse.dp_report)))
           variants
     | None -> ());
  ignore (span "dse.pareto" (fun () -> Dse.pareto points));
  (* component probes: the calls Report.evaluate and Lower.derive make
     internally, timed one by one on the same designs *)
  List.iter
    (fun (p : Dse.point) ->
      let d = p.Dse.dp_design in
      span "probe" (fun () ->
          ignore
            (span "ir.validate" (fun () ->
                 if p.Dse.dp_variant = Transform.Seq then Tytra_ir.Validate.check d
                 else Tytra_ir.Validate.check_delta ~trusted:[ "f0" ] d));
          ignore (span "ir.analysis" (fun () -> Tytra_ir.Analysis.params d));
          let est =
            span "cost.resource_model" (fun () ->
                Tytra_cost.Resource_model.estimate ~device d)
          in
          ignore
            (span "cost.throughput" (fun () ->
                 Tytra_cost.Throughput.ekit form
                   (Tytra_cost.Throughput.inputs_of_design ~device ~nki
                      ~fmax_mhz:est.Tytra_cost.Resource_model.est_fmax_mhz d)))))
    points

(* ---- the workload ---- *)

let run ~workload ~seed ~seconds ~traced ~golden =
  let prune = workload = "dse-pruned" in
  (* both workloads sweep at jobs=1, the CLI default; the pool at
     min(2,nproc) jobs is the traced run's exec.pool.speedup *)
  let jobs = 1 in
  let configs pass =
    List.map
      (fun c -> (c, config ~prune ~jobs c, Gen.sweep_program c))
      (if prune then Gen.dse_pruned ~seed ~pass else Gen.dse_exhaustive ~seed ~pass)
  in
  let tail = Ledger.tail_pct workload in
  let ops = Common.tally () in
  let chosen = Hashtbl.create 1024 in
  (* one timed sweep; [f] sees the result (the traced run's extras) *)
  let sweep ?(f = fun _ _ _ _ _ -> ()) i (c, cfg, prog) =
    match cold_sweep ~rid:i cfg prog with
    | sw, t ->
        let key = Gen.sweep_key c in
        let sel = selection sw in
        Common.record ops
          ~what:(fun () -> key ^ ": selection differs from the golden digest")
          (Hashtbl.find_opt golden key = Some sel);
        Hashtbl.replace chosen key sel;
        f i cfg prog sw t;
        (sw.Dse.sw_stats.Dse.ss_space, t)
    | exception e ->
        Common.record ops false ~what:(fun () ->
            Gen.sweep_key c ^ ": " ^ Printexc.to_string e);
        (0, 0.0)
  in
  (* a pass: its sweep time, the variants it decided, and each sweep's
     time per decided variant *)
  let setup = Common.setups () in
  let pass ?f k =
    let done_ =
      List.mapi
        (fun i c ->
          Common.probe_setup setup;
          sweep ?f i c)
        (configs k)
    in
    ( Stats.sum (Array.of_list (List.map snd done_)),
      float_of_int (List.fold_left (fun n (k, _) -> n + k) 0 done_),
      Array.of_list
        (List.map (fun (k, t) -> Stats.ratio (Common.ms t) (float_of_int k)) done_) )
  in
  (* untimed cross-check: a drawn subset of the first pass re-swept
     exhaustively must make the same selection as the pruned sweep *)
  let cross_check () =
    List.iter
      (fun (c, cfg, prog) ->
        let ex, _ = cold_sweep { cfg with Dse.prune = false; jobs = 1 } prog in
        Common.record ops
          ~what:(fun () -> Gen.sweep_key c ^ ": pruned and exhaustive selections differ")
          (Hashtbl.find_opt chosen (Gen.sweep_key c) = Some (selection ex)))
      (Gen.cross_checked ~seed ~every:24 (configs 0))
  in
  let cycle = if prune && not traced then Gen.pruned_cycle else 1 in
  let passes =
    Common.repeat_passes ~cycle
      ~budget:(if traced then seconds /. 2.0 else seconds)
      ~min_samples:(if traced then 0 else Stats.min_samples tail)
      pass
  in
  let layers () =
    Trace.reset ();
    Trace.enabled := true;
    let space = ref 0 and evaluated = ref 0 and pruned = ref 0 in
    let cache = Hashtbl.create 4 in
    let j1 = ref 0.0 and jn = ref 0.0 in
    let untraced_wall = ref 0.0 and traced_wall = ref 0.0 in
    (* the same replay untraced, then traced: the spans' own cost *)
    let replay_both i cfg prog sw =
      Trace.enabled := false;
      let (), off = Common.time (fun () -> replay ~rid:i cfg prog sw) in
      Trace.enabled := true;
      let (), on = Common.time (fun () -> replay ~rid:i cfg prog sw) in
      untraced_wall := !untraced_wall +. off;
      traced_wall := !traced_wall +. on
    in
    let extras i cfg prog (sw : Dse.sweep) t =
      let st = sw.Dse.sw_stats in
      space := !space + st.Dse.ss_space;
      evaluated := !evaluated + st.Dse.ss_evaluated;
      pruned := !pruned + st.Dse.ss_pruned_resource + st.Dse.ss_pruned_incumbent;
      List.iter
        (fun (name, (s : Tytra_exec.Cache.stats)) ->
          let h, n = Option.value ~default:(0, 0) (Hashtbl.find_opt cache name) in
          Hashtbl.replace cache name
            ( h + s.Tytra_exec.Cache.st_hits,
              n + s.Tytra_exec.Cache.st_hits + s.Tytra_exec.Cache.st_misses ))
        (Report.stage_cache_stats ());
      replay_both i cfg prog sw;
      (* pool speedup on one config in eight: the same sweep at
         min(2,nproc) jobs *)
      if prune && i mod 8 = 0 then begin
        let _, tn =
          cold_sweep ~rid:i ~name:"exec.pool.jobs" { cfg with Dse.jobs = min 2 Common.nproc } prog
        in
        j1 := !j1 +. t;
        jn := !jn +. tn
      end
    in
    ignore (pass ~f:extras (List.length passes));
    Trace.enabled := false;
    let p50 name = Stats.median (Trace.durations_ms name) in
    let total name = Stats.sum (Trace.durations_ms name) in
    let sweep_ms = total "dse.sweep" in
    let covered = List.fold_left (fun acc n -> acc +. total n) 0.0 partition in
    let hit name =
      let h, n = Option.value ~default:(0, 0) (Hashtbl.find_opt cache name) in
      Stats.ratio (float_of_int h) (float_of_int n)
    in
    let evaluate = Trace.durations_ms "cost.evaluate" in
    [ ("front.lower.calls",
       float_of_int
         (Array.length (Trace.durations_ms "front.lower")
         + Array.length (Trace.durations_ms "front.template")));
      ("front.lower.ms_p50", p50 "front.lower");
      ("front.lower.alloc_kb_p50", Stats.median (Trace.allocs_kb "front.lower"));
      ("ir.validate.ms_p50", p50 "ir.validate");
      ("ir.validate.alloc_kb_p50", Stats.median (Trace.allocs_kb "ir.validate"));
      ("ir.analysis.ms_p50", p50 "ir.analysis");
      ("cost.evaluate.ms_p50", Stats.median evaluate);
      ("cost.evaluate.ms_p95", Stats.percentile evaluate 95.0);
      ("cost.evaluate.alloc_kb_p50", Stats.median (Trace.allocs_kb "cost.evaluate"));
      ("cost.resource_model.ms_p50", p50 "cost.resource_model");
      ("cost.throughput.ms_p50", p50 "cost.throughput");
      ("cost.bounds.us_p50", 1000.0 *. p50 "cost.bounds");
      ("cost.stage_cache.resource.hit_ratio", hit "cost.stage_cache.resource");
      ("cost.stage_cache.inputs.hit_ratio", hit "cost.stage_cache.inputs");
      ("cost.stage_cache.throughput.hit_ratio", hit "cost.stage_cache.throughput");
      ("dse.evaluated", float_of_int !evaluated);
      ("dse.pruned", float_of_int !pruned);
      ("dse.prune_ratio", Stats.ratio (float_of_int !pruned) (float_of_int !space));
      ("dse.sweep.unattributed_pct", 100.0 *. Stats.ratio (sweep_ms -. covered) sweep_ms);
      ("dse.pareto.us_p50", 1000.0 *. p50 "dse.pareto");
      ("exec.pool.speedup", Stats.ratio !j1 !jn);
      ("trace.overhead_pct", 100.0 *. (Stats.ratio !traced_wall !untraced_wall -. 1.0));
      ("bench.samples", float_of_int (Common.kept_samples ~cycle passes));
      ("bench.tail_pct", tail) ]
  in
  let metrics =
    if traced then layers () else Common.pass_metrics ~setup ~tail ~cycle passes
  in
  (* after the metrics: these exhaustive sweeps must not count in the
     workload's peak memory *)
  if prune then cross_check ();
  { Common.attempted = ops.Common.n; failed = ops.Common.bad; metrics }

(* Golden selections of every config either workload can draw, from
   exhaustive sweeps. *)
let golden_rows () =
  List.map
    (fun c ->
      let sw, t =
        cold_sweep (config ~prune:false ~jobs:1 c) (Gen.sweep_program c)
      in
      Common.log "%s: %d variants, %.3f s" (Gen.sweep_key c)
        sw.Dse.sw_stats.Dse.ss_space t;
      (Gen.sweep_key c, selection sw))
    Gen.sweep_universe
