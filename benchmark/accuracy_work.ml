(* accuracy: cold single-design estimates over a generated corpus, and
   (traced run) the estimate-vs-actual error against technology mapping
   plus cycle simulation.

   A cold estimate parses fresh text, validates it and evaluates the cost
   model with every cost-stage cache cleared. A pass estimates the whole
   corpus; passes repeat until the time budget is spent, and each design's
   estimate time is its 10th percentile over the passes
   ([Common.op_times]). *)

open Tybench
module Report = Tytra_cost.Report
module Throughput = Tytra_cost.Throughput

let estimate (ds : Gen.design) text =
  let d = Tytra_ir.Parser.parse text in
  match Tytra_ir.Validate.check d with
  | [] -> Report.evaluate ~device:ds.Gen.ds_device d
  | e :: _ -> failwith (Tytra_ir.Validate.error_to_string e)

(* |est - act| / act in percent, bench/main.ml's convention. *)
let pct e a =
  if a = 0.0 then if e = 0.0 then 0.0 else 100.0
  else 100.0 *. Float.abs (e -. a) /. a

(* Error per resource class and CPKI of one design against its actuals. *)
let errors ~rid (ds : Gen.design) d =
  let device = ds.Gen.ds_device in
  let span name f = Trace.with_span ~rid name f in
  let est =
    (Tytra_cost.Resource_model.estimate ~device d).Tytra_cost.Resource_model.est_usage
  in
  let cpki_est = Throughput.cpki Throughput.FormB (Throughput.inputs_of_design ~device d) in
  let tm = span "sim.techmap" (fun () -> Tytra_sim.Techmap.run ~device ~effort:`Full d) in
  let sim =
    span "sim.cyclesim" (fun () ->
        Tytra_sim.Cyclesim.run ~device ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz
          ~form:Tytra_sim.Cyclesim.B d)
  in
  let act = tm.Tytra_sim.Techmap.tm_usage in
  let p e a = pct (float_of_int e) (float_of_int a) in
  let open Tytra_device.Resources in
  [ ("alut", p est.aluts act.aluts);
    ("reg", p est.regs act.regs);
    ("bram", p est.bram_bits act.bram_bits);
    ("dsp", p est.dsps act.dsps);
    ("cpki", pct cpki_est sim.Tytra_sim.Cyclesim.r_cycles_per_ki) ]

let run ~seed ~seconds ~traced ~golden =
  let designs = Array.of_list (Gen.accuracy ~seed ~reps:10) in
  let texts = Array.map Gen.design_text designs in
  let tail = Ledger.tail_pct "accuracy" in
  let ops = Common.tally () in
  let one i =
    let ds = designs.(i) in
    Report.clear_stage_caches ();
    match
      Common.time (fun () ->
          Trace.with_span ~rid:i "accuracy.estimate" (fun () -> estimate ds texts.(i)))
    with
    | r, t ->
        let key = Gen.design_key ds in
        Common.record ops
          ~what:(fun () -> key ^ ": report differs from the golden digest")
          (Hashtbl.find_opt golden key = Some (Common.digest (Report.to_string r)));
        t
    | exception e ->
        Common.record ops false ~what:(fun () ->
            Gen.design_key ds ^ ": " ^ Printexc.to_string e);
        0.0
  in
  let setup = Common.setups () in
  let pass _ =
    Common.probe_setup setup;
    let t = Array.init (Array.length designs) one in
    (Stats.sum t, float_of_int (Array.length designs), Array.map Common.ms t)
  in
  let passes =
    Common.repeat_passes
      ~budget:(if traced then seconds /. 2.0 else seconds)
      ~min_samples:0 pass
  in
  let layers () =
    Trace.reset ();
    (* the traced pass: each estimate split into its layer calls, run
       untraced and then traced, so the two walls differ only by the
       spans' own cost *)
    let lines = ref 0 in
    let untraced_wall = ref 0.0 and traced_wall = ref 0.0 in
    Array.iteri
      (fun i ds ->
        let span name f = Trace.with_span ~rid:i name f in
        let timed traced =
          Trace.enabled := traced;
          Report.clear_stage_caches ();
          snd
            (Common.time (fun () ->
                 span "accuracy.estimate" (fun () ->
                     let d = span "ir.parse" (fun () -> Tytra_ir.Parser.parse texts.(i)) in
                     ignore (span "ir.validate" (fun () -> Tytra_ir.Validate.check d));
                     ignore
                       (span "cost.evaluate" (fun () ->
                            Report.evaluate ~device:ds.Gen.ds_device d)))))
        in
        untraced_wall := !untraced_wall +. timed false;
        traced_wall := !traced_wall +. timed true;
        lines := !lines + List.length (String.split_on_char '\n' texts.(i)))
      designs;
    (* component probes, each on cleared caches like the estimate itself *)
    let designs_ir = Array.map Tytra_ir.Parser.parse texts in
    Array.iteri
      (fun i d ->
        let device = designs.(i).Gen.ds_device in
        let span name f = Trace.with_span ~rid:i name f in
        span "probe" (fun () ->
            ignore (span "ir.analysis" (fun () -> Tytra_ir.Analysis.params d));
            Report.clear_stage_caches ();
            let est =
              span "cost.resource_model" (fun () ->
                  Tytra_cost.Resource_model.estimate ~device d)
            in
            ignore
              (span "cost.throughput" (fun () ->
                   Throughput.ekit Throughput.FormB
                     (Throughput.inputs_of_design ~device
                        ~fmax_mhz:est.Tytra_cost.Resource_model.est_fmax_mhz d)))))
      designs_ir;
    (* actuals, one design per (kernel, lanes) cell per round, until a
       quarter of the budget is spent: technology mapping takes 5 ms to
       6 s per design *)
    let rounds = Hashtbl.create 32 in
    let order =
      List.stable_sort compare
        (List.mapi
           (fun i (ds : Gen.design) ->
             let cell = (ds.Gen.ds_kernel, ds.Gen.ds_lanes) in
             let k = Option.value ~default:0 (Hashtbl.find_opt rounds cell) in
             Hashtbl.replace rounds cell (k + 1);
             (k, i))
           (Array.to_list designs))
    in
    let deadline = Common.now () +. (seconds /. 4.0) in
    let errs =
      List.concat_map
        (fun (_, i) ->
          if Common.now () > deadline then []
          else errors ~rid:i designs.(i) designs_ir.(i))
        order
    in
    Trace.enabled := false;
    let p50 name = Stats.median (Trace.durations_ms name) in
    let p95_of cls =
      Stats.percentile
        (Array.of_list
           (List.filter_map (fun (c, e) -> if cls = None || Some c = cls then Some e else None) errs))
        95.0
    in
    let parse = Trace.durations_ms "ir.parse" in
    let evaluate = Trace.durations_ms "cost.evaluate" in
    [ ("ir.parse.ms_p50", Stats.median parse);
      ("ir.parse.lines_per_s", Stats.ratio (float_of_int !lines) (Stats.sum parse /. 1000.0));
      ("ir.validate.ms_p50", p50 "ir.validate");
      ("ir.validate.alloc_kb_p50", Stats.median (Trace.allocs_kb "ir.validate"));
      ("ir.analysis.ms_p50", p50 "ir.analysis");
      ("cost.evaluate.ms_p50", Stats.median evaluate);
      ("cost.evaluate.ms_p95", Stats.percentile evaluate 95.0);
      ("cost.evaluate.alloc_kb_p50", Stats.median (Trace.allocs_kb "cost.evaluate"));
      ("cost.resource_model.ms_p50", p50 "cost.resource_model");
      ("cost.throughput.ms_p50", p50 "cost.throughput");
      ("cost.err.alut_p95_pct", p95_of (Some "alut"));
      ("cost.err.reg_p95_pct", p95_of (Some "reg"));
      ("cost.err.bram_p95_pct", p95_of (Some "bram"));
      ("cost.err.dsp_p95_pct", p95_of (Some "dsp"));
      ("cost.err.cpki_p95_pct", p95_of (Some "cpki"));
      ("cost.err.p95_pct", p95_of None);
      ("sim.techmap.ms_p50", p50 "sim.techmap");
      ("sim.cyclesim.ms_p50", p50 "sim.cyclesim");
      ("trace.overhead_pct", 100.0 *. (Stats.ratio !traced_wall !untraced_wall -. 1.0));
      ("bench.samples", float_of_int (Array.length designs));
      ("bench.tail_pct", tail) ]
  in
  let metrics =
    if traced then layers ()
    else Common.op_metrics ~setup ~tail passes
  in
  { Common.attempted = ops.Common.n; failed = ops.Common.bad; metrics }

(* Golden Report.to_string digests of every design the corpus can draw. *)
let golden_rows () =
  List.map
    (fun ds ->
      Report.clear_stage_caches ();
      (Gen.design_key ds, Common.digest (Report.to_string (estimate ds (Gen.design_text ds)))))
    Gen.design_universe
