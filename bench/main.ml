(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

     dune exec bench/main.exe            # run E1–E7
     dune exec bench/main.exe -- e3 e6   # run selected experiments
     dune exec bench/main.exe -- speed   # Bechamel micro-benchmarks (E5)

   Paper reference numbers are printed alongside the measured ones; the
   reproduction target is the *shape* (who wins, by what factor, where
   the walls/crossovers fall), not the authors' absolute testbed numbers. *)

open Tytra_front

let hr title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let pct e a =
  if a = 0.0 then if e = 0.0 then 0.0 else 100.0
  else 100.0 *. Float.abs (e -. a) /. a

(* ------------------------------------------------------------------ *)
(* E1 / Fig 9: resource-cost calibration                               *)
(* ------------------------------------------------------------------ *)

let e1 () =
  hr "E1 / Fig 9: per-instruction resource expressions from synthesis points";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let synth_div w =
    (Tytra_sim.Techmap.map_unit ~device Tytra_ir.Ast.Div (Tytra_ir.Ty.UInt w))
      .Tytra_device.Resources.aluts
  in
  Format.printf
    "fitting quadratic for unsigned-division ALUTs from synthesis at 18/32/64 \
     bits@.";
  let poly = Tytra_cost.Resource_model.calibrate_div synth_div in
  Format.printf "  fitted: %a@." Tytra_cost.Fit.pp_poly poly;
  Format.printf "  paper:  x^2 + 3.7x - 10.6@.";
  let est24 = Tytra_cost.Fit.eval poly 24.0 in
  let act24 = synth_div 24 in
  Format.printf
    "  held-out 24-bit: interpolated %.0f vs synthesized %d  (paper: 654 vs \
     652)@."
    est24 act24;
  Format.printf "@.  width |  div ALUTs | mul ALUTs | mul DSPs@.";
  List.iter
    (fun w ->
      let mu =
        Tytra_sim.Techmap.map_unit ~device Tytra_ir.Ast.Mul (Tytra_ir.Ty.UInt w)
      in
      Format.printf "  %5d | %10d | %9d | %8d@." w (synth_div w)
        mu.Tytra_device.Resources.aluts mu.Tytra_device.Resources.dsps)
    [ 8; 12; 18; 24; 32; 40; 48; 54; 64 ];
  Format.printf
    "  (mul: piecewise-linear ALUTs and stepped DSPs at 18-bit tile \
     boundaries, as in Fig 9)@."

(* ------------------------------------------------------------------ *)
(* E2 / Fig 10: sustained stream bandwidth                             *)
(* ------------------------------------------------------------------ *)

let e2 () =
  hr "E2 / Fig 10: sustained bandwidth vs size and contiguity (ADM-PCIE-7V3)";
  let dev = Tytra_device.Device.virtex7_690t in
  let paper_cont =
    [ (100, 0.3); (200, 1.2); (400, 1.7); (600, 2.4); (1000, 4.1);
      (1500, 5.2); (2000, 5.6); (2500, 5.8); (3000, 6.1); (4000, 6.2);
      (5000, 6.2); (6000, 6.3) ]
  in
  Format.printf "  side | contiguous Gbit/s (paper) | strided Gbit/s (paper)@.";
  List.iter
    (fun (side, paper) ->
      let m = Tytra_streambench.Streambench.copy dev `Cont ~side in
      let gb = m.Tytra_streambench.Streambench.m_bps *. 8.0 /. 1e9 in
      let strided =
        if side <= 2000 then begin
          let s = Tytra_streambench.Streambench.copy dev `Strided ~side in
          Printf.sprintf "%5.3f (0.04-0.07)"
            (s.Tytra_streambench.Streambench.m_bps *. 8.0 /. 1e9)
        end
        else "    -"
      in
      Format.printf "  %4d |        %5.2f (%4.1f)       | %s@." side gb paper
        strided)
    paper_cont;
  let c2000 = Tytra_streambench.Streambench.copy dev `Cont ~side:2000 in
  let s2000 = Tytra_streambench.Streambench.copy dev `Strided ~side:2000 in
  Format.printf "  contiguity impact at side 2000: %.0fx (paper: ~2 orders)@."
    (c2000.Tytra_streambench.Streambench.m_bps
     /. s2000.Tytra_streambench.Streambench.m_bps);
  let r1000 = Tytra_streambench.Streambench.copy dev `Random ~side:1000 in
  let st1000 = Tytra_streambench.Streambench.copy dev `Strided ~side:1000 in
  Format.printf
    "  random vs fixed-stride at side 1000: %.2fx (paper: 'little \
     difference')@."
    (r1000.Tytra_streambench.Streambench.m_bps
     /. st1000.Tytra_streambench.Streambench.m_bps)

(* ------------------------------------------------------------------ *)
(* E3 / Fig 15: SOR variant sweep over lane count                      *)
(* ------------------------------------------------------------------ *)

let e3 () =
  hr "E3 / Fig 15: SOR lane sweep - utilization, bandwidth and EWGT walls";
  let device = Tytra_device.Device.stratixv_gsd8 in
  (* 110 x 104 x 126 = 1441440 points: divisible by every lane count
     1..16, so the sweep has the paper's 16 data points *)
  let im, jm, km = (110, 104, 126) in
  let nki = 10 in
  let prog = Tytra_kernels.Sor.program ~ty:(Tytra_ir.Ty.Float 32) ~im ~jm ~km () in
  Format.printf
    "SOR %dx%dx%d (fp32), %d kernel iterations on %s@." im jm km nki
    device.Tytra_device.Device.dev_name;
  Format.printf
    "lanes  ALUT%%  REG%%  BRAM%%  DSP%%  GMemBW%%  HostBW%%   EWGT-A/s   \
     EWGT-B/s  limiter(A)@.";
  let walls1 = ref None in
  for l = 1 to 16 do
    let v = if l = 1 then Transform.Pipe else Transform.ParPipe l in
    if Transform.applicable prog v then begin
      let d = Lower.lower prog v in
      let ra =
        Tytra_cost.Report.evaluate ~device ~form:Tytra_cost.Throughput.FormA
          ~nki d
      in
      let rb =
        Tytra_cost.Report.evaluate ~device ~form:Tytra_cost.Throughput.FormB
          ~nki d
      in
      if l = 1 then walls1 := Some ra.Tytra_cost.Report.rp_walls;
      let u = ra.Tytra_cost.Report.rp_utilization in
      let bd = ra.Tytra_cost.Report.rp_breakdown in
      let inputs_like_bw which =
        (* achieved share of sustained bandwidth: demand / sustained *)
        let demand = bd.Tytra_cost.Throughput.bd_comp_s in
        match which with
        | `G ->
            100.0 *. (bd.Tytra_cost.Throughput.bd_gmem_s /. Float.max demand bd.Tytra_cost.Throughput.bd_gmem_s)
        | `H ->
            100.0 *. (bd.Tytra_cost.Throughput.bd_host_s /. Float.max demand bd.Tytra_cost.Throughput.bd_host_s)
      in
      Format.printf
        "%5d  %5.1f %5.1f  %5.1f %5.1f   %6.1f   %6.1f  %9.1f  %9.1f  %s@." l
        (100. *. u.Tytra_device.Resources.ut_aluts)
        (100. *. u.Tytra_device.Resources.ut_regs)
        (100. *. u.Tytra_device.Resources.ut_bram)
        (100. *. u.Tytra_device.Resources.ut_dsps)
        (inputs_like_bw `G) (inputs_like_bw `H)
        bd.Tytra_cost.Throughput.bd_ekit
        rb.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit
        (Tytra_cost.Throughput.limiter_to_string
           bd.Tytra_cost.Throughput.bd_limiter)
    end
  done;
  (match !walls1 with
  | Some w ->
      Format.printf "@.walls (from the 1-lane variant): %a@."
        Tytra_cost.Limits.pp_walls w;
      Format.printf
        "paper: host-comm wall ~4 lanes (form A), DRAM wall ~16 lanes (form \
         B), computation wall ~6 lanes@."
  | None -> ())

(* ------------------------------------------------------------------ *)
(* E4 / Table II: estimated vs actual, three kernels                   *)
(* ------------------------------------------------------------------ *)

let e4 () =
  hr "E4 / Table II: estimated vs actual resources and CPKI";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let paper =
    [ ("hotspot", (4.0, 4.2, 0.3, 0.0, 0.07));
      ("lavamd", (6.0, 3.9, 0.0, 13.0, 3.4));
      ("sor", (1.1, 7.1, 0.3, 0.0, 5.2)) ]
  in
  Format.printf
    "kernel    |        ALUT         |        REG          |      BRAM bits   \
     \    |  DSP        | CPKI@.";
  Format.printf
    "          |   est    act   err%% |   est    act   err%% |    est     act  \
     \ err%% | est act err%%| est      act      err%%@.";
  List.iter
    (fun (name, prog) ->
      let d = Lower.lower prog Transform.Pipe in
      let est = Tytra_cost.Resource_model.estimate ~device d in
      let inputs = Tytra_cost.Throughput.inputs_of_design ~device d in
      let cpki_est =
        Tytra_cost.Throughput.cpki Tytra_cost.Throughput.FormB inputs
      in
      let tm = Tytra_sim.Techmap.run ~device ~effort:`Full d in
      let sim =
        Tytra_sim.Cyclesim.run ~device
          ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz ~form:Tytra_sim.Cyclesim.B
          d
      in
      let eu = est.Tytra_cost.Resource_model.est_usage in
      let au = tm.Tytra_sim.Techmap.tm_usage in
      let open Tytra_device.Resources in
      let p e a = pct (float_of_int e) (float_of_int a) in
      Format.printf
        "%-9s | %6d %6d %5.1f | %6d %6d %5.1f | %7d %7d %5.1f | %3d %3d \
         %4.1f| %8.0f %8.0f %5.1f@."
        name eu.aluts au.aluts (p eu.aluts au.aluts) eu.regs au.regs
        (p eu.regs au.regs) eu.bram_bits au.bram_bits
        (p eu.bram_bits au.bram_bits) eu.dsps au.dsps (p eu.dsps au.dsps)
        cpki_est sim.Tytra_sim.Cyclesim.r_cycles_per_ki
        (pct cpki_est sim.Tytra_sim.Cyclesim.r_cycles_per_ki))
    [ ("hotspot", Tytra_kernels.Hotspot.table2_program ());
      ("lavamd", Tytra_kernels.Lavamd.table2_program ());
      ("sor", Tytra_kernels.Sor.table2_program ()) ];
  Format.printf "@.paper errors (ALUT, REG, BRAM, DSP, CPKI):@.";
  List.iter
    (fun (n, (a, r, b, d, c)) ->
      Format.printf "  %-9s %4.1f %4.1f %4.1f %4.1f %4.2f@." n a r b d c)
    paper

(* ------------------------------------------------------------------ *)
(* E5: estimator speed vs synthesis-grade evaluation                   *)
(* ------------------------------------------------------------------ *)

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [per_call_s f] — seconds per call of [f], from a batch of calls that
   runs for at least 50 ms, so one timer step is a small fraction of it.
   Telemetry is off for the batch, so how many calls fit in it changes
   no counter of the --json report. *)
let per_call_s f =
  Tytra_telemetry.Control.with_enabled false @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let rec batch n =
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.05 then batch (n + 1) else dt /. float_of_int n
  in
  batch 1

let e5 () =
  hr "E5 / par.VI-A: cost-model evaluation speed per design variant";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let prog = Tytra_kernels.Sor.program ~im:64 ~jm:64 ~km:64 () in
  let variants =
    [ Transform.Pipe; Transform.ParPipe 2; Transform.ParPipe 4;
      Transform.ParPipe 8; Transform.ParPipe 16 ]
  in
  Format.printf
    "variant        estimator(us)  synthesis+sim(s)   ratio@.";
  let tot_e = ref 0.0 and tot_s = ref 0.0 in
  List.iter
    (fun v ->
      let d = Lower.lower prog v in
      ignore (Tytra_cost.Report.evaluate ~device d) (* warm *);
      let te = per_call_s (fun () -> Tytra_cost.Report.evaluate ~device d) in
      let _, ts =
        time_s (fun () ->
            let tm = Tytra_sim.Techmap.run ~device ~effort:`Full d in
            Tytra_sim.Cyclesim.run ~device
              ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz d)
      in
      tot_e := !tot_e +. te;
      tot_s := !tot_s +. ts;
      Format.printf "%-13s  %12.1f  %16.3f  %6.0fx@." (Transform.to_string v)
        (1e6 *. te) ts (ts /. Float.max 1e-9 te))
    variants;
  Format.printf
    "total for %d variants: estimator %.1f us, synthesis-grade %.2f s -> \
     %.0fx@."
    (List.length variants) (1e6 *. !tot_e) !tot_s
    (!tot_s /. Float.max 1e-9 !tot_e);
  Format.printf
    "paper: 0.3 s/variant for the estimator vs ~70 s for SDAccel estimates \
     (>200x)@.";
  (* the estimator in its loop: one whole sweep of a 64-lane space *)
  let sweep_prog = Tytra_kernels.Sor.program ~im:96 ~jm:96 ~km:96 () in
  let config =
    (* prune off: E5 measures the full evaluation load; E8 measures what
       pruning removes from it *)
    { Tytra_dse.Dse.default_config with
      max_lanes = 64; max_vec = 8; nki = 100; prune = false }
  in
  let pts, t =
    time_s (fun () -> Tytra_dse.Dse.explore ~config sweep_prog)
  in
  Format.printf "exhaustive sweep: %d points in %.3f s (%.1f us/point)@."
    (List.length pts) t
    (1e6 *. t /. float_of_int (max 1 (List.length pts)))

(* ------------------------------------------------------------------ *)
(* E8: bound-based DSE pruning - exhaustive vs pruned sweep            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  hr "E8: bound-based pruning - exhaustive vs pruned sweep, all kernels";
  let kernels =
    [
      ("sor",
       Tytra_kernels.Sor.program ~ty:(Tytra_ir.Ty.Float 32) ~im:64 ~jm:64
         ~km:64 ());
      ("hotspot", Tytra_kernels.Hotspot.program ~rows:64 ~cols:64 ());
      ("lavamd", Tytra_kernels.Lavamd.program ~boxes:64 ());
      ("srad", Tytra_kernels.Srad.program ~rows:64 ~cols:64 ());
    ]
  in
  let config =
    (* the E5 sweep space: 64 lanes with vectorization variants *)
    { Tytra_dse.Dse.default_config with
      max_lanes = 64; max_vec = 8; nki = 100 }
  in
  let sweep prune prog =
    time_s (fun () ->
        Tytra_dse.Dse.explore_sweep
          ~config:{ config with Tytra_dse.Dse.prune } prog)
  in
  Format.printf
    "kernel   | space | exhaustive evals/time | pruned evals/time | fewer \
     evals | same best@.";
  List.iter
    (fun (name, prog) ->
      let ex, t_ex = sweep false prog in
      let pr, t_pr = sweep true prog in
      let exs = ex.Tytra_dse.Dse.sw_stats
      and prs = pr.Tytra_dse.Dse.sw_stats in
      let vname p =
        match Tytra_dse.Dse.best p.Tytra_dse.Dse.sw_points with
        | Some b -> Transform.to_string b.Tytra_dse.Dse.dp_variant
        | None -> "-"
      in
      let same = vname ex = vname pr in
      let ratio =
        float_of_int exs.Tytra_dse.Dse.ss_evaluated
        /. Float.max 1.0 (float_of_int prs.Tytra_dse.Dse.ss_evaluated)
      in
      Format.printf
        "%-8s | %5d | %8d  %9.4f s | %5d  %8.4f s |     %4.1fx  | %s (%s)@."
        name exs.Tytra_dse.Dse.ss_space exs.Tytra_dse.Dse.ss_evaluated t_ex
        prs.Tytra_dse.Dse.ss_evaluated t_pr ratio
        (if same then "yes" else "NO")
        (vname pr);
      List.iter
        (fun (k, v) ->
          Tytra_telemetry.Metrics.set
            (Printf.sprintf "bench.e8.%s.%s" name k)
            (float_of_int v))
        [ ("space", exs.Tytra_dse.Dse.ss_space);
          ("evals_exhaustive", exs.Tytra_dse.Dse.ss_evaluated);
          ("evals_pruned", prs.Tytra_dse.Dse.ss_evaluated);
          ("pruned_resource", prs.Tytra_dse.Dse.ss_pruned_resource);
          ("pruned_incumbent", prs.Tytra_dse.Dse.ss_pruned_incumbent) ];
      Tytra_telemetry.Metrics.set
        (Printf.sprintf "bench.e8.%s.exhaustive_s" name) t_ex;
      Tytra_telemetry.Metrics.set
        (Printf.sprintf "bench.e8.%s.pruned_s" name) t_pr)
    kernels;
  Format.printf
    "(the bounds keep best/pareto provably exact while skipping most of the \
     64-lane space: replication beyond the bandwidth wall cannot beat the \
     incumbent, oversize lane counts cannot fit)@.";
  (* --- observability overhead on an exhaustive sequential SOR sweep:
     the event log. Two numbers are reported:

     (1) attributed overhead (the gated one): the instrumentation a live
         sweep adds per evaluated point — the two clock reads that time
         the point and one point_evaluated emit into a real file sink —
         micro-timed over enough iterations to resolve it, multiplied
         out over the sweep's space, divided by the sweep's wall time.
         This prices exactly the added work and is reproducible to
         sub-percent on any host.

     (2) end-to-end on-vs-off minimum floors (sanity print, not gated):
         on a virtualized host this sweep's own wall time wanders by
         5-8% at the seconds scale — an order of magnitude above the
         ~0.1% effect — so a direct difference measures host drift, not
         instrumentation. The min over interleaved single-sweep samples
         is the most drift-resistant end-to-end summary and is printed
         for cross-checking the attribution, nothing more. --- *)
  Format.printf
    "@.observability overhead (exhaustive sequential SOR sweep; event \
     log):@.";
  let events_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tytra_bench_e8_events.%d.jsonl" (Unix.getpid ()))
  in
  (* only install a private event sink if the harness-wide --events one
     is not already active (stealing it would truncate the user's file) *)
  let own_sink = not (Tytra_telemetry.Events.active ()) in
  let prog = List.assoc "sor" kernels in
  let space_pts = ref 0 in
  let observed_sweep observed =
    if observed && own_sink then Tytra_telemetry.Events.open_file events_path;
    let cfg = { config with Tytra_dse.Dse.prune = false } in
    let sw = ref None in
    let _, t =
      time_s (fun () -> sw := Some (Tytra_dse.Dse.explore_sweep ~config:cfg prog))
    in
    Option.iter
      (fun sw -> space_pts := sw.Tytra_dse.Dse.sw_stats.Tytra_dse.Dse.ss_space)
      !sw;
    if observed && own_sink then Tytra_telemetry.Events.close ();
    t
  in
  ignore (observed_sweep false);
  ignore (observed_sweep true);
  let n_samples = 5 in
  let offs = Array.make n_samples 0.0 in
  let ons = Array.make n_samples 0.0 in
  for i = 0 to n_samples - 1 do
    ons.(i) <- observed_sweep true;
    offs.(i) <- observed_sweep false
  done;
  let amin a = Array.fold_left min a.(0) a in
  let t_off = amin offs and t_on = amin ons in
  (* attributed per-point cost: exactly what the sweep's hot loop adds
     per point when fully observed, against a real file sink *)
  let iters = 20_000 in
  let per_point_sample () =
    if own_sink then Tytra_telemetry.Events.open_file events_path;
    let _, t =
      time_s (fun () ->
          for _ = 1 to iters do
            let t0 = Tytra_telemetry.Clock.now_ns () in
            let t1 = Tytra_telemetry.Clock.now_ns () in
            Tytra_telemetry.Events.emit
              (Tytra_telemetry.Events.Point_evaluated
                 { variant = "par8-pipe"; ekit = 123.5; valid = true;
                   dur_ns = Int64.sub t1 t0 })
          done)
    in
    t /. float_of_int iters
  in
  ignore (per_point_sample ());
  let per_point_s =
    min (per_point_sample ()) (min (per_point_sample ()) (per_point_sample ()))
  in
  if own_sink then Tytra_telemetry.Events.close ();
  (if own_sink && Sys.file_exists events_path then Sys.remove events_path);
  let over_pct =
    100.0 *. per_point_s *. float_of_int !space_pts /. Float.max 1e-9 t_off
  in
  Format.printf
    "  attributed: %.2f us/point x %d points = %+.2f%% of the %.4f s sweep \
     (target <= 2%%)@."
    (per_point_s *. 1e6) !space_pts over_pct t_off;
  Format.printf
    "  end-to-end min floors: off %.4f s | on %.4f s (%+.2f%%; host noise \
     floor is several %%, see bench/main.ml)@."
    t_off t_on
    (100.0 *. (t_on -. t_off) /. Float.max 1e-9 t_off);
  List.iter
    (fun (k, v) ->
      Tytra_telemetry.Metrics.set ("bench.e8.observability." ^ k) v)
    [ ("off_s", t_off); ("on_s", t_on);
      ("per_point_us", per_point_s *. 1e6);
      ("overhead_pct", over_pct) ]

(* ------------------------------------------------------------------ *)
(* E10: cost-model-as-a-service - warm engine vs one-shot CLI          *)
(* ------------------------------------------------------------------ *)

module Engine = Tytra_engine.Engine

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (n * p / 100))

let e10 () =
  hr "E10: cost-model-as-a-service - warm engine latency vs one-shot CLI";
  let device = Tytra_device.Device.stratixv_gsd8 in
  (* small instances: E10 measures request-lifecycle overhead, not
     evaluation scaling (that is E5/E8) *)
  let kernels =
    [
      ("sor", Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ());
      ("hotspot", Tytra_kernels.Hotspot.program ~rows:32 ~cols:32 ());
      ("lavamd", Tytra_kernels.Lavamd.program ~boxes:8 ());
      ("srad", Tytra_kernels.Srad.program ~rows:32 ~cols:32 ());
    ]
  in
  let sources =
    List.map
      (fun (name, prog) ->
        (name, Tytra_ir.Pprint.design_to_string (Lower.lower prog Transform.Pipe)))
      kernels
  in
  (* the mixed traffic profile: per kernel one check, a cost in each
     throughput form, and a cycle-accurate sim - 16 distinct requests *)
  let mix =
    List.concat_map
      (fun (name, src) ->
        let source = Engine.Inline src in
        [
          (name ^ "/check", Engine.Check { source });
          ( name ^ "/costA",
            Engine.Cost
              { source; device; form = Tytra_cost.Throughput.FormA; nki = 10;
                optimize = false; calib = None } );
          ( name ^ "/costB",
            Engine.Cost
              { source; device; form = Tytra_cost.Throughput.FormB; nki = 10;
                optimize = false; calib = None } );
          ( name ^ "/sim",
            Engine.Sim
              { source; device; form = Tytra_cost.Throughput.FormB; nki = 10;
                optimize = false } );
        ])
      sources
  in
  let eng = Engine.create Engine.default_config in
  let submit_ok (label, req) =
    match Engine.submit eng req with
    | Ok _ -> ()
    | Error e -> failwith ("E10 request " ^ label ^ ": " ^ Engine.error_message e)
  in
  (* prewarm sequentially: fills the engine's parse and response caches,
     so the measured phases see steady-state traffic (and the cache
     counters stay a pure function of the request counts) *)
  List.iter submit_ok mix;
  let warm0 = Engine.parse_cache_stats eng in
  (* sequential phase: per-request latency percentiles *)
  let seq_reps = 10 in
  let lats =
    Array.init (seq_reps * List.length mix) (fun i ->
        let req = List.nth mix (i mod List.length mix) in
        let (), dt = time_s (fun () -> submit_ok req) in
        dt)
  in
  Array.sort compare lats;
  let p50 = percentile lats 50 and p95 = percentile lats 95 in
  (* concurrent phase: 4 client domains replay the mix against the one
     warm engine (fixed at 4, so the work counters are
     machine-independent) *)
  let clients = 4 and conc_reps = 5 in
  let (), wall =
    time_s (fun () ->
        List.init clients (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to conc_reps do
                  List.iter submit_ok mix
                done))
        |> List.iter Domain.join)
  in
  let conc_n = clients * conc_reps * List.length mix in
  let req_s = float_of_int conc_n /. Float.max 1e-9 wall in
  let warm1 = Engine.parse_cache_stats eng in
  Format.printf
    "mixed traffic (%d request kinds over 4 kernels: check + cost A/B + sim):@."
    (List.length mix);
  Format.printf
    "  sequential: %d requests, p50 %.3f ms, p95 %.3f ms@."
    (Array.length lats) (p50 *. 1e3) (p95 *. 1e3);
  Format.printf
    "  concurrent: %d clients x %d requests -> %.0f req/s sustained@." clients
    (conc_reps * List.length mix) req_s;
  Format.printf
    "  parse cache over the measured phases: %d hits / %d misses (the warm \
     engine re-parses nothing)@."
    (warm1.Tytra_exec.Cache.st_hits - warm0.Tytra_exec.Cache.st_hits)
    (warm1.Tytra_exec.Cache.st_misses - warm0.Tytra_exec.Cache.st_misses);
  (* cold comparison: the same cost request as a one-shot tybec process
     (fork + exec + parse + validate + evaluate + exit) vs the warm
     engine answering it in-process *)
  let sor_src = List.assoc "sor" sources in
  let tirl_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tytra_bench_e10.%d.tirl" (Unix.getpid ()))
  in
  let oc = open_out tirl_path in
  output_string oc sor_src;
  close_out oc;
  let cost_req =
    Engine.Cost
      { source = Engine.File tirl_path; device;
        form = Tytra_cost.Throughput.FormB; nki = 1; optimize = false;
        calib = None }
  in
  submit_ok ("cold-compare/warm", cost_req);
  let warm_reps = 40 in
  let warm_lats =
    Array.init warm_reps (fun _ ->
        snd (time_s (fun () -> submit_ok ("cold-compare/warm", cost_req))))
  in
  Array.sort compare warm_lats;
  let warm_p50 = percentile warm_lats 50 in
  let tybec =
    let guess =
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        "bin/tybec.exe"
    in
    if Sys.file_exists guess then Some guess else None
  in
  let cold_p50 =
    match tybec with
    | Some exe ->
        let cmd =
          Printf.sprintf "%s cost %s > /dev/null 2>&1" (Filename.quote exe)
            (Filename.quote tirl_path)
        in
        let runs =
          Array.init 7 (fun _ ->
              snd
                (time_s (fun () ->
                     if Sys.command cmd <> 0 then
                       failwith "E10: cold tybec cost failed")))
        in
        Array.sort compare runs;
        percentile runs 50
    | None ->
        (* no CLI binary next to the bench executable: approximate a
           cold process with a fresh engine (this under-counts
           exec+runtime-startup cost, so the printed ratio is a floor) *)
        Format.printf
          "  (tybec.exe not found; cold figure is in-process cold-cache, a \
           floor on the true ratio)@.";
        let runs =
          Array.init 7 (fun _ ->
              let cold_eng = Engine.create Engine.default_config in
              snd
                (time_s (fun () ->
                     match Engine.submit cold_eng cost_req with
                     | Ok _ -> ()
                     | Error e -> failwith (Engine.error_message e))))
        in
        Array.sort compare runs;
        percentile runs 50
  in
  Sys.remove tirl_path;
  let speedup = cold_p50 /. Float.max 1e-9 warm_p50 in
  Format.printf
    "  cold one-shot `tybec cost` p50 %.2f ms vs warm engine p50 %.3f ms -> \
     %.0fx (target >= 10x)@."
    (cold_p50 *. 1e3) (warm_p50 *. 1e3) speedup;
  List.iter
    (fun (k, v) -> Tytra_telemetry.Metrics.set ("bench.e10." ^ k) v)
    [
      ("warm_p50_ms", p50 *. 1e3);
      ("warm_p95_ms", p95 *. 1e3);
      ("req_per_s", req_s);
      ("cold_p50_ms", cold_p50 *. 1e3);
      ("cold_vs_warm_p50_x", speedup);
      ( "parse_cache_hits",
        float_of_int (warm1.Tytra_exec.Cache.st_hits - warm0.Tytra_exec.Cache.st_hits) );
      ( "parse_cache_misses",
        float_of_int
          (warm1.Tytra_exec.Cache.st_misses - warm0.Tytra_exec.Cache.st_misses) );
    ]

(* ------------------------------------------------------------------ *)
(* E12: sharded serving                                                *)
(* ------------------------------------------------------------------ *)

(* Spawns real `tybec serve` processes — a single-process front and 2-
   and 4-shard fronts — and drives them over HTTP in closed and open
   loop. Gated behind finding the CLI binary; publishes
   bench.e12.http_measured so the perf guard knows whether the
   throughput figures exist. *)

let e12_http_post ?(meth = "POST") sockaddr path body =
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      let req =
        Printf.sprintf
          "%s %s HTTP/1.0\r\nHost: b\r\nContent-Length: %d\r\n\r\n%s" meth
          path (String.length body) body
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> ( try int_of_string code with _ -> 0)
        | _ -> 0
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if
            raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
          then i + 4
          else find (i + 1)
        in
        let s = find 0 in
        String.sub raw s (String.length raw - s)
      in
      (status, body))

let e12_free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> failwith "e12: no port"
  in
  Unix.close fd;
  port

let e12_wait_ready sockaddr ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let ok =
      try fst (e12_http_post ~meth:"GET" sockaddr "/healthz" "") = 200
      with Unix.Unix_error _ -> false
    in
    if ok then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let e12 () =
  hr "E12: sharded serving";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let sor_src =
    Tytra_ir.Pprint.design_to_string
      (Lower.lower (Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ())
         Transform.Pipe)
  in
  let hot_src =
    Tytra_ir.Pprint.design_to_string
      (Lower.lower (Tytra_kernels.Hotspot.program ~rows:32 ~cols:32 ())
         Transform.Pipe)
  in
  (* four distinct request shapes, sent round-robin by every client *)
  let mix =
    [
      Engine.Check { source = Engine.Inline sor_src };
      Engine.Cost
        { source = Engine.Inline sor_src; device;
          form = Tytra_cost.Throughput.FormB; nki = 10; optimize = false;
          calib = None };
      Engine.Cost
        { source = Engine.Inline hot_src; device;
          form = Tytra_cost.Throughput.FormA; nki = 10; optimize = false;
          calib = None };
      Engine.Sim
        { source = Engine.Inline sor_src; device;
          form = Tytra_cost.Throughput.FormB; nki = 10; optimize = false };
    ]
  in
  Tytra_telemetry.Metrics.set "bench.e12.cores"
    (float_of_int (Domain.recommended_domain_count ()));
  let tybec =
    let guess =
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        "bin/tybec.exe"
    in
    if Sys.file_exists guess then Some guess else None
  in
  match tybec with
  | None ->
      Format.printf
        "tybec.exe not found next to the bench binary; skipping the HTTP \
         shard sweep (bench.e12.http_measured = 0)@.";
      Tytra_telemetry.Metrics.set "bench.e12.http_measured" 0.0
  | Some exe ->
      let wire_mix = List.map Tytra_engine.Protocol.encode_request mix in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let run_config ~shards =
        let port = e12_free_port () in
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        let sockaddr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
        let args =
          [ exe; "serve"; "--addr"; addr; "--workers"; "2"; "--queue-cap";
            "64" ]
          @
          if shards > 1 then
            [ "--shards"; string_of_int shards; "--admin-addr";
              Printf.sprintf "127.0.0.1:%d" (e12_free_port ()) ]
          else []
        in
        let pid =
          Unix.create_process exe (Array.of_list args) devnull devnull devnull
        in
        let kill_and_reap () =
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
        in
        match e12_wait_ready sockaddr ~timeout_s:15.0 with
        | false ->
            kill_and_reap ();
            None
        | true ->
            Fun.protect ~finally:kill_and_reap @@ fun () ->
            (* canonical bodies for the cross-config identity gauge *)
            let canonical =
              List.map (fun w -> snd (e12_http_post sockaddr "/v1/submit" w))
                wire_mix
            in
            (* closed loop: 8 client domains, enough to keep every shard
               of a 4-shard front busy *)
            let clients = 8 and per_client = 12 in
            let client () =
              List.init per_client (fun i ->
                  let w = List.nth wire_mix (i mod List.length wire_mix) in
                  snd (time_s (fun () ->
                      ignore (e12_http_post sockaddr "/v1/submit" w))))
            in
            (* best of two rounds: closed-loop throughput on a loaded
               box has a heavy downside tail from scheduler noise *)
            let round () =
              let lats, wall =
                time_s (fun () ->
                    List.init clients (fun _ -> Domain.spawn client)
                    |> List.concat_map Domain.join |> Array.of_list)
              in
              Array.sort compare lats;
              (lats, wall)
            in
            let r1 = round () and r2 = round () in
            let lats, wall = if snd r1 <= snd r2 then r1 else r2 in
            let n = clients * per_client in
            let req_s = float_of_int n /. Float.max 1e-9 wall in
            let p50 = percentile lats 50 and p99 = percentile lats 99 in
            (* open loop: paced arrivals at ~60% of the closed-loop rate *)
            let rate = Float.max 5.0 (req_s *. 0.6) in
            let open_n = 30 in
            let open_lats =
              Array.init open_n (fun i ->
                  let w = List.nth wire_mix (i mod List.length wire_mix) in
                  let dt =
                    snd (time_s (fun () ->
                        ignore (e12_http_post sockaddr "/v1/submit" w)))
                  in
                  let pace = 1.0 /. rate in
                  if dt < pace then Unix.sleepf (pace -. dt);
                  dt)
            in
            Array.sort compare open_lats;
            Some
              ( canonical, req_s, p50, p99,
                percentile open_lats 50, percentile open_lats 99 )
      in
      let configs = [ 1; 2; 4 ] in
      let results =
        List.map (fun shards -> (shards, run_config ~shards)) configs
      in
      Unix.close devnull;
      let measured =
        List.filter_map
          (fun (cfg, r) -> Option.map (fun r -> (cfg, r)) r)
          results
      in
      if List.length measured < List.length configs then
        Format.printf
          "WARNING: %d/%d server configs failed to come up; \
           bench.e12.http_measured = 0@."
          (List.length configs - List.length measured)
          (List.length configs);
      let all_up = List.length measured = List.length configs in
      Tytra_telemetry.Metrics.set "bench.e12.http_measured"
        (if all_up then 1.0 else 0.0);
      (match measured with
      | ((_, (first_bodies, _, _, _, _, _)) :: _) as ms ->
          let identical =
            List.for_all
              (fun (_, (bodies, _, _, _, _, _)) -> bodies = first_bodies)
              ms
          in
          Tytra_telemetry.Metrics.set "bench.e12.shard_identical"
            (if identical then 1.0 else 0.0);
          Format.printf
            "responses byte-identical across all measured configs: %b@."
            identical
      | [] -> ());
      Format.printf
        " shards |   req/s   p50(ms)  p99(ms) | open p50  open p99@.";
      List.iter
        (fun (shards, (_, req_s, p50, p99, op50, op99)) ->
          Format.printf "   %d    | %7.0f  %7.3f  %7.3f | %7.3f  %7.3f@."
            shards req_s (p50 *. 1e3) (p99 *. 1e3) (op50 *. 1e3)
            (op99 *. 1e3);
          let prefix = Printf.sprintf "bench.e12.shards%d" shards in
          List.iter
            (fun (k, v) -> Tytra_telemetry.Metrics.set (prefix ^ "." ^ k) v)
            [
              ("req_s", req_s);
              ("p50_ms", p50 *. 1e3);
              ("p99_ms", p99 *. 1e3);
              ("open_p50_ms", op50 *. 1e3);
              ("open_p99_ms", op99 *. 1e3);
            ])
        measured

(* ------------------------------------------------------------------ *)
(* E6 / Fig 17: runtime, cpu vs fpga-maxJ vs fpga-tytra                *)
(* ------------------------------------------------------------------ *)

let case_study side nki =
  let device = Tytra_device.Device.stratixv_gsd8 in
  let cpu = Tytra_device.Device.host_i7 in
  let prog = Tytra_kernels.Sor.case_study_program side in
  let cpu_s =
    Tytra_sim.Cpu_model.run_s cpu (Tytra_kernels.Sor.cpu_workload ~side) ~nki
  in
  let run v =
    let d = Lower.lower prog v in
    let tm = Tytra_sim.Techmap.run ~device d in
    let sim =
      Tytra_sim.Cyclesim.run ~device ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz
        ~form:Tytra_sim.Cyclesim.B ~nki d
    in
    (tm, sim)
  in
  let tm_maxj, maxj = run Transform.Pipe in
  let tm_tytra, tytra = run (Transform.ParPipe 4) in
  (cpu_s, (tm_maxj, maxj), (tm_tytra, tytra))

let e6_results = Hashtbl.create 8

let e6 () =
  hr "E6 / Fig 17: SOR runtime, normalized to the CPU-only solution";
  Format.printf
    "(fpga-maxJ = single HLS pipeline; fpga-tytra = 4-lane variant selected \
     by the cost model; 1000 kernel iterations)@.";
  Format.printf
    " side |  cpu(s)   maxJ(s)  tytra(s) | maxJ/cpu tytra/cpu | tytra vs \
     maxJ@.";
  List.iter
    (fun side ->
      let nki = 1000 in
      let (cpu_s, (_, maxj), (_, tytra)) as r = case_study side nki in
      Hashtbl.replace e6_results side r;
      let tm = maxj.Tytra_sim.Cyclesim.r_total_s in
      let tt = tytra.Tytra_sim.Cyclesim.r_total_s in
      Format.printf
        " %4d | %8.3f %8.3f %8.3f |   %5.2f    %5.2f   |   %5.2fx@." side
        cpu_s tm tt (tm /. cpu_s) (tt /. cpu_s) (tm /. tt))
    Tytra_kernels.Sor.case_study_sides;
  Format.printf
    "@.paper shape: tytra up to 3.9x vs maxJ and 2.6x vs cpu; at ~100^3 \
     maxJ slower than cpu while tytra ~2.75x faster; small grids favour \
     cpu.@."

(* ------------------------------------------------------------------ *)
(* E7 / Fig 18: delta-energy, normalized to the CPU-only solution      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  hr "E7 / Fig 18: delta-energy over idle, normalized to the CPU solution";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let cpu = Tytra_device.Device.host_i7 in
  Format.printf
    " side |  E_cpu(J)  E_maxJ(J) E_tytra(J) | maxJ/cpu tytra/cpu | \
     efficiency vs cpu@.";
  List.iter
    (fun side ->
      let nki = 1000 in
      let cpu_s, (tm_maxj, maxj), (tm_tytra, tytra) =
        match Hashtbl.find_opt e6_results side with
        | Some r -> r
        | None -> case_study side nki
      in
      let e_cpu = Tytra_sim.Power.cpu_run_energy_j cpu ~seconds:cpu_s in
      let fpga_e (tm : Tytra_sim.Techmap.report)
          (sim : Tytra_sim.Cyclesim.result) =
        Tytra_sim.Power.fpga_run_energy_j device cpu tm.Tytra_sim.Techmap.tm_usage
          ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz
          ~gmem_bps:sim.Tytra_sim.Cyclesim.r_gmem_bps
          ~host_bps:sim.Tytra_sim.Cyclesim.r_host_bps
          ~device_s:
            (sim.Tytra_sim.Cyclesim.r_total_s -. sim.Tytra_sim.Cyclesim.r_host_s)
          ~host_s:sim.Tytra_sim.Cyclesim.r_host_s
      in
      let e_maxj = fpga_e tm_maxj maxj in
      let e_tytra = fpga_e tm_tytra tytra in
      Format.printf
        " %4d | %9.2f %9.2f %10.2f |   %5.2f    %5.2f   |   %5.1fx@." side
        e_cpu e_maxj e_tytra (e_maxj /. e_cpu) (e_tytra /. e_cpu)
        (e_cpu /. e_tytra))
    Tytra_kernels.Sor.case_study_sides;
  Format.printf
    "@.paper shape: FPGAs quickly overtake the CPU; fpga-tytra up to 11x \
     more power-efficient than cpu and 2.9x than fpga-maxJ.@."

(* ------------------------------------------------------------------ *)
(* A1: IR-optimizer ablation                                           *)
(* ------------------------------------------------------------------ *)

let a1 () =
  hr "A1 (ablation): IR optimization passes before costing";
  let device = Tytra_device.Device.stratixv_gsd8 in
  Format.printf
    "kernel     |   NI  ->  NI' |  KPD -> KPD' | ALUT -> ALUT' | DSP -> DSP' \
     | stats@.";
  List.iter
    (fun (name, prog) ->
      let d = Lower.lower prog Transform.Pipe in
      let d', st = Tytra_ir.Optim.run d in
      let q = Tytra_ir.Analysis.params d
      and q' = Tytra_ir.Analysis.params d' in
      let u dd =
        (Tytra_cost.Resource_model.estimate ~device dd)
          .Tytra_cost.Resource_model.est_usage
      in
      let a = u d and a' = u d' in
      Format.printf
        "%-10s | %4d -> %4d | %4d -> %4d | %5d -> %5d | %3d -> %3d | %a@."
        name q.Tytra_ir.Analysis.ni q'.Tytra_ir.Analysis.ni
        q.Tytra_ir.Analysis.kpd q'.Tytra_ir.Analysis.kpd
        a.Tytra_device.Resources.aluts a'.Tytra_device.Resources.aluts
        a.Tytra_device.Resources.dsps a'.Tytra_device.Resources.dsps
        Tytra_ir.Optim.pp_stats st)
    [
      ("sor", Tytra_kernels.Sor.table2_program ());
      ("hotspot", Tytra_kernels.Hotspot.table2_program ());
      ("lavamd", Tytra_kernels.Lavamd.table2_program ());
      (* a kernel with power-of-two weights: strength reduction frees DSPs *)
      ("pow2-blur",
       Expr.
         {
           p_kernel =
             {
               k_name = "pow2blur";
               k_ty = Tytra_ir.Ty.UInt 18;
               k_inputs = [ "x" ];
               k_params = [];
               k_outputs =
                 [
                   {
                     o_name = "y";
                     o_expr =
                       (sten "x" (-1) *: ci 2) +: (input "x" *: ci 4)
                       +: (sten "x" 1 *: ci 2);
                   };
                 ];
               k_reductions = [];
             };
           p_shape = [ 4096 ];
         });
    ];
  Format.printf
    "(interprocedural constant-arg propagation exposes the integer \
     parameterization's unit weights to folding — multiplies collapse and \
     DSPs free up; pow2-blur shows the pure strength-reduction path: \
     mul-by-2^k becomes free wiring. Table II (E4) deliberately costs the \
     *unoptimized* designs, as the paper does.)@."

(* ------------------------------------------------------------------ *)
(* A2: empirical-bandwidth-model ablation                              *)
(* ------------------------------------------------------------------ *)

let a2 () =
  hr "A2 (ablation): empirical sustained-bandwidth model vs datasheet peak";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let naive_calib =
    (* 'datasheet' model: sustained = peak at every size and pattern *)
    Tytra_device.Bandwidth.make ~device:device.Tytra_device.Device.dev_name
      ~cont:[ (1.0, device.Tytra_device.Device.gpb) ]
      ~strided:[ (1.0, device.Tytra_device.Device.gpb) ]
      ~random:[ (1.0, device.Tytra_device.Device.gpb) ]
  in
  let prog = Tytra_kernels.Sor.program ~ty:(Tytra_ir.Ty.Float 32) ~im:64 ~jm:64 ~km:64 () in
  let nki = 100 in
  let eval calib v =
    let d = Lower.lower prog v in
    (Tytra_cost.Report.evaluate ~device ?calib ~nki d)
      .Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit
  in
  let simulate v =
    let d = Lower.lower prog v in
    (Tytra_sim.Cyclesim.run ~device ~form:Tytra_sim.Cyclesim.B ~nki d)
      .Tytra_sim.Cyclesim.r_ekit
  in
  let lanes = [ 1; 2; 4; 8; 16 ] in
  Format.printf "lanes |  EKIT naive  | EKIT empirical |  EKIT simulated@.";
  let best = Hashtbl.create 4 in
  List.iter
    (fun l ->
      let v = if l = 1 then Transform.Pipe else Transform.ParPipe l in
      let n = eval (Some naive_calib) v in
      let e = eval None v in
      let s = simulate v in
      List.iter
        (fun (k, value) ->
          match Hashtbl.find_opt best k with
          | Some (_, bv) when bv >= value -> ()
          | _ -> Hashtbl.replace best k (l, value))
        [ ("naive", n); ("empirical", e); ("sim", s) ];
      Format.printf "%5d | %12.4g | %14.4g | %15.4g@." l n e s)
    lanes;
  let pick k = fst (Hashtbl.find best k) in
  Format.printf
    "@.chosen lane count: naive model %d, empirical model %d, simulated \
     platform %d@."
    (pick "naive") (pick "empirical") (pick "sim");
  Format.printf
    "(the empirical rho factors are what keep the cost model's choice \
     aligned with the platform — the point of §V-C)@."

(* ------------------------------------------------------------------ *)
(* A3: lanes vs vectorization (C1 vs C3)                               *)
(* ------------------------------------------------------------------ *)

let a3 () =
  hr "A3 (ablation): thread lanes (C1) vs vectorized lanes (C3) at equal PEs";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let prog = Tytra_kernels.Sor.program ~im:32 ~jm:32 ~km:32 () in
  Format.printf
    "variant        class  PEs   ALUT    REG     EKIT      limiter@.";
  List.iter
    (fun v ->
      let d = Lower.lower prog v in
      let s = Tytra_ir.Config_tree.classify d in
      let r = Tytra_cost.Report.evaluate ~device ~nki:100 d in
      let u = r.Tytra_cost.Report.rp_estimate.Tytra_cost.Resource_model.est_usage in
      Format.printf "%-13s  %-5s  %3d  %6d %6d  %9.4g  %s@."
        (Transform.to_string v)
        (Tytra_ir.Config_tree.cclass_to_string s.Tytra_ir.Config_tree.cs_class)
        (Transform.pes v) u.Tytra_device.Resources.aluts
        u.Tytra_device.Resources.regs
        r.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit
        (Tytra_cost.Throughput.limiter_to_string
           r.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_limiter))
    [ Transform.ParPipe 8; Transform.ParVecPipe (4, 2);
      Transform.ParVecPipe (2, 4) ];
  Format.printf
    "(equal PE counts give equal compute ceilings; the configurations \
     differ in stream-control granularity, visible in the ALUT column)@."

(* ------------------------------------------------------------------ *)
(* A4: contribution of the EKIT terms                                  *)
(* ------------------------------------------------------------------ *)

let a4 () =
  hr "A4 (ablation): per-term contribution to the EKIT expressions";
  let device = Tytra_device.Device.stratixv_gsd8 in
  Format.printf
    "kernel/size        form |  host%%   offset%%  fill%%   exec%%@.";
  let show name prog form nki =
    let d = Lower.lower prog Transform.Pipe in
    let i = Tytra_cost.Throughput.inputs_of_design ~device ~nki d in
    let b = Tytra_cost.Throughput.ekit form i in
    let t = b.Tytra_cost.Throughput.bd_total_s in
    let p x = 100.0 *. x /. t in
    Format.printf "%-18s  %s   | %6.1f %8.1f %6.1f %7.1f@." name
      (Tytra_cost.Throughput.form_to_string form)
      (p b.Tytra_cost.Throughput.bd_host_s)
      (p b.Tytra_cost.Throughput.bd_off_s)
      (p b.Tytra_cost.Throughput.bd_fill_s)
      (p b.Tytra_cost.Throughput.bd_exec_s)
  in
  show "lavamd (100 wi)" (Tytra_kernels.Lavamd.table2_program ())
    Tytra_cost.Throughput.FormB 1;
  show "sor 8x6x6" (Tytra_kernels.Sor.table2_program ())
    Tytra_cost.Throughput.FormB 1;
  show "sor 64^3" (Tytra_kernels.Sor.program ~im:64 ~jm:64 ~km:64 ())
    Tytra_cost.Throughput.FormB 1000;
  show "sor 64^3" (Tytra_kernels.Sor.program ~im:64 ~jm:64 ~km:64 ())
    Tytra_cost.Throughput.FormA 1000;
  Format.printf
    "(offset/fill terms matter only for small NDRanges; form A is dominated \
     by the host term — the structure behind Eqs 1-3)@."

(* ------------------------------------------------------------------ *)
(* A5: cost-model accuracy across a design corpus                      *)
(* ------------------------------------------------------------------ *)

let a5 () =
  hr "A5 (ablation): estimate-vs-actual error distribution over a corpus";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let corpus =
    List.concat_map
      (fun (name, mk) ->
        List.concat_map
          (fun ty ->
            List.filter_map
              (fun v ->
                let prog = mk ty in
                if Transform.applicable prog v then
                  Some (Printf.sprintf "%s/%s/%s" name
                          (Tytra_ir.Ty.to_string ty)
                          (Transform.to_string v),
                        Lower.lower prog v)
                else None)
              [ Transform.Pipe; Transform.ParPipe 2; Transform.ParPipe 4 ])
          [ Tytra_ir.Ty.UInt 16; Tytra_ir.Ty.UInt 18; Tytra_ir.Ty.UInt 24;
            Tytra_ir.Ty.UInt 32 ])
      [
        ("sor", fun ty -> Tytra_kernels.Sor.program ~ty ~im:8 ~jm:8 ~km:8 ());
        ("hotspot", fun ty -> Tytra_kernels.Hotspot.program ~ty ~rows:64 ~cols:64 ());
        ("lavamd", fun ty -> Tytra_kernels.Lavamd.program ~ty ~boxes:1 ());
        ("srad", fun ty -> Tytra_kernels.Srad.program ~ty ~rows:32 ~cols:32 ());
      ]
  in
  let errs = Hashtbl.create 4 in
  let record k v =
    let l = try Hashtbl.find errs k with Not_found -> [] in
    Hashtbl.replace errs k (v :: l)
  in
  let worst = ref ("", 0.0) in
  List.iter
    (fun (label, d) ->
      let est =
        (Tytra_cost.Resource_model.estimate ~device d)
          .Tytra_cost.Resource_model.est_usage
      in
      let act = (Tytra_sim.Techmap.run ~device ~effort:`Fast d).Tytra_sim.Techmap.tm_usage in
      let open Tytra_device.Resources in
      let p e a =
        if a = 0 then if e = 0 then 0.0 else 100.0
        else 100.0 *. Float.abs (float_of_int (e - a)) /. float_of_int a
      in
      let cases =
        [ ("ALUT", p est.aluts act.aluts); ("REG", p est.regs act.regs);
          ("BRAM", p est.bram_bits act.bram_bits);
          ("DSP", p est.dsps act.dsps) ]
      in
      List.iter
        (fun (k, v) ->
          record k v;
          if v > snd !worst then worst := (label ^ " " ^ k, v))
        cases)
    corpus;
  Format.printf "corpus: %d designs (4 kernels x 4 widths x <=3 variants)@."
    (List.length corpus);
  Format.printf "resource |   mean%%   p95%%    max%%@.";
  List.iter
    (fun k ->
      let l = List.sort compare (Hashtbl.find errs k) in
      let n = List.length l in
      let mean = List.fold_left ( +. ) 0.0 l /. float_of_int n in
      let p95 = List.nth l (min (n - 1) (n * 95 / 100)) in
      let mx = List.nth l (n - 1) in
      Format.printf "%-8s | %6.2f %6.2f %7.2f@." k mean p95 mx)
    [ "ALUT"; "REG"; "BRAM"; "DSP" ];
  Format.printf "worst case: %s at %.1f%%@." (fst !worst) (snd !worst);
  Format.printf
    "(the paper validates on 3 kernels; the corpus shows the closed forms \
     track the detailed elaboration across widths and lane counts — the \
     'accurate enough to make design decisions' claim, quantified)@."

(* ------------------------------------------------------------------ *)
(* A6: parameter sensitivity of the EKIT expression                    *)
(* ------------------------------------------------------------------ *)

let a6 () =
  hr "A6 (ablation): EKIT sensitivity to +-20% in each Table-I parameter";
  let device = Tytra_device.Device.stratixv_gsd8 in
  let prog = Tytra_kernels.Sor.program ~ty:(Tytra_ir.Ty.Float 32) ~im:64 ~jm:64 ~km:64 () in
  let d = Lower.lower prog (Transform.ParPipe 4) in
  let base = Tytra_cost.Throughput.inputs_of_design ~device ~nki:100 d in
  let ek i =
    (Tytra_cost.Throughput.ekit Tytra_cost.Throughput.FormB i)
      .Tytra_cost.Throughput.bd_ekit
  in
  let e0 = ek base in
  let open Tytra_cost.Throughput in
  let knobs =
    [
      ("FD (clock)", fun s -> { base with fd_hz = base.fd_hz *. s });
      ("rho_G (sustained DRAM)", fun s -> { base with rho_g = base.rho_g *. s });
      ("rho_H (sustained host)", fun s -> { base with rho_h = base.rho_h *. s });
      ("KNL (lanes)",
       fun s -> { base with knl = max 1 (int_of_float (4.0 *. s)) });
      ("KPD (pipeline depth)",
       fun s -> { base with kpd = int_of_float (float_of_int base.kpd *. s) });
      ("Noff (offset fill)",
       fun s -> { base with noff = int_of_float (float_of_int base.noff *. s) });
      ("NWPT (bytes/tuple)",
       fun s -> { base with bytes_per_tuple = base.bytes_per_tuple *. s });
    ]
  in
  Format.printf
    "parameter                  |  EKIT at 0.8x   EKIT at 1.2x  |  swing@.";
  List.iter
    (fun (name, mk) ->
      let lo = ek (mk 0.8) and hi = ek (mk 1.2) in
      Format.printf "%-26s | %12.4g  %12.4g  | %5.1f%%@." name lo hi
        (100.0 *. (hi -. lo) /. e0))
    knobs;
  Format.printf
    "(baseline EKIT %.4g; the dominant knob is what Limits reports as the \
     limiting parameter — 'exposing the performance limiting parameter' is \
     the paper's stated purpose for the model)@."
    e0

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (rigorous timing for E5)                  *)
(* ------------------------------------------------------------------ *)

let speed () =
  hr "Bechamel micro-benchmarks: per-stage latency of the fast path";
  let open Bechamel in
  let prog = Tytra_kernels.Sor.program ~im:32 ~jm:32 ~km:32 () in
  let d4 = Lower.lower prog (Transform.ParPipe 4) in
  let tirl = Tytra_ir.Pprint.design_to_string d4 in
  let tests =
    [
      Test.make ~name:"parse .tirl"
        (Staged.stage (fun () -> ignore (Tytra_ir.Parser.parse tirl)));
      Test.make ~name:"validate"
        (Staged.stage (fun () -> ignore (Tytra_ir.Validate.check d4)));
      Test.make ~name:"analysis params"
        (Staged.stage (fun () -> ignore (Tytra_ir.Analysis.params d4)));
      Test.make ~name:"resource estimate"
        (Staged.stage (fun () ->
             ignore (Tytra_cost.Resource_model.estimate d4)));
      Test.make ~name:"full cost report"
        (Staged.stage (fun () -> ignore (Tytra_cost.Report.evaluate d4)));
      Test.make ~name:"lower par4"
        (Staged.stage (fun () ->
             ignore (Lower.lower prog (Transform.ParPipe 4))));
      Test.make ~name:"schedule PE"
        (Staged.stage (fun () ->
             let f = Tytra_ir.Ast.find_func_exn d4 "f0" in
             ignore (Tytra_hdl.Schedule.schedule_func d4 f)));
      Test.make ~name:"verilog emit"
        (Staged.stage (fun () -> ignore (Tytra_hdl.Verilog.emit d4)));
      Test.make ~name:"techmap fast"
        (Staged.stage (fun () ->
             ignore (Tytra_sim.Techmap.run ~effort:`Fast d4)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun t ->
      let results =
        Benchmark.all cfg [ instance ]
          (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ t ])
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Format.printf "  %-28s %12.1f ns/run@." name est
          | _ -> Format.printf "  %-28s (no estimate)@." name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
            ("e6", e6); ("e7", e7); ("e8", e8); ("e10", e10);
            ("e12", e12);
            ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4); ("a5", a5);
            ("a6", a6) ]

(* Telemetry options: --json FILE writes a machine-readable per-phase
   report (spans + metrics + perf_profile), --trace FILE writes a
   Chrome-trace timeline viewable in chrome://tracing or Perfetto, and
   --events FILE writes the structured event log (JSONL, schema v1).
   Each experiment runs under a "bench.<name>" root span, so the
   per-phase summary attributes wall time to E1..E7 and their inner
   compile/cost/sim phases. *)

let parse_args args =
  let json = ref None and trace = ref None and events = ref None
  and rest = ref [] in
  let rec go = function
    | [] -> ()
    | "--json" :: path :: tl -> json := Some path; go tl
    | "--trace" :: path :: tl -> trace := Some path; go tl
    | "--events" :: path :: tl -> events := Some path; go tl
    | a :: tl -> rest := a :: !rest; go tl
  in
  go args;
  (!json, !trace, !events, List.rev !rest)

let run_experiment name f =
  Tytra_telemetry.Span.with_ ~name:("bench." ^ name) f

let () =
  let json, trace, events, args =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  if json <> None || trace <> None || events <> None then begin
    Tytra_telemetry.Control.set_enabled true;
    Tytra_telemetry.Span.set_keep (json <> None || trace <> None);
    Option.iter Tytra_telemetry.Events.open_file events;
    at_exit (fun () ->
        Option.iter
          (fun path ->
            Tytra_telemetry.Export.write_report path;
            Format.eprintf "telemetry report written to %s@." path)
          json;
        Option.iter
          (fun path ->
            Tytra_telemetry.Export.write_chrome_trace ~process_name:"bench"
              path;
            Format.eprintf "chrome trace written to %s@." path)
          trace;
        Option.iter
          (fun path ->
            Tytra_telemetry.Events.close ();
            Format.eprintf "event log written to %s@." path)
          events)
  end;
  Format.printf
    "TyTra cost-model reproduction - experiment harness (see DESIGN.md §4)@.";
  match args with
  | [] -> List.iter (fun (name, f) -> run_experiment name f) all
  | args ->
      List.iter
        (fun a ->
          match List.assoc_opt a all with
          | Some f -> run_experiment a f
          | None when a = "speed" -> run_experiment "speed" speed
          | None ->
              Format.printf "unknown experiment %S (known: %s, speed)@." a
                (String.concat ", " (List.map fst all)))
        args
