(* Cost-model tests: polynomial/piecewise fitting (Fig 9), the resource
   expressions, the EKIT throughput expressions (Eqs 1-3), and the wall
   analysis. *)

open Tytra_cost
open Tytra_ir

let feq = Alcotest.(check (float 1e-6))

(* ---- Fit ---- *)

let test_polyfit_exact () =
  (* quadratic through three points is interpolation *)
  let p = Fit.polyfit ~degree:2 [ (1., 2.); (2., 5.); (3., 10.) ] in
  (* y = x^2 + 1 *)
  feq "c0" 1.0 p.(0);
  feq "c1" 0.0 p.(1);
  feq "c2" 1.0 p.(2);
  feq "eval at 4" 17.0 (Fit.eval p 4.0)

let test_polyfit_least_squares () =
  (* overdetermined linear fit of y = 3x + 1 with no noise *)
  let pts = List.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let p = Fit.polyfit ~degree:1 pts in
  feq "intercept" 1.0 p.(0);
  feq "slope" 3.0 p.(1);
  feq "r2 perfect" 1.0 (Fit.r_squared p pts)

let test_polyfit_errors () =
  match Fit.polyfit ~degree:2 [ (1., 1.) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "needs 3 points for degree 2"

let test_piecewise () =
  let pts =
    [ (10., 4.); (18., 4.); (20., 60.); (30., 80.); (36., 92.); (40., 180.);
      (54., 236.) ]
  in
  let pw = Fit.piecewise_fit ~breaks:[ 18.; 36. ] pts in
  feq "segment 1 constant" 4.0 (Fit.piecewise_eval pw 12.0);
  (* segment 2 fits 20+2x through (20,60),(30,80),(36,92) *)
  feq "segment 2 at 24" 68.0 (Fit.piecewise_eval pw 24.0);
  feq "segment 3 at 45" 200.0 (Fit.piecewise_eval pw 45.0)

(* ---- resource model: the paper's Fig 9 numbers ---- *)

let test_div_quadratic_paper_point () =
  (* paper: 24-bit division estimated at 654 ALUTs vs 652 actual *)
  let est = Resource_model.alut_cost Ast.Div (Ty.UInt 24) in
  Alcotest.(check bool) "24-bit div ~654 ALUTs" true (abs (est - 654) <= 1);
  (* and the default quadratic matches x^2+3.7x-10.6 at the fit points *)
  List.iter
    (fun w ->
      let wf = float_of_int w in
      let expect = (wf *. wf) +. (3.7 *. wf) -. 10.6 in
      let got = float_of_int (Resource_model.alut_cost Ast.Div (Ty.UInt w)) in
      Alcotest.(check bool)
        (Printf.sprintf "div at %d bits" w)
        true
        (Float.abs (got -. expect) <= 1.0))
    [ 18; 32; 64 ]

let test_mul_piecewise () =
  let a w = Resource_model.alut_cost Ast.Mul (Ty.UInt w) in
  Alcotest.(check int) "<=18 bits small" 4 (a 12);
  Alcotest.(check int) "<=18 bits small" 4 (a 18);
  Alcotest.(check bool) "discontinuity at 18" true (a 19 > 10 * a 18);
  Alcotest.(check bool) "piecewise growing" true (a 40 > a 36 && a 60 > a 54)

let test_mul_dsp_steps () =
  let d w = Resource_model.dsp_cost Ast.Mul (Ty.UInt w) in
  Alcotest.(check int) "18 -> 1" 1 (d 18);
  Alcotest.(check int) "32 -> 4" 4 (d 32);
  Alcotest.(check int) "54 -> 6" 6 (d 54);
  Alcotest.(check int) "64 -> 8" 8 (d 64);
  Alcotest.(check int) "add uses no DSP" 0 (Resource_model.dsp_cost Ast.Add (Ty.UInt 32))

let test_calibration_regenerates_quadratic () =
  (* fit from tech-map synthesis points (three widths, as in the paper)
     and check the held-out width 24 lands near the synthesis truth *)
  let synth w =
    (Tytra_sim.Techmap.map_unit Ast.Div (Ty.UInt w)).Tytra_device.Resources.aluts
  in
  let poly = Resource_model.calibrate_div synth in
  let est24 = Fit.eval poly 24.0 in
  let act24 = float_of_int (synth 24) in
  Alcotest.(check bool)
    (Printf.sprintf "interpolated %.0f vs actual %.0f" est24 act24)
    true
    (Float.abs (est24 -. act24) /. act24 < 0.02)

let test_estimate_scales_with_lanes () =
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let usage v =
    (Resource_model.estimate (Tytra_front.Lower.lower p v))
      .Resource_model.est_usage
  in
  let u1 = usage Tytra_front.Transform.Pipe in
  let u4 = usage (Tytra_front.Transform.ParPipe 4) in
  let open Tytra_device.Resources in
  Alcotest.(check bool) "ALUTs grow ~4x" true
    (u4.aluts > 3 * u1.aluts && u4.aluts < 5 * u1.aluts);
  Alcotest.(check bool) "DSPs grow 4x" true (u4.dsps = 4 * u1.dsps)

(* ---- throughput / EKIT ---- *)

let base_inputs =
  {
    Throughput.ngs = 1_000_000;
    bytes_per_tuple = 12.0;
    nki = 1000;
    noff = 256;
    off_bytes = 4.0;
    kpd = 30;
    fd_hz = 200.0e6;
    cpt = 1.0;
    knl = 1;
    dv = 1;
    hpb = 4.0e9;
    rho_h = 0.8;
    gpb = 38.4e9;
    rho_g = 0.7;
    reconfig_s = 0.0;
  }

let test_ekit_form_ordering () =
  let a = Throughput.ekit Throughput.FormA base_inputs in
  let b = Throughput.ekit Throughput.FormB base_inputs in
  let c = Throughput.ekit Throughput.FormC base_inputs in
  Alcotest.(check bool) "B >= A (host amortized)" true
    (b.Throughput.bd_ekit >= a.Throughput.bd_ekit);
  Alcotest.(check bool) "C >= B (no memory wall)" true
    (c.Throughput.bd_ekit >= b.Throughput.bd_ekit)

let test_ekit_form_b_host_scaling () =
  let b1 = Throughput.ekit Throughput.FormB { base_inputs with nki = 1 } in
  let b1000 = Throughput.ekit Throughput.FormB { base_inputs with nki = 1000 } in
  feq "host scaled by nki"
    (b1.Throughput.bd_host_s /. 1000.0)
    b1000.Throughput.bd_host_s

let test_ekit_lane_scaling_when_compute_bound () =
  (* with plenty of bandwidth, EKIT scales with lanes *)
  let i = { base_inputs with rho_g = 1.0; gpb = 1e12; hpb = 1e12 } in
  let e1 = (Throughput.ekit Throughput.FormB i).Throughput.bd_ekit in
  let e4 =
    (Throughput.ekit Throughput.FormB { i with knl = 4 }).Throughput.bd_ekit
  in
  Alcotest.(check bool) "4 lanes ~4x" true (e4 /. e1 > 3.5 && e4 /. e1 <= 4.1)

let test_ekit_memory_wall () =
  (* with tiny DRAM bandwidth, more lanes do not help *)
  let i = { base_inputs with rho_g = 0.01 } in
  let e1 = Throughput.ekit Throughput.FormB i in
  let e8 = Throughput.ekit Throughput.FormB { i with knl = 8 } in
  Alcotest.(check bool) "memory-bound limiter" true
    (e8.Throughput.bd_limiter = Throughput.Gmem_bw);
  Alcotest.(check bool) "no lane speedup at the wall" true
    (e8.Throughput.bd_ekit /. e1.Throughput.bd_ekit < 1.3)

let test_ekit_form_c_always_compute () =
  let i = { base_inputs with rho_g = 0.0001 } in
  let c = Throughput.ekit Throughput.FormC i in
  Alcotest.(check bool) "form C ignores gmem in exec" true
    (c.Throughput.bd_exec_s = c.Throughput.bd_comp_s)

let test_ekit_eq1_structure () =
  (* the total is exactly the sum of the four terms of Eq 1 *)
  let a = Throughput.ekit Throughput.FormA base_inputs in
  feq "eq1 sum"
    (a.Throughput.bd_host_s +. a.Throughput.bd_off_s +. a.Throughput.bd_fill_s
     +. a.Throughput.bd_exec_s)
    a.Throughput.bd_total_s;
  feq "ekit inverse" (1.0 /. a.Throughput.bd_total_s) a.Throughput.bd_ekit;
  feq "exec is max(gmem, comp)"
    (Float.max a.Throughput.bd_gmem_s a.Throughput.bd_comp_s)
    a.Throughput.bd_exec_s

let test_reconfiguration_penalty () =
  (* design-space class C6 (Fig 5): a per-instance reconfiguration penalty
     caps EKIT regardless of lanes *)
  let base = Throughput.ekit Throughput.FormB base_inputs in
  let with_rc =
    Throughput.ekit Throughput.FormB { base_inputs with reconfig_s = 0.01 }
  in
  Alcotest.(check bool) "reconfig slows the variant" true
    (with_rc.Throughput.bd_ekit < base.Throughput.bd_ekit);
  Alcotest.(check bool) "EKIT bounded by 1/reconfig" true
    (with_rc.Throughput.bd_ekit <= 100.0)

let test_cpki_excludes_host () =
  let b = Throughput.ekit Throughput.FormB base_inputs in
  feq "cpki"
    ((b.Throughput.bd_total_s -. b.Throughput.bd_host_s) *. base_inputs.Throughput.fd_hz)
    (Throughput.cpki Throughput.FormB base_inputs)

(* ---- walls / limits ---- *)

let test_walls_ordering () =
  let device = Tytra_device.Device.stratixv_gsd8 in
  let p = Tytra_kernels.Sor.program ~im:32 ~jm:32 ~km:32 () in
  let d = Tytra_front.Lower.lower p Tytra_front.Transform.Pipe in
  let est = Resource_model.estimate ~device d in
  let inputs = Throughput.inputs_of_design ~device d in
  let w = Limits.walls ~device ~est ~inputs in
  (match (w.Limits.w_host_lanes, w.Limits.w_gmem_lanes) with
  | Some h, Some g ->
      Alcotest.(check bool) "host wall before gmem wall" true (h < g)
  | _ -> Alcotest.fail "both bandwidth walls expected");
  Alcotest.(check bool) "compute wall beyond 1 lane" true
    (w.Limits.w_compute_lanes > 1.0)

let test_balance_hint () =
  let device = Tytra_device.Device.stratixv_gsd8 in
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let d = Tytra_front.Lower.lower p Tytra_front.Transform.Pipe in
  let est = Resource_model.estimate ~device d in
  let h = Limits.balance_hint ~device ~est in
  Alcotest.(check int) "3 other resources" 3 (List.length h.Limits.bh_headroom);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "headroom in [0,1]" true (v >= 0.0 && v <= 1.0))
    h.Limits.bh_headroom

let test_report_evaluate () =
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let d = Tytra_front.Lower.lower p Tytra_front.Transform.Pipe in
  let r = Report.evaluate ~nki:10 d in
  Alcotest.(check bool) "fits" true r.Report.rp_valid;
  Alcotest.(check bool) "report prints" true
    (String.length (Report.to_string r) > 100);
  let ra = Report.evaluate ~form:Throughput.FormA ~nki:10 d in
  let rb = Report.evaluate ~form:Throughput.FormB ~nki:10 d in
  Alcotest.(check bool) "forms differ" true
    (ra.Report.rp_breakdown.Throughput.bd_ekit
    <> rb.Report.rp_breakdown.Throughput.bd_ekit)

(* ---- staged memoization ---- *)

let test_stage_caches_hit_on_repeat () =
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let d = Tytra_front.Lower.lower p Tytra_front.Transform.Pipe in
  Report.clear_stage_caches ();
  let r1 = Report.evaluate ~nki:10 d in
  let r2 = Report.evaluate ~nki:10 d in
  Alcotest.(check bool) "identical reports" true (r1 = r2);
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " hits on repeat") true
        (s.Tytra_exec.Cache.st_hits > 0))
    (Report.stage_cache_stats ())

(* A lane sweep re-costs one shared PE: the per-function resource stage
   is looked up once per distinct PE function of a design, so it misses
   on the first design and hits once on each further one. *)
let test_resource_stage_shares_pe_across_lanes () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  Report.clear_stage_caches ();
  List.iter
    (fun v ->
      ignore (Report.evaluate ~nki:10 (Tytra_front.Lower.lower p v)))
    [ Tytra_front.Transform.Pipe; Tytra_front.Transform.ParPipe 4;
      Tytra_front.Transform.ParPipe 8 ];
  let s = List.assoc "cost.stage_cache.resource" (Report.stage_cache_stats ()) in
  (* 1 + 4 + 8 PE instances share one function body: one lookup per
     design, 1 miss and 2 hits *)
  Alcotest.(check int) "one structural miss" 1 s.Tytra_exec.Cache.st_misses;
  Alcotest.(check int) "later designs served from cache" 2
    s.Tytra_exec.Cache.st_hits

(* Different calibrations must not share resource-stage entries. *)
let test_stage_cache_calibration_sensitivity () =
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let d = Tytra_front.Lower.lower p Tytra_front.Transform.Pipe in
  let f = Ast.find_func_exn d "f0" in
  Report.clear_stage_caches ();
  let u1 = Resource_model.pe_usage d f in
  let other =
    { Resource_model.default_calibration with
      Resource_model.div_aluts = [| 0.0; 0.0; 2.0 |] }
  in
  let u2 = Resource_model.pe_usage ~cal:other d f in
  ignore u2;
  let s = Resource_model.pe_cache_stats () in
  Alcotest.(check int) "distinct calibration keys" 2
    s.Tytra_exec.Cache.st_misses;
  (* and the same calibration still hits *)
  let u1' = Resource_model.pe_usage d f in
  Alcotest.(check bool) "hit returns identical usage" true (u1 = u1')

let suite =
  [
    Alcotest.test_case "polyfit interpolation" `Quick test_polyfit_exact;
    Alcotest.test_case "polyfit least squares" `Quick test_polyfit_least_squares;
    Alcotest.test_case "polyfit errors" `Quick test_polyfit_errors;
    Alcotest.test_case "piecewise fit" `Quick test_piecewise;
    Alcotest.test_case "div quadratic (Fig 9)" `Quick
      test_div_quadratic_paper_point;
    Alcotest.test_case "mul piecewise (Fig 9)" `Quick test_mul_piecewise;
    Alcotest.test_case "mul DSP steps (Fig 9)" `Quick test_mul_dsp_steps;
    Alcotest.test_case "calibration regenerates quadratic" `Quick
      test_calibration_regenerates_quadratic;
    Alcotest.test_case "estimate scales with lanes" `Quick
      test_estimate_scales_with_lanes;
    Alcotest.test_case "EKIT form ordering" `Quick test_ekit_form_ordering;
    Alcotest.test_case "EKIT form B host scaling" `Quick
      test_ekit_form_b_host_scaling;
    Alcotest.test_case "EKIT lane scaling" `Quick
      test_ekit_lane_scaling_when_compute_bound;
    Alcotest.test_case "EKIT memory wall" `Quick test_ekit_memory_wall;
    Alcotest.test_case "EKIT form C compute-bound" `Quick
      test_ekit_form_c_always_compute;
    Alcotest.test_case "EKIT Eq 1 structure" `Quick test_ekit_eq1_structure;
    Alcotest.test_case "CPKI excludes host" `Quick test_cpki_excludes_host;
    Alcotest.test_case "reconfiguration penalty (C6)" `Quick
      test_reconfiguration_penalty;
    Alcotest.test_case "walls ordering" `Quick test_walls_ordering;
    Alcotest.test_case "balance hint" `Quick test_balance_hint;
    Alcotest.test_case "full report" `Quick test_report_evaluate;
    Alcotest.test_case "stage caches hit on repeat" `Quick
      test_stage_caches_hit_on_repeat;
    Alcotest.test_case "resource stage shared across lanes" `Quick
      test_resource_stage_shares_pe_across_lanes;
    Alcotest.test_case "stage cache calibration-sensitive" `Quick
      test_stage_cache_calibration_sensitivity;
  ]
