(* Kernel-library tests: the three paper kernels have the structural
   properties the paper's Table II implies, and their golden references
   behave. *)

open Tytra_front
open Tytra_ir

let test_sor_structure () =
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let k = p.Expr.p_kernel in
  Alcotest.(check (list string)) "streams" [ "p"; "rhs" ] k.Expr.k_inputs;
  Alcotest.(check int) "6 stencil neighbours" 6
    (List.length (List.assoc "p" (Expr.stencil_offsets k)));
  Alcotest.(check int) "noff = im*jm" 48 (Expr.max_offset k);
  Alcotest.(check bool) "has error reduction" true (k.Expr.k_reductions <> []);
  match Expr.check_kernel k with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_sor_against_reference () =
  (* independent dense reference for the SOR arithmetic *)
  let im, jm, km = (4, 3, 3) in
  let p = Tytra_kernels.Sor.program ~im ~jm ~km () in
  let env = Tytra_kernels.Workloads.random_env p in
  let res = Eval.run_baseline p env in
  let parr = List.assoc "p" env and rhs = List.assoc "rhs" env in
  let n = im * jm * km in
  let mask v = Ty.mask (Ty.UInt 18) v in
  let at a i = if i >= 0 && i < n then a.(i) else 0L in
  let out = List.assoc "p" res.Eval.outputs in
  let sk = im * jm in
  for i = 0 to n - 1 do
    let ( + ) = Int64.add and ( - ) = Int64.sub in
    let neigh =
      at parr (Stdlib.( + ) i 1)
      + at parr (Stdlib.( - ) i 1)
      + at parr (Stdlib.( + ) i im)
      + at parr (Stdlib.( - ) i im)
      + at parr (Stdlib.( + ) i sk)
      + at parr (Stdlib.( - ) i sk)
    in
    (* omega = cn1 = cn* = 1 in the integer parameterization *)
    let reltmp = mask (mask neigh - rhs.(i) - parr.(i)) in
    let expect = mask (reltmp + parr.(i)) in
    if out.(i) <> expect then
      Alcotest.failf "sor mismatch at %d: got %Ld expected %Ld" i out.(i)
        expect
  done

let test_hotspot_table2_properties () =
  let p = Tytra_kernels.Hotspot.table2_program () in
  Alcotest.(check int) "512x512 work-items" (512 * 512) (Expr.points p);
  let d = Lower.lower p Transform.Pipe in
  let est = Tytra_cost.Resource_model.estimate d in
  let u = est.Tytra_cost.Resource_model.est_usage in
  (* the paper's Table II row: 12 DSPs, ~32.8 Kbit of BRAM *)
  Alcotest.(check int) "12 DSPs" 12 u.Tytra_device.Resources.dsps;
  Alcotest.(check bool) "BRAM ~32.8 Kbit" true
    (abs (u.Tytra_device.Resources.bram_bits - 32800) < 1000);
  let q = Analysis.params d in
  Alcotest.(check int) "noff = 512" 512 q.Analysis.noff

let test_lavamd_table2_properties () =
  let p = Tytra_kernels.Lavamd.table2_program () in
  Alcotest.(check int) "100 work-items" 100 (Expr.points p);
  let d = Lower.lower p Transform.Pipe in
  let est = Tytra_cost.Resource_model.estimate d in
  let u = est.Tytra_cost.Resource_model.est_usage in
  (* no stencils -> no BRAM windows (paper: BRAM 0) *)
  Alcotest.(check int) "BRAM 0" 0 u.Tytra_device.Resources.bram_bits;
  Alcotest.(check bool) "DSP-heavy (>= 12)" true
    (u.Tytra_device.Resources.dsps >= 12);
  let q = Analysis.params d in
  Alcotest.(check int) "noff 0" 0 q.Analysis.noff

let test_sor_case_study_sides () =
  List.iter
    (fun side ->
      Alcotest.(check bool)
        (Printf.sprintf "side %d divisible by 4 lanes" side)
        true
        (side * side * side mod 4 = 0))
    Tytra_kernels.Sor.case_study_sides

let test_float_sor_evaluates () =
  let p = Tytra_kernels.Sor.case_study_program 24 in
  Alcotest.(check bool) "float type" true
    (Ty.is_float p.Expr.p_kernel.Expr.k_ty);
  let small = Tytra_kernels.Sor.program ~ty:(Ty.Float 32) ~im:4 ~jm:4 ~km:4 () in
  let env = Tytra_kernels.Workloads.random_env small in
  let r = Eval.run_baseline small env in
  let out = List.assoc "p" r.Eval.outputs in
  Array.iter
    (fun v ->
      let f = Int64.float_of_bits v in
      Alcotest.(check bool) "finite" true (Float.is_finite f))
    out

let test_workload_determinism () =
  let p = Tytra_kernels.Sor.program ~im:4 ~jm:4 ~km:4 () in
  let a = Tytra_kernels.Workloads.random_env p in
  let b = Tytra_kernels.Workloads.random_env p in
  Alcotest.(check bool) "same seed, same data" true (a = b);
  let c = Tytra_kernels.Workloads.random_env ~seed:"other" p in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_cpu_workloads_scale () =
  let w24 = Tytra_kernels.Sor.cpu_workload ~side:24 in
  let w192 = Tytra_kernels.Sor.cpu_workload ~side:192 in
  Alcotest.(check int) "points cube" (24 * 24 * 24)
    w24.Tytra_sim.Cpu_model.wl_points;
  Alcotest.(check int) "8^3 more points" (512 * w24.Tytra_sim.Cpu_model.wl_points)
    w192.Tytra_sim.Cpu_model.wl_points

let suite =
  [
    Alcotest.test_case "sor structure" `Quick test_sor_structure;
    Alcotest.test_case "sor against dense reference" `Quick
      test_sor_against_reference;
    Alcotest.test_case "hotspot Table II properties" `Quick
      test_hotspot_table2_properties;
    Alcotest.test_case "lavamd Table II properties" `Quick
      test_lavamd_table2_properties;
    Alcotest.test_case "case-study sides" `Quick test_sor_case_study_sides;
    Alcotest.test_case "float sor evaluates" `Quick test_float_sor_evaluates;
    Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
    Alcotest.test_case "cpu workloads scale" `Quick test_cpu_workloads_scale;
  ]

(* ---- SRAD (beyond the paper's three kernels) ---- *)

let test_srad_structure () =
  let p = Tytra_kernels.Srad.program ~rows:16 ~cols:16 () in
  let k = p.Expr.p_kernel in
  Alcotest.(check (list int)) "five-point stencil" [ -16; -1; 1; 16 ]
    (List.assoc "c" (Expr.stencil_offsets k));
  (* two divisions: the op the Fig 9 calibration is about *)
  let d = Lower.lower p Transform.Pipe in
  let divs =
    Ast.fold_instrs d (Ast.find_func_exn d "f0") 0 (fun acc _ i ->
        match i with
        | Ast.Assign { op = Ast.Div; _ } -> acc + 1
        | _ -> acc)
  in
  Alcotest.(check int) "two divs" 2 divs

let test_srad_reference () =
  (* independent dense reference of the SRAD arithmetic *)
  let rows, cols = (6, 8) in
  let p = Tytra_kernels.Srad.program ~rows ~cols () in
  let env = Tytra_kernels.Workloads.random_env p in
  let res = Eval.run_baseline p env in
  let c = List.assoc "c" env in
  let out = List.assoc "c" res.Eval.outputs in
  let n = rows * cols in
  let ty = Ty.UInt 18 in
  let m v = Ty.mask ty v in
  let at i = if i >= 0 && i < n then c.(i) else 0L in
  let q0 = 3L and lambda = 1L in
  for i = 0 to n - 1 do
    let ( + ) = Int64.add and ( - ) = Int64.sub and ( * ) = Int64.mul in
    let dn = m (at (Stdlib.( - ) i cols) - at i) in
    let ds = m (at (Stdlib.( + ) i cols) - at i) in
    let de = m (at (Stdlib.( + ) i 1) - at i) in
    let dw = m (at (Stdlib.( - ) i 1) - at i) in
    let num = m ((dn * dn) + (ds * ds) + (de * de) + (dw * dw)) in
    let den = m ((at i * at i) + 1L) in
    let g2 = if den = 0L then 0L else Int64.unsigned_div num den in
    let l = m (dn + ds + de + dw) in
    let den2 = m (g2 + q0) in
    let coef = if den2 = 0L then 0L else Int64.unsigned_div l den2 in
    let expect = m (at i + m (lambda * coef)) in
    if out.(i) <> expect then
      Alcotest.failf "srad mismatch at %d: got %Ld expected %Ld" i out.(i)
        expect
  done

let test_srad_variants_correct () =
  let p = Tytra_kernels.Srad.program ~rows:8 ~cols:8 () in
  let env = Tytra_kernels.Workloads.random_env p in
  let g = Eval.run_baseline p env in
  List.iter
    (fun v ->
      let r = Eval.run_variant p v env in
      Alcotest.(check bool)
        (Transform.to_string v ^ " == baseline")
        true
        (r.Eval.outputs = g.Eval.outputs && r.Eval.reductions = g.Eval.reductions))
    (Transform.enumerate ~max_lanes:8 p)

let test_srad_div_dominates_aluts () =
  (* the two 18-bit divides (~380 ALUTs each) dominate the datapath *)
  let d =
    Lower.lower (Tytra_kernels.Srad.program ~rows:16 ~cols:16 ()) Transform.Pipe
  in
  let u =
    (Tytra_cost.Resource_model.estimate d)
      .Tytra_cost.Resource_model.est_usage
  in
  Alcotest.(check bool) "ALUTs reflect dividers" true
    (u.Tytra_device.Resources.aluts > 800)

(* At a float type the kernel's integer constants lower to float
   immediates, so every variant validates, survives a print/parse round
   trip and costs. *)
let test_srad_fp32_lowers () =
  let p = Tytra_kernels.Srad.program ~ty:(Ty.Float 32) ~rows:16 ~cols:16 () in
  List.iter
    (fun v ->
      let name = Transform.to_string v in
      let d = Lower.lower p v in
      Alcotest.(check int) (name ^ " validates") 0 (List.length (Validate.check d));
      let text = Pprint.design_to_string d in
      let d' = Parser.parse ~name:d.Ast.d_name text in
      Alcotest.(check int) (name ^ " re-parsed validates") 0
        (List.length (Validate.check d'));
      Alcotest.(check string) (name ^ " round trip") text (Pprint.design_to_string d');
      let ekit =
        (Tytra_cost.Report.evaluate d').Tytra_cost.Report.rp_breakdown
          .Tytra_cost.Throughput.bd_ekit
      in
      Alcotest.(check bool) (name ^ " costs") true (Float.is_finite ekit && ekit > 0.0))
    [ Transform.Seq; Transform.Pipe; Transform.ParPipe 4 ]

let suite =
  suite
  @ [
      Alcotest.test_case "srad structure" `Quick test_srad_structure;
      Alcotest.test_case "srad fp32 lowers, validates and costs" `Quick
        test_srad_fp32_lowers;
      Alcotest.test_case "srad dense reference" `Quick test_srad_reference;
      Alcotest.test_case "srad variants correct" `Quick
        test_srad_variants_correct;
      Alcotest.test_case "srad div-heavy ALUTs" `Quick
        test_srad_div_dominates_aluts;
    ]
