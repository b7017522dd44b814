(* End-to-end integration tests: the full flow on each paper kernel, the
   Table II experiment in miniature, and the shipped .tirl examples. *)

open Tytra_front

let pct e a =
  if a = 0.0 then if e = 0.0 then 0.0 else 100.0
  else 100.0 *. Float.abs (e -. a) /. a

let full_flow prog =
  let d = Lower.lower prog Transform.Pipe in
  let est = Tytra_cost.Resource_model.estimate d in
  let inputs = Tytra_cost.Throughput.inputs_of_design d in
  let cpki_est = Tytra_cost.Throughput.cpki Tytra_cost.Throughput.FormB inputs in
  let tm = Tytra_sim.Techmap.run ~effort:`Fast d in
  let sim =
    Tytra_sim.Cyclesim.run ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz
      ~form:Tytra_sim.Cyclesim.B d
  in
  (d, est, cpki_est, tm, sim)

let check_table2_row name prog ~cpki_tol =
  let _, est, cpki_est, tm, sim = full_flow prog in
  let eu = est.Tytra_cost.Resource_model.est_usage in
  let au = tm.Tytra_sim.Techmap.tm_usage in
  let open Tytra_device.Resources in
  let p e a = pct (float_of_int e) (float_of_int a) in
  Alcotest.(check bool) (name ^ " ALUT err <= 10%") true (p eu.aluts au.aluts <= 10.);
  Alcotest.(check bool) (name ^ " REG err <= 12%") true (p eu.regs au.regs <= 12.);
  Alcotest.(check bool) (name ^ " BRAM err <= 5%") true
    (p eu.bram_bits au.bram_bits <= 5.);
  Alcotest.(check bool) (name ^ " DSP err <= 20%") true (p eu.dsps au.dsps <= 20.);
  let cpki_err = pct cpki_est sim.Tytra_sim.Cyclesim.r_cycles_per_ki in
  Alcotest.(check bool)
    (Printf.sprintf "%s CPKI err %.1f%% <= %.0f%%" name cpki_err cpki_tol)
    true (cpki_err <= cpki_tol)

let test_table2_sor () =
  check_table2_row "sor" (Tytra_kernels.Sor.table2_program ()) ~cpki_tol:25.

let test_table2_hotspot () =
  check_table2_row "hotspot" (Tytra_kernels.Hotspot.table2_program ())
    ~cpki_tol:10.

let test_table2_lavamd () =
  check_table2_row "lavamd" (Tytra_kernels.Lavamd.table2_program ())
    ~cpki_tol:40.

let test_estimator_much_faster_than_synthesis () =
  let d =
    Lower.lower (Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ())
      (Transform.ParPipe 4)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  (* warm up, then measure *)
  ignore (Tytra_cost.Report.evaluate d);
  let t_est = time (fun () -> Tytra_cost.Report.evaluate d) in
  let t_synth = time (fun () -> Tytra_sim.Techmap.run ~effort:`Full d) in
  Alcotest.(check bool)
    (Printf.sprintf "estimator %.4gs vs synthesis %.4gs" t_est t_synth)
    true
    (t_synth > 20.0 *. t_est)

let test_cost_model_tracks_simulator_ranking () =
  (* the cost model's job: ranking variants like the measured system *)
  (* a grid large enough that per-stream sizes sit on the sloped part of
     the bandwidth calibration (tiny grids clamp to the smallest point
     and tie) *)
  let p = Tytra_kernels.Sor.program ~im:32 ~jm:32 ~km:32 () in
  let variants =
    [ Transform.Pipe; Transform.ParPipe 2; Transform.ParPipe 4 ]
  in
  let est_rank =
    List.map
      (fun v ->
        let r = Tytra_cost.Report.evaluate ~nki:100 (Lower.lower p v) in
        (v, r.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit))
      variants
  in
  let sim_rank =
    List.map
      (fun v ->
        let r =
          Tytra_sim.Cyclesim.run ~form:Tytra_sim.Cyclesim.B ~nki:100
            (Lower.lower p v)
        in
        (v, r.Tytra_sim.Cyclesim.r_ekit))
      variants
  in
  let order l =
    List.map fst
      (List.sort (fun (_, a) (_, b) -> compare b a) l)
  in
  Alcotest.(check bool) "same ranking" true (order est_rank = order sim_rank)

let test_shipped_tirl_examples () =
  let dir = "../../../examples/ir" in
  let dir =
    if Sys.file_exists dir then dir
    else "examples/ir" (* running from the repo root *)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tirl" then begin
          let path = Filename.concat dir f in
          let d =
            Tytra_ir.Parser.parse
              ~name:(Filename.remove_extension f)
              (In_channel.with_open_bin path In_channel.input_all)
          in
          Alcotest.(check (list Alcotest.string)) (f ^ " validates") []
            (List.map Tytra_ir.Validate.error_to_string
               (Tytra_ir.Validate.check d))
        end)
      (Sys.readdir dir)
  else Alcotest.skip ()

let test_hdl_emission_all_kernels () =
  List.iter
    (fun prog ->
      let d = Lower.lower prog Transform.Pipe in
      let v = Tytra_hdl.Verilog.emit d in
      Alcotest.(check bool) "nonempty verilog" true (String.length v > 1000);
      let m = Tytra_hdl.Maxj.emit d in
      Alcotest.(check bool) "nonempty maxj" true (String.length m > 300))
    [
      Tytra_kernels.Sor.table2_program ();
      Tytra_kernels.Hotspot.program ~rows:32 ~cols:32 ();
      Tytra_kernels.Lavamd.table2_program ();
    ]

let test_fig17_shape_small () =
  (* miniature Fig 17: at a reasonable grid, tytra(4 lanes) beats maxJ
     (single pipe) on the simulator *)
  let side = 48 in
  let nki = 50 in
  let p = Tytra_kernels.Sor.case_study_program side in
  let run v =
    (Tytra_sim.Cyclesim.run ~form:Tytra_sim.Cyclesim.B ~nki
       (Lower.lower p v))
      .Tytra_sim.Cyclesim.r_total_s
  in
  let t_maxj = run Transform.Pipe in
  let t_tytra = run (Transform.ParPipe 4) in
  Alcotest.(check bool)
    (Printf.sprintf "tytra %.3gs < maxj %.3gs" t_tytra t_maxj)
    true (t_tytra < t_maxj)

let suite =
  [
    Alcotest.test_case "Table II row: SOR" `Slow test_table2_sor;
    Alcotest.test_case "Table II row: Hotspot" `Slow test_table2_hotspot;
    Alcotest.test_case "Table II row: LavaMD" `Slow test_table2_lavamd;
    Alcotest.test_case "estimator >> faster than synthesis" `Slow
      test_estimator_much_faster_than_synthesis;
    Alcotest.test_case "cost model ranks like simulator" `Slow
      test_cost_model_tracks_simulator_ranking;
    Alcotest.test_case "shipped .tirl examples validate" `Quick
      test_shipped_tirl_examples;
    Alcotest.test_case "HDL emission for all kernels" `Quick
      test_hdl_emission_all_kernels;
    Alcotest.test_case "Fig 17 shape (miniature)" `Slow test_fig17_shape_small;
  ]
