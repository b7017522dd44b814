(* SOR design-space exploration — the paper's §VI walk-through.

   Sweeps the number of kernel pipeline lanes for the SOR kernel (the
   reshapeTo transformation), prints the Fig 15-style table of resource
   utilization and throughput, shows where the communication and
   computation walls fall for forms A and B, prints what limits each lane
   count, and emits the HDL of the selected variant.

   Run with:  dune exec examples/sor_exploration.exe
*)

open Tytra_front

let () =
  let device = Tytra_device.Device.stratixv_gsd8 in
  let side = 64 in
  let nki = 10 in
  let program = Tytra_kernels.Sor.program ~im:side ~jm:side ~km:side () in
  Format.printf "SOR %dx%dx%d, %d kernel iterations, device %s@.@." side side
    side nki device.Tytra_device.Device.dev_name;

  let lanes = [ 1; 2; 4; 8; 16 ] in
  Format.printf
    "lanes   ALUT%%   REG%%   BRAM%%   DSP%%   EKIT(A)       EKIT(B)      \
     limiter(B)@.";
  List.iter
    (fun l ->
      let v = if l = 1 then Transform.Pipe else Transform.ParPipe l in
      let d = Lower.lower program v in
      let ra =
        Tytra_cost.Report.evaluate ~device ~form:Tytra_cost.Throughput.FormA
          ~nki d
      in
      let rb =
        Tytra_cost.Report.evaluate ~device ~form:Tytra_cost.Throughput.FormB
          ~nki d
      in
      let u = rb.Tytra_cost.Report.rp_utilization in
      Format.printf
        "%5d  %5.1f  %5.1f  %6.2f  %5.1f  %11.4g  %11.4g   %s@." l
        (100. *. u.Tytra_device.Resources.ut_aluts)
        (100. *. u.Tytra_device.Resources.ut_regs)
        (100. *. u.Tytra_device.Resources.ut_bram)
        (100. *. u.Tytra_device.Resources.ut_dsps)
        ra.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit
        rb.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit
        (Tytra_cost.Throughput.limiter_to_string
           rb.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_limiter))
    lanes;

  (* the walls, from the single-lane analysis *)
  let d1 = Lower.lower program Transform.Pipe in
  let r1 = Tytra_cost.Report.evaluate ~device ~nki d1 in
  Format.printf "@.walls: %a@." Tytra_cost.Limits.pp_walls
    r1.Tytra_cost.Report.rp_walls;
  Format.printf "balance hint: binding resource %s@."
    r1.Tytra_cost.Report.rp_balance.Tytra_cost.Limits.bh_binding;

  (* one exhaustive sweep: what limits each lane count *)
  Format.printf "@.limiter at each lane count:@.";
  let points =
    Tytra_dse.Dse.(explore
      ~config:{ default_config with device; nki; max_lanes = 32; prune = false })
      program
  in
  List.iter
    (fun p ->
      if p.Tytra_dse.Dse.dp_variant <> Transform.Seq then
        Format.printf "  %a@." Tytra_dse.Dse.pp_point p)
    points;

  match Tytra_dse.Dse.best points with
  | None -> Format.printf "no valid variant@."
  | Some best ->
      Format.printf "@.selected: %s@."
        (Transform.to_string best.Tytra_dse.Dse.dp_variant);
      let dir = Filename.get_temp_dir_name () in
      let v, vh = Tytra_hdl.Verilog.write ~dir best.Tytra_dse.Dse.dp_design in
      Format.printf "HDL written: %s, %s@." v vh
