(* Legacy import: take the SOR kernel as it appears in the weather
   model's Fortran source, elaborate it through the legacy front end,
   check it against the hand-written DSL kernel, and run the whole flow —
   exploration, cost model, form selection, roofline — on it.

   Run with:  dune exec examples/fortran_import.exe
*)

open Tytra_front

let () =
  let sizes = [ ("im", 16); ("jm", 16); ("km", 16) ] in
  let path =
    if Sys.file_exists "examples/ir/sor.f90" then "examples/ir/sor.f90"
    else "../../../examples/ir/sor.f90"
  in
  let prog = Fortran.parse_file ~sizes path in
  Format.printf "parsed %s: %d-point index space, inputs [%s], %d params@."
    path (Expr.points prog)
    (String.concat "; " prog.Expr.p_kernel.Expr.k_inputs)
    (List.length prog.Expr.p_kernel.Expr.k_params);

  (* the imported kernel computes exactly what the hand-written one does *)
  let hand = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let env = Tytra_kernels.Workloads.random_env hand in
  let env_for_imported =
    (* same data, stream names as the Fortran source uses *)
    List.map
      (fun s ->
        ( s,
          List.assoc (if s = "p" then "p" else "rhs") env ))
      prog.Expr.p_kernel.Expr.k_inputs
  in
  let a = Eval.run_baseline hand env in
  let b = Eval.run_baseline prog env_for_imported in
  let same =
    List.assoc "p" a.Eval.outputs = List.assoc "p_new" b.Eval.outputs
  in
  Format.printf "imported kernel == hand-written kernel: %b@." same;
  assert same;

  (* full flow on the imported program *)
  let pts =
    Tytra_dse.Dse.(explore
      ~config:{ default_config with nki = 1000; max_lanes = 8 })
      prog
  in
  List.iter (fun p -> Format.printf "  %a@." Tytra_dse.Dse.pp_point p) pts;
  (match Tytra_dse.Dse.best pts with
  | Some best ->
      let d = best.Tytra_dse.Dse.dp_design in
      Format.printf "@.selected %s@."
        (Transform.to_string best.Tytra_dse.Dse.dp_variant);
      let device = Tytra_device.Device.stratixv_gsd8 in
      let inputs =
        Tytra_cost.Report.base_clock_inputs ~device
          (Tytra_cost.Report.evaluate ~device ~nki:1000 d)
      in
      Format.printf "form selection:@.%a@." Tytra_cost.Formsel.pp
        (Tytra_cost.Formsel.recommend ~device
           ~footprint:(Tytra_ir.Analysis.bytes_per_ndrange d) inputs);
      Format.printf "@.roofline: %a@." Tytra_cost.Roofline.pp
        (Tytra_cost.Roofline.of_inputs inputs)
  | None -> Format.printf "no valid variant@.")
