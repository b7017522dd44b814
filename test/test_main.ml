(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "tytra"
    [
      ("ty", Test_ty.suite);
      ("parser", Test_parser.suite);
      ("lexer", Test_lexer.suite);
      ("validate", Test_validate.suite);
      ("analysis", Test_analysis.suite);
      ("interp", Test_interp.suite);
      ("front", Test_front.suite);
      ("optim", Test_optim.suite);
      ("fortran", Test_fortran.suite);
      ("cfront", Test_cfront.suite);
      ("chain", Test_chain.suite);
      ("formsel", Test_formsel.suite);
      ("hdl", Test_hdl.suite);
      ("cost", Test_cost.suite);
      ("device", Test_device.suite);
      ("sim", Test_sim.suite);
      ("kernels", Test_kernels.suite);
      ("telemetry", Test_telemetry.suite);
      ("observability", Test_observability.suite);
      ("exec", Test_exec.suite);
      ("dse", Test_dse.suite);
      ("work", Test_work.suite);
      ("resilience", Test_resilience.suite);
      ("fuzz", Test_fuzz.suite);
      ("fastpath", Test_fastpath.suite);
      ("replicate", Test_replicate.suite);
      ("linearity", Test_linear.suite);
      ("streambench", Test_streambench.suite);
      ("robustness", Test_robustness.suite);
      ("integration", Test_integration.suite);
      ("engine", Test_engine.suite);
      ("selfheal", Test_selfheal.suite);
    ]
