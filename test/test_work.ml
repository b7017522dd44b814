(* Exact work counters and span names of the speed experiments E5 and
   E8 (bench/main.ml).

   One case replays, in process and with telemetry on, E8's eight
   sweeps (four kernels at 64 lanes x vec 8, nki 100, each pruned and
   exhaustive) and E5's calls (SOR 64^3 at Pipe and ParPipe 2-16: one
   estimate, one full-effort techmap and one cycle simulation at the
   techmap clock each, then the exhaustive SOR 96^3 sweep). Each sweep
   runs its points one after another on one domain, so every counter is
   a pure function of the workload: the case compares the whole counter
   registry and the set of span names with the literals below. A
   changed, added or missing counter fails it, as does a phase that
   appears or disappears. *)

open Tytra_front
module Tel = Tytra_telemetry

let e8_sweeps () =
  let config =
    { Tytra_dse.Dse.default_config with max_lanes = 64; max_vec = 8; nki = 100 }
  in
  List.iter
    (fun prog ->
      List.iter
        (fun prune ->
          ignore
            (Tytra_dse.Dse.explore_sweep
               ~config:{ config with Tytra_dse.Dse.prune } prog))
        [ false; true ])
    [
      Tytra_kernels.Sor.program ~ty:(Tytra_ir.Ty.Float 32) ~im:64 ~jm:64 ~km:64
        ();
      Tytra_kernels.Hotspot.program ~rows:64 ~cols:64 ();
      Tytra_kernels.Lavamd.program ~boxes:64 ();
      Tytra_kernels.Srad.program ~rows:64 ~cols:64 ();
    ]

let e5_calls () =
  let device = Tytra_device.Device.stratixv_gsd8 in
  let prog = Tytra_kernels.Sor.program ~im:64 ~jm:64 ~km:64 () in
  List.iter
    (fun v ->
      let d = Lower.lower prog v in
      ignore (Tytra_cost.Report.evaluate ~device d);
      let tm = Tytra_sim.Techmap.run ~device ~effort:`Full d in
      ignore
        (Tytra_sim.Cyclesim.run ~device
           ~fmax_mhz:tm.Tytra_sim.Techmap.tm_fmax_mhz d))
    [ Transform.Pipe; Transform.ParPipe 2; Transform.ParPipe 4;
      Transform.ParPipe 8; Transform.ParPipe 16 ];
  ignore
    (Tytra_dse.Dse.explore
       ~config:
         { Tytra_dse.Dse.default_config with
           max_lanes = 64; max_vec = 8; nki = 100; prune = false }
       (Tytra_kernels.Sor.program ~im:96 ~jm:96 ~km:96 ()))

let test_counters_pinned () =
  Test_telemetry.with_fresh_telemetry @@ fun () ->
  e8_sweeps ();
  e5_calls ();
  let counters =
    List.filter_map
      (fun (name, v) ->
        match (v : Tel.Metrics.snapshot_value) with
        | Tel.Metrics.SCounter c -> Some (name, c)
        | _ -> None)
      (Tel.Metrics.snapshot ())
    |> List.sort compare
  in
  let spans =
    List.sort_uniq compare
      (List.map (fun e -> e.Tel.Span.ev_name) (Tel.Span.events ()))
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "every counter, exactly"
    [
      ("cost.evaluations", 23.);
      ("cost.replications", 236.);
      ("dse.points_derived", 254.);
      ("dse.points_evaluated", 254.);
      ("dse.points_pruned", 114.);
      ("ir.validate.fast_hits", 9.);
      ("sim.cyclesim.runs", 5.);
      ("sim.dram.bytes_moved", 11_857_920.);
      ("sim.dram.requests", 30_880.);
      ("sim.dram.row_hits", 25_461.);
      ("sim.dram.row_misses", 5_419.);
      ("sim.host.bytes", 11_796_480.);
      ("sim.host.transfers", 10.);
      ("sim.techmap.anneal.accepted", 208_958.);
      ("sim.techmap.anneal.delta_evals", 7_360_331.);
      ("sim.techmap.anneal.moves", 1_793_660.);
      ("sim.techmap.runs", 5.);
    ]
    counters;
  Alcotest.(check (list string))
    "every span name"
    [
      "cost.evaluate"; "cost.limits"; "cost.replicate"; "cost.resource_model";
      "cost.throughput"; "dse.explore"; "dse.point"; "front.derive";
      "ir.analysis"; "ir.validate"; "sim.cyclesim"; "sim.cyclesim.instance";
      "sim.techmap"; "sim.techmap.elaborate"; "sim.techmap.place";
      "sim.techmap.route";
    ]
    spans

let suite =
  [
    Alcotest.test_case "E5 and E8 work counters and span names pinned" `Quick
      test_counters_pinned;
  ]
