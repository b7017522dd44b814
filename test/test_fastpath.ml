(* Differential tests of the production paths (DESIGN.md §10) against
   the slower twins they replaced, which live in this directory as
   oracles:

   - derived variants (Lower.template / Lower.derive) pretty-print
     byte-identically to a full Lower.lower and validate clean;
   - the indexed one-pass validator agrees with the multi-pass
     Oracle_validate on valid and broken designs, reports errors in
     source order, and deduplicates identical (loc, msg) pairs;
   - the delta-wirelength annealer reproduces Oracle_place exactly;
   - DSE selections (best / pareto) equal those of lowering and costing
     every variant from scratch. *)

open Tytra_ir
open Tytra_front

let contains s substr =
  let n = String.length substr in
  let rec find i =
    i + n <= String.length s && (String.sub s i n = substr || find (i + 1))
  in
  find 0

let kernels () =
  [
    ("sor", Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ());
    ("hotspot", Tytra_kernels.Hotspot.program ~rows:16 ~cols:16 ());
    ("lavamd", Tytra_kernels.Lavamd.program ~boxes:16 ());
    ("srad", Tytra_kernels.Srad.program ~rows:16 ~cols:16 ());
  ]

let variants p = Transform.enumerate ~max_lanes:8 ~max_vec:4 p

(* the widest space a DSE sweep builds: up to 512 PEs *)
let wide_variants p = Transform.enumerate ~max_lanes:64 ~max_vec:8 p

(* ---- derived-variant equivalence ---- *)

let test_derive_prints_identically () =
  List.iter
    (fun (name, p) ->
      let tpl = Lower.template p in
      List.iter
        (fun v ->
          let full = Pprint.design_to_string (Lower.lower p v) in
          let fast = Pprint.design_to_string (Lower.derive tpl v) in
          Alcotest.(check string)
            (Printf.sprintf "%s %s derived == lowered" name
               (Transform.to_string v))
            full fast)
        (wide_variants p))
    (kernels ())

let test_derive_validates_clean () =
  List.iter
    (fun (name, p) ->
      let tpl = Lower.template p in
      List.iter
        (fun v ->
          let d = Lower.derive tpl v in
          Alcotest.(check int)
            (Printf.sprintf "%s %s derived validates clean" name
               (Transform.to_string v))
            0
            (List.length (Validate.check d)))
        (variants p))
    (kernels ())

let test_derive_rejects_bad_delta () =
  (* a broken wiring delta must still be caught even though the PE body
     is trusted: point one port at a missing stream *)
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let tpl = Lower.template p in
  let d = Lower.derive tpl (Transform.ParPipe 2) in
  let broken =
    {
      d with
      Ast.d_ports =
        (match d.Ast.d_ports with
        | p0 :: rest -> { p0 with Ast.pt_stream = "nosuch" } :: rest
        | [] -> []);
    }
  in
  Alcotest.(check bool)
    "delta validation catches broken wiring" true
    (List.exists
       (fun e -> contains (Validate.error_to_string e) "unknown stream")
       (Validate.check_delta ~trusted:[ "f0" ] broken))

(* ---- indexed validator vs the multi-pass oracle ---- *)

let err_set errs =
  List.sort_uniq compare (List.map Validate.error_to_string errs)

let check_agree name d =
  Alcotest.(check (list string))
    (name ^ ": indexed and reference validators agree")
    (err_set (Oracle_validate.check d))
    (err_set (Validate.check d))

let test_validator_agrees_on_valid () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun v -> check_agree name (Lower.lower p v))
        (variants p))
    (kernels ())

let test_validator_agrees_on_broken () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let d = Lower.lower p (Transform.ParPipe 4) in
  let break label f = (label, f d) in
  List.iter
    (fun (label, broken) -> check_agree label broken)
    [
      break "no main"
        (fun d ->
          {
            d with
            Ast.d_funcs =
              List.filter (fun f -> f.Ast.fn_name <> "main") d.Ast.d_funcs;
          });
      break "dangling stream"
        (fun d ->
          {
            d with
            Ast.d_ports =
              List.map
                (fun pt -> { pt with Ast.pt_stream = "nosuch" })
                d.Ast.d_ports;
          });
      break "duplicate function"
        (fun d -> { d with Ast.d_funcs = d.Ast.d_funcs @ d.Ast.d_funcs });
      break "dangling mem"
        (fun d ->
          {
            d with
            Ast.d_streams =
              List.map
                (fun s -> { s with Ast.so_mem = "nosuch" })
                d.Ast.d_streams;
          });
    ]

let test_errors_in_source_order () =
  (* a Manage-IR defect must be reported before a Compute-IR defect,
     regardless of discovery strategy *)
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let d = Lower.lower p Transform.Pipe in
  let broken =
    {
      d with
      Ast.d_mems =
        List.map (fun m -> { m with Ast.mo_size = -1 }) d.Ast.d_mems;
      Ast.d_funcs =
        List.filter (fun f -> f.Ast.fn_name <> "f0") d.Ast.d_funcs;
    }
  in
  match Validate.check broken with
  | first :: _ ->
      Alcotest.(check bool)
        "first error is the memory-object one" true
        (contains (Validate.error_to_string first) "size must be positive")
  | [] -> Alcotest.fail "expected errors"

let test_errors_deduplicated () =
  (* the same (loc, msg) pair produced many times — e.g. every lane's
     port referencing one missing stream family — appears once *)
  let open Ast in
  let d =
    {
      d_name = "dup_errs";
      d_mems = [];
      d_streams = [];
      d_ports = [];
      d_globals = [];
      d_funcs =
        [
          {
            fn_name = "main";
            fn_params = [];
            fn_kind = Seq;
            fn_body =
              [
                Assign
                  {
                    dst = Dlocal "a";
                    ty = Ty.UInt 32;
                    op = Add;
                    args = [ Var "x"; Var "x" ];
                  };
                Assign
                  {
                    dst = Dlocal "b";
                    ty = Ty.UInt 32;
                    op = Add;
                    args = [ Var "x"; Var "x" ];
                  };
              ];
          };
        ];
    }
  in
  let errs = Validate.check d in
  let undefined_x =
    List.filter
      (fun e -> contains (Validate.error_to_string e) "undefined local %x")
      errs
  in
  Alcotest.(check int) "four uses of %x report once" 1
    (List.length undefined_x)

(* ---- annealer equivalence ---- *)

let test_annealer_bit_identical () =
  (* delta-wirelength annealing must reproduce the reference placement
     exactly: same PRNG draws, same accept decisions, same final
     wirelength — across kernels and lane counts *)
  List.iter
    (fun (name, p) ->
      List.iter
        (fun v ->
          let d = Lower.lower p v in
          let summary = Config_tree.classify d in
          let pes =
            List.filter_map (Ast.find_func d)
              summary.Config_tree.cs_pes
          in
          let nl = Tytra_sim.Techmap.build_netlist d pes in
          let run place =
            let rng = Tytra_sim.Prng.of_string ("anneal:" ^ name) in
            place ~rng ~effort:4 nl
          in
          let f = run Tytra_sim.Techmap.place and s = run Oracle_place.place in
          let open Tytra_sim.Techmap in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s %s pl_avg_wire identical" name
               (Transform.to_string v))
            s.pl_avg_wire f.pl_avg_wire;
          Alcotest.(check int)
            (Printf.sprintf "%s %s accepted swaps identical" name
               (Transform.to_string v))
            s.pl_accepted f.pl_accepted)
        [ Transform.Pipe; Transform.ParPipe 4 ])
    (kernels ())

let test_annealer_no_drift () =
  (* the periodic full recompute must agree with the running delta total:
     wirelength is integer arithmetic, so drift is exactly zero *)
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let d = Lower.lower p (Transform.ParPipe 4) in
  let summary = Config_tree.classify d in
  let pes =
    List.filter_map (Ast.find_func d) summary.Config_tree.cs_pes
  in
  let nl = Tytra_sim.Techmap.build_netlist d pes in
  Tytra_telemetry.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Tytra_telemetry.Control.set_enabled false)
  @@ fun () ->
  let rng = Tytra_sim.Prng.of_string "anneal:drift" in
  (* enough moves to cross several drift-check intervals *)
  ignore (Tytra_sim.Techmap.place ~rng ~effort:40 nl);
  match Tytra_telemetry.Metrics.gauge_value "sim.techmap.anneal.drift" with
  | Some drift ->
      Alcotest.(check (float 1e-6)) "drift is zero" 0.0 drift
  | None -> Alcotest.fail "drift gauge not published"

(* ---- DSE selections equal a from-scratch lowering of every variant ---- *)

let signature pts =
  List.map
    (fun p ->
      ( Transform.to_string p.Tytra_dse.Dse.dp_variant,
        Tytra_dse.Dse.ekit p,
        Tytra_dse.Dse.area p,
        Pprint.design_to_string p.Tytra_dse.Dse.dp_design ))
    pts

let test_dse_selections_identical () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let config =
    { Tytra_dse.Dse.default_config with
      max_lanes = 8; use_cache = false; prune = false }
  in
  Tytra_dse.Dse.clear_cache ();
  let swept = Tytra_dse.Dse.explore ~config p in
  let lowered =
    List.map
      (fun v ->
        let d = Lower.lower p v in
        {
          Tytra_dse.Dse.dp_variant = v;
          dp_design = d;
          dp_report =
            Tytra_cost.Report.evaluate ~device:config.device ~form:config.form
              ~nki:config.nki d;
        })
      (Transform.enumerate ~max_lanes:config.max_lanes
         ~max_vec:config.max_vec p)
  in
  let selections pts =
    ( Option.map (fun b -> signature [ b ]) (Tytra_dse.Dse.best pts),
      signature (Tytra_dse.Dse.pareto pts) )
  in
  Alcotest.(check bool) "every point identical" true
    (signature swept = signature lowered);
  let best_swept, pareto_swept = selections swept in
  let best_lowered, pareto_lowered = selections lowered in
  Alcotest.(check bool) "best identical" true (best_swept = best_lowered);
  Alcotest.(check bool) "pareto identical" true
    (pareto_swept = pareto_lowered)

let test_derive_counts () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let config =
    { Tytra_dse.Dse.default_config with max_lanes = 8; use_cache = false }
  in
  Tytra_telemetry.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Tytra_telemetry.Control.set_enabled false)
  @@ fun () ->
  let before =
    Option.value ~default:0.0
      (Tytra_telemetry.Metrics.counter_value "dse.points_derived")
  in
  Tytra_dse.Dse.clear_cache ();
  ignore (Tytra_dse.Dse.explore ~config p);
  let after =
    Option.value ~default:0.0
      (Tytra_telemetry.Metrics.counter_value "dse.points_derived")
  in
  Alcotest.(check bool) "derived points counted" true (after > before)

let suite =
  [
    Alcotest.test_case "derived variants pretty-print identically" `Quick
      test_derive_prints_identically;
    Alcotest.test_case "derived variants validate clean" `Quick
      test_derive_validates_clean;
    Alcotest.test_case "delta validation catches broken wiring" `Quick
      test_derive_rejects_bad_delta;
    Alcotest.test_case "validators agree on valid designs" `Quick
      test_validator_agrees_on_valid;
    Alcotest.test_case "validators agree on broken designs" `Quick
      test_validator_agrees_on_broken;
    Alcotest.test_case "errors in source order" `Quick
      test_errors_in_source_order;
    Alcotest.test_case "identical errors deduplicated" `Quick
      test_errors_deduplicated;
    Alcotest.test_case "annealer bit-identical to reference" `Quick
      test_annealer_bit_identical;
    Alcotest.test_case "annealer delta total never drifts" `Quick
      test_annealer_no_drift;
    Alcotest.test_case "DSE selections identical fast vs slow" `Quick
      test_dse_selections_identical;
    Alcotest.test_case "derived points counted" `Quick test_derive_counts;
  ]
