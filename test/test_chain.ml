(* Coarse-grained pipeline (kernel composition) tests: paper Fig 7,
   configurations 3 and 4, end to end. *)

open Tytra_front
open Expr

(* stage 1: damped smoothing; stage 2: threshold + scale against a second
   external stream *)
let smooth =
  {
    k_name = "smooth";
    k_ty = Tytra_ir.Ty.UInt 18;
    k_inputs = [ "x" ];
    k_params = [ ("w", 3L) ];
    k_outputs =
      [ { o_name = "s"; o_expr = param "w" *: (sten "x" (-1) +: input "x" +: sten "x" 1) } ];
    k_reductions = [];
  }

let threshold =
  {
    k_name = "threshold";
    k_ty = Tytra_ir.Ty.UInt 18;
    k_inputs = [ "v"; "gain" ];
    k_params = [ ("cut", 100L) ];
    k_outputs =
      [
        {
          o_name = "y";
          o_expr =
            Select
              ( Bin (Tytra_ir.Ast.CmpGt, input "v", param "cut"),
                input "v" *: input "gain",
                input "v" );
        };
      ];
    k_reductions =
      [ { r_name = "hits"; r_op = Tytra_ir.Ast.Add;
          r_expr =
            Select
              ( Bin (Tytra_ir.Ast.CmpGt, input "v", param "cut"),
                ci 1, ci 0 );
          r_init = 0L } ];
  }

let chain () = Chain.make_exn ~name:"smooth_thresh" ~shape:[ 64 ] [ smooth; threshold ]

let env () =
  let rng = Tytra_sim.Prng.of_string "chain" in
  [ ("x", Array.init 64 (fun _ -> Int64.of_int (Tytra_sim.Prng.int rng 64)));
    ("gain", Array.init 64 (fun _ -> Int64.of_int (1 + Tytra_sim.Prng.int rng 3))) ]

let test_make_checks () =
  (match Chain.make ~name:"c" ~shape:[ 8 ] [ smooth ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "single stage must fail");
  (* intermediate stage with two outputs *)
  let two_out = { smooth with k_outputs = smooth.k_outputs @ smooth.k_outputs } in
  (match Chain.make ~name:"c" ~shape:[ 8 ] [ two_out; threshold ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "multi-output intermediate must fail");
  (* duplicate external stream name *)
  let dup = { threshold with k_inputs = [ "v"; "x" ] } in
  (match Chain.make ~name:"c" ~shape:[ 8 ] [ smooth; dup ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate external stream must fail");
  (* an index space an int cannot count, which used to wrap *)
  let big = 2_700_000 in
  match Chain.make ~name:"c" ~shape:[ big; big; big ] [ smooth; threshold ] with
  | Error e ->
      Alcotest.(check string) "the shape's message"
        (Printf.sprintf
           "index space 2700000x2700000x2700000 has more than %d points" max_int)
        e
  | Ok _ -> Alcotest.fail "an uncountable index space must fail"

let test_eval_composes () =
  let c = chain () in
  let e = env () in
  let r = Chain.eval c e in
  (* reference: run smooth, feed threshold *)
  let s = Eval.run_baseline { p_kernel = smooth; p_shape = [ 64 ] } e in
  let t =
    Eval.run_baseline
      { p_kernel = threshold; p_shape = [ 64 ] }
      (("v", List.assoc "s" s.Eval.outputs) :: e)
  in
  Alcotest.(check bool) "outputs compose" true
    (List.assoc "y" r.Eval.outputs = List.assoc "y" t.Eval.outputs);
  Alcotest.(check bool) "reductions carried" true
    (List.assoc "hits" r.Eval.reductions = List.assoc "hits" t.Eval.reductions)

let test_lower_config3 () =
  let d = Chain.lower (chain ()) Transform.Pipe in
  Alcotest.(check bool) "validates" true (Tytra_ir.Validate.is_valid d);
  let s = Tytra_ir.Config_tree.classify d in
  Alcotest.(check string) "class C2" "C2"
    (Tytra_ir.Config_tree.cclass_to_string s.Tytra_ir.Config_tree.cs_class);
  Alcotest.(check bool) "coarse" true s.Tytra_ir.Config_tree.cs_coarse;
  Alcotest.(check int) "two PEs in the lane" 2
    (List.length s.Tytra_ir.Config_tree.cs_pes);
  (* the intermediate stream never touches global memory: only the
     external streams and the final output are ports *)
  Alcotest.(check int) "3 ports" 3 (List.length d.Tytra_ir.Ast.d_ports)

let test_lower_config4 () =
  let d = Chain.lower (chain ()) (Transform.ParPipe 2) in
  Alcotest.(check bool) "validates" true (Tytra_ir.Validate.is_valid d);
  let s = Tytra_ir.Config_tree.classify d in
  Alcotest.(check string) "class C1" "C1"
    (Tytra_ir.Config_tree.cclass_to_string s.Tytra_ir.Config_tree.cs_class);
  Alcotest.(check bool) "coarse lanes" true s.Tytra_ir.Config_tree.cs_coarse;
  Alcotest.(check int) "4 PEs total" 4
    (List.length s.Tytra_ir.Config_tree.cs_pes)

let test_interp_matches_eval () =
  let c = chain () in
  let e = env () in
  let golden = Chain.eval c e in
  let d = Chain.lower c Transform.Pipe in
  let r = Tytra_ir.Interp.run d e in
  Alcotest.(check int) "one output group" 1
    (List.length r.Tytra_ir.Interp.ir_outputs);
  Alcotest.(check bool) "IR == reference" true
    (snd (List.hd r.Tytra_ir.Interp.ir_outputs)
    = List.assoc "y" golden.Eval.outputs);
  Alcotest.(check int64) "reduction"
    (List.assoc "hits" golden.Eval.reductions)
    (List.assoc "hits" r.Tytra_ir.Interp.ir_globals)

let test_roundtrip_tirl () =
  let d = Chain.lower (chain ()) Transform.Pipe in
  let txt = Tytra_ir.Pprint.design_to_string d in
  Alcotest.(check bool) "returning call printed" true
    (let rec has s sub i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || has s sub (i + 1))
     in
     has txt "%c1 = call @fs0" 0);
  let d2 = Tytra_ir.Parser.parse ~name:d.Tytra_ir.Ast.d_name txt in
  Alcotest.(check bool) "roundtrips" true (Tytra_ir.Ast.equal_design d d2)

let test_analysis_on_chain () =
  let d = Chain.lower (chain ()) Transform.Pipe in
  let q = Tytra_ir.Analysis.params d in
  (* NI sums both stages; KPD is the serial composition of their depths *)
  Alcotest.(check bool) "NI covers both stages" true (q.Tytra_ir.Analysis.ni >= 5);
  let fs0 = Tytra_ir.Ast.find_func_exn d "fs0" in
  let fs1 = Tytra_ir.Ast.find_func_exn d "fs1" in
  let d0 = Tytra_ir.Analysis.pe_depth d fs0
  and d1 = Tytra_ir.Analysis.pe_depth d fs1 in
  Alcotest.(check int) "KPD = sum of stage depths" (d0 + d1)
    q.Tytra_ir.Analysis.kpd;
  (* the chained stream stays on chip: NWPT counts only the 3 ports *)
  Alcotest.(check int) "nwpt" 3 q.Tytra_ir.Analysis.nwpt

let test_cost_and_sim_on_chain () =
  let d = Chain.lower (chain ()) Transform.Pipe in
  let r = Tytra_cost.Report.evaluate ~nki:10 d in
  Alcotest.(check bool) "fits" true r.Tytra_cost.Report.rp_valid;
  let u = r.Tytra_cost.Report.rp_estimate.Tytra_cost.Resource_model.est_usage in
  Alcotest.(check bool) "both stages costed" true
    (u.Tytra_device.Resources.aluts > 100);
  let s = Tytra_sim.Cyclesim.run ~form:Tytra_sim.Cyclesim.B d in
  Alcotest.(check bool) "simulates" true
    (s.Tytra_sim.Cyclesim.r_cycles_per_ki >= 64.0)

let test_verilog_emits_stages () =
  let d = Chain.lower (chain ()) Transform.Pipe in
  let v = Tytra_hdl.Verilog.emit d in
  let count needle hay =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length hay then acc
      else if String.sub hay i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "stage 0 module" 1
    (count "module smooth_thresh_pipe_fs0" v);
  Alcotest.(check int) "stage 1 module" 1
    (count "module smooth_thresh_pipe_fs1" v)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_checks;
    Alcotest.test_case "eval composes stages" `Quick test_eval_composes;
    Alcotest.test_case "lower configuration 3" `Quick test_lower_config3;
    Alcotest.test_case "lower configuration 4" `Quick test_lower_config4;
    Alcotest.test_case "interp == reference" `Quick test_interp_matches_eval;
    Alcotest.test_case "tirl roundtrip (returning call)" `Quick
      test_roundtrip_tirl;
    Alcotest.test_case "analysis on chains" `Quick test_analysis_on_chain;
    Alcotest.test_case "cost & sim on chains" `Quick test_cost_and_sim_on_chain;
    Alcotest.test_case "verilog emits stages" `Quick test_verilog_emits_stages;
  ]

(* ---- properties on random chains ---- *)

let chain_env (c : Chain.t) =
  let n = Chain.points c in
  List.map
    (fun s ->
      let rng = Tytra_sim.Prng.of_string ("chainenv:" ^ s) in
      (s, Array.init n (fun _ -> Int64.of_int (Tytra_sim.Prng.int rng 64))))
    (Chain.external_streams c)

let prop_chain_lowered_validates =
  QCheck.Test.make ~name:"random chains lower to valid IR" ~count:30
    Gen.arb_chain
    (fun c ->
      Tytra_ir.Validate.is_valid (Chain.lower c Transform.Pipe)
      && Tytra_ir.Validate.is_valid (Chain.lower c (Transform.ParPipe 2)))

let prop_chain_interp_matches_eval =
  QCheck.Test.make ~name:"random chains: IR interp == reference" ~count:30
    Gen.arb_chain
    (fun c ->
      let env = chain_env c in
      let golden = Chain.eval c env in
      let d = Chain.lower c Transform.Pipe in
      let r = Tytra_ir.Interp.run d env in
      let last = List.nth c.Chain.ch_stages 1 in
      let got = List.map snd r.Tytra_ir.Interp.ir_outputs in
      let want =
        List.map
          (fun (o : Expr.output) -> List.assoc o.Expr.o_name golden.Eval.outputs)
          last.Expr.k_outputs
      in
      got = want
      && List.for_all
           (fun (r' : Expr.reduction) ->
             List.assoc r'.Expr.r_name r.Tytra_ir.Interp.ir_globals
             = List.assoc r'.Expr.r_name golden.Eval.reductions)
           last.Expr.k_reductions)

let prop_chain_roundtrip =
  QCheck.Test.make ~name:"random chains roundtrip through .tirl" ~count:20
    Gen.arb_chain
    (fun c ->
      let d = Chain.lower c Transform.Pipe in
      let d2 =
        Tytra_ir.Parser.parse ~name:d.Tytra_ir.Ast.d_name
          (Tytra_ir.Pprint.design_to_string d)
      in
      Tytra_ir.Ast.equal_design d d2)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_chain_lowered_validates;
      QCheck_alcotest.to_alcotest prop_chain_interp_matches_eval;
      QCheck_alcotest.to_alcotest prop_chain_roundtrip;
    ]
