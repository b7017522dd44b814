(* Front-end tests: sized vector types, type transformations, the
   correct-by-construction property (every variant computes the baseline
   function), lowering validity, and IR-interpreter agreement. *)

open Tytra_front

let test_vtype_reshape () =
  let t = Vtype.Vect (24, Vtype.Scalar (Tytra_ir.Ty.UInt 18)) in
  (match Vtype.reshape_to 4 t with
  | Ok (Vtype.Vect (4, Vtype.Vect (6, _))) -> ()
  | Ok other -> Alcotest.failf "wrong shape: %s" (Vtype.to_string other)
  | Error e -> Alcotest.fail e);
  (match Vtype.reshape_to 5 t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "5 does not divide 24");
  match Vtype.reshape_to 4 (Vtype.Scalar (Tytra_ir.Ty.UInt 8)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cannot reshape a scalar"

let test_vtype_size_preservation () =
  let t = Vtype.Vect (24, Vtype.Scalar (Tytra_ir.Ty.UInt 18)) in
  match Vtype.reshape_to 6 t with
  | Ok t' ->
      Alcotest.(check int) "size preserved" (Vtype.size t) (Vtype.size t');
      (match Vtype.flatten t' with
      | Ok flat -> Alcotest.(check bool) "flatten inverts" true (Vtype.equal flat t)
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Vtype.divisors 12)

(* [Vtype.divisors] pairs divisors up to √n; the O(n) filter it replaced
   is the oracle, over every n up to 20000 (squares and primes included)
   and at the index-space sizes the DSE sweeps: sides 16 to 96, in two
   and three dimensions. *)
let test_divisors_oracle () =
  let naive n =
    let rec go d acc =
      if d = 0 then acc else go (d - 1) (if n mod d = 0 then d :: acc else acc)
    in
    go n []
  in
  let check n =
    if Vtype.divisors n <> naive n then
      Alcotest.failf "divisors %d: [%s], expected [%s]" n
        (String.concat "; " (List.map string_of_int (Vtype.divisors n)))
        (String.concat "; " (List.map string_of_int (naive n)))
  in
  for n = 1 to 20000 do
    check n
  done;
  List.iter
    (fun side ->
      check (side * side);
      check (side * side * side))
    [ 16; 32; 48; 64; 80; 96 ];
  Alcotest.(check (list int)) "divisors 0" [] (Vtype.divisors 0)

let test_enumerate () =
  let p = Tytra_kernels.Sor.program ~im:4 ~jm:2 ~km:2 () in
  let vs = Transform.enumerate ~max_lanes:8 p in
  Alcotest.(check bool) "has seq" true (List.mem Transform.Seq vs);
  Alcotest.(check bool) "has pipe" true (List.mem Transform.Pipe vs);
  Alcotest.(check bool) "has par8" true (List.mem (Transform.ParPipe 8) vs);
  Alcotest.(check bool) "no par3 (16 % 3 <> 0)" false
    (List.mem (Transform.ParPipe 3) vs);
  Alcotest.(check bool) "all applicable" true
    (List.for_all (Transform.applicable p) vs)

let test_enumerate_vec () =
  let p = Tytra_kernels.Sor.program ~im:4 ~jm:2 ~km:2 () in
  let vs = Transform.enumerate ~max_lanes:4 ~max_vec:2 p in
  Alcotest.(check bool) "has par2-vec2" true
    (List.mem (Transform.ParVecPipe (2, 2)) vs)

let test_lane_bounds () =
  let p = Tytra_kernels.Sor.program ~im:4 ~jm:2 ~km:2 () in
  let b = Transform.lane_bounds p (Transform.ParPipe 4) in
  Alcotest.(check int) "4 lanes" 4 (Array.length b);
  Alcotest.(check bool) "cover in order" true
    (b = [| (0, 4); (4, 8); (8, 12); (12, 16) |])

let test_stencil_offsets () =
  let k = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let offs = Expr.stencil_offsets k.Expr.p_kernel in
  Alcotest.(check (list int)) "p offsets" [ -48; -8; -1; 1; 8; 48 ]
    (List.assoc "p" offs);
  Alcotest.(check (list int)) "rhs no offsets" [] (List.assoc "rhs" offs);
  Alcotest.(check int) "max offset" 48 (Expr.max_offset k.Expr.p_kernel)

let test_check_kernel () =
  let bad =
    {
      Expr.k_name = "bad";
      k_ty = Tytra_ir.Ty.UInt 8;
      k_inputs = [ "x" ];
      k_params = [];
      k_outputs = [ { Expr.o_name = "y"; o_expr = Expr.input "ghost" } ];
      k_reductions = [];
    }
  in
  (match Expr.check_kernel bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undeclared input must fail");
  let empty = { bad with Expr.k_outputs = []; k_inputs = [ "x" ] } in
  (match Expr.check_kernel empty with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "kernel with no outputs must fail");
  (* an input named like output y's port o_y would share its stream,
     memory object and @main parameter at every lane count *)
  let o_y =
    {
      bad with
      Expr.k_inputs = [ "o_y" ];
      k_outputs = [ { Expr.o_name = "y"; o_expr = Expr.input "o_y" } ];
    }
  in
  (match Expr.check_kernel o_y with
  | Error e ->
      Alcotest.(check string) "names the input and the output"
        "input stream \"o_y\" has the port name of output \"y\"" e
  | Ok () -> Alcotest.fail "an input named o_y beside an output y must fail");
  (* nor like the local out_y that holds output y's value in @f0 *)
  let out_y =
    {
      o_y with
      Expr.k_inputs = [ "out_y" ];
      k_outputs = [ { Expr.o_name = "y"; o_expr = Expr.input "out_y" } ];
    }
  in
  (match Expr.check_kernel out_y with
  | Error e ->
      Alcotest.(check string) "names the input and the output"
        "input stream \"out_y\" has the value name of output \"y\"" e
  | Ok () -> Alcotest.fail "an input named out_y beside an output y must fail");
  match
    Expr.check_kernel
      {
        o_y with
        Expr.k_inputs = [ "x" ];
        k_params = [ ("out_y", 2L) ];
        k_outputs = [ { Expr.o_name = "y"; o_expr = Expr.input "x" } ];
      }
  with
  | Error e ->
      Alcotest.(check string) "names the scalar and the output"
        "scalar \"out_y\" has the value name of output \"y\"" e
  | Ok () -> Alcotest.fail "a scalar named out_y beside an output y must fail"

(* v = u + u1: lane 10 of u and lane 0 of u1 are both named u10, so no
   variant of 11 or more PEs has a valid design *)
let uu1 () =
  Fortran.parse ~name:"uu1" ~sizes:[ ("im", 16); ("jm", 16) ]
    "do j = 1, jm\n  do i = 1, im\n    v(i,j) = u(i,j) + u1(i,j)\n  end do\nend do\n"

let test_lane_clash () =
  let p = uu1 () in
  Alcotest.(check (option string)) "no clash at 10 PEs" None
    (Transform.lane_clash p 10);
  Alcotest.(check (option string)) "u10 clashes from 11 PEs on"
    (Some "lane 10 of stream u and lane 0 of stream u1 are both named u10")
    (Transform.lane_clash p 11);
  Alcotest.(check bool) "par8 applicable" true
    (Transform.applicable p (Transform.ParPipe 8));
  Alcotest.(check bool) "par16 refused" false
    (Transform.applicable p (Transform.ParPipe 16));
  Alcotest.(check bool) "par2-vec8 refused" false
    (Transform.applicable p (Transform.ParVecPipe (2, 8)));
  (* every enumerated variant lowers to a valid design *)
  let vs = Transform.enumerate ~max_lanes:64 ~max_vec:8 p in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Transform.to_string v ^ " below 11 PEs")
        true
        (Transform.pes v <= 10);
      ignore (Lower.lower p v))
    vs;
  Alcotest.(check bool) "par8-vec1 space kept" true
    (List.mem (Transform.ParPipe 8) vs);
  (match Lower.lower p (Transform.ParPipe 16) with
  | _ -> Alcotest.fail "par16 must not lower"
  | exception Invalid_argument m ->
      Alcotest.(check bool) ("lower names the clash: " ^ m) true
        (String.ends_with ~suffix:"are both named u10" m));
  (* a suffix that no lane index spells never clashes: u0 (lane 0 of u
     is u0, but no lane of u0 is a lane of u), u01 (leading zero), u1x *)
  List.iter
    (fun other ->
      let q =
        {
          p with
          Expr.p_kernel =
            {
              p.Expr.p_kernel with
              Expr.k_inputs = [ "u"; other ];
              k_outputs =
                [ { Expr.o_name = "v";
                    o_expr = Expr.(input "u" +: input other) } ];
            };
        }
      in
      Alcotest.(check (option string)) (other ^ " never clashes") None
        (Transform.lane_clash q 256))
    [ "u0"; "u01"; "u1x" ];
  (* a scalar parameter is passed on unsuffixed beside the lanes' inputs *)
  let scalar =
    {
      p with
      Expr.p_kernel =
        {
          p.Expr.p_kernel with
          Expr.k_params = [ ("u3", 1L) ];
          k_outputs =
            [ { Expr.o_name = "v";
                o_expr = Expr.(input "u" +: input "u1" +: param "u3") } ];
        };
    }
  in
  Alcotest.(check (option string)) "scalar u3 is free at 3 PEs" None
    (Transform.lane_clash scalar 3);
  Alcotest.(check (option string)) "scalar u3 is lane 3 of u"
    (Some "lane 3 of stream u is named like the scalar parameter u3")
    (Transform.lane_clash scalar 4)

(* ---- the central correctness property ---- *)

let prop_variant_equals_baseline =
  QCheck.Test.make ~name:"map^par (map^pipe f) . reshapeTo == map f" ~count:60
    Gen.arb_program_variant
    (fun (p, v) ->
      QCheck.assume (Transform.applicable p v);
      let env = Tytra_kernels.Workloads.random_env p in
      let b = Eval.run_baseline p env in
      let r = Eval.run_variant p v env in
      b.Eval.outputs = r.Eval.outputs && b.Eval.reductions = r.Eval.reductions)

let prop_lowered_designs_validate =
  QCheck.Test.make ~name:"lowered variants validate" ~count:40
    Gen.arb_program_variant
    (fun (p, v) ->
      QCheck.assume (Transform.applicable p v);
      let d = Lower.lower p v in
      Tytra_ir.Validate.is_valid d)

let prop_interp_matches_eval_pipe =
  QCheck.Test.make ~name:"IR interp == evaluator (single pipeline)" ~count:40
    Gen.arb_program
    (fun p ->
      let env = Tytra_kernels.Workloads.random_env p in
      let golden = Eval.run_baseline p env in
      let d = Lower.lower p Transform.Pipe in
      let r = Tytra_ir.Interp.run d env in
      let outs_per_lane = List.length p.Expr.p_kernel.Expr.k_outputs in
      List.for_all
        (fun (i, (o : Expr.output)) ->
          Tytra_ir.Interp.gathered_output d r ~outputs_per_lane:outs_per_lane
            ~nth:i
          = List.assoc o.Expr.o_name golden.Eval.outputs)
        (List.mapi (fun i o -> (i, o)) p.Expr.p_kernel.Expr.k_outputs)
      && List.for_all
           (fun (r' : Expr.reduction) ->
             List.assoc r'.Expr.r_name r.Tytra_ir.Interp.ir_globals
             = List.assoc r'.Expr.r_name golden.Eval.reductions)
           p.Expr.p_kernel.Expr.k_reductions)

(* multi-lane interp equality holds exactly for stencil-free kernels *)
let prop_interp_multilane_no_stencil =
  QCheck.Test.make ~name:"IR interp multi-lane == evaluator (no stencil)"
    ~count:30 Gen.arb_program
    (fun p ->
      let has_stencil = Expr.max_offset p.Expr.p_kernel > 0 in
      QCheck.assume (not has_stencil);
      QCheck.assume (Expr.points p mod 4 = 0);
      let env = Tytra_kernels.Workloads.random_env p in
      let golden = Eval.run_baseline p env in
      let d = Lower.lower p (Transform.ParPipe 4) in
      let chunk = Expr.points p / 4 in
      let env4 =
        List.concat_map
          (fun (s, a) ->
            List.init 4 (fun i ->
                (Printf.sprintf "%s%d" s i, Array.sub a (i * chunk) chunk)))
          env
      in
      let r = Tytra_ir.Interp.run d env4 in
      let outs_per_lane = List.length p.Expr.p_kernel.Expr.k_outputs in
      List.for_all
        (fun (i, (o : Expr.output)) ->
          Tytra_ir.Interp.gathered_output d r ~outputs_per_lane:outs_per_lane
            ~nth:i
          = List.assoc o.Expr.o_name golden.Eval.outputs)
        (List.mapi (fun i o -> (i, o)) p.Expr.p_kernel.Expr.k_outputs))

let prop_reshape_type_size_preserved =
  QCheck.Test.make ~name:"reshape preserves total size" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 1 16))
    (fun (n, l) ->
      let t = Vtype.Vect (n, Vtype.Scalar (Tytra_ir.Ty.UInt 18)) in
      match Vtype.reshape_to l t with
      | Ok t' -> Vtype.size t' = n
      | Error _ -> n mod l <> 0 || l <= 0)

let test_cse_shares_subterms () =
  (* reltmp feeds both the output and the reduction: NI must count the
     shared datapath once *)
  let p = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let d = Lower.lower p Transform.Pipe in
  let q = Tytra_ir.Analysis.params d in
  Alcotest.(check bool) "NI < 25 (shared reltmp)" true (q.Tytra_ir.Analysis.ni < 25)

let suite =
  [
    Alcotest.test_case "reshape_to" `Quick test_vtype_reshape;
    Alcotest.test_case "size preservation" `Quick test_vtype_size_preservation;
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "divisors equal the O(n) filter" `Quick
      test_divisors_oracle;
    Alcotest.test_case "variant enumeration" `Quick test_enumerate;
    Alcotest.test_case "vectorized enumeration" `Quick test_enumerate_vec;
    Alcotest.test_case "lane bounds" `Quick test_lane_bounds;
    Alcotest.test_case "stencil offsets" `Quick test_stencil_offsets;
    Alcotest.test_case "kernel checking" `Quick test_check_kernel;
    Alcotest.test_case "lane names never clash" `Quick test_lane_clash;
    Alcotest.test_case "CSE shares subterms" `Quick test_cse_shares_subterms;
    QCheck_alcotest.to_alcotest prop_variant_equals_baseline;
    QCheck_alcotest.to_alcotest prop_lowered_designs_validate;
    QCheck_alcotest.to_alcotest prop_interp_matches_eval_pipe;
    QCheck_alcotest.to_alcotest prop_interp_multilane_no_stencil;
    QCheck_alcotest.to_alcotest prop_reshape_type_size_preserved;
  ]
