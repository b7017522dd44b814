(* Tests for the HDL layer: scheduling invariants, offset-buffer sizing,
   Verilog emission structure, and the MaxJ wrapper. *)

open Tytra_ir
open Tytra_hdl

let sor_design () =
  Tytra_front.Lower.lower
    (Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 ())
    Tytra_front.Transform.Pipe

(* ---- schedule ---- *)

let test_schedule_invariants () =
  let d = sor_design () in
  let f = Ast.find_func_exn d "f0" in
  let s = Schedule.schedule_func d f in
  (* every operand is ready at or before its consumer starts *)
  let ready = s.Schedule.sc_values in
  List.iter
    (fun (sl : Schedule.slot) ->
      match sl.Schedule.sl_instr with
      | Ast.Assign { args; _ } ->
          List.iter
            (function
              | Ast.Var v -> (
                  match List.assoc_opt v ready with
                  | Some t ->
                      if t > sl.Schedule.sl_start then
                        Alcotest.failf "%s consumed at %d but ready at %d" v
                          sl.Schedule.sl_start t
                  | None -> Alcotest.failf "unknown value %s" v)
              | _ -> ())
            args
      | _ -> ())
    s.Schedule.sc_slots;
  (* depth equals the max finish time and matches the analysis *)
  let maxf =
    List.fold_left (fun a sl -> max a sl.Schedule.sl_finish) 0
      s.Schedule.sc_slots
  in
  Alcotest.(check int) "depth = max finish" maxf s.Schedule.sc_depth;
  Alcotest.(check int) "analysis kpd agrees" (Analysis.kpd d)
    s.Schedule.sc_depth;
  Alcotest.(check bool) "delay regs non-negative" true
    (s.Schedule.sc_delay_regs >= 0)

let test_schedule_latency_respected () =
  (* a mul (latency 3 at ui18) followed by an add: add starts at >= 3 *)
  let src =
    {|
define void @main (ui18 %a, ui18 %b) seq {
  %m = mul ui18 %a, %b
  %s = add ui18 %m, %a
}
|}
  in
  let d = Validate.check_exn (Parser.parse src) in
  let f = Ast.find_func_exn d "main" in
  let s = Schedule.schedule_func d f in
  (match
     List.find_opt
       (fun (sl : Schedule.slot) ->
         match sl.Schedule.sl_instr with
         | Ast.Assign { op = Ast.Add; _ } -> true
         | _ -> false)
       s.Schedule.sc_slots
   with
  | Some sl ->
      Alcotest.(check int) "add starts at mul latency"
        (Opinfo.latency Ast.Mul (Ty.UInt 18))
        sl.Schedule.sl_start
  | None -> Alcotest.fail "no add scheduled");
  (* the %a operand of the add needs a delay line: 3 stages x 18 bits *)
  Alcotest.(check bool) "delay line present" true
    (s.Schedule.sc_delay_regs >= 3 * 18)

let test_by_stage_sorted () =
  let d = sor_design () in
  let s = Schedule.schedule_func d (Ast.find_func_exn d "f0") in
  let stages = List.map fst (Schedule.by_stage s) in
  Alcotest.(check bool) "sorted" true (List.sort compare stages = stages)

let test_schedule_lane_composition () =
  let src =
    {|
define void @pipeA (ui18 %x) pipe { %out_a = add ui18 %x, 1 }
define void @pipeB (ui18 %x) pipe { %m = mul ui18 %x, %x
  %out_b = add ui18 %m, 1 }
define void @main (ui18 %x) seq {
  call @pipeA (%x) pipe
  call @pipeB (%x) pipe
}
|}
  in
  let d = Validate.check_exn (Parser.parse src) in
  let a = Ast.find_func_exn d "pipeA" and b = Ast.find_func_exn d "pipeB" in
  let sa = Schedule.schedule_func d a and sb = Schedule.schedule_func d b in
  let lane = Schedule.schedule_lane d [ a; b ] in
  Alcotest.(check int) "serial depth adds"
    (sa.Schedule.sc_depth + sb.Schedule.sc_depth)
    lane.Schedule.sc_depth

(* ---- offset buffers ---- *)

let test_offsetbuf_window () =
  let d = sor_design () in
  let bufs = Offsetbuf.of_func (Ast.find_func_exn d "f0") in
  Alcotest.(check int) "one windowed stream" 1 (List.length bufs);
  let b = List.hd bufs in
  Alcotest.(check int) "min off" (-48) b.Offsetbuf.ob_min_off;
  Alcotest.(check int) "max off" 48 b.Offsetbuf.ob_max_off;
  Alcotest.(check int) "window elems" 97 b.Offsetbuf.ob_elems;
  Alcotest.(check int) "bits" (97 * 18) b.Offsetbuf.ob_bits;
  Alcotest.(check bool) "in BRAM" true b.Offsetbuf.ob_in_bram;
  Alcotest.(check int) "lookahead" 48 (Offsetbuf.max_lookahead bufs)

let test_offsetbuf_small_in_regs () =
  let src =
    {|
define void @f (ui8 %x) pipe {
  %a = offset ui8 %x, +1
  %out_y = add ui8 %a, %x
}
define void @main (ui8 %x) seq { call @f (%x) pipe }
|}
  in
  let d = Validate.check_exn (Parser.parse src) in
  let bufs = Offsetbuf.of_func (Ast.find_func_exn d "f") in
  Alcotest.(check bool) "register window" true
    (not (List.hd bufs).Offsetbuf.ob_in_bram);
  Alcotest.(check int) "no bram bits" 0 (Offsetbuf.bram_bits bufs);
  Alcotest.(check int) "reg bits" (2 * 8) (Offsetbuf.reg_bits bufs)

(* ---- verilog ---- *)

let count_substr hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_verilog_structure () =
  let d = sor_design () in
  let v = Verilog.emit d in
  Alcotest.(check int) "balanced module/endmodule"
    (count_substr v "\nmodule ") (count_substr v "endmodule");
  Alcotest.(check bool) "PE module present" true
    (count_substr v "module sor_pipe_f0" = 1);
  Alcotest.(check bool) "stream control present" true
    (count_substr v "module sor_pipe_stream_control" = 1);
  Alcotest.(check bool) "top present" true
    (count_substr v "module sor_pipe_top" = 1);
  Alcotest.(check bool) "window buffer emitted" true
    (count_substr v "win_p" > 0);
  Alcotest.(check bool) "valid pipeline" true (count_substr v "vld" > 0);
  Alcotest.(check bool) "reduction accumulator" true
    (count_substr v "acc_sorErrAcc" > 0)

let test_verilog_lanes () =
  let d4 =
    Tytra_front.Lower.lower
      (Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 ())
      (Tytra_front.Transform.ParPipe 4)
  in
  let v = Verilog.emit d4 in
  Alcotest.(check int) "4 lane instances" 4 (count_substr v "u_lane");
  (* one PE module shared by all lanes *)
  Alcotest.(check int) "single PE module" 1
    (count_substr v "module sor_par4_pipe_f0 ")

let test_verilog_div_uses_primitive () =
  let src =
    {|
define void @f (ui18 %x, ui18 %y) pipe {
  %q = div ui18 %x, %y
  %out_q = mov ui18 %q
}
define void @main (ui18 %x, ui18 %y) seq { call @f (%x, %y) pipe }
|}
  in
  let d = Validate.check_exn (Parser.parse src) in
  let v = Verilog.emit d in
  Alcotest.(check bool) "instantiates tytra_div_pipe" true
    (count_substr v "tytra_div_pipe" >= 2)
  (* instantiation + primitive definition *)

let test_verilog_config () =
  let d = sor_design () in
  let c = Verilog.emit_config d in
  Alcotest.(check bool) "KNL defined" true (count_substr c "`define TYTRA_KNL 1" = 1);
  Alcotest.(check bool) "NGS defined" true (count_substr c "`define TYTRA_NGS 288" = 1);
  Alcotest.(check bool) "class C2" true (count_substr c "\"C2\"" = 1)

let test_verilog_write_files () =
  let d = sor_design () in
  let dir = Filename.temp_file "tytra" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let v, vh = Verilog.write ~dir d in
  Alcotest.(check bool) "verilog file exists" true (Sys.file_exists v);
  Alcotest.(check bool) "config file exists" true (Sys.file_exists vh)

let test_maxj_wrapper () =
  let d = sor_design () in
  let m = Maxj.emit d in
  Alcotest.(check bool) "kernel class" true
    (count_substr m "class Sor_pipeKernel extends Kernel" = 1);
  Alcotest.(check bool) "inputs wired" true (count_substr m "io.input" >= 2);
  Alcotest.(check bool) "outputs wired" true (count_substr m "io.output" >= 1);
  Alcotest.(check bool) "HDL node" true (count_substr m "HDLNode" >= 1);
  Alcotest.(check bool) "dfeUInt(18)" true (count_substr m "dfeUInt(18)" >= 1)

let test_primitive_library_selection () =
  let lib =
    Primitives.library
      ~need:{ Primitives.need_div = false; need_sqrt = false; need_window = false }
  in
  Alcotest.(check bool) "fifo always present" true
    (count_substr lib "tytra_sync_fifo" >= 1);
  Alcotest.(check bool) "no divider when unused" true
    (count_substr lib "tytra_div_pipe" = 0)

(* ---- the scheduler against its oracle ---- *)

let same_schedule (a : Schedule.t) (b : Schedule.t) =
  a.sc_func = b.sc_func
  && List.equal
       (fun (x : Schedule.slot) (y : Schedule.slot) ->
         x.sl_instr == y.sl_instr && x.sl_start = y.sl_start
         && x.sl_finish = y.sl_finish)
       a.sc_slots b.sc_slots
  && a.sc_depth = b.sc_depth
  && a.sc_delay_regs = b.sc_delay_regs
  && a.sc_stage_regs = b.sc_stage_regs
  && a.sc_values = b.sc_values

(* the names of the functions of [d] whose schedule or depth differs
   from the oracle's, after counting them into [n] *)
let schedule_diffs n what (d : Ast.design) =
  let sy = Symtab.of_design d in
  List.filter_map
    (fun (f : Ast.func) ->
      incr n;
      if not
           (same_schedule (Schedule.schedule_func d f)
              (Oracle_schedule.schedule_func d f))
      then Some (what ^ " @" ^ f.fn_name)
      else if
        Analysis.pe_depth_sym sy f <> Oracle_schedule.pe_depth_sym sy f
      then Some (what ^ " @" ^ f.fn_name ^ " (depth)")
      else None)
    d.d_funcs

(* every function of the four kernels at 1 to 64 lanes *)
let test_schedule_oracle_kernels () =
  let n = ref 0 in
  let diffs =
    List.concat_map
      (fun (name, p) ->
        List.concat_map
          (fun lanes ->
            let v =
              if lanes = 1 then Tytra_front.Transform.Pipe
              else Tytra_front.Transform.ParPipe lanes
            in
            if Tytra_front.Transform.applicable p v then
              schedule_diffs n
                (Printf.sprintf "%s x%d" name lanes)
                (Tytra_front.Lower.lower p v)
            else [])
          [ 1; 2; 4; 8; 16; 32; 64 ])
      [
        ("sor", Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ());
        ("hotspot", Tytra_kernels.Hotspot.program ~rows:64 ~cols:64 ());
        ("lavamd", Tytra_kernels.Lavamd.program ~boxes:16 ());
        ("srad", Tytra_kernels.Srad.program ~rows:64 ~cols:64 ());
      ]
  in
  Alcotest.(check (list string))
    (Printf.sprintf "differences over %d functions" !n) [] diffs

(* every function of 300 generated programs, each lowered to a variant
   it admits *)
let test_schedule_oracle_generated () =
  let st = Random.State.make [| 0x5c4ed |] in
  let n = ref 0 in
  let diffs =
    List.concat
      (List.init 300 (fun i ->
           let p = Gen.gen_program st in
           let v = Gen.gen_applicable_variant p st in
           schedule_diffs n
             (Printf.sprintf "program %d (%s)" i
                (Tytra_front.Transform.to_string v))
             (Tytra_front.Lower.lower p v)))
  in
  Alcotest.(check (list string))
    (Printf.sprintf "differences over %d functions" !n) [] diffs

let suite =
  [
    Alcotest.test_case "schedule invariants" `Quick test_schedule_invariants;
    Alcotest.test_case "oracle: schedule of the kernels" `Quick
      test_schedule_oracle_kernels;
    Alcotest.test_case "oracle: schedule of generated programs" `Quick
      test_schedule_oracle_generated;
    Alcotest.test_case "latency respected" `Quick test_schedule_latency_respected;
    Alcotest.test_case "by_stage sorted" `Quick test_by_stage_sorted;
    Alcotest.test_case "lane composition" `Quick test_schedule_lane_composition;
    Alcotest.test_case "offset window sizing" `Quick test_offsetbuf_window;
    Alcotest.test_case "small window in registers" `Quick
      test_offsetbuf_small_in_regs;
    Alcotest.test_case "verilog structure" `Quick test_verilog_structure;
    Alcotest.test_case "verilog lane replication" `Quick test_verilog_lanes;
    Alcotest.test_case "verilog div primitive" `Quick
      test_verilog_div_uses_primitive;
    Alcotest.test_case "config include" `Quick test_verilog_config;
    Alcotest.test_case "write files" `Quick test_verilog_write_files;
    Alcotest.test_case "maxj wrapper" `Quick test_maxj_wrapper;
    Alcotest.test_case "primitive library selection" `Quick
      test_primitive_library_selection;
  ]

(* ---- testbench generation ---- *)

let test_testbench_generation () =
  let p = Tytra_kernels.Sor.program ~im:4 ~jm:3 ~km:3 () in
  let d = Tytra_front.Lower.lower p Tytra_front.Transform.Pipe in
  let env = Tytra_kernels.Workloads.random_env p in
  let dir = Filename.temp_file "tytra_tb" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let tb = Testbench.write ~dir d env in
  Alcotest.(check bool) "tb file exists" true (Sys.file_exists tb);
  let read f = 
    let ic = open_in f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic; s
  in
  let tbs = read tb in
  Alcotest.(check bool) "instantiates DUT" true (count_substr tbs "sor_pipe_f0 dut" = 1);
  Alcotest.(check bool) "self-checking" true (count_substr tbs "MISMATCH" >= 1);
  Alcotest.(check bool) "readmemh inputs" true (count_substr tbs "$readmemh" >= 3);
  (* vector files present and consistent with the interpreter *)
  let hex_lines f = String.split_on_char '\n' (read f) |> List.filter (fun l -> l <> "") in
  let p_hex = hex_lines (Filename.concat dir "sor_pipe_p.hex") in
  Alcotest.(check int) "36 input vectors" 36 (List.length p_hex);
  let exp_hex = hex_lines (Filename.concat dir "sor_pipe_out_p_expected.hex") in
  Alcotest.(check int) "36 expected vectors" 36 (List.length exp_hex);
  let golden = Tytra_front.Eval.run_baseline p env in
  let gold = List.assoc "p" golden.Tytra_front.Eval.outputs in
  List.iteri
    (fun i h ->
      Alcotest.(check string)
        (Printf.sprintf "expected[%d]" i)
        (Printf.sprintf "%05Lx" gold.(i))
        h)
    exp_hex

let test_testbench_rejects_multilane () =
  let p = Tytra_kernels.Sor.program ~im:4 ~jm:3 ~km:3 () in
  let d = Tytra_front.Lower.lower p (Tytra_front.Transform.ParPipe 2) in
  match Testbench.write ~dir:"/tmp" d [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "multi-lane testbench should be rejected"

let suite =
  suite
  @ [
      Alcotest.test_case "testbench generation" `Quick
        test_testbench_generation;
      Alcotest.test_case "testbench rejects multi-lane" `Quick
        test_testbench_rejects_multilane;
    ]

let test_const_shift_free_in_verilog () =
  (* a constant shift costs no ALUTs in either model *)
  let src =
    {|
define void @f (ui16 %x) pipe {
  %a = shl ui16 %x, 3
  %out_y = mov ui16 %a
}
define void @main (ui16 %x) seq { call @f (%x) pipe }
|}
  in
  let d = Validate.check_exn (Parser.parse src) in
  let est =
    (Tytra_cost.Resource_model.estimate d)
      .Tytra_cost.Resource_model.est_usage
  in
  let base =
    (* same design, no datapath at all *)
    let src0 = {|
define void @f (ui16 %x) pipe { %out_y = mov ui16 %x }
define void @main (ui16 %x) seq { call @f (%x) pipe }
|} in
    (Tytra_cost.Resource_model.estimate (Validate.check_exn (Parser.parse src0)))
      .Tytra_cost.Resource_model.est_usage
  in
  Alcotest.(check int) "constant shift adds no ALUTs"
    base.Tytra_device.Resources.aluts est.Tytra_device.Resources.aluts

let suite =
  suite
  @ [ Alcotest.test_case "constant shift is free" `Quick
        test_const_shift_free_in_verilog ]
