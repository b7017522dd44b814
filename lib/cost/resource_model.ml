(** Analytical resource-utilization cost model (paper §V-A).

    Closed-form, per-instruction expressions — first or second order in
    the bit-width, calibrated once per device family from a handful of
    synthesis experiments (see {!Fit} and experiment E1/Fig 9) — are
    accumulated over the IR together with the structural information
    implied by the type of each IR function: pipeline delay lines, offset
    windows, stream control, replication across lanes.

    The accumulation is structural IR parsing only (fast); contrast with
    the tech-mapper's netlist elaboration + placement (slow, the paper's
    70 s SDAccel comparison point). *)

open Tytra_ir

let ceil_div a b = (a + b - 1) / b

(** Calibrated per-op expressions for a device family. The defaults below
    are the shipped calibration for Stratix-V-class fabrics; E1
    regenerates the div/mul entries from three synthesis points and
    verifies held-out widths. *)
type calibration = {
  cal_family : string;
  div_aluts : Fit.poly;          (** quadratic in bit-width *)
  mul_alut_segments : Fit.piecewise; (** piecewise-linear in bit-width *)
  mul_dsp_breaks : int list;     (** DSP step thresholds (18, 36, 54) *)
}

(** The paper's fitted quadratic for unsigned integer division on
    Stratix-V: x² + 3.7x − 10.6 (Fig 9). *)
let default_calibration : calibration =
  {
    cal_family = "stratix-v";
    div_aluts = [| -10.6; 3.7; 1.0 |];
    mul_alut_segments =
      {
        Fit.pw_breaks = [ 18.0; 36.0; 54.0 ];
        pw_segments =
          [ [| 4.0 |]; [| 20.0; 2.0 |]; [| 20.0; 4.0 |]; [| 20.0; 6.0 |] ];
      };
    mul_dsp_breaks = [ 18; 36; 54 ];
  }

(** ALUTs for one instruction at type [ty] — the closed-form table. *)
let alut_cost ?(cal = default_calibration) (op : Ast.op) (ty : Ty.t) : int =
  let w = Ty.width ty in
  let wf = float_of_int w in
  if Ty.is_float ty then
    match op with
    | Ast.Add | Ast.Sub -> if w = 32 then 480 else 1050
    | Ast.Mul -> if w = 32 then 130 else 410
    | Ast.Div -> if w = 32 then 820 else 3150
    | Ast.Sqrt -> if w = 32 then 460 else 1900
    | Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt | Ast.CmpGe
      -> 60
    | Ast.Min | Ast.Max -> 90
    | Ast.Abs | Ast.Neg -> 2
    | Ast.Select -> ceil_div w 2
    | Ast.Mov -> 0
    | _ -> 40
  else
    match op with
    | Ast.Add | Ast.Sub -> w
    | Ast.Mul ->
        (* piecewise-linear: the (tiles−1)·2w + 20 trend with
           discontinuities at multiples of 18 bits *)
        int_of_float (Float.round (Fit.piecewise_eval cal.mul_alut_segments wf))
    | Ast.Div | Ast.Rem ->
        (* calibrated quadratic (paper: x² + 3.7x − 10.6) *)
        max 2 (int_of_float (Float.round (Fit.eval cal.div_aluts wf)))
    | Ast.Sqrt -> max 2 (int_of_float (Float.round ((wf /. 2.0 *. (wf +. 3.0)) -. 6.0)))
    | Ast.And | Ast.Or | Ast.Xor -> ceil_div w 2
    | Ast.Not -> ceil_div w 8 + 1
    | Ast.Shl | Ast.Shr ->
        let stages = max 1 (int_of_float (ceil (log wf /. log 2.))) in
        ceil_div (w * stages) 2
    | Ast.Min | Ast.Max -> w + ceil_div w 2
    | Ast.Abs -> if Ty.is_signed ty then w else 0
    | Ast.Neg -> w
    | Ast.CmpEq | Ast.CmpNe -> ceil_div w 3 + 1
    | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt | Ast.CmpGe -> ceil_div w 2 + 1
    | Ast.Select -> ceil_div w 2
    | Ast.Mov -> 0

(** DSP elements for one instruction: a step function of the bit-width
    with jumps at the 18×18-tile boundaries (paper Fig 9, right axis). *)
let dsp_cost ?(cal = default_calibration) (op : Ast.op) (ty : Ty.t) : int =
  ignore cal;
  let w = Ty.width ty in
  if Ty.is_float ty then
    match op with
    | Ast.Mul -> if w = 32 then 2 else 8
    | Ast.Add | Ast.Sub -> if w = 32 then 0 else 2
    | _ -> 0
  else
    match op with
    | Ast.Mul ->
        let tiles = ceil_div w 18 in
        if tiles <= 1 then 1 else 2 * tiles
    | _ -> 0

(** Registers for one instruction: its pipeline stage registers. *)
let reg_cost (op : Ast.op) (ty : Ty.t) : int =
  let rw =
    match op with
    | Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt | Ast.CmpGe ->
        1
    | _ -> Ty.width ty
  in
  Opinfo.latency op ty * rw

(** Structural constants (stream control, glue). Shared with the
    tech-mapper's accounting — both describe the same generated
    architecture; the tech-mapper then adds packing/placement effects. *)
let stream_ctrl_aluts = 58
let stream_ctrl_regs = 94
let top_glue_aluts = 26
let top_glue_regs = 40
let lane_glue_aluts = 9
let lane_glue_regs = 12

(** A full design estimate. *)
type estimate = {
  est_usage : Tytra_device.Resources.usage;
  est_fmax_mhz : float;
  est_per_lane : Tytra_device.Resources.usage;
      (** marginal usage of one additional lane (drives DSE walls) *)
  est_device : string;
  est_design : string;
}

let pp_estimate fmt e =
  Format.fprintf fmt "%s on %s: %a, Fmax %.1f MHz" e.est_design e.est_device
    Tytra_device.Resources.pp e.est_usage e.est_fmax_mhz

(* usage of a single PE function: datapath + delay lines + windows *)
let pe_usage_uncached ?(cal = default_calibration) (d : Ast.design)
    (f : Ast.func) : Tytra_device.Resources.usage =
  let aluts = ref 0 and regs = ref 0 and dsps = ref 0 in
  List.iter
    (fun (i : Ast.instr) ->
      match i with
      | Ast.Assign { op = (Ast.Shl | Ast.Shr) as op; ty; args = [ _; Ast.Imm _ ]; _ } ->
          (* constant shifts are pure wiring: no ALUTs, just the stage reg *)
          regs := !regs + reg_cost op ty
      | Ast.Assign { op; ty; _ } ->
          aluts := !aluts + alut_cost ~cal op ty;
          dsps := !dsps + dsp_cost ~cal op ty;
          regs := !regs + reg_cost op ty
      | _ -> ())
    f.fn_body;
  let sched = Tytra_hdl.Schedule.schedule_func d f in
  regs := !regs + sched.Tytra_hdl.Schedule.sc_delay_regs
          + sched.Tytra_hdl.Schedule.sc_depth + 1;
  aluts := !aluts + lane_glue_aluts;
  regs := !regs + lane_glue_regs;
  let bram_bits = ref 0 and bram_blocks = ref 0 in
  List.iter
    (fun (b : Tytra_hdl.Offsetbuf.buf) ->
      if b.Tytra_hdl.Offsetbuf.ob_in_bram then begin
        bram_bits := !bram_bits + b.Tytra_hdl.Offsetbuf.ob_bits;
        (* block count estimated at ideal packing *)
        bram_blocks := !bram_blocks + max 1 (b.Tytra_hdl.Offsetbuf.ob_bits / 20480)
      end
      else regs := !regs + b.Tytra_hdl.Offsetbuf.ob_bits)
    (Tytra_hdl.Offsetbuf.of_func f);
  {
    Tytra_device.Resources.aluts = !aluts;
    regs = !regs;
    bram_bits = !bram_bits;
    bram_blocks = !bram_blocks;
    dsps = !dsps;
  }

(* ------------------------------------------------------------------ *)
(* Stage cache: per-function resource costing                          *)
(* ------------------------------------------------------------------ *)

(* [pe_usage] is a pure function of the PE's body and the calibration:
   scheduling ignores the surrounding design and the offset windows are
   derived from the function alone. Memoizing on a structural digest of
   (function, calibration) makes a lane sweep cost each distinct PE once
   — an L-lane variant re-uses the baseline's @f0 costing, so only the
   lane-dependent parts (stream control, glue, walls) are recomputed per
   variant. {!estimate} looks each distinct PE function up once per
   design, so the digest is not re-taken for every instance. *)
let pe_cache : Tytra_device.Resources.usage Tytra_exec.Cache.t =
  Tytra_exec.Cache.create ~metrics_prefix:"cost.stage_cache.resource"
    ~capacity:1024 ()

let pe_usage ?(cal = default_calibration) (d : Ast.design) (f : Ast.func) :
    Tytra_device.Resources.usage =
  let key =
    Tytra_exec.Cache.digest_key
      [ "pe-usage"; Tytra_exec.Cache.digest_marshal f;
        Tytra_exec.Cache.digest_marshal cal ]
  in
  Tytra_exec.Cache.find_or_add pe_cache ~key (fun () ->
      pe_usage_uncached ~cal d f)

let pe_cache_stats () = Tytra_exec.Cache.stats pe_cache

let clear_pe_cache () =
  Tytra_exec.Cache.clear pe_cache;
  Tytra_exec.Cache.reset_stats pe_cache

(** [estimate ?device ?cal d] — resource estimate for the whole design:
    every PE instance, its offset windows and delay lines, per-stream
    control logic, and top-level glue; plus the utilization-derated clock
    estimate. *)
let estimate ?(device = Tytra_device.Device.stratixv_gsd8)
    ?(cal = default_calibration) (d : Ast.design) : estimate =
  Tytra_telemetry.Span.with_ ~name:"cost.resource_model"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str d.Ast.d_name);
        ("device", Tytra_telemetry.Span.Str device.Tytra_device.Device.dev_name) ]
  @@ fun () ->
  let summary = Config_tree.classify d in
  (* replicated lanes instantiate one PE function many times *)
  let costed = Hashtbl.create 4 in
  let pe_usages =
    List.filter_map
      (fun n ->
        match Hashtbl.find_opt costed n with
        | Some u -> u
        | None ->
            let u = Option.map (pe_usage ~cal d) (Ast.find_func d n) in
            Hashtbl.add costed n u;
            u)
      summary.Config_tree.cs_pes
  in
  let datapath = Tytra_device.Resources.sum pe_usages in
  let nstreams = List.length d.Ast.d_streams in
  let infra =
    {
      Tytra_device.Resources.aluts =
        (nstreams * stream_ctrl_aluts) + top_glue_aluts;
      regs = (nstreams * stream_ctrl_regs) + top_glue_regs;
      bram_bits = 0;
      bram_blocks = 0;
      dsps = 0;
    }
  in
  let usage = Tytra_device.Resources.add datapath infra in
  let lanes = max 1 (List.length pe_usages) in
  let per_lane =
    match pe_usages with
    | u :: _ ->
        (* one more lane adds one PE + its streams' control *)
        let streams_per_lane = max 1 (nstreams / lanes) in
        Tytra_device.Resources.add u
          {
            Tytra_device.Resources.aluts = streams_per_lane * stream_ctrl_aluts;
            regs = streams_per_lane * stream_ctrl_regs;
            bram_bits = 0;
            bram_blocks = 0;
            dsps = 0;
          }
    | [] -> Tytra_device.Resources.zero
  in
  let util = Tytra_device.Resources.max_utilization device usage in
  let fmax = Tytra_device.Device.fmax_mhz device ~alut_util:util in
  {
    est_usage = usage;
    est_fmax_mhz = fmax;
    est_per_lane = per_lane;
    est_device = device.Tytra_device.Device.dev_name;
    est_design = d.Ast.d_name;
  }

(** [calibrate_div synth] — regenerate the division quadratic from three
    synthesis points, exactly as the paper does for Fig 9: [synth w]
    returns the measured ALUTs at bit-width [w]. *)
let calibrate_div (synth : int -> int) : Fit.poly =
  Fit.polyfit ~degree:2
    (List.map (fun w -> (float_of_int w, float_of_int (synth w))) [ 18; 32; 64 ])

(** [calibrate_mul synth] — regenerate the multiplier's piecewise-linear
    ALUT curve from synthesis points across the tiling segments. *)
let calibrate_mul (synth : int -> int) : Fit.piecewise =
  let widths = [ 8; 12; 18; 24; 30; 36; 44; 50; 54; 60; 64 ] in
  Fit.piecewise_fit ~breaks:[ 18.0; 36.0; 54.0 ]
    (List.map (fun w -> (float_of_int w, float_of_int (synth w))) widths)
