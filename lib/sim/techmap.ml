(** Technology mapper — the detailed, slow elaboration that plays the role
    of vendor synthesis in this reproduction (see DESIGN.md §2).

    Where the analytic cost model (in [tytra_cost]) evaluates closed-form
    expressions per instruction, the tech-mapper {e elaborates} the design:
    it expands every scheduled instruction into device primitives (ALUT
    cells with carry chains, 18×18 DSP tiles, block-RAM macros), allocates
    BRAM at block granularity, packs glue logic, and runs a
    simulated-annealing placement of the resulting netlist to estimate the
    achievable clock. Its outputs are the "Actual" rows of the paper's
    Table II and the synthesis points from which the cost model's
    expressions are fitted (paper Fig 9).

    Determinism: all noise comes from {!Prng} seeded by
    (design, device, resource class). *)

open Tytra_ir

module Log = (val Logs.src_log (Logs.Src.create "tytra.techmap"))

(* ------------------------------------------------------------------ *)
(* Primitive elaboration rules (ALUT / DSP / reg cells per operation)  *)
(* ------------------------------------------------------------------ *)

let ceil_div a b = (a + b - 1) / b

(** ALUT cells for one functional unit. These integer rules are the
    device-level "truth" the cost model's fitted polynomials approximate:
    e.g. unsigned division elaborates to one restoring stage per quotient
    bit, [w + 4] ALUTs per stage less end-stage optimizations — the
    quadratic trend of the paper's Fig 9. *)
let alut_cells (op : Ast.op) (ty : Ty.t) : int =
  let w = Ty.width ty in
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
        let tiles = ceil_div w 18 in
        if tiles <= 1 then 4 else ((tiles - 1) * 2 * w) + 20
    | Ast.Div | Ast.Rem ->
        (* w restoring stages of (w+4) ALUTs, minus shared end-stage
           logic: w^2 + 4w - 3w/10 - 10 ≈ the paper's x^2+3.7x-10.6 *)
        max 2 ((w * w) + (4 * w) - (3 * w / 10) - 10)
    | Ast.Sqrt -> max 2 ((w / 2 * (w + 3)) - 6)
    | Ast.And | Ast.Or | Ast.Xor -> ceil_div w 2
    | Ast.Not -> ceil_div w 8 + 1
    | Ast.Shl | Ast.Shr ->
        (* barrel shifter; constant shifts are free wiring but the IR
           does not distinguish, so assume variable *)
        let stages = max 1 (int_of_float (ceil (log (float_of_int w) /. log 2.))) in
        ceil_div (w * stages) 2
    | Ast.Min | Ast.Max -> w + ceil_div w 2
    | Ast.Abs -> if Ty.is_signed ty then w else 0
    | Ast.Neg -> w
    | Ast.CmpEq | Ast.CmpNe -> ceil_div w 3 + 1
    | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt | Ast.CmpGe -> ceil_div w 2 + 1
    | Ast.Select -> ceil_div w 2
    | Ast.Mov -> 0

(** DSP tiles for one functional unit (18×18 multiplier granularity;
    above one tile, partial products pair across half-DSP columns). *)
let dsp_cells (op : Ast.op) (ty : Ty.t) : int =
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

(** Constant per-instance infrastructure. *)
let stream_ctrl_aluts = 58
let stream_ctrl_regs = 94
let top_glue_aluts = 26
let top_glue_regs = 40
let lane_glue_aluts = 9
let lane_glue_regs = 12

(* ------------------------------------------------------------------ *)
(* Netlist construction                                                *)
(* ------------------------------------------------------------------ *)

type netlist = {
  n_cells : int;                   (** abstract placeable cells *)
  n_edges : (int * int) array;     (** connectivity for placement *)
}

(* Build an abstract connectivity graph: each instruction occupies a
   contiguous run of cells chained internally; dataflow edges connect the
   producer's last cell to the consumer's first. *)
let build_netlist (d : Ast.design) (pes : Ast.func list) : netlist =
  let edges = ref [] in
  let count = ref 0 in
  let alloc n =
    let base = !count in
    count := !count + max 1 n;
    for k = base + 1 to base + n - 1 do
      edges := (k - 1, k) :: !edges
    done;
    base
  in
  List.iter
    (fun (f : Ast.func) ->
      let producer = Hashtbl.create 16 in
      List.iter
        (fun (n, ty) -> Hashtbl.replace producer n (alloc (Ty.width ty / 6 + 1)))
        f.fn_params;
      List.iter
        (fun (i : Ast.instr) ->
          match i with
          | Ast.Offset { dst; ty; src; _ } ->
              let base = alloc (Ty.width ty / 6 + 1) in
              (match src with
              | Ast.Var v -> (
                  match Hashtbl.find_opt producer v with
                  | Some p -> edges := (p, base) :: !edges
                  | None -> ())
              | _ -> ());
              Hashtbl.replace producer dst base
          | Ast.Assign { dst; ty; op; args } ->
              let n = max 1 (alut_cells op ty) in
              let base = alloc n in
              List.iter
                (function
                  | Ast.Var v -> (
                      match Hashtbl.find_opt producer v with
                      | Some p -> edges := (p, base) :: !edges
                      | None -> ())
                  | _ -> ())
                args;
              (match dst with
              | Ast.Dlocal nm -> Hashtbl.replace producer nm (base + n - 1)
              | Ast.Dglobal _ -> ())
          | Ast.Call _ -> ())
        f.fn_body)
    pes;
  ignore d;
  { n_cells = max 1 !count; n_edges = Array.of_list !edges }

(* ------------------------------------------------------------------ *)
(* Placement by simulated annealing                                    *)
(* ------------------------------------------------------------------ *)

type placement_result = {
  pl_avg_wire : float;    (** mean Manhattan edge length after annealing *)
  pl_grid : int;
  pl_moves : int;
  pl_accepted : int;      (** accepted swaps (uphill included) *)
}

(* Shared anneal bookkeeping, published once per run — never
   per-iteration, so the hot loop carries no telemetry overhead. *)
let publish_anneal_metrics ~moves ~accepted ~temp0 =
  Tytra_telemetry.Metrics.add "sim.techmap.anneal.moves" (float_of_int moves);
  Tytra_telemetry.Metrics.add "sim.techmap.anneal.accepted"
    (float_of_int accepted);
  Tytra_telemetry.Metrics.observe "sim.techmap.anneal.acceptance_rate"
    (float_of_int accepted /. float_of_int (max 1 moves));
  Tytra_telemetry.Metrics.set "sim.techmap.anneal.temp_start" temp0;
  Tytra_telemetry.Metrics.set "sim.techmap.anneal.temp_final"
    (temp0 /. float_of_int (max 1 moves))

(* How often (at most) the annealer cross-checks its running total
   against a from-scratch recompute. Wirelength is integer arithmetic,
   so any nonzero drift is a bug; the check consumes no PRNG state. The
   effective interval stretches with the edge count so the O(edges)
   recompute stays a bounded fraction of total anneal work on large
   netlists. *)
let drift_check_interval = 8192

(** [place ~rng ~effort nl] — delta-wirelength annealing
    (DESIGN.md §10): [effort] passes of random swap moves over the
    netlist on a linearly cooling schedule. Cached per-cell
    incident-length sums make the before-cost of a swap two O(1)
    lookups, and only the edges touching the two swapped cells are
    recomputed; a periodic full recompute guards against drift. The
    data layout is tuned for the random-index access pattern of
    annealing: each cell's position (x, y packed in one int),
    incident-length sum and adjacency bounds live in one 4-int record
    (a single cache line), and each adjacency entry packs the edge
    index with the far endpoint, so a degree-d move touches ~2 + d lines
    instead of ~4 + 3d, and placement cost scales with swap locality
    instead of netlist size. The test suite holds a full-recompute
    oracle to it: same PRNG draws, same accept decisions, bit-identical
    [pl_avg_wire]. *)
let place ~(rng : Prng.t) ~(effort : int) (nl : netlist) :
    placement_result =
  let n = nl.n_cells in
  let grid = int_of_float (ceil (sqrt (float_of_int n))) in
  (* cell records, 4 ints per cell:
       [4c]   packed position: x in bits 16.., y in bits 0..15
       [4c+1] incident-length sum (the O(1) before-cost)
       [4c+2] adjacency segment start in [adj]
       [4c+3] adjacency segment end (exclusive) *)
  let crec = Array.make (4 * n) 0 in
  for i = 0 to n - 1 do
    crec.(4 * i) <- ((i mod grid) lsl 16) lor (i / grid)
  done;
  let manhattan pu pv =
    abs ((pu lsr 16) - (pv lsr 16)) + abs ((pu land 0xFFFF) - (pv land 0xFFFF))
  in
  let ne = Array.length nl.n_edges in
  (* packed endpoints for the cold loops and the drift check: src in
     bits 31.., dst in bits 0..30 — no tuple loads off the hot path *)
  let eend = Array.make ne 0 in
  Array.iteri (fun ei (a, b) -> eend.(ei) <- (a lsl 31) lor b) nl.n_edges;
  let len_of ei =
    let e = eend.(ei) in
    manhattan crec.(4 * (e lsr 31)) crec.(4 * (e land 0x7FFFFFFF))
  in
  (* CSR adjacency; each entry packs (edge index lsl 31) lor far
     endpoint, so the hot loop never consults a separate endpoint
     table: the near endpoint is the swapped cell itself *)
  let deg = Array.make (n + 1) 0 in
  Array.iter
    (fun (a, b) ->
      if a < n && b < n then begin
        deg.(a + 1) <- deg.(a + 1) + 1;
        deg.(b + 1) <- deg.(b + 1) + 1
      end)
    nl.n_edges;
  let off = deg in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let fill = Array.sub off 0 n in
  let adj = Array.make off.(n) 0 in
  Array.iteri
    (fun ei (a, b) ->
      if a < n && b < n then begin
        adj.(fill.(a)) <- (ei lsl 31) lor b;
        fill.(a) <- fill.(a) + 1;
        adj.(fill.(b)) <- (ei lsl 31) lor a;
        fill.(b) <- fill.(b) + 1
      end)
    nl.n_edges;
  for i = 0 to n - 1 do
    crec.((4 * i) + 2) <- off.(i);
    crec.((4 * i) + 3) <- off.(i + 1)
  done;
  (* cached edge lengths — the invariant the drift check guards *)
  let elen = Array.make ne 0 in
  let total = ref 0 in
  for ei = 0 to ne - 1 do
    let l = len_of ei in
    elen.(ei) <- l;
    total := !total + l
  done;
  (* per-cell incident-length sums, kept exact by per-edge deltas on
     commit (a self-loop counts twice, matching cost_around) *)
  Array.iteri
    (fun ei (a, b) ->
      if a < n && b < n then begin
        crec.((4 * a) + 1) <- crec.((4 * a) + 1) + elen.(ei);
        crec.((4 * b) + 1) <- crec.((4 * b) + 1) + elen.(ei)
      end)
    nl.n_edges;
  let max_deg =
    let m = ref 0 in
    for i = 0 to n - 1 do
      m := max !m (off.(i + 1) - off.(i))
    done;
    !m
  in
  (* scratch for the recomputed lengths of one move's touched edges *)
  let scratch = Array.make (max 1 (2 * max_deg)) 0 in
  let moves = effort * n in
  let temp0 = 4.0 +. (float_of_int grid /. 4.0) in
  let accepted = ref 0 in
  let delta_evals = ref 0 in
  let drift = ref 0 in
  (* amortize the O(edges) drift recompute: at least every
     drift_check_interval moves on small netlists, every ~4 passes over
     the edges on large ones *)
  let check_every = max drift_check_interval (4 * ne) in
  for m = 0 to moves - 1 do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then begin
      (* Unsafe accesses throughout the move: every index is in range
         by construction (the safe initialisation loops above would
         have raised otherwise). *)
      let a4 = 4 * a and b4 = 4 * b in
      let pa = Array.unsafe_get crec a4 in
      let pb = Array.unsafe_get crec b4 in
      let before =
        Array.unsafe_get crec (a4 + 1) + Array.unsafe_get crec (b4 + 1)
      in
      Array.unsafe_set crec a4 pb;
      Array.unsafe_set crec b4 pa;
      let lo_a = Array.unsafe_get crec (a4 + 2) in
      let hi_a = Array.unsafe_get crec (a4 + 3) in
      let lo_b = Array.unsafe_get crec (b4 + 2) in
      let hi_b = Array.unsafe_get crec (b4 + 3) in
      (* after-cost: recompute only the touched edges. The near
         endpoint's new position is already in a register (pb for a's
         edges, pa for b's); only the far endpoint is loaded. *)
      let after = ref 0 in
      let s = ref 0 in
      for k = lo_a to hi_a - 1 do
        let po =
          Array.unsafe_get crec (4 * (Array.unsafe_get adj k land 0x7FFFFFFF))
        in
        let l =
          abs ((pb lsr 16) - (po lsr 16))
          + abs ((pb land 0xFFFF) - (po land 0xFFFF))
        in
        Array.unsafe_set scratch !s l;
        incr s;
        after := !after + l
      done;
      for k = lo_b to hi_b - 1 do
        let po =
          Array.unsafe_get crec (4 * (Array.unsafe_get adj k land 0x7FFFFFFF))
        in
        let l =
          abs ((pa lsr 16) - (po lsr 16))
          + abs ((pa land 0xFFFF) - (po land 0xFFFF))
        in
        Array.unsafe_set scratch !s l;
        incr s;
        after := !after + l
      done;
      delta_evals := !delta_evals + !s;
      let dc = !after - before in
      let t = temp0 *. (1.0 -. (float_of_int m /. float_of_int moves)) in
      let accept =
        dc <= 0
        || (t > 0.01 && Prng.float rng < exp (-.float_of_int dc /. t))
      in
      if accept then begin
        (* commit: apply per-edge deltas to both caches. An edge shared
           by a and b appears in both segments; its second visit sees a
           zero delta, so the caches stay exact. A self-loop updates the
           same sum twice, matching its double weight. *)
        let s = ref 0 in
        for k = lo_a to hi_a - 1 do
          let entry = Array.unsafe_get adj k in
          let ei = entry lsr 31 in
          let l = Array.unsafe_get scratch !s in
          incr s;
          let dl = l - Array.unsafe_get elen ei in
          if dl <> 0 then begin
            Array.unsafe_set elen ei l;
            Array.unsafe_set crec (a4 + 1)
              (Array.unsafe_get crec (a4 + 1) + dl);
            let o = 4 * (entry land 0x7FFFFFFF) + 1 in
            Array.unsafe_set crec o (Array.unsafe_get crec o + dl)
          end
        done;
        for k = lo_b to hi_b - 1 do
          let entry = Array.unsafe_get adj k in
          let ei = entry lsr 31 in
          let l = Array.unsafe_get scratch !s in
          incr s;
          let dl = l - Array.unsafe_get elen ei in
          if dl <> 0 then begin
            Array.unsafe_set elen ei l;
            Array.unsafe_set crec (b4 + 1)
              (Array.unsafe_get crec (b4 + 1) + dl);
            let o = 4 * (entry land 0x7FFFFFFF) + 1 in
            Array.unsafe_set crec o (Array.unsafe_get crec o + dl)
          end
        done;
        total := !total + dc;
        incr accepted
      end
      else begin
        (* revert *)
        Array.unsafe_set crec a4 pa;
        Array.unsafe_set crec b4 pb
      end
    end;
    (* periodic full-recompute drift check; consumes no PRNG state *)
    if (m + 1) mod check_every = 0 then begin
      let fresh = ref 0 in
      for ei = 0 to ne - 1 do
        fresh := !fresh + len_of ei
      done;
      let d = abs (!fresh - !total) in
      if d > !drift then drift := d;
      total := !fresh
    end
  done;
  publish_anneal_metrics ~moves ~accepted:!accepted ~temp0;
  Tytra_telemetry.Metrics.add "sim.techmap.anneal.delta_evals"
    (float_of_int !delta_evals);
  Tytra_telemetry.Metrics.set "sim.techmap.anneal.drift"
    (float_of_int !drift);
  let nedges = max 1 ne in
  {
    pl_avg_wire = float_of_int !total /. float_of_int nedges;
    pl_grid = grid;
    pl_moves = moves;
    pl_accepted = !accepted;
  }

(* ------------------------------------------------------------------ *)
(* Full tech-map run                                                   *)
(* ------------------------------------------------------------------ *)

type report = {
  tm_usage : Tytra_device.Resources.usage;
  tm_fmax_mhz : float;
  tm_cells : int;
  tm_avg_wire : float;
  tm_device : string;
  tm_design : string;
}

let pp_report fmt r =
  Format.fprintf fmt "%s on %s: %a, Fmax %.1f MHz (%d cells, wire %.2f)"
    r.tm_design r.tm_device Tytra_device.Resources.pp r.tm_usage r.tm_fmax_mhz
    r.tm_cells r.tm_avg_wire

(** Map one functional unit in isolation — the "synthesis experiment" used
    for calibration (paper Fig 9 was generated from exactly such runs at
    18, 32 and 64 bits). *)
let map_unit ?(device = Tytra_device.Device.stratixv_gsd8) (op : Ast.op)
    (ty : Ty.t) : Tytra_device.Resources.usage =
  let rng =
    Prng.of_string
      (Printf.sprintf "unit:%s:%s:%s" device.Tytra_device.Device.dev_name
         (Ast.op_to_string op) (Ty.to_string ty))
  in
  let aluts = alut_cells op ty in
  (* synthesis noise on glue-heavy units only; carry-chain structures map
     exactly *)
  let aluts =
    match op with
    | Ast.Div | Ast.Rem | Ast.Sqrt ->
        int_of_float (Float.round (float_of_int aluts *. Prng.noise rng 0.004))
    | _ -> aluts
  in
  let regs = Opinfo.latency op ty * Ty.width ty in
  {
    Tytra_device.Resources.aluts;
    regs;
    bram_bits = 0;
    bram_blocks = 0;
    dsps = dsp_cells op ty;
  }

(** Effort level for the placement annealer (passes over the netlist).
    [`Fast] for tests, [`Full] for the Table II / speed-claim runs. *)
let effort_passes = function `Fast -> 4 | `Normal -> 40 | `Full -> 220

(** [run ~device ~effort d] — elaborate, pack, allocate and place design
    [d] for [device]; returns the detailed resource/Fmax report. This is
    the expensive path (seconds for multi-lane designs at [`Full] effort);
    compare with the sub-millisecond analytic estimator. *)
let run ?(device = Tytra_device.Device.stratixv_gsd8) ?(effort = `Normal)
    (d : Ast.design) : report =
  Tytra_telemetry.Span.with_ ~name:"sim.techmap"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str d.Ast.d_name);
        ("device", Tytra_telemetry.Span.Str device.Tytra_device.Device.dev_name);
        ("effort", Tytra_telemetry.Span.Int (effort_passes effort)) ]
  @@ fun () ->
  Tytra_telemetry.Metrics.incr "sim.techmap.runs";
  let summary = Config_tree.classify d in
  let pe_names = summary.Config_tree.cs_pes in
  let pes = List.filter_map (Ast.find_func d) pe_names in
  let rng =
    Prng.of_string
      (Printf.sprintf "techmap:%s:%s" device.Tytra_device.Device.dev_name
         d.Ast.d_name)
  in
  (* --- datapath cells, per PE instance --- *)
  let aluts = ref 0 and regs = ref 0 and dsps = ref 0 in
  List.iter
    (fun (f : Ast.func) ->
      let sched = Tytra_hdl.Schedule.schedule_func d f in
      List.iter
        (fun (i : Ast.instr) ->
          match i with
          | Ast.Assign { op = (Ast.Shl | Ast.Shr) as op; ty;
                         args = [ _; Ast.Imm _ ]; _ } ->
              (* constant shift: wiring only; the stage register remains *)
              regs := !regs + (Opinfo.latency op ty * Ty.width ty)
          | Ast.Assign { op; ty; _ } ->
              aluts := !aluts + alut_cells op ty;
              dsps := !dsps + dsp_cells op ty;
              let rw =
                match op with
                | Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt
                | Ast.CmpGe -> 1
                | _ -> Ty.width ty
              in
              regs := !regs + (Opinfo.latency op ty * rw)
          | _ -> ())
        f.fn_body;
      regs := !regs + sched.Tytra_hdl.Schedule.sc_delay_regs;
      (* valid chain *)
      regs := !regs + sched.Tytra_hdl.Schedule.sc_depth + 1;
      aluts := !aluts + lane_glue_aluts;
      regs := !regs + lane_glue_regs)
    pes;
  (* --- offset buffers: BRAM at block granularity, or registers --- *)
  let bram_bits = ref 0 and bram_blocks = ref 0 in
  let block_bits = device.Tytra_device.Device.bram_block_bits in
  List.iter
    (fun f ->
      List.iter
        (fun (b : Tytra_hdl.Offsetbuf.buf) ->
          if b.Tytra_hdl.Offsetbuf.ob_in_bram then begin
            (* physical mapping: width-wise slices of M20K/BRAM36; the
               usable bits are the window bits, blocks round up *)
            bram_bits := !bram_bits + b.Tytra_hdl.Offsetbuf.ob_bits;
            bram_blocks :=
              !bram_blocks + ceil_div b.Tytra_hdl.Offsetbuf.ob_bits block_bits;
            (* address/control logic per BRAM window *)
            aluts := !aluts + 11;
            regs := !regs + 18
          end
          else
            regs := !regs + b.Tytra_hdl.Offsetbuf.ob_bits)
        (Tytra_hdl.Offsetbuf.of_func f))
    pes;
  (* --- stream control and top glue --- *)
  let nstreams = List.length d.Ast.d_streams in
  aluts := !aluts + (nstreams * stream_ctrl_aluts) + top_glue_aluts;
  regs := !regs + (nstreams * stream_ctrl_regs) + top_glue_regs;
  (* --- packing/synthesis variation --- *)
  let aluts_f = float_of_int !aluts *. Prng.noise rng 0.035 in
  let regs_f = float_of_int !regs *. Prng.noise rng 0.045 in
  let bram_f = float_of_int !bram_bits *. Prng.noise rng 0.004 in
  (* DSP merging: synthesis occasionally shares/repacks DSP tiles *)
  let dsps_v =
    if !dsps > 4 && Prng.float rng < 0.5 then
      !dsps - 1 - Prng.int rng (max 1 (!dsps / 8))
    else !dsps
  in
  let usage =
    {
      Tytra_device.Resources.aluts = int_of_float (Float.round aluts_f);
      regs = int_of_float (Float.round regs_f);
      bram_bits = int_of_float (Float.round bram_f);
      bram_blocks = !bram_blocks;
      dsps = dsps_v;
    }
  in
  (* --- placement and timing closure --- *)
  let nl =
    Tytra_telemetry.Span.with_ ~name:"sim.techmap.elaborate"
      (fun () -> build_netlist d pes)
  in
  let pl =
    Tytra_telemetry.Span.with_ ~name:"sim.techmap.place"
      ~attrs:[ ("cells", Tytra_telemetry.Span.Int nl.n_cells) ]
      (fun () -> place ~rng ~effort:(effort_passes effort) nl)
  in
  Log.debug (fun m ->
      m "placed %s: %d cells, %d/%d swaps accepted, avg wire %.2f"
        d.Ast.d_name nl.n_cells pl.pl_accepted pl.pl_moves pl.pl_avg_wire);
  (* routing estimate: wirelength-driven congestion and utilization
     derate the achievable clock (under its own span so the route share
     of a synth shows up next to elaborate/place in traces) *)
  let fmax =
    Tytra_telemetry.Span.with_ ~name:"sim.techmap.route"
      ~attrs:[ ("cells", Tytra_telemetry.Span.Int nl.n_cells) ]
      (fun () ->
        let util = Tytra_device.Resources.max_utilization device usage in
        let base = device.Tytra_device.Device.fmax_base_mhz in
        let congestion = pl.pl_avg_wire /. float_of_int (max 1 pl.pl_grid) in
        let fmax =
          base
          /. (1.0 +. (0.55 *. congestion))
          *. (1.0 -. (0.25 *. Float.min 1.0 util))
          *. Prng.noise rng 0.02
        in
        Float.max (0.4 *. base) (Float.min base fmax))
  in
  {
    tm_usage = usage;
    tm_fmax_mhz = fmax;
    tm_cells = nl.n_cells;
    tm_avg_wire = pl.pl_avg_wire;
    tm_device = device.Tytra_device.Device.dev_name;
    tm_design = d.Ast.d_name;
  }
