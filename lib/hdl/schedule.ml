(** Pipeline scheduling of Compute-IR SSA instructions.

    The back-end compiler schedules the SSA instructions of a [pipe]
    function into pipeline stages, creates data and control delay lines,
    and connects functional units in a pipeline (paper Fig 11, "Generate
    core-compute"). The same schedule drives the Verilog emitter, the
    register accounting of the tech-mapper, and the [KPD] pipeline-depth
    figure of the cost model.

    Scheduling is ASAP over the SSA dataflow graph: an operation starts as
    soon as all its operands are available; its result appears
    {!Tytra_ir.Opinfo.latency} cycles later. Every producer→consumer edge
    whose consumer starts later than the producer finishes requires a
    delay line; consumers at different stages share one tapped line per
    producer.

    One walk over the body schedules it. Each named value's producer
    sits in a string hashtable, and each read of it moves its last use
    in place; the named values are sorted by name once, at the end. *)

open Tytra_ir

(** One scheduled datapath operation. *)
type slot = {
  sl_instr : Ast.instr;
  sl_start : int;    (** cycle (stage) at which operands are consumed *)
  sl_finish : int;   (** cycle at which the result is available *)
}

(** A scheduled pipeline for one function. *)
type t = {
  sc_func : string;
  sc_slots : slot list;
  sc_depth : int;
      (** pipeline depth: cycle at which the last result is available *)
  sc_delay_regs : int;
      (** registers spent on data delay lines (bits) *)
  sc_stage_regs : int;
      (** registers inside functional-unit output stages (bits) *)
  sc_values : (string * int) list;
      (** availability cycle of every named value, by name in
          descending order *)
}

(* A named value: the cycle it is ready at, its width, and the latest
   cycle a consumer reads it at. *)
type producer = { p_ready : int; p_width : int; mutable p_last_use : int }

let declare producers name ~ready ~width =
  Symtab.Tbl.replace producers name
    { p_ready = ready; p_width = width; p_last_use = ready }

(* The cycle at which all of [args] are available: the latest ready
   cycle of their producers, 0 for anything else. *)
let rec operands_ready producers at = function
  | [] -> at
  | Ast.Var v :: rest -> (
      match Symtab.Tbl.find producers v with
      | p -> operands_ready producers (Int.max at p.p_ready) rest
      | exception Not_found -> operands_ready producers at rest)
  | (Ast.Glob _ | Ast.Imm _ | Ast.ImmF _) :: rest ->
      operands_ready producers at rest

(* Record that [args] are read at cycle [at]. *)
let rec use_operands producers at = function
  | [] -> ()
  | Ast.Var v :: rest ->
      (match Symtab.Tbl.find producers v with
      | p -> if at > p.p_last_use then p.p_last_use <- at
      | exception Not_found -> ());
      use_operands producers at rest
  | (Ast.Glob _ | Ast.Imm _ | Ast.ImmF _) :: rest ->
      use_operands producers at rest

(* the width of an operation's result *)
let result_width op ty =
  match op with
  | Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt | Ast.CmpGe -> 1
  | _ -> Ty.width ty

(* The slots of [body], reversed onto [acc], declaring each result. *)
let rec schedule_body producers acc = function
  | [] -> acc
  | (Ast.Offset { dst; ty; _ } as i) :: rest ->
      declare producers dst ~ready:0 ~width:(Ty.width ty);
      schedule_body producers
        ({ sl_instr = i; sl_start = 0; sl_finish = 0 } :: acc)
        rest
  | (Ast.Assign { dst; ty; op; args } as i) :: rest ->
      (* the start is the latest operand's ready cycle; every operand is
         then read at it *)
      let start = operands_ready producers 0 args in
      use_operands producers start args;
      let fin = start + Opinfo.latency op ty in
      (match dst with
      | Ast.Dlocal n ->
          declare producers n ~ready:fin ~width:(result_width op ty)
      | Ast.Dglobal _ -> ());
      schedule_body producers
        ({ sl_instr = i; sl_start = start; sl_finish = fin } :: acc)
        rest
  | Ast.Call _ :: rest -> schedule_body producers acc rest

(** [schedule_func d f] schedules the body of [f]. Only [Assign] and
    [Offset] instructions take part; [Call]s are scheduled by composition
    (see {!schedule_lane}). Offsets are available at cycle 0 — their
    buffering happens upstream of the datapath (offset buffers, costed
    separately). *)
let schedule_func (_d : Ast.design) (f : Ast.func) : t =
  let producers =
    Symtab.Tbl.create (List.length f.fn_params + List.length f.fn_body)
  in
  (* parameters and offsets available at cycle 0 *)
  List.iter
    (fun (n, ty) -> declare producers n ~ready:0 ~width:(Ty.width ty))
    f.fn_params;
  let slots = List.rev (schedule_body producers [] f.fn_body) in
  let depth = List.fold_left (fun a s -> Int.max a s.sl_finish) 0 slots in
  (* data delay lines: one tapped register chain per producer, long enough
     to reach its latest consumer *)
  let delay_regs =
    Symtab.Tbl.fold
      (fun _ p acc -> acc + (Int.max 0 (p.p_last_use - p.p_ready) * p.p_width))
      producers 0
  in
  (* functional-unit internal stage registers: latency × result width *)
  let stage_regs =
    List.fold_left
      (fun acc s ->
        match s.sl_instr with
        | Ast.Assign { ty; op; _ } ->
            acc + (Opinfo.latency op ty * result_width op ty)
        | _ -> acc)
      0 slots
  in
  (* every named value's ready cycle, by name in descending order *)
  let values = Array.make (Symtab.Tbl.length producers) ("", 0) in
  ignore
    (Symtab.Tbl.fold
       (fun n p i ->
         values.(i) <- (n, p.p_ready);
         i + 1)
       producers 0);
  Array.stable_sort (fun (a, _) (b, _) -> String.compare b a) values;
  {
    sc_func = f.fn_name;
    sc_slots = slots;
    sc_depth = depth;
    sc_delay_regs = delay_regs;
    sc_stage_regs = stage_regs;
    sc_values = Array.to_list values;
  }

(** [schedule_lane d pes] — serial composition of the PEs forming one lane
    of a (possibly coarse-grained) pipeline: total depth is the sum, and
    register costs accumulate. *)
let schedule_lane (d : Ast.design) (pes : Ast.func list) : t =
  let scheds = List.map (schedule_func d) pes in
  match scheds with
  | [] ->
      { sc_func = "<empty>"; sc_slots = []; sc_depth = 0; sc_delay_regs = 0;
        sc_stage_regs = 0; sc_values = [] }
  | first :: _ ->
      List.fold_left
        (fun acc s ->
          {
            acc with
            sc_slots = acc.sc_slots @ s.sc_slots;
            sc_depth = acc.sc_depth + s.sc_depth;
            sc_delay_regs = acc.sc_delay_regs + s.sc_delay_regs;
            sc_stage_regs = acc.sc_stage_regs + s.sc_stage_regs;
          })
        { first with sc_func = String.concat "+" (List.map (fun f -> f.Ast.fn_name) pes) }
        (List.tl scheds)

(** Stages grouped by start cycle, for display and for the Verilog
    emitter's stage-by-stage code layout. *)
let by_stage (t : t) : (int * slot list) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find tbl s.sl_start with Not_found -> [] in
      Hashtbl.replace tbl s.sl_start (s :: l))
    t.sc_slots;
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp fmt (t : t) =
  Format.fprintf fmt "schedule %s: depth=%d delay-regs=%d stage-regs=%d@\n"
    t.sc_func t.sc_depth t.sc_delay_regs t.sc_stage_regs;
  List.iter
    (fun (stage, slots) ->
      Format.fprintf fmt "  [%3d] %s@\n" stage
        (String.concat " | "
           (List.map (fun s -> Tytra_ir.Pprint.instr_to_string s.sl_instr) slots)))
    (by_stage t)
