(* Differential oracles for [Schedule.schedule_func] and
   [Analysis.pe_depth_sym]: the scheduler they replaced, which keeps its
   producers in a [Map] and re-adds a producer's entry on every read of
   it, and the depth walk that threads a [Map] and a tuple through a
   fold. test_hdl checks that every field of the shipped schedule, and
   the shipped depth, equal these on every function it schedules. *)

open Tytra_ir
open Tytra_hdl
open Schedule

module SM = Map.Make (String)

type producer = { p_ready : int; p_width : int; p_last_use : int }

(* [schedule_func d f] schedules the body of [f]. Only [Assign] and
    [Offset] instructions take part; [Call]s are scheduled by composition
    (see {!schedule_lane}). Offsets are available at cycle 0 — their
    buffering happens upstream of the datapath (offset buffers, costed
    separately). *)
let schedule_func (_d : Ast.design) (f : Ast.func) : Schedule.t =
  let producers : producer SM.t ref = ref SM.empty in
  let declare name ~ready ~width =
    producers := SM.add name { p_ready = ready; p_width = width; p_last_use = ready } !producers
  in
  (* parameters and offsets available at cycle 0 *)
  List.iter (fun (n, ty) -> declare n ~ready:0 ~width:(Ty.width ty)) f.fn_params;
  let use name at =
    match SM.find_opt name !producers with
    | None -> 0
    | Some p ->
        producers :=
          SM.add name { p with p_last_use = max p.p_last_use at } !producers;
        p.p_ready
  in
  let ready_of at = function
    | Ast.Var v -> use v at
    | Ast.Glob _ | Ast.Imm _ | Ast.ImmF _ -> 0
  in
  let slots =
    List.filter_map
      (fun (i : Ast.instr) ->
        match i with
        | Ast.Offset { dst; ty; _ } ->
            declare dst ~ready:0 ~width:(Ty.width ty);
            Some { Schedule.sl_instr = i; sl_start = 0; sl_finish = 0 }
        | Ast.Assign { dst; ty; op; args } ->
            (* two passes: first compute start from operand readiness,
               then record last-use at that start cycle *)
            let start =
              List.fold_left
                (fun a o ->
                  max a
                    (match o with
                    | Ast.Var v -> (
                        match SM.find_opt v !producers with
                        | Some p -> p.p_ready
                        | None -> 0)
                    | _ -> 0))
                0 args
            in
            List.iter (fun o -> ignore (ready_of start o)) args;
            let fin = start + Opinfo.latency op ty in
            let w =
              match op with
              | Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt
              | Ast.CmpGe -> 1
              | _ -> Ty.width ty
            in
            (match dst with
            | Ast.Dlocal n -> declare n ~ready:fin ~width:w
            | Ast.Dglobal _ -> ());
            Some { sl_instr = i; sl_start = start; sl_finish = fin }
        | Ast.Call _ -> None)
      f.fn_body
  in
  let depth = List.fold_left (fun a s -> max a s.sl_finish) 0 slots in
  (* data delay lines: one tapped register chain per producer, long enough
     to reach its latest consumer *)
  let delay_regs =
    SM.fold
      (fun _ p acc ->
        let span = max 0 (p.p_last_use - p.p_ready) in
        acc + (span * p.p_width))
      !producers 0
  in
  (* functional-unit internal stage registers: latency × result width *)
  let stage_regs =
    List.fold_left
      (fun acc s ->
        match s.sl_instr with
        | Ast.Assign { ty; op; _ } ->
            let w =
              match op with
              | Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe | Ast.CmpGt
              | Ast.CmpGe -> 1
              | _ -> Ty.width ty
            in
            acc + (Opinfo.latency op ty * w)
        | _ -> acc)
      0 slots
  in
  let values =
    SM.fold (fun n p acc -> (n, p.p_ready) :: acc) !producers []
  in
  {
    sc_func = f.fn_name;
    sc_slots = slots;
    sc_depth = depth;
    sc_delay_regs = delay_regs;
    sc_stage_regs = stage_regs;
    sc_values = values;
  }

(* [pe_depth_sym sy f]: the longest latency path through [f]'s SSA
   dataflow graph, with called comb and pipe blocks in series. *)
let pe_depth_sym (sy : Symtab.t) (f : Ast.func) : int =
  let rec depth_of (f : Ast.func) (env : int SM.t) : int * int SM.t =
    List.fold_left
      (fun (maxd, env) i ->
        match i with
        | Ast.Offset { dst; _ } -> (maxd, SM.add dst 0 env)
        | Ast.Assign { dst; ty; op; args } ->
            let ready o =
              match o with
              | Ast.Var v -> (
                  match SM.find_opt v env with Some t -> t | None -> 0)
              | Ast.Glob _ | Ast.Imm _ | Ast.ImmF _ -> 0
            in
            let start = List.fold_left (fun a o -> max a (ready o)) 0 args in
            let fin = start + Opinfo.latency op ty in
            let env =
              match dst with
              | Ast.Dlocal n -> SM.add n fin env
              | Ast.Dglobal _ -> env
            in
            (max maxd fin, env)
        | Ast.Call { callee; _ } -> (
            match Symtab.get_func sy callee with
            | g when g.fn_kind = Ast.Comb || g.fn_kind = Ast.Pipe ->
                let sub, _ = depth_of g SM.empty in
                let sub = if g.fn_kind = Ast.Comb then max 1 sub else sub in
                (maxd + sub, env)
            | _ | (exception Not_found) -> (maxd, env)))
      (0, env) f.fn_body
  in
  fst (depth_of f SM.empty)
