(** Lowering: functional program + variant → TyTra-IR design.

    This is the translation arrow of paper Fig 1 ("HLL variant-N →
    TyTra-IR variant-N"). The structure generated follows the paper's
    listings exactly:

    - the kernel becomes a [pipe] function [@f0] whose body starts with
      the stream offsets (Fig 12 lines 6–9) followed by the SSA datapath;
    - a [ParPipe l] variant wraps [l] calls to [@f0] in a [par] function
      [@f1], with per-lane stream objects over the reshaped data
      (Fig 14);
    - a [ParVecPipe] variant nests [par] inside [par] (the C3 extension);
    - [Seq] puts the datapath directly in a sequential [@main] (C4).

    Conventions consumed downstream: a PE's output values are SSA locals
    named [out_*]; ostream ports bind to [@main] parameters of the same
    name. *)

open Tytra_ir

let lane_name base i = base ^ Int.to_string i

(* compile an expression to SSA, returning its operand; [cse] memoizes
   structurally equal subexpressions so shared terms (e.g. [reltmp] used
   by both the output and the error reduction) are computed once, as the
   hand-written IR of the paper's Fig 12 does *)
let rec compile_expr ~inline_params (k : Expr.kernel) (fb : Builder.fb)
    (offsets : (string * int, Ast.operand) Hashtbl.t)
    (cse : (Expr.expr, Ast.operand) Hashtbl.t) (e : Expr.expr) : Ast.operand
    =
  match Hashtbl.find_opt cse e with
  | Some v -> v
  | None ->
      let v = compile_expr_raw ~inline_params k fb offsets cse e in
      Hashtbl.replace cse e v;
      v

and compile_expr_raw ~inline_params (k : Expr.kernel) (fb : Builder.fb)
    (offsets : (string * int, Ast.operand) Hashtbl.t)
    (cse : (Expr.expr, Ast.operand) Hashtbl.t) (e : Expr.expr) : Ast.operand
    =
  let ty = k.Expr.k_ty in
  let go = compile_expr ~inline_params k fb offsets cse in
  match e with
  | Expr.Input s -> Ast.Var s
  | Expr.Stencil (s, 0) -> Ast.Var s
  | Expr.Stencil (s, o) -> (
      match Hashtbl.find_opt offsets (s, o) with
      | Some v -> v
      | None ->
          let v = Builder.offset fb ~ty (Ast.Var s) o in
          Hashtbl.replace offsets (s, o) v;
          v)
  | Expr.Param p ->
      if inline_params then begin
        (* Seq designs have no call site to carry the scalar immediates:
           inline the value *)
        let v = List.assoc p k.Expr.k_params in
        if Ty.is_float ty then Ast.ImmF (Expr.param_value_float v)
        else Ast.Imm (Ty.mask ty v)
      end
      else Ast.Var p
  | Expr.ConstI v ->
      if Ty.is_float ty then Ast.ImmF (Int64.to_float v) else Ast.Imm (Ty.mask ty v)
  | Expr.ConstF f -> Ast.ImmF f
  | Expr.Bin (op, a, b) ->
      let a' = go a in
      let b' = go b in
      Builder.ins fb op ty [ a'; b' ]
  | Expr.Un (op, a) ->
      let a' = go a in
      Builder.ins fb op ty [ a' ]
  | Expr.Select (c, a, b) ->
      let c' =
        match c with
        | Expr.Bin ((Ast.CmpEq | Ast.CmpNe | Ast.CmpLt | Ast.CmpLe
                    | Ast.CmpGt | Ast.CmpGe), _, _) ->
            go c
        | _ ->
            let cv = go c in
            Builder.ins fb Ast.CmpNe ty [ cv; Ast.Imm 0L ]
      in
      let a' = go a in
      let b' = go b in
      Builder.ins fb Ast.Select ty [ c'; a'; b' ]

(* emit the kernel body (offsets first — matching the paper's listing
   layout comes from compile order; SSA order is what matters) *)
let emit_kernel_body ?(inline_params = false) (k : Expr.kernel)
    (fb : Builder.fb) : unit =
  let offsets = Hashtbl.create 8 in
  let cse = Hashtbl.create 32 in
  (* pre-materialize all stencil offsets so they lead the body *)
  List.iter
    (fun (s, offs) ->
      List.iter
        (fun o ->
          if o <> 0 && not (Hashtbl.mem offsets (s, o)) then
            Hashtbl.replace offsets (s, o)
              (Builder.offset fb ~ty:k.Expr.k_ty (Ast.Var s) o))
        offs)
    (Expr.stencil_offsets k);
  List.iter
    (fun (o : Expr.output) ->
      let v = compile_expr ~inline_params k fb offsets cse o.Expr.o_expr in
      ignore
        (Builder.ins_named fb ("out_" ^ o.Expr.o_name) Ast.Mov k.Expr.k_ty
           [ v ]))
    k.Expr.k_outputs;
  List.iter
    (fun (r : Expr.reduction) ->
      let v = compile_expr ~inline_params k fb offsets cse r.Expr.r_expr in
      Builder.reduce fb r.Expr.r_name r.Expr.r_op k.Expr.k_ty
        [ v; Ast.Glob r.Expr.r_name ])
    k.Expr.k_reductions

(* scalar parameter operands at the call site *)
let param_args (k : Expr.kernel) : Ast.operand list =
  List.map
    (fun (_, v) ->
      if Ty.is_float k.Expr.k_ty then Ast.ImmF (Expr.param_value_float v)
      else Ast.Imm (Ty.mask k.Expr.k_ty v))
    k.Expr.k_params

let kernel_params (k : Expr.kernel) : (string * Ty.t) list =
  List.map (fun s -> (s, k.Expr.k_ty)) k.Expr.k_inputs
  @ List.map (fun (p, _) -> (p, k.Expr.k_ty)) k.Expr.k_params

(** [design_name p v] — the name of the design {!lower} and {!derive}
    build for variant [v] of [p]. The DSE passes it to
    [Tytra_cost.Report.replicate], which costs a variant without its
    design. *)
let design_name (p : Expr.program) (v : Transform.variant) : string =
  Printf.sprintf "%s_%s" p.Expr.p_kernel.Expr.k_name (Transform.to_string v)

(* Shared construction for [lower] and [derive]: build the (unvalidated)
   design for variant [v]. [f0] selects the PE-body source: [`Emit]
   compiles the kernel datapath, [`Raw body] installs an instruction list
   taken from an already-validated template — physically shared, so the
   derived design pretty-prints byte-identically to a full lowering. *)
let build_variant ~(pattern : Ast.pattern)
    ~(f0 : [ `Emit | `Raw of Ast.instr list ]) (p : Expr.program)
    (v : Transform.variant) : Ast.design =
  (match Expr.check_kernel p.Expr.p_kernel with
  | Ok () -> ()
  | Error e -> invalid_arg ("Lower.lower: invalid kernel: " ^ e));
  if not (Transform.applicable p v) then
    invalid_arg
      (Printf.sprintf "Lower.lower: variant %s not applicable (size %d)"
         (Transform.to_string v) (Expr.points p));
  let k = p.Expr.p_kernel in
  let ty = k.Expr.k_ty in
  let n = Expr.points p in
  let pes = Transform.pes v in
  let chunk = n / pes in
  (* single-PE variants keep the paper's unsuffixed stream names
     ([@main.p]); replicated variants suffix per lane ([@main.p0]…) *)
  let lane_name base i = if pes = 1 then base else lane_name base i in
  let b = Builder.create (design_name p v) in
  (* globals for reductions *)
  List.iter
    (fun (r : Expr.reduction) ->
      ignore (Builder.global b r.Expr.r_name ~ty ~init:r.Expr.r_init ()))
    k.Expr.k_reductions;
  (* per-PE memory objects, stream objects and ports; each PE's input
     names are built here once and reused by every wiring function *)
  let main_params = ref [] in
  let lane_params = Array.make pes [] in
  let lane_args = Array.make pes [] in
  for i = 0 to pes - 1 do
    let mk_port s dir =
      let pname = lane_name s i in
      let mem =
        Builder.mem b ("m_" ^ pname) ~space:Ast.Global ~ty ~size:chunk
      in
      let str = Builder.stream b ("s_" ^ pname) ~dir ~mem ~pattern in
      Builder.port b ~fn:"main" ~port:pname ~ty ~dir ~pattern ~stream:str ();
      main_params := (pname, ty) :: !main_params;
      pname
    in
    let ins = List.map (fun s -> mk_port s Ast.IStream) k.Expr.k_inputs in
    (* output ports are prefixed [o_] to avoid colliding with the PE's
       [out_*] SSA locals when the datapath lives in @main (Seq) *)
    List.iter
      (fun (o : Expr.output) ->
        ignore (mk_port ("o_" ^ o.Expr.o_name) Ast.OStream))
      k.Expr.k_outputs;
    lane_params.(i) <- List.map (fun s -> (s, ty)) ins;
    lane_args.(i) <- List.map (fun s -> Ast.Var s) ins
  done;
  let main_params = List.rev !main_params in
  (* the scalar parameters a wiring function takes and passes on *)
  let scalar_params = List.map (fun (p', _) -> (p', ty)) k.Expr.k_params in
  let scalar_args = List.map (fun (p', _) -> Ast.Var p') k.Expr.k_params in
  (* input parameters of the first [n] PEs, then the scalars *)
  let pe_params n =
    List.concat (List.init n (Array.get lane_params)) @ scalar_params
  in
  let emit_f0 () =
    match f0 with
    | `Emit ->
        ignore
          (Builder.func b "f0" ~kind:Ast.Pipe ~params:(kernel_params k)
             (fun fb -> emit_kernel_body k fb))
    | `Raw body ->
        ignore
          (Builder.func_raw b "f0" ~kind:Ast.Pipe ~params:(kernel_params k)
             body)
  in
  (* the PE function *)
  (match v with
  | Transform.Seq ->
      (* datapath directly in a sequential @main *)
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params
           (fun fb -> emit_kernel_body ~inline_params:true k fb))
  | Transform.Pipe ->
      emit_f0 ();
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Builder.call fb "f0" (lane_args.(0) @ param_args k) Ast.Pipe))
  | Transform.ParPipe l ->
      emit_f0 ();
      (* @f1 takes every lane's input streams *)
      ignore
        (Builder.func b "f1" ~kind:Ast.Par ~params:(pe_params l) (fun fb ->
             for i = 0 to l - 1 do
               Builder.call fb "f0" (lane_args.(i) @ scalar_args) Ast.Pipe
             done));
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Builder.call fb "f1"
               (List.concat
                  (List.init l (fun i -> lane_args.(i)))
               @ param_args k)
               Ast.Par))
  | Transform.ParVecPipe (l, dv) ->
      emit_f0 ();
      (* @flane bundles the dv vector PEs of one lane; its parameters are
         named after the first lane's PEs *)
      ignore
        (Builder.func b "flane" ~kind:Ast.Par ~params:(pe_params dv)
           (fun fb ->
             for j = 0 to dv - 1 do
               Builder.call fb "f0" (lane_args.(j) @ scalar_args) Ast.Pipe
             done));
      ignore
        (Builder.func b "f1" ~kind:Ast.Par ~params:(pe_params (l * dv))
           (fun fb ->
             for i = 0 to l - 1 do
               Builder.call fb "flane"
                 (List.concat
                    (List.init dv (fun j -> lane_args.((i * dv) + j)))
                 @ scalar_args)
                 Ast.Par
             done));
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Builder.call fb "f1"
               (List.concat (List.init (l * dv) (fun i -> lane_args.(i)))
               @ param_args k)
               Ast.Par)));
  (* Seq variant needs scalar params on main's call-free body; give the
     ports-only main its parameter list including scalars *)
  Builder.design b

(** [lower ?pattern p v] — build the validated IR design for variant [v]
    of program [p]. [pattern] is the global-memory access pattern of the
    generated streams (default contiguous; the reshaped chunks are
    contiguous slices). *)
let lower ?(pattern = Ast.Cont) (p : Expr.program) (v : Transform.variant) :
    Ast.design =
  Validate.check_exn (build_variant ~pattern ~f0:`Emit p v)

(** {2 Derived variants (DESIGN.md §10)}

    Every replicated variant of one program shares the same PE function
    [@f0]; only the Manage-IR and the wiring functions ([@f1], [@flane],
    [@main]) differ per lane count. [template] lowers and fully validates
    the [Pipe] variant once; [derive] then builds each further variant
    around the template's PE body — physically shared, so it
    pretty-prints byte-identically to [lower]'s output — and re-validates
    only the per-variant delta via {!Validate.check_delta_sym}. The
    {!Symtab} index that validation runs on is returned by
    {!derive_sym}, so the DSE costs the variant on it too (DESIGN.md
    §10.6). *)

type template = {
  tpl_program : Expr.program;
  tpl_pattern : Ast.pattern;
  tpl_f0_body : Ast.instr list;  (** validated PE body, shared by reference *)
}

(** [template ?pattern p] — lower the [Pipe] variant of [p] in full
    (including validation) and capture the PE body for reuse. *)
let template ?(pattern = Ast.Cont) (p : Expr.program) : template =
  let d = lower ~pattern p Transform.Pipe in
  {
    tpl_program = p;
    tpl_pattern = pattern;
    tpl_f0_body = (Ast.find_func_exn d "f0").Ast.fn_body;
  }

(** [derive_sym tpl v] — build the design for variant [v] of the
    template's program, index it once, and validate it on that index,
    reusing the pre-validated PE body and checking only the per-variant
    delta (memory objects, streams, ports, wiring calls). [Seq] variants
    inline scalar parameters into a different body shape, so they are
    emitted and checked in full, as {!lower} does. Raises
    [Invalid_argument] like {!lower} if the design is invalid; returns
    the index. *)
let derive_sym (tpl : template) (v : Transform.variant) : Symtab.t =
  Tytra_telemetry.Span.with_ ~name:"front.derive" @@ fun () ->
  let pattern = tpl.tpl_pattern and p = tpl.tpl_program in
  let sy, errors =
    match v with
    | Transform.Seq ->
        let sy = Symtab.of_design (build_variant ~pattern ~f0:`Emit p v) in
        (sy, Validate.check_sym sy)
    | _ ->
        let sy =
          Symtab.of_design
            (build_variant ~pattern ~f0:(`Raw tpl.tpl_f0_body) p v)
        in
        (sy, Validate.check_delta_sym ~trusted:[ "f0" ] sy)
  in
  match errors with
  | [] -> sy
  | errs ->
      invalid_arg
        (Printf.sprintf "invalid TyTra-IR design %s:\n%s"
           (Symtab.design sy).Ast.d_name
           (String.concat "\n" (List.map Validate.error_to_string errs)))

(** [derive tpl v] — the design {!derive_sym} builds and validates. *)
let derive (tpl : template) (v : Transform.variant) : Ast.design =
  Symtab.design (derive_sym tpl v)
