(* Differential oracle for [Lower]'s construction: the original
   Builder-based lowering, which declares every memory object, stream
   and port of every PE afresh through [Builder] and compiles the PE
   body per variant. [Lower.lower] builds fresh lanes and
   [Lower.derive] shares a template's interned lanes; test_fastpath
   checks that both print byte-identically to this. *)

open Tytra_ir
open Tytra_front

let build_variant ?(pattern = Ast.Cont) (p : Expr.program)
    (v : Transform.variant) : Ast.design =
  let k = p.Expr.p_kernel in
  let ty = k.Expr.k_ty in
  let n = Expr.points p in
  let pes = Transform.pes v in
  let chunk = n / pes in
  (* single-PE variants keep the paper's unsuffixed stream names
     ([@main.p]); replicated variants suffix per lane ([@main.p0]…) *)
  let lane_name base i = if pes = 1 then base else Transform.lane_name base i in
  let b = Builder.create (Lower.design_name p v) in
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
    ignore
      (Builder.func b "f0" ~kind:Ast.Pipe ~params:(Lower.kernel_params k)
         (fun fb -> Lower.emit_kernel_body k fb))
  in
  (* the PE function *)
  (match v with
  | Transform.Seq ->
      (* datapath directly in a sequential @main *)
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Lower.emit_kernel_body ~inline_params:true k fb))
  | Transform.Pipe ->
      emit_f0 ();
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Builder.call fb "f0"
               (lane_args.(0) @ Lower.param_args k)
               Ast.Pipe))
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
               (List.concat (List.init l (fun i -> lane_args.(i)))
               @ Lower.param_args k)
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
               @ Lower.param_args k)
               Ast.Par)));
  Builder.design b
