(** Coarse-grained pipelines: kernel composition (paper Fig 7,
    configurations 3 and 4).

    A {!t} is a sequence of kernels in which each stage's {e first} input
    stream is fed by the previous stage's {e first} output — on the FPGA,
    an on-chip stream between peer kernel pipelines, never touching
    global memory. The remaining inputs of every stage stream from memory
    as usual. Lowering produces exactly the paper's configuration 3:

    {v
    define void @pipeTop (...) pipe {
      %c1 = call @stage0 (...) pipe     ; peer-to-peer stream
      call @stage1 (%c1, ...) pipe
    }
    v}

    and configuration 4 ([par] of [pipeTop]) for the lane-replicated
    variant. Intermediate stages must have exactly one output (the
    chained stream); the final stage may have any outputs/reductions.

    Correctness: {!eval} gives the reference semantics (sequential
    composition of the stage evaluators); the test suite checks it
    against the IR interpreter on the lowered design. Note the chained
    semantics is {e per-lane}: with [L] lanes, each lane chains its own
    chunk, which equals the baseline composition exactly when the
    intermediate stages use no stencil offsets (otherwise lane-boundary
    halos differ, as with any chunked stencil). *)

type t = {
  ch_name : string;
  ch_stages : Expr.kernel list;
  ch_shape : int list;
}

let points (c : t) =
  match Expr.check_shape c.ch_shape with
  | Ok n -> n
  | Error e -> invalid_arg ("Chain.points: " ^ e)

(* external inputs of stage i: all inputs for stage 0; all but the first
   (chained) input for later stages *)
let external_inputs_of i (k : Expr.kernel) =
  if i = 0 then k.Expr.k_inputs else List.tl k.Expr.k_inputs

(** [make ~name ~shape stages] — validate and build a chain: an index
    space {!Expr.check_shape} accepts, ≥2 stages, same element type
    throughout, single-output intermediate stages, and no duplicate
    external stream names across stages. *)
let make ~name ~shape (stages : Expr.kernel list) : (t, string) result =
  match (Expr.check_shape shape, stages) with
  | Error e, _ -> Error e
  | Ok _, ([] | [ _ ]) -> Error "a chain needs at least two stages"
  | Ok _, first :: _ ->
      let ty = first.Expr.k_ty in
      let rec check i = function
        | [] -> Ok ()
        | (k : Expr.kernel) :: tl ->
            if not (Tytra_ir.Ty.equal k.Expr.k_ty ty) then
              Error
                (Printf.sprintf "stage %d type %s differs from %s" i
                   (Tytra_ir.Ty.to_string k.Expr.k_ty)
                   (Tytra_ir.Ty.to_string ty))
            else if tl <> [] && List.length k.Expr.k_outputs <> 1 then
              Error
                (Printf.sprintf
                   "intermediate stage %d must have exactly one output" i)
            else if i > 0 && k.Expr.k_inputs = [] then
              Error (Printf.sprintf "stage %d has no input to chain into" i)
            else begin
              match Expr.check_kernel k with
              | Error e -> Error (Printf.sprintf "stage %d: %s" i e)
              | Ok () -> check (i + 1) tl
            end
      in
      Result.bind (check 0 stages) (fun () ->
          (* external stream names must be unique across stages (they all
             become ports of the same design) *)
          let ext = List.concat (List.mapi external_inputs_of stages) in
          let rec dup = function
            | [] -> None
            | x :: tl -> if List.mem x tl then Some x else dup tl
          in
          match dup ext with
          | Some s ->
              Error
                (Printf.sprintf "external stream %S appears in two stages" s)
          | None ->
              Ok { ch_name = name; ch_stages = stages; ch_shape = shape })

let make_exn ~name ~shape stages =
  match make ~name ~shape stages with
  | Ok c -> c
  | Error e -> invalid_arg ("Chain.make: " ^ e)

let external_inputs = external_inputs_of

(** All external stream names, in stage order (these become the chain's
    memory-fed streams). *)
let external_streams (c : t) : string list =
  List.concat (List.mapi (fun i k -> external_inputs i k) c.ch_stages)

(** Reference semantics: stage [i]'s first input reads stage [i-1]'s
    first output; reductions accumulate per stage. *)
let eval (c : t) (env : Eval.env) : Eval.result =
  let n = points c in
  let shape = c.ch_shape in
  let rec go i (carried : int64 array option) (reds : (string * int64) list)
      = function
    | [] -> invalid_arg "Chain.eval: empty chain"
    | (k : Expr.kernel) :: tl ->
        let stage_env =
          match carried with
          | None -> env
          | Some arr -> (List.hd k.Expr.k_inputs, arr) :: env
        in
        let prog = { Expr.p_kernel = k; p_shape = shape } in
        let r = Eval.run_baseline prog stage_env in
        let reds = reds @ r.Eval.reductions in
        if tl = [] then { r with Eval.reductions = reds }
        else
          let out = snd (List.hd r.Eval.outputs) in
          go (i + 1) (Some out) reds tl
  in
  ignore n;
  go 0 None [] c.ch_stages

(** Lower a chain to TyTra-IR: configuration 3 ([Pipe]) or 4
    ([ParPipe l]). Vectorized/sequential variants are not defined for
    chains. *)
let lower (c : t) (v : Transform.variant) : Tytra_ir.Ast.design =
  let open Tytra_ir in
  let lanes =
    match v with
    | Transform.Pipe -> 1
    | Transform.ParPipe l -> l
    | other ->
        invalid_arg
          (Printf.sprintf "Chain.lower: unsupported variant %s"
             (Transform.to_string other))
  in
  let n = points c in
  if n mod lanes <> 0 then
    invalid_arg
      (Printf.sprintf "Chain.lower: %d lanes do not divide %d points" lanes n);
  let chunk = n / lanes in
  let ty = (List.hd c.ch_stages).Expr.k_ty in
  let b =
    Builder.create
      (Printf.sprintf "%s_%s" c.ch_name (Transform.to_string v))
  in
  List.iter
    (fun (k : Expr.kernel) ->
      List.iter
        (fun (r : Expr.reduction) ->
          ignore (Builder.global b r.Expr.r_name ~ty ~init:r.Expr.r_init ()))
        k.Expr.k_reductions)
    c.ch_stages;
  (* stage PE functions *)
  List.iteri
    (fun i (k : Expr.kernel) ->
      ignore
        (Builder.func b
           (Printf.sprintf "fs%d" i)
           ~kind:Ast.Pipe ~params:(Lower.kernel_params k)
           (fun fb -> Lower.emit_kernel_body k fb)))
    c.ch_stages;
  (* the coarse pipeline wrapper: external streams + per-stage scalars *)
  let last = List.nth c.ch_stages (List.length c.ch_stages - 1) in
  let scalar_param i p = Printf.sprintf "s%d_%s" i p in
  let top_params =
    List.concat
      (List.mapi
         (fun i (k : Expr.kernel) ->
           List.map (fun s -> (s, ty)) (external_inputs i k)
           @ List.map (fun (p, _) -> (scalar_param i p, ty)) k.Expr.k_params)
         c.ch_stages)
  in
  ignore
    (Builder.func_raw b "pipeTop" ~kind:Ast.Pipe ~params:top_params
       (List.concat
          (List.mapi
             (fun i (k : Expr.kernel) ->
               let chained =
                 if i = 0 then [] else [ Ast.Var (Printf.sprintf "c%d" i) ]
               in
               let args =
                 chained
                 @ List.map (fun s -> Ast.Var s) (external_inputs i k)
                 @ List.map
                     (fun (p, _) -> Ast.Var (scalar_param i p))
                     k.Expr.k_params
               in
               let rets =
                 if i = List.length c.ch_stages - 1 then []
                 else [ Printf.sprintf "c%d" (i + 1) ]
               in
               [ Ast.Call
                   { callee = Printf.sprintf "fs%d" i; args; kind = Ast.Pipe;
                     rets } ])
             c.ch_stages)));
  (* per-lane streams, ports on main *)
  let main_params = ref [] in
  let lane_top_args = Array.make lanes [] in
  let lane_name base i = if lanes = 1 then base else Transform.lane_name base i in
  for l = 0 to lanes - 1 do
    let mk_port s dir =
      let pname = lane_name s l in
      let mem = Builder.mem b ("m_" ^ pname) ~space:Ast.Global ~ty ~size:chunk in
      let str = Builder.stream b ("s_" ^ pname) ~dir ~mem ~pattern:Ast.Cont in
      Builder.port b ~fn:"main" ~port:pname ~ty ~dir ~stream:str ();
      main_params := (pname, ty) :: !main_params;
      pname
    in
    let ins = List.map (fun s -> mk_port s Ast.IStream) (external_streams c) in
    List.iter
      (fun (o : Expr.output) ->
        ignore (mk_port ("o_" ^ o.Expr.o_name) Ast.OStream))
      last.Expr.k_outputs;
    lane_top_args.(l) <-
      (let exti = ref ins in
       List.concat
         (List.mapi
            (fun i (k : Expr.kernel) ->
              let take m =
                let rec go acc m l =
                  if m = 0 then (List.rev acc, l)
                  else
                    match l with
                    | [] -> (List.rev acc, [])
                    | x :: tl -> go (x :: acc) (m - 1) tl
                in
                let got, rest = go [] m !exti in
                exti := rest;
                got
              in
              let exts = take (List.length (external_inputs i k)) in
              List.map (fun s -> Ast.Var s) exts
              @ List.map
                  (fun (_, v') ->
                    if Ty.is_float ty then
                      Ast.ImmF (Expr.param_value_float v')
                    else Ast.Imm (Ty.mask ty v'))
                  k.Expr.k_params)
            c.ch_stages))
  done;
  let main_params = List.rev !main_params in
  (match v with
  | Transform.Pipe ->
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Builder.call fb "pipeTop" lane_top_args.(0) Ast.Pipe))
  | Transform.ParPipe l ->
      let f1_params =
        List.concat
          (List.init l (fun i ->
               List.map
                 (fun s -> (lane_name s i, ty))
                 (external_streams c)))
      in
      ignore
        (Builder.func b "f1" ~kind:Ast.Par ~params:f1_params (fun fb ->
             for i = 0 to l - 1 do
               (* rebuild args referencing f1's params *)
               let exti =
                 ref (List.map (fun s -> lane_name s i) (external_streams c))
               in
               let args =
                 List.concat
                   (List.mapi
                      (fun si (k : Expr.kernel) ->
                        let m = List.length (external_inputs si k) in
                        let rec take acc m l =
                          if m = 0 then (List.rev acc, l)
                          else
                            match l with
                            | [] -> (List.rev acc, [])
                            | x :: tl -> take (x :: acc) (m - 1) tl
                        in
                        let got, rest = take [] m !exti in
                        exti := rest;
                        List.map (fun s -> Ast.Var s) got
                        @ List.map
                            (fun (_, v') ->
                              if Ty.is_float ty then
                                Ast.ImmF (Expr.param_value_float v')
                              else Ast.Imm (Ty.mask ty v'))
                            k.Expr.k_params)
                      c.ch_stages)
               in
               Builder.call fb "pipeTop" args Ast.Pipe
             done));
      ignore
        (Builder.func b "main" ~kind:Ast.Seq ~params:main_params (fun fb ->
             Builder.call fb "f1"
               (List.concat
                  (List.init l (fun i ->
                       List.map
                         (fun s -> Ast.Var (lane_name s i))
                         (external_streams c))))
               Ast.Par))
  | _ -> assert false);
  Validate.check_exn (Builder.design b)
