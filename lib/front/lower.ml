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

(* the scalar parameters a wiring function passes on *)
let scalar_args (k : Expr.kernel) : Ast.operand list =
  List.map (fun (p, _) -> Ast.Var p) k.Expr.k_params

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

(* the globals the reductions accumulate into *)
let kernel_globals (k : Expr.kernel) : Ast.global list =
  List.map
    (fun (r : Expr.reduction) ->
      { Ast.g_name = r.Expr.r_name; g_ty = k.Expr.k_ty;
        g_init = r.Expr.r_init })
    k.Expr.k_reductions

(** [design_name p v] — the name of the design {!lower} and {!derive}
    build for variant [v] of [p]. The DSE passes it to
    [Tytra_cost.Report.replicate], which costs a variant without its
    design. *)
let design_name (p : Expr.program) (v : Transform.variant) : string =
  Printf.sprintf "%s_%s" p.Expr.p_kernel.Expr.k_name (Transform.to_string v)

(* The Manage-IR and wiring of one PE lane, identical in every variant
   of a program that has the lane: its stream and port records, the
   names they carry, its [@main] parameters, and its PE input
   parameters and operands. Only the memory objects depend on the
   variant (each PE streams [n / pes] points); they are named by the
   streams' [so_mem]. *)
type lane = {
  ln_streams : Ast.stream_obj list;
  ln_ports : Ast.port list;
  ln_main_params : (string * Ty.t) list;
      (** one per port: input streams, then [o_]-prefixed outputs *)
  ln_params : (string * Ty.t) list;  (** the input streams *)
  ln_args : Ast.operand list;  (** the input streams as operands *)
  ln_call : Ast.instr;  (** [call @f0] on the lane's inputs and the scalars *)
}

(* What every lane of a kernel is made from: the kernel type, the
   streams' pattern, the port stems with their directions (the inputs,
   then the outputs as {!Expr.output_port} names them), last first, and
   the kernel's scalars as [Var]s, the tail that every lane's call
   shares. *)
type stems = {
  st_ty : Ty.t;
  st_pattern : Ast.pattern;
  st_ports : (string * Ast.dir) list;  (** last port first *)
  st_scalars : Ast.operand list;
}

let stems ~pattern (k : Expr.kernel) : stems =
  {
    st_ty = k.Expr.k_ty;
    st_pattern = pattern;
    st_ports =
      List.rev
        (List.map (fun s -> (s, Ast.IStream)) k.Expr.k_inputs
        @ List.map (fun o -> (Expr.output_port o, Ast.OStream)) k.Expr.k_outputs);
    st_scalars = scalar_args k;
  }

(* [make_lane st suffix] builds the lane whose port on stem [s] is named
   [s ^ suffix]: [Transform.lane_suffix i] for lane [i] of a replicated
   variant, [""] for the one lane of a single-PE variant. Each port's
   name, stream, port record and [@main] parameter are made in one pass
   over the stems, consed in front of the later ports'. *)
let make_lane (st : stems) suffix : lane =
  let ty = st.st_ty and pattern = st.st_pattern in
  let rec go ports sos pts mps params args =
    match ports with
    | [] ->
        { ln_streams = sos; ln_ports = pts; ln_main_params = mps;
          ln_params = params; ln_args = args;
          ln_call =
            Ast.Call
              { callee = "f0"; args = args @ st.st_scalars; kind = Ast.Pipe;
                rets = [] } }
    | (stem, dir) :: ports -> (
        let name = stem ^ suffix in
        let so =
          { Ast.so_name = "s_" ^ name; so_dir = dir; so_mem = "m_" ^ name;
            so_pattern = pattern }
        in
        let pt =
          { Ast.pt_fun = "main"; pt_port = name; pt_space = Ast.Global;
            pt_ty = ty; pt_dir = dir; pt_pattern = pattern; pt_base_off = 0;
            pt_stream = so.so_name }
        in
        let mp = (name, ty) in
        match dir with
        | Ast.IStream ->
            go ports (so :: sos) (pt :: pts) (mp :: mps) (mp :: params)
              (Ast.Var name :: args)
        | Ast.OStream -> go ports (so :: sos) (pt :: pts) (mp :: mps) params args)
  in
  go st.st_ports [] [] [] [] []

(* The lanes of a variant with [pes] PEs, built afresh: single-PE
   variants keep the paper's unsuffixed stream names ([@main.p]);
   replicated variants suffix per lane ([@main.p0]…). *)
let fresh_lanes (st : stems) pes : lane array =
  if pes = 1 then [| make_lane st "" |]
  else Array.init pes (fun i -> make_lane st (Transform.lane_suffix i))

(* [gather lanes lo hi f tail] — [tail] with lanes [lo .. hi - 1]
   prepended in order, each by [f lane rest] *)
let gather (lanes : lane array) lo hi (f : lane -> 'a list -> 'a list)
    (tail : 'a list) : 'a list =
  let acc = ref tail in
  for i = hi - 1 downto lo do
    acc := f lanes.(i) !acc
  done;
  !acc

let func name kind params body =
  { Ast.fn_name = name; fn_params = params; fn_kind = kind; fn_body = body }

let call callee args kind = Ast.Call { callee; args; kind; rets = [] }

(* input parameters of lanes [0 .. n - 1], then the scalars a wiring
   function takes and passes on *)
let pe_params (k : Expr.kernel) (lanes : lane array) n =
  gather lanes 0 n
    (fun ln rest -> ln.ln_params @ rest)
    (List.map (fun (p', _) -> (p', k.Expr.k_ty)) k.Expr.k_params)

(* input operands of lanes [lo .. hi - 1], then [tail] *)
let pe_args (lanes : lane array) lo hi tail =
  gather lanes lo hi (fun ln rest -> ln.ln_args @ rest) tail

(* The wiring functions of replicated variant [v] over [lanes]: [@flane]
   (ParVecPipe only), then [@f1], whose parameters [f1_params] are
   every lane's inputs and the scalars ([pe_params k lanes pes]), the
   same list for every variant with [pes] PEs. *)
let wiring (k : Expr.kernel) (lanes : lane array) ~f1_params
    (v : Transform.variant) : Ast.func list =
  match v with
  | Transform.Seq | Transform.Pipe -> []
  | Transform.ParPipe l ->
      (* @f1 takes every lane's input streams *)
      [ func "f1" Ast.Par f1_params (List.init l (fun i -> lanes.(i).ln_call)) ]
  | Transform.ParVecPipe (l, dv) ->
      (* @flane bundles the dv vector PEs of one lane; its parameters
         are named after the first lane's PEs *)
      let scalar_args = scalar_args k in
      [ func "flane" Ast.Par (pe_params k lanes dv)
          (List.init dv (fun j -> lanes.(j).ln_call));
        func "f1" Ast.Par f1_params
          (List.init l (fun i ->
               call "flane"
                 (pe_args lanes (i * dv) ((i + 1) * dv) scalar_args)
                 Ast.Par)) ]

(* Raise [Invalid_argument] unless [p]'s kernel is well formed. Only
   {!lower} checks it: a template's kernel was checked when {!template}
   lowered it, so a derived variant is checked by {!check_variant}
   alone. *)
let check_kernel (p : Expr.program) =
  match Expr.check_kernel p.Expr.p_kernel with
  | Ok () -> ()
  | Error e -> invalid_arg ("Lower.lower: invalid kernel: " ^ e)

(* Raise [Invalid_argument] unless [v] is applicable to [p]. *)
let check_variant (p : Expr.program) (v : Transform.variant) =
  if not (Transform.applicable p v) then
    invalid_arg
      (Printf.sprintf "Lower.lower: variant %s not applicable (size %d)%s"
         (Transform.to_string v) (Expr.points p)
         (match Transform.lane_clash p (Transform.pes v) with
         | Some why -> ": " ^ why
         | None -> ""))

(* Shared construction for [lower] and [derive]: build the (unvalidated)
   design for variant [v], which the caller has checked applicable. [f0]
   selects the PE function: [`Emit] compiles the kernel datapath,
   [`Shared f] installs one taken from an already-validated template.
   [lanes] supplies the Manage-IR and wiring of the variant's PEs, one
   lane each (more are ignored). [imms], the scalar immediates [@main]
   passes, and [globals] are built afresh unless given. A derived design
   shares all of these, like [f0], with every other variant of its
   template, so it pretty-prints byte-identically to a full lowering.
   Per variant, only the memory objects, the list spines and the wiring
   functions are allocated. *)
let build_variant ~(f0 : [ `Emit | `Shared of Ast.func ]) ?imms ?globals
    ~(lanes : lane array) (p : Expr.program) (v : Transform.variant) :
    Ast.design =
  let k = p.Expr.p_kernel in
  let ty = k.Expr.k_ty in
  let pes = Transform.pes v in
  let chunk = Expr.points p / pes in
  (* the memory object behind stream [s] *)
  let mem (s : Ast.stream_obj) rest =
    { Ast.mo_name = s.so_mem; mo_space = Ast.Global; mo_ty = ty;
      mo_size = chunk }
    :: rest
  in
  let mems =
    gather lanes 0 pes
      (fun ln rest -> List.fold_right mem ln.ln_streams rest)
      []
  in
  let main_params =
    gather lanes 0 pes (fun ln rest -> ln.ln_main_params @ rest) []
  in
  let main body = func "main" Ast.Seq main_params body in
  (* @main calls [callee] on every PE's inputs and the scalar immediates *)
  let main_calls callee kind =
    let imms = match imms with Some l -> l | None -> param_args k in
    main [ call callee (pe_args lanes 0 pes imms) kind ]
  in
  let f0 () =
    match f0 with
    | `Emit ->
        let params = kernel_params k in
        func "f0" Ast.Pipe params (Builder.body ~params (emit_kernel_body k))
    | `Shared f -> f
  in
  let funcs =
    match v with
    | Transform.Seq ->
        (* datapath directly in a sequential @main *)
        [ main
            (Builder.body ~params:main_params
               (emit_kernel_body ~inline_params:true k)) ]
    | Transform.Pipe -> [ f0 (); main_calls "f0" Ast.Pipe ]
    | Transform.ParPipe _ | Transform.ParVecPipe _ ->
        (f0 () :: wiring k lanes ~f1_params:(pe_params k lanes pes) v)
        @ [ main_calls "f1" Ast.Par ]
  in
  {
    Ast.d_name = design_name p v;
    d_mems = mems;
    d_streams = gather lanes 0 pes (fun ln rest -> ln.ln_streams @ rest) [];
    d_ports = gather lanes 0 pes (fun ln rest -> ln.ln_ports @ rest) [];
    d_globals =
      (match globals with Some l -> l | None -> kernel_globals k);
    d_funcs = funcs;
  }

(** [lower ?pattern p v] — build the validated IR design for variant [v]
    of program [p]. [pattern] is the global-memory access pattern of the
    generated streams (default contiguous; the reshaped chunks are
    contiguous slices). *)
let lower ?(pattern = Ast.Cont) (p : Expr.program) (v : Transform.variant) :
    Ast.design =
  check_kernel p;
  check_variant p v;
  Validate.check_exn
    (build_variant ~f0:`Emit
       ~lanes:(fresh_lanes (stems ~pattern p.Expr.p_kernel) (Transform.pes v))
       p v)

(** {2 Derived variants (DESIGN.md §10)}

    Every replicated variant of one program shares the same PE function
    [@f0], and lane [i] has the same streams, ports and parameters in
    every variant that has it; only the memory objects and the wiring
    functions ([@f1], [@flane], [@main]) differ per lane count.
    [template] lowers and fully validates the [Pipe] variant once;
    [derive] then builds each further variant around the template's PE
    function and lanes — physically shared, so it pretty-prints
    byte-identically to [lower]'s output. {!derive_sym} re-validates
    only the per-variant delta via {!Validate.check_delta_sym}, and
    returns the {!Symtab} index that validation runs on, so the DSE
    costs Seq and Pipe on it too (DESIGN.md §10.6).

    {b Lane certificate.} A lane is checked once per template, when the
    template interns it ({!certify}). Its Manage-IR: its ports name
    [@main], each names the lane's stream at its own position with that
    stream's direction at the kernel type, the lane's [@main]
    parameters are its ports' names at that type, its strides are
    positive, its port names are new across the kernel's scalars and
    every lane certified before it, and its stream and memory-object
    names are [s_] and [m_] before its port's. Its wiring: its PE input
    parameters are physically the input prefix of its [@main]
    parameters, its input operands are [Var]s of their names, and its
    call is [call @f0] on them and then the scalars as [Var]s, of kind
    [pipe], binding no results. A replicated [derive] checks the design
    it built against lanes [0 .. P - 1] and the template's validated
    parts by position ({!conforms}), looking up no name, and validates
    nothing else. That gives the full check's verdict (DESIGN.md §10.2
    says which covers what).

    {b Shells.} The replicated variants with the same PE count P
    ([ParPipe P] and every [ParVecPipe (l, dv)] with [l * dv = P]) also
    share their memory objects, streams, ports, globals, [@main] and
    [@f1]'s parameter list: they differ only in [@f1]'s body and
    [@flane]. The first [derive] of P builds its design, which becomes
    P's shell; every later one takes those parts from the shell,
    physically, and builds only its own [@f1] body and [@flane].

    On any error, or a design the certificate does not cover, a derive
    runs the full check, so its error text is the full check's. *)

(** A template's interned lanes: a published value is never mutated,
    and a published lane is never replaced, so every variant shares
    it. *)
type lanes = {
  ls_lanes : lane array;  (** suffixed lanes [0 .. n - 1] *)
  ls_certified : int;  (** lanes [0 .. ls_certified - 1] are certified *)
}

(** No lanes: a new template's. [{ no_lanes with ls_lanes }] holds
    [ls_lanes] uncertified, to be certified on first use. *)
let no_lanes = { ls_lanes = [||]; ls_certified = 0 }

(** The port names of a template's certified lanes, seeded with the
    kernel's scalar names, so a lane is certified only if its own are
    new: among [@main]'s parameters, and among [@f1]'s and [@flane]'s,
    where the scalars follow the lanes' inputs. *)
type certificate = { mutable c_ports : unit Symtab.Tbl.t }

type template = {
  tpl_program : Expr.program;
  tpl_stems : stems;  (** what its lanes are made from *)
  tpl_f0 : Ast.func;  (** validated PE function, shared by reference *)
  tpl_imms : Ast.operand list;
      (** the scalar immediates [@main] passes, as the validated [Pipe]
          design passes them *)
  tpl_globals : Ast.global list;  (** the validated [Pipe] design's *)
  mutable tpl_lanes : lanes;  (** grown and certified on demand *)
  tpl_certificate : certificate;
  mutable tpl_shells : (int * Ast.design) list;
      (** per PE count, the shell: the first replicated design of that
          count, published once it validated and never replaced *)
}

(** [template ?pattern p] — lower the [Pipe] variant of [p] in full
    (including validation) and capture the PE function for reuse. A
    template grows its lanes and shells as it derives, without a lock,
    so it is used only on the domain that made it. *)
let template ?(pattern = Ast.Cont) (p : Expr.program) : template =
  let d = lower ~pattern p Transform.Pipe in
  let k = p.Expr.p_kernel in
  let ports = Symtab.Tbl.create (List.length k.Expr.k_params) in
  List.iter (fun (s, _) -> Symtab.Tbl.replace ports s ()) k.Expr.k_params;
  {
    tpl_program = p;
    tpl_stems = stems ~pattern k;
    tpl_f0 = Ast.find_func_exn d "f0";
    tpl_imms = param_args k;
    tpl_globals = d.Ast.d_globals;
    tpl_lanes = no_lanes;
    tpl_certificate = { c_ports = ports };
    tpl_shells = [];
  }

(* ---- position checks: physical comparisons, no name looked up ---- *)

exception Mismatch

(* [f ()], or false if it raised [Mismatch] *)
let holds f = match f () with ok -> ok | exception Mismatch -> false

(* the rest of [ys] after a prefix physically equal to [xs] *)
let rec shared xs ys =
  match (xs, ys) with
  | [], ys -> ys
  | x :: xs, y :: ys when x == y -> shared xs ys
  | _ -> raise Mismatch

(* the rest of [ys] after its head, physically [x] *)
let one x = function y :: ys when x == y -> ys | _ -> raise Mismatch

(* [along lanes lo hi f ys] — the rest of [ys] after lanes [lo .. hi - 1]
   took their parts of it in order, [f lane ys] being the rest after
   [lane]'s: the walk that checks what {!gather} builds *)
let along (lanes : lane array) lo hi f ys =
  let rec go i ys = if i = hi then ys else go (i + 1) (f lanes.(i) ys) in
  go lo ys

(* [xs] and [ys] are as long, and [f] holds of each pair *)
let all2 f xs ys = List.compare_lengths xs ys = 0 && List.for_all2 f xs ys

(* [a] is [%name], for the parameter or scalar [(name, _)] *)
let is_var (name, _) (a : Ast.operand) =
  match a with Ast.Var v -> String.equal v name | _ -> false

(* [name] from position [i] on is [s] from position [i + 2] on; unlike
   [String.ends_with], it allocates no closure per call *)
let rec equal_from name s i =
  i = String.length name || (name.[i] = s.[i + 2] && equal_from name s (i + 1))

(* [s] is [c], '_', then [name], compared character by character *)
let prefixed c name s =
  String.length s = String.length name + 2
  && s.[0] = c && s.[1] = '_'
  && equal_from name s 0

(* [fresh tbl name] — add [name] to [tbl]; whether it was new *)
let fresh tbl name =
  let n = Symtab.Tbl.length tbl in
  Symtab.Tbl.replace tbl name ();
  Symtab.Tbl.length tbl > n

(* Whether a lane's ports [pts], streams [sos] and [@main] parameters
   [mps] hold the Manage-IR part of the certificate at type [ty],
   adding the port names to [c]'s *)
let rec certify_manage (c : certificate) ty (pts : Ast.port list)
    (sos : Ast.stream_obj list) (mps : (string * Ty.t) list) =
  match (pts, sos, mps) with
  | [], [], [] -> true
  | pt :: pts, so :: sos, (mp, mty) :: mps ->
      String.equal pt.Ast.pt_fun "main"
      && String.equal pt.pt_stream so.Ast.so_name
      && pt.pt_dir = so.so_dir && Ty.equal pt.pt_ty ty
      && String.equal mp pt.pt_port && Ty.equal mty ty
      && (match so.so_pattern with
         | Ast.Strided n -> n > 0
         | Ast.Cont | Ast.Random -> true)
      && prefixed 's' pt.pt_port so.so_name
      && prefixed 'm' pt.pt_port so.so_mem
      && fresh c.c_ports pt.pt_port
      && certify_manage c ty pts sos mps
  | _ -> false

(* Whether lane [ln] holds the certificate for kernel [k] (module
   comment above), adding its port names to [c]'s. A lane that fails
   leaves the names it added, so it fails again: certification stops at
   it. *)
let certify_lane (c : certificate) (k : Expr.kernel) (ln : lane) : bool =
  match
    (* the wiring first, which adds no name: one PE input per kernel
       input, physically a [@main] parameter, passed as a [Var] of its
       name and then the scalars' *)
    let _outputs = shared ln.ln_params ln.ln_main_params in
    List.compare_length_with ln.ln_params (List.length k.Expr.k_inputs) = 0
    && all2 is_var ln.ln_params ln.ln_args
    && (match ln.ln_call with
       | Ast.Call { callee = "f0"; args; kind = Ast.Pipe; rets = [] } ->
           all2 is_var k.Expr.k_params (shared ln.ln_args args)
       | _ -> false)
    && certify_manage c k.Expr.k_ty ln.ln_ports ln.ln_streams
         ln.ln_main_params
  with
  | ok -> ok
  | exception Mismatch -> false

(** [certify c k lanes from] — the number of leading lanes of [lanes]
    certified for kernel [k], certifying them in order from lane [from],
    the first not yet certified, up to the first that fails. *)
let certify (c : certificate) (k : Expr.kernel) (lanes : lane array) from :
    int =
  let rec go i =
    if i < Array.length lanes && certify_lane c k lanes.(i) then go (i + 1)
    else i
  in
  if Ty.valid k.Expr.k_ty then go from else from

(* Replace [c]'s name table by one holding the same names with a bucket
   for each of them and [more] others, so that certifying [more] ports
   rehashes no name: a table rehashes every name it holds each time it
   outgrows two names a bucket. *)
let make_room (c : certificate) more =
  let t = Symtab.Tbl.create (Symtab.Tbl.length c.c_ports + more) in
  Symtab.Tbl.iter (fun name () -> Symtab.Tbl.add t name ()) c.c_ports;
  c.c_ports <- t

(* The template's lanes, with at least [pes] interned and certified as
   far as they hold the certificate, so each lane is made and certified
   once. A lane that fails the certificate is tried again on each call,
   which stops at it. *)
let template_lanes tpl pes : lanes =
  let cur = tpl.tpl_lanes in
  if Array.length cur.ls_lanes >= pes && cur.ls_certified >= pes then cur
  else begin
    let c = tpl.tpl_certificate and st = tpl.tpl_stems in
    let n = Array.length cur.ls_lanes in
    let lanes =
      if n >= pes then cur.ls_lanes
      else begin
        make_room c ((pes - cur.ls_certified) * List.length st.st_ports);
        Array.init pes (fun i ->
            if i < n then cur.ls_lanes.(i)
            else make_lane st (Transform.lane_suffix i))
      end
    in
    let next =
      { ls_lanes = lanes;
        ls_certified =
          certify c tpl.tpl_program.Expr.p_kernel lanes cur.ls_certified }
    in
    tpl.tpl_lanes <- next;
    next
  end

(* The template's first [pes] lanes, interned. *)
let interned_lanes tpl pes : lane array = (template_lanes tpl pes).ls_lanes

(* the rest of [mems] after one memory object per stream of [sos]:
   named by the stream's [so_mem], of [chunk] elements of type [ty] *)
let rec backing ~ty ~chunk (sos : Ast.stream_obj list)
    (mems : Ast.mem_obj list) =
  match (sos, mems) with
  | [], mems -> mems
  | so :: sos, m :: mems
    when String.equal m.Ast.mo_name so.Ast.so_mem && m.mo_size = chunk
         && Ty.equal m.mo_ty ty ->
      backing ~ty ~chunk sos mems
  | _ -> raise Mismatch

(* Whether [f0] is a PE function the certified lanes call validly: named
   [f0], [pipe], calling nothing (so the call graph stays acyclic), with
   one parameter per input and scalar of [k], at the kernel type. *)
let pe_function (k : Expr.kernel) (f0 : Ast.func) =
  String.equal f0.Ast.fn_name "f0"
  && f0.fn_kind = Ast.Pipe
  && List.compare_length_with f0.fn_params
       (List.length k.Expr.k_inputs + List.length k.Expr.k_params)
     = 0
  && List.for_all (fun (_, t) -> Ty.equal t k.Expr.k_ty) f0.fn_params
  && List.for_all (function Ast.Call _ -> false | _ -> true) f0.fn_body

(** [conforms tpl ls d v] — the position check: [d], a design for
    replicated variant [v] with [pes] PEs, is made of the validated
    parts of [tpl] and certified lanes [0 .. pes - 1] of [ls], in the
    order {!build_variant} puts them:
    - each of its streams, ports and [@main] parameters is physically
      the lane's at its position; each memory object is named by its
      stream's [so_mem] and holds [points / pes > 0] elements of the
      kernel type;
    - its globals are [tpl]'s, and its functions are [tpl]'s [@f0]
      (see {!pe_function}), [@flane] for a [ParVecPipe (l, dv)], [@f1]
      and [@main];
    - [@flane] is [par] over lanes [0 .. dv - 1]'s inputs then the
      scalars, and its body is their calls; [@f1] is [par] over every
      lane's inputs then the scalars, and its body is the lanes' calls,
      or [l] [par] calls to [@flane], each on its [dv] lanes' inputs
      then the scalars as [Var]s;
    - [@main] is [seq], and its body is one [par] call to [@f1] on
      every lane's inputs then [tpl]'s scalar immediates.
    Nothing is left over, and no name is looked up. *)
let conforms tpl (ls : lanes) (d : Ast.design) (v : Transform.variant) :
    bool =
  let p = tpl.tpl_program in
  let k = p.Expr.p_kernel and pes = Transform.pes v and lanes = ls.ls_lanes in
  let ty = k.Expr.k_ty and chunk = Expr.points p / pes in
  (* lanes [0 .. n - 1] take all of [ys], each its part by [f] *)
  let all n f ys = along lanes 0 n f ys = [] in
  (* the rest of [args] after lanes [lo .. hi - 1]'s inputs *)
  let inputs lo hi args =
    along lanes lo hi (fun ln a -> shared ln.ln_args a) args
  in
  (* [f] is the [par] function [name] over lanes [0 .. n - 1]'s inputs
     then the scalars *)
  let par name n (f : Ast.func) =
    String.equal f.Ast.fn_name name
    && f.fn_kind = Ast.Par
    && all2
         (fun (s, _) (q, t) -> String.equal s q && Ty.equal t ty)
         k.Expr.k_params
         (along lanes 0 n (fun ln ps -> shared ln.ln_params ps) f.fn_params)
  in
  (* [f]'s body is lanes [0 .. n - 1]'s calls *)
  let calls n (f : Ast.func) =
    all n (fun ln b -> one ln.ln_call b) f.fn_body
  in
  (* calls [i .. l - 1] to [@flane], call [i] on lanes
     [i * dv .. (i + 1) * dv - 1]'s inputs then the scalars *)
  let rec flane_calls i l dv = function
    | [] -> i = l
    | Ast.Call { callee = "flane"; args; kind = Ast.Par; rets = [] } :: body ->
        all2 is_var k.Expr.k_params (inputs (i * dv) ((i + 1) * dv) args)
        && flane_calls (i + 1) l dv body
    | _ -> false
  in
  let main (f : Ast.func) =
    String.equal f.Ast.fn_name "main"
    && f.fn_kind = Ast.Seq
    && all pes (fun ln ps -> shared ln.ln_main_params ps) f.fn_params
    &&
    match f.fn_body with
    | [ Ast.Call { callee = "f1"; args; kind = Ast.Par; rets = [] } ] ->
        shared tpl.tpl_imms (inputs 0 pes args) = []
    | _ -> false
  in
  pes <= ls.ls_certified && chunk > 0
  && pe_function k tpl.tpl_f0
  && d.Ast.d_globals == tpl.tpl_globals
  && holds @@ fun () ->
     all pes (fun ln ms -> backing ~ty ~chunk ln.ln_streams ms) d.d_mems
     && all pes (fun ln ss -> shared ln.ln_streams ss) d.d_streams
     && all pes (fun ln ps -> shared ln.ln_ports ps) d.d_ports
     &&
     match (v, d.d_funcs) with
     | Transform.ParPipe l, [ f0; f1; m ] ->
         f0 == tpl.tpl_f0 && par "f1" l f1 && calls l f1 && main m
     | Transform.ParVecPipe (l, dv), [ f0; fl; f1; m ] ->
         f0 == tpl.tpl_f0 && par "flane" dv fl && calls dv fl
         && par "f1" pes f1
         && flane_calls 0 l dv f1.fn_body
         && main m
     | _ -> false

(* [sy] if [errors] is empty; otherwise raise [Invalid_argument] with
   them, as {!Validate.check_exn} does *)
let validated (sy : Symtab.t) (errors : Validate.error list) : Symtab.t =
  match errors with
  | [] -> sy
  | errs ->
      invalid_arg
        (Printf.sprintf "invalid TyTra-IR design %s:\n%s"
           (Symtab.design sy).Ast.d_name
           (String.concat "\n" (List.map Validate.error_to_string errs)))

(* [d] after the full delta check, with [@f0] trusted *)
let checked_in_full (d : Ast.design) : Ast.design =
  let sy = Symtab.of_design d in
  Symtab.design (validated sy (Validate.check_delta_sym ~trusted:[ "f0" ] sy))

(** [derive_sym tpl v] — build the design for variant [v] of the
    template's program, index it once, and validate it on that index,
    reusing the pre-validated PE function and checking only the
    per-variant delta (memory objects, streams, ports, wiring calls).
    [Seq] variants inline scalar parameters into a different body
    shape, so they are emitted and checked in full, as {!lower} does.
    Raises [Invalid_argument] like {!lower} if the design is invalid;
    returns the index. It neither reads nor publishes shells, and
    trusts no certificate. *)
let derive_sym (tpl : template) (v : Transform.variant) : Symtab.t =
  Tytra_telemetry.Span.with_ ~name:"front.derive" @@ fun () ->
  let p = tpl.tpl_program in
  check_variant p v;
  let pes = Transform.pes v in
  let lanes =
    if pes = 1 then fresh_lanes tpl.tpl_stems 1 else interned_lanes tpl pes
  in
  match v with
  | Transform.Seq ->
      let sy = Symtab.of_design (build_variant ~f0:`Emit ~lanes p v) in
      validated sy (Validate.check_sym sy)
  | _ ->
      let sy =
        Symtab.of_design (build_variant ~f0:(`Shared tpl.tpl_f0) ~lanes p v)
      in
      validated sy (Validate.check_delta_sym ~trusted:[ "f0" ] sy)

(* Publish [d], validated, as the shell of [pes] PEs unless it has one. *)
let publish_shell tpl pes (d : Ast.design) =
  if not (List.mem_assoc pes tpl.tpl_shells) then
    tpl.tpl_shells <- (pes, d) :: tpl.tpl_shells

(** [derive tpl v] — the design {!derive_sym} builds and validates, with
    the same result. A replicated variant is built around the template's
    validated parts and certified lanes, or, once its PE count has a
    shell, around the shell's memory objects, streams, ports, globals
    and [@main] with its own [@f1] body and [@flane]. Either way it is
    checked by position, and the first of its PE count becomes that
    count's shell (see Lane certificate and Shells above). *)
let derive (tpl : template) (v : Transform.variant) : Ast.design =
  match v with
  | Transform.ParPipe _ | Transform.ParVecPipe _ ->
      Tytra_telemetry.Span.with_ ~name:"front.derive" @@ fun () ->
      let p = tpl.tpl_program and pes = Transform.pes v in
      check_variant p v;
      let ls = template_lanes tpl pes in
      let d =
        match List.assoc_opt pes tpl.tpl_shells with
        | Some sh ->
            let f1_params = (Ast.find_func_exn sh "f1").Ast.fn_params in
            {
              sh with
              Ast.d_name = design_name p v;
              d_funcs =
                (tpl.tpl_f0 :: wiring p.Expr.p_kernel ls.ls_lanes ~f1_params v)
                @ [ Ast.find_func_exn sh "main" ];
            }
        | None ->
            build_variant ~f0:(`Shared tpl.tpl_f0) ~imms:tpl.tpl_imms
              ~globals:tpl.tpl_globals ~lanes:ls.ls_lanes p v
      in
      let d = if conforms tpl ls d v then d else checked_in_full d in
      publish_shell tpl pes d;
      d
  | Transform.Seq | Transform.Pipe -> Symtab.design (derive_sym tpl v)
