(** Programmatic construction of TyTra-IR designs.

    The front-end lowering pass and the kernel library build IR through
    this interface rather than by concatenating [.tirl] text. Fresh SSA
    names are generated automatically; the result can be validated and
    printed back to concrete syntax. *)

open Ast

(* Declarations are consed onto reversed lists and put back in
   declaration order once, by {!design}: appending per declaration would
   make a replicated variant's hundreds of ports quadratic to build. *)
type t = {
  name : string;
  mutable mems : mem_obj list;  (* reversed, as are the lists below *)
  mutable streams : stream_obj list;
  mutable ports : port list;
  mutable globals : global list;
  mutable funcs : func list;
}

let create name =
  { name; mems = []; streams = []; ports = []; globals = []; funcs = [] }

(** [mem b name ~space ~ty ~size] declares a memory object and returns its
    name. *)
let mem b name ~space ~ty ~size =
  b.mems <- { mo_name = name; mo_space = space; mo_ty = ty; mo_size = size } :: b.mems;
  name

(** [stream b name ~dir ~mem ~pattern] declares a stream object over
    memory object [mem]. *)
let stream b name ~dir ~mem ~pattern =
  b.streams <-
    { so_name = name; so_dir = dir; so_mem = mem; so_pattern = pattern } :: b.streams;
  name

(** [port b ~fn ~port ~ty ~dir ~stream] binds parameter [port] of function
    [fn] to stream object [stream]. *)
let port b ~fn ~port:pt ~ty ~dir ?(space = Global) ?(pattern = Cont)
    ?(base_off = 0) ~stream () =
  b.ports <-
    {
      pt_fun = fn;
      pt_port = pt;
      pt_space = space;
      pt_ty = ty;
      pt_dir = dir;
      pt_pattern = pattern;
      pt_base_off = base_off;
      pt_stream = stream;
    }
    :: b.ports

(** [global b name ~ty ~init] declares a design-global accumulator. *)
let global b name ~ty ?(init = 0L) () =
  b.globals <- { g_name = name; g_ty = ty; g_init = init } :: b.globals;
  name

(** {2 Function bodies} *)

type fb = {
  mutable body : instr list;  (* reversed *)
  mutable fresh : int;
  params : (string * Ty.t) list;
}

(** Operand helpers. *)
let v name = Var name
let g name = Glob name
let i64 n = Imm (Int64.of_int n)
let f64 x = ImmF x

(** [param fb name] is the operand for parameter [name] (checked). *)
let param fb name =
  if List.mem_assoc name fb.params then Var name
  else invalid_arg (Printf.sprintf "Builder.param: no parameter %%%s" name)

(* [List.mem_assoc name params] with [String.equal]: it runs once per
   temporary *)
let rec binds name = function
  | [] -> false
  | (p, _) :: rest -> String.equal p name || binds name rest

(* A temporary never takes a parameter's name: a kernel input called
   [t0] is a parameter of [@f0]. *)
let rec fresh fb =
  let n = fb.fresh in
  fb.fresh <- n + 1;
  let name = Printf.sprintf "t%d" n in
  if binds name fb.params then fresh fb else name

(** [offset fb ~ty src off] emits a stream-offset definition and returns
    the new stream operand. *)
let offset fb ~ty src off =
  let dst = fresh fb in
  fb.body <- Offset { dst; ty; src; off } :: fb.body;
  Var dst

(** [offset_named fb dst ~ty src off] — as {!offset} with an explicit
    destination name. *)
let offset_named fb dst ~ty src off =
  fb.body <- Offset { dst; ty; src; off } :: fb.body;
  Var dst

(** [ins fb op ty args] emits an SSA assignment to a fresh local and
    returns it as an operand. *)
let ins fb op ty args =
  let dst = fresh fb in
  fb.body <- Assign { dst = Dlocal dst; ty; op; args } :: fb.body;
  Var dst

(** [ins_named fb dst op ty args] — as {!ins} with an explicit name. *)
let ins_named fb dst op ty args =
  fb.body <- Assign { dst = Dlocal dst; ty; op; args } :: fb.body;
  Var dst

(** [reduce fb glob op ty args] emits a reduction into global [@glob]. *)
let reduce fb glob op ty args =
  fb.body <- Assign { dst = Dglobal glob; ty; op; args } :: fb.body

(** [call fb callee args kind] emits a child-function instantiation;
    [rets] binds the callee's streamed outputs for peer-to-peer plumbing
    (coarse-grained pipelines). *)
let call ?(rets = []) fb callee args kind =
  fb.body <- Call { callee; args; kind; rets } :: fb.body

(** Shorthands for common binary operations. *)
let add fb ty a c = ins fb Add ty [ a; c ]
let sub fb ty a c = ins fb Sub ty [ a; c ]
let mul fb ty a c = ins fb Mul ty [ a; c ]
let div fb ty a c = ins fb Div ty [ a; c ]

(** [body ~params f] — the instructions [f] emits into a fresh
    function-body builder over [params], in emission order. *)
let body ~params f =
  let fb = { body = []; fresh = 0; params } in
  f fb;
  List.rev fb.body

(** [func_raw b name ~kind ~params body] defines a function from a ready
    instruction list. *)
let func_raw b name ~kind ~params body =
  b.funcs <-
    { fn_name = name; fn_params = params; fn_kind = kind; fn_body = body } :: b.funcs;
  name

(** [func b name ~kind ~params f] defines function [@name]; [f] receives a
    function-body builder. Returns the function name. *)
let func b name ~kind ~params f =
  func_raw b name ~kind ~params (body ~params f)

(** [design b] extracts the finished design (unvalidated). *)
let design b : design =
  {
    d_name = b.name;
    d_mems = List.rev b.mems;
    d_streams = List.rev b.streams;
    d_ports = List.rev b.ports;
    d_globals = List.rev b.globals;
    d_funcs = List.rev b.funcs;
  }

(** [design_exn b] extracts and validates; raises on invalid IR. *)
let design_exn b = Validate.check_exn (design b)
