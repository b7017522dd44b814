(** Abstract syntax of the TyTra-IR.

    A design has two components (paper §IV):

    - the {e Manage-IR}: memory objects (sources/sinks of streams — the
      equivalent of arrays in main memory), stream objects connecting a
      streaming port of a processing element to a memory object, and port
      declarations binding kernel arguments to streams;
    - the {e Compute-IR}: a hierarchy of IR functions, each carrying a
      parallelism keyword ([pipe]/[par]/[seq]/[comb]), whose bodies are
      SSA instructions, stream-offset definitions and calls. *)

(** Parallelism pattern of an IR function (paper §IV). *)
type kind =
  | Pipe  (** pipeline parallelism: one result per cycle in steady state *)
  | Par   (** thread parallelism: children execute concurrently *)
  | Seq   (** sequential execution of the body *)
  | Comb  (** custom single-cycle combinatorial block *)
[@@deriving show { with_path = false }, eq, ord]

let kind_to_string = function
  | Pipe -> "pipe" | Par -> "par" | Seq -> "seq" | Comb -> "comb"

(** Memory-hierarchy level, with the paper's numbering (Fig 4):
    private = 0, global = 1, local = 2, constant = 3. *)
type space = Private | Global | Local | Constant
[@@deriving show { with_path = false }, eq, ord]

let space_level = function
  | Private -> 0 | Global -> 1 | Local -> 2 | Constant -> 3

let space_of_level = function
  | 0 -> Some Private | 1 -> Some Global | 2 -> Some Local | 3 -> Some Constant
  | _ -> None

let space_to_string = function
  | Private -> "private" | Global -> "global"
  | Local -> "local" | Constant -> "constant"

(** Streaming-data access pattern (paper §III-6): the prototype model
    considers contiguous and constant-stride access; we additionally model
    pseudo-random access, which the paper measured to behave like strided
    access. *)
type pattern = Cont | Strided of int | Random
[@@deriving show { with_path = false }, eq, ord]

let pattern_to_string = function
  | Cont -> "cont"
  | Strided s -> Printf.sprintf "strided %d" s
  | Random -> "random"

(** Stream direction, from the processing element's point of view. *)
type dir = IStream | OStream
[@@deriving show { with_path = false }, eq, ord]

let dir_to_string = function IStream -> "istream" | OStream -> "ostream"

(** Manage-IR: a memory object — any entity that can source or sink a
    stream; typically an array in device DRAM ([Global]) or an on-chip
    block-RAM buffer ([Local]). [mo_size] is in elements of [mo_ty]. *)
type mem_obj = {
  mo_name : string;
  mo_space : space;
  mo_ty : Ty.t;
  mo_size : int;
}
[@@deriving show { with_path = false }, eq]

(** Manage-IR: a stream object connecting a port to a memory object. *)
type stream_obj = {
  so_name : string;
  so_dir : dir;
  so_mem : string;       (** name of the backing memory object *)
  so_pattern : pattern;
}
[@@deriving show { with_path = false }, eq]

(** Manage-IR: a port declaration
    [@f.p = addrspace(N) ty !dir !pattern !offset !streamobj],
    binding argument [pt_port] of function [pt_fun] to stream
    [pt_stream]. *)
type port = {
  pt_fun : string;
  pt_port : string;
  pt_space : space;
  pt_ty : Ty.t;
  pt_dir : dir;
  pt_pattern : pattern;
  pt_base_off : int;
  pt_stream : string;
}
[@@deriving show { with_path = false }, eq]

(** An operand of an SSA instruction. *)
type operand =
  | Var of string    (** local SSA value or function parameter, [%x] *)
  | Glob of string   (** global (design-level) value, [@x] *)
  | Imm of int64     (** integer immediate *)
  | ImmF of float    (** floating-point immediate *)
[@@deriving show { with_path = false }, eq, ord]

(** Primitive operations of the Compute-IR datapath. The same constructor
    is used for integer and floating-point variants; the instruction's type
    disambiguates (and costs differently, §V-A). *)
type op =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Min | Max | Abs | Neg | Not | Sqrt
  | CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe
  | Select  (** 3-ary multiplexer: [select c, a, b] *)
  | Mov     (** register copy / width adjustment *)
[@@deriving show { with_path = false }, eq, ord]

let op_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Min -> "min" | Max -> "max" | Abs -> "abs" | Neg -> "neg" | Not -> "not"
  | Sqrt -> "sqrt"
  | CmpEq -> "cmpeq" | CmpNe -> "cmpne" | CmpLt -> "cmplt"
  | CmpLe -> "cmple" | CmpGt -> "cmpgt" | CmpGe -> "cmpge"
  | Select -> "select" | Mov -> "mov"

let op_of_string = function
  | "add" -> Some Add | "sub" -> Some Sub | "mul" -> Some Mul
  | "div" -> Some Div | "rem" -> Some Rem
  | "and" -> Some And | "or" -> Some Or | "xor" -> Some Xor
  | "shl" -> Some Shl | "shr" -> Some Shr
  | "min" -> Some Min | "max" -> Some Max | "abs" -> Some Abs
  | "neg" -> Some Neg | "not" -> Some Not | "sqrt" -> Some Sqrt
  | "cmpeq" -> Some CmpEq | "cmpne" -> Some CmpNe | "cmplt" -> Some CmpLt
  | "cmple" -> Some CmpLe | "cmpgt" -> Some CmpGt | "cmpge" -> Some CmpGe
  | "select" -> Some Select | "mov" -> Some Mov
  | _ -> None

(** Destination of an assignment: a fresh SSA local, or a design-global
    accumulator (the paper's reduction idiom,
    [@sorErrAcc = add ui18 %sorErr, @sorErrAcc]). *)
type dest = Dlocal of string | Dglobal of string
[@@deriving show { with_path = false }, eq, ord]

let dest_name = function Dlocal s | Dglobal s -> s

(** A Compute-IR instruction. *)
type instr =
  | Offset of { dst : string; ty : Ty.t; src : operand; off : int }
      (** stream offset: [%pip1 = offset ui18 %p, +1] — creates a stream
          whose element [i] is element [i + off] of [src] (paper Fig 12,
          lines 6–9). Negative offsets look backwards in the stream. *)
  | Assign of { dst : dest; ty : Ty.t; op : op; args : operand list }
      (** SSA assignment: [%1 = mul ui18 %pip1, %cn2l] *)
  | Call of {
      callee : string;
      args : operand list;
      kind : kind;
      rets : string list;
          (** stream values produced by the callee, bound positionally to
              its [out_*] outputs — the peer-to-peer plumbing of
              coarse-grained pipelines (paper Fig 7, configurations 3–4):
              [%s1 = call @pipeA (%x) pipe]. Empty for leaf calls whose
              outputs leave through ports. *)
    }
      (** instantiation of a child IR function with the given
          parallelism pattern: [call @f0 (...) pipe] *)
[@@deriving show { with_path = false }, eq]

(** A Compute-IR function — equivalent to an HDL module, but at higher
    abstraction, with a parallelism keyword. *)
type func = {
  fn_name : string;
  fn_params : (string * Ty.t) list;
  fn_kind : kind;
  fn_body : instr list;
}
[@@deriving show { with_path = false }, eq]

(** Design-level global values (reduction accumulators). *)
type global = { g_name : string; g_ty : Ty.t; g_init : int64 }
[@@deriving show { with_path = false }, eq]

(** A complete TyTra-IR design: Manage-IR + Compute-IR. *)
type design = {
  d_name : string;
  d_mems : mem_obj list;
  d_streams : stream_obj list;
  d_ports : port list;
  d_globals : global list;
  d_funcs : func list;
}
[@@deriving show { with_path = false }, eq]

(** {2 Lookups} *)

let find_func d name = List.find_opt (fun f -> f.fn_name = name) d.d_funcs
let find_mem d name = List.find_opt (fun m -> m.mo_name = name) d.d_mems
let find_stream d name = List.find_opt (fun s -> s.so_name = name) d.d_streams
let find_global d name = List.find_opt (fun g -> g.g_name = name) d.d_globals

let find_func_exn d name =
  match find_func d name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "no function @%s in design %s" name d.d_name)

let find_mem_exn d name =
  match find_mem d name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "no memory object %%%s in design %s" name d.d_name)

let find_stream_exn d name =
  match find_stream d name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "no stream object %%%s in design %s" name d.d_name)

(** Ports declared for function [fname]. *)
let ports_of d fname = List.filter (fun p -> p.pt_fun = fname) d.d_ports

(** The top-level function. By convention a design's entry point is
    [@main]. *)
let main_func d = find_func_exn d "main"

(** Result type of an operation at operand type [ty]: comparisons
    produce [Bool]. *)
let result_ty (op : op) (ty : Ty.t) : Ty.t =
  match op with
  | CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe -> Ty.Bool
  | _ -> ty

(** The streamed outputs of a function: its [out_*]-named SSA values with
    their types, in body order (see {!Conventions}). *)
let func_outputs (f : func) : (string * Ty.t) list =
  List.filter_map
    (function
      | Assign { dst = Dlocal n; ty; op; _ } when Conventions.is_output n ->
          Some (n, result_ty op ty)
      | _ -> None)
    f.fn_body

(** [arity op] is the number of operands [op] expects. *)
let arity = function
  | Select -> 3
  | Abs | Neg | Not | Sqrt | Mov -> 1
  | _ -> 2

(** Whether an instruction writes a design-global accumulator. *)
let is_reduction = function
  | Assign { dst = Dglobal _; _ } -> true
  | _ -> false

(** Fold over all instructions of a function subtree rooted at [fn],
    visiting callee bodies too (each call site contributes one traversal
    of its callee). *)
let rec fold_instrs d fn acc f =
  List.fold_left
    (fun acc i ->
      let acc = f acc fn i in
      match i with
      | Call { callee; _ } -> (
          match find_func d callee with
          | Some g -> fold_instrs d g acc f
          | None -> acc)
      | _ -> acc)
    acc fn.fn_body
