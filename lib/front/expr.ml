(** The functional kernel DSL — the pure-software design-entry point of
    the TyTra flow (paper §II).

    A {!kernel} is the scalar function the high-level [map] applies to
    every element of the input vector(s): the paper's [p_sor]. Its body is
    a first-order expression over named input streams, neighbouring
    elements of those streams ({!Stencil}, the [p_i_pos]/[p_k_neg] terms
    of the SOR tuple), and scalar parameters. A {!program} is the
    application of a kernel over an index space: [ps = map p_sor pps]. *)

open Tytra_ir

type expr =
  | Input of string            (** current element of a named input stream *)
  | Stencil of string * int    (** neighbour at linear offset: [Stencil ("p", +1)] *)
  | Param of string            (** scalar kernel parameter (e.g. [omega]) *)
  | ConstI of int64
  | ConstF of float
  | Bin of Ast.op * expr * expr
  | Un of Ast.op * expr
  | Select of expr * expr * expr

(** Smart constructors. *)
let ( +: ) a b = Bin (Ast.Add, a, b)
let ( -: ) a b = Bin (Ast.Sub, a, b)
let ( *: ) a b = Bin (Ast.Mul, a, b)
let ( /: ) a b = Bin (Ast.Div, a, b)
let input s = Input s
let param s = Param s
let sten s o = Stencil (s, o)
let ci i = ConstI (Int64.of_int i)
let cf f = ConstF f

(** A named output stream computed by the kernel. *)
type output = { o_name : string; o_expr : expr }

(** [output_port o] — the name of output [o]'s port in a lowered design,
    prefixed [o_] so that it does not collide with the PE's [out_*] SSA
    local when the datapath lives in [@main] ([Seq]). *)
let output_port (o : output) = "o_" ^ o.o_name

(** A reduction into a design-global accumulator (the paper's
    [@sorErrAcc]). *)
type reduction = { r_name : string; r_op : Ast.op; r_expr : expr; r_init : int64 }

type kernel = {
  k_name : string;
  k_ty : Ty.t;                 (** element type of all streams *)
  k_inputs : string list;      (** input stream names, tuple order *)
  k_params : (string * int64) list;
      (** scalar parameters with their (integer-typed) values; for float
          kernels the value is bit-cast via {!param_float} *)
  k_outputs : output list;
  k_reductions : reduction list;
}

(** Encode a float parameter value in the int64 parameter slot. *)
let param_float (f : float) : int64 = Int64.bits_of_float f
let param_value_float (i : int64) : float = Int64.float_of_bits i

type program = {
  p_kernel : kernel;
  p_shape : int list;  (** index-space dimensions, e.g. [[im; jm; km]] *)
}

(* The product of [shape]'s sides times [n], or -1 once a side is below
   1 or the product would pass [max_int]. *)
let rec product n = function
  | [] -> n
  | side :: rest ->
      if side >= 1 && n <= max_int / side then product (n * side) rest else -1

(** [check_shape shape] — the number of points of an index space with
    sides [shape], multiplied out with an overflow check: [Error] says
    that a side is below 1 or that the product passes [max_int], which
    a plain product would wrap into a wrong count. Every shape that
    enters from outside (an explore's size, an imported loop nest's
    bounds, a chain) is refused here before anything sizes a design
    by it. *)
let check_shape (shape : int list) : (int, string) result =
  match product 1 shape with
  | -1 ->
      Error
        (Printf.sprintf "index space %s %s"
           (String.concat "x" (List.map string_of_int shape))
           (if List.exists (fun side -> side < 1) shape then
              "has a side below 1"
            else Printf.sprintf "has more than %d points" max_int))
  | n -> Ok n

(** The number of points of [p]'s index space; raises [Invalid_argument]
    on a shape {!check_shape} refuses. *)
let points (p : program) : int =
  match product 1 p.p_shape with
  | -1 -> invalid_arg ("Expr.points: " ^ Result.get_error (check_shape p.p_shape))
  | n -> n

(** The vector type of the program's input tuple stream — what the type
    transformations of {!Transform} reshape. *)
let vtype (p : program) : Vtype.t =
  Vtype.Vect (points p, Vtype.Scalar p.p_kernel.k_ty)

(** {2 Structural queries} *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Un (_, a) -> fold_expr f acc a
  | Select (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  | Input _ | Stencil _ | Param _ | ConstI _ | ConstF _ -> acc

(** All stencil offsets used per input stream. *)
let stencil_offsets (k : kernel) : (string * int list) list =
  let tbl = Hashtbl.create 8 in
  let collect e =
    fold_expr
      (fun () -> function
        | Stencil (s, o) ->
            let l = try Hashtbl.find tbl s with Not_found -> [] in
            if not (List.mem o l) then Hashtbl.replace tbl s (o :: l)
        | _ -> ())
      () e
  in
  List.iter (fun o -> collect o.o_expr) k.k_outputs;
  List.iter (fun r -> collect r.r_expr) k.k_reductions;
  List.map
    (fun s ->
      (s, (try List.sort compare (Hashtbl.find tbl s) with Not_found -> [])))
    k.k_inputs

(** Maximum absolute stencil offset — the front-end view of [Noff]. *)
let max_offset (k : kernel) : int =
  List.fold_left
    (fun acc (_, offs) -> List.fold_left (fun a o -> max a (abs o)) acc offs)
    0 (stencil_offsets k)

(** Number of arithmetic operations in the kernel body (front-end view of
    [NI]). *)
let op_count (k : kernel) : int =
  let count acc e =
    match e with Bin _ | Un _ | Select _ -> acc + 1 | _ -> acc
  in
  List.fold_left
    (fun acc o -> fold_expr count acc o.o_expr)
    (List.fold_left (fun acc r -> fold_expr count (acc + 1) r.r_expr) 0
       k.k_reductions)
    k.k_outputs

(** Validate a kernel: all referenced streams/params declared, no input
    named like an output's port ({!output_port}), no input or scalar
    named like the local that holds an output's value ([out_<name>]),
    operator arities respected by construction. *)
let check_kernel (k : kernel) : (unit, string) result =
  let declared = k.k_inputs in
  let params = List.map fst k.k_params in
  let bad = ref None in
  let visit e =
    fold_expr
      (fun () -> function
        | Input s | Stencil (s, _) ->
            if not (List.mem s declared) then
              bad := Some (Printf.sprintf "undeclared input stream %S" s)
        | Param s ->
            if not (List.mem s params) then
              bad := Some (Printf.sprintf "undeclared parameter %S" s)
        | _ -> ())
      () e
  in
  List.iter (fun o -> visit o.o_expr) k.k_outputs;
  List.iter (fun r -> visit r.r_expr) k.k_reductions;
  List.iter
    (fun o ->
      if List.mem (output_port o) declared then
        bad :=
          Some
            (Printf.sprintf "input stream %S has the port name of output %S"
               (output_port o) o.o_name);
      let local = "out_" ^ o.o_name in
      if List.mem local declared then
        bad :=
          Some
            (Printf.sprintf "input stream %S has the value name of output %S"
               local o.o_name);
      if List.mem local params then
        bad :=
          Some
            (Printf.sprintf "scalar %S has the value name of output %S" local
               o.o_name))
    k.k_outputs;
  if k.k_outputs = [] && k.k_reductions = [] then
    bad := Some "kernel has no outputs and no reductions";
  match !bad with None -> Ok () | Some e -> Error e
