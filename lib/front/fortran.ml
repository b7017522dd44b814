(** Legacy Fortran-style front end.

    The paper's conclusion: "Eventually, we plan to evolve our flow to
    include legacy code written in languages typically used for
    scientific computing like Fortran or C." This module implements that
    evolution for the loop-nest subset those kernels live in — the SOR
    kernel of the LES weather simulator is written exactly in this shape:

    {v
    parameter omega = 1
    do k = 1, km
      do j = 1, jm
        do i = 1, im
          reltmp = omega * (cn1 * (cn2l*p(i+1,j,k) + ...) - rhs(i,j,k)) - p(i,j,k)
          p_new(i,j,k) = p(i,j,k) + reltmp
          sorerr = sorerr + reltmp * reltmp
        end do
      end do
    end do
    v}

    Supported subset and its mapping onto the kernel DSL:
    - [parameter NAME = literal] → scalar kernel parameter;
    - a perfect [do] nest (1–3 deep, unit lower bound, upper bound a
      literal or a size name supplied via [~sizes]) → the index space;
      the innermost loop variable is the fastest (stride 1), as in
      Fortran's column-major array walks;
    - array references indexed by the loop variables, each index of the
      form [var], [var+c] or [var-c] → input streams with stencil
      offsets, linearized with the loop strides;
    - [target(i,j,k) = expr] → an output stream;
    - [acc = acc + expr] / [acc = max(acc, expr)] / [min] on a plain
      scalar → a global reduction;
    - any other scalar assignment → a local binding, inlined into later
      expressions (the kernel DSL is pure; sharing is recovered by CSE
      during lowering);
    - expressions: [+ - * /], parentheses, unary minus, integer and real
      literals, [min]/[max]/[abs]/[sqrt] intrinsics.

    Everything else (conditionals, non-affine indexing, imperfect nests,
    loop-carried dependences other than reductions) is rejected with a
    line-numbered error — this front end refuses rather than miscompiles. *)

exception Error of string * int

(** The loop nest parsed, but its bounds give an index space that
    {!Expr.check_shape} refuses, or the kernel it elaborates to fails
    {!Expr.check_kernel}; this carries their message. *)
exception Invalid of string

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type tok =
  | Id of string
  | Int of int
  | Real of float
  | Plus | Minus | Star | Slash
  | Lpar | Rpar | Comma | Assign
  | Newline
  | Eof

let tok_to_string = function
  | Id s -> s
  | Int i -> string_of_int i
  | Real f -> string_of_float f
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/"
  | Lpar -> "(" | Rpar -> ")" | Comma -> "," | Assign -> "="
  | Newline -> "<newline>"
  | Eof -> "<eof>"

let is_al c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_dig c = c >= '0' && c <= '9'

let tokenize (src : string) : (tok * int) list =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = out := (t, !line) :: !out in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      push Newline;
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '!' then while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '&' then begin
      (* free-form continuation: swallow to and including the newline *)
      incr i;
      while !i < n && src.[!i] <> '\n' do incr i done;
      if !i < n then begin
        incr line;
        incr i
      end
    end
    else if c = '+' then (push Plus; incr i)
    else if c = '-' then (push Minus; incr i)
    else if c = '*' then (push Star; incr i)
    else if c = '/' then (push Slash; incr i)
    else if c = '(' then (push Lpar; incr i)
    else if c = ')' then (push Rpar; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = '=' then (push Assign; incr i)
    else if is_dig c then begin
      let start = !i in
      while !i < n && is_dig src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_dig src.[!i + 1] then begin
        incr i;
        while !i < n && is_dig src.[!i] do incr i done;
        (if !i < n && (src.[!i] = 'e' || src.[!i] = 'E' || src.[!i] = 'd'
                       || src.[!i] = 'D') then begin
           incr i;
           if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
           while !i < n && is_dig src.[!i] do incr i done
         end);
        let s =
          String.map (fun c -> if c = 'd' || c = 'D' then 'e' else c)
            (String.sub src start (!i - start))
        in
        push (Real (float_of_string s))
      end
      else push (Int (int_of_string (String.sub src start (!i - start))))
    end
    else if is_al c then begin
      let start = !i in
      while !i < n && (is_al src.[!i] || is_dig src.[!i]) do incr i done;
      push (Id (String.lowercase_ascii (String.sub src start (!i - start))))
    end
    else raise (Error (Printf.sprintf "unexpected character %C" c, !line))
  done;
  push Eof;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Parser: statements                                                  *)
(* ------------------------------------------------------------------ *)

(* surface expression *)
type fexpr =
  | FNum of int64
  | FReal of float
  | FName of string
  | FArr of string * (string * int) list  (** base, per-dim (var, offset) *)
  | FBin of Tytra_ir.Ast.op * fexpr * fexpr
  | FNeg of fexpr
  | FCall of string * fexpr list

type stmt =
  | SAssign of string * (string * int) list option * fexpr
      (** target, indices (None = scalar), rhs *)

type floop = { fl_var : string; fl_hi : string_or_int; fl_body : fbody }
and string_or_int = Sname of string | Sint of int
and fbody = Loop of floop | Stmts of stmt list

type prog = {
  fp_params : (string * fexpr) list;
  fp_loop : floop;
}

type state = { mutable toks : (tok * int) list }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> Eof
let line_of st = match st.toks with (_, l) :: _ -> l | [] -> 0
let advance st = match st.toks with _ :: tl -> st.toks <- tl | [] -> ()

let err st msg = raise (Error (msg, line_of st))

let expect st t =
  if peek st = t then advance st
  else
    err st
      (Printf.sprintf "expected %s, found %s" (tok_to_string t)
         (tok_to_string (peek st)))

let expect_id st =
  match peek st with
  | Id s -> advance st; s
  | t -> err st ("expected identifier, found " ^ tok_to_string t)

let skip_newlines st =
  while peek st = Newline do advance st done

(* expression parsing: precedence climbing *)
let rec parse_expr st = parse_add st

and parse_add st =
  let lhs = ref (parse_mul st) in
  let rec go () =
    match peek st with
    | Plus -> advance st; lhs := FBin (Tytra_ir.Ast.Add, !lhs, parse_mul st); go ()
    | Minus -> advance st; lhs := FBin (Tytra_ir.Ast.Sub, !lhs, parse_mul st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_mul st =
  let lhs = ref (parse_unary st) in
  let rec go () =
    match peek st with
    | Star -> advance st; lhs := FBin (Tytra_ir.Ast.Mul, !lhs, parse_unary st); go ()
    | Slash -> advance st; lhs := FBin (Tytra_ir.Ast.Div, !lhs, parse_unary st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_unary st =
  match peek st with
  | Minus -> advance st; FNeg (parse_unary st)
  | Plus -> advance st; parse_unary st
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | Int v -> advance st; FNum (Int64.of_int v)
  | Real f -> advance st; FReal f
  | Lpar ->
      advance st;
      let e = parse_expr st in
      expect st Rpar;
      e
  | Id name -> (
      advance st;
      if peek st <> Lpar then FName name
      else begin
        advance st;
        if name = "min" || name = "max" || name = "abs" || name = "sqrt" then begin
          let rec args acc =
            let a = parse_expr st in
            match peek st with
            | Comma -> advance st; args (a :: acc)
            | Rpar -> advance st; List.rev (a :: acc)
            | t -> err st ("expected , or ) in intrinsic call, found " ^ tok_to_string t)
          in
          FCall (name, args [])
        end
        else begin
          (* array reference: indices of the form var, var+c, var-c *)
          let rec idxs acc =
            let v = expect_id st in
            let off =
              match peek st with
              | Plus -> (
                  advance st;
                  match peek st with
                  | Int k -> advance st; k
                  | t -> err st ("expected constant offset, found " ^ tok_to_string t))
              | Minus -> (
                  advance st;
                  match peek st with
                  | Int k -> advance st; -k
                  | t -> err st ("expected constant offset, found " ^ tok_to_string t))
              | _ -> 0
            in
            match peek st with
            | Comma -> advance st; idxs ((v, off) :: acc)
            | Rpar -> advance st; List.rev ((v, off) :: acc)
            | t -> err st ("expected , or ) in array index, found " ^ tok_to_string t)
          in
          FArr (name, idxs [])
        end
      end)
  | t -> err st ("expected expression, found " ^ tok_to_string t)

let parse_stmt st : stmt =
  let name = expect_id st in
  if peek st = Lpar then begin
    advance st;
    let rec idxs acc =
      let v = expect_id st in
      let off =
        match peek st with
        | Plus -> (advance st;
                   match peek st with
                   | Int k -> advance st; k
                   | _ -> err st "expected constant offset")
        | Minus -> (advance st;
                    match peek st with
                    | Int k -> advance st; -k
                    | _ -> err st "expected constant offset")
        | _ -> 0
      in
      match peek st with
      | Comma -> advance st; idxs ((v, off) :: acc)
      | Rpar -> advance st; List.rev ((v, off) :: acc)
      | t -> err st ("expected , or ) in assignment target, found " ^ tok_to_string t)
    in
    let indices = idxs [] in
    expect st Assign;
    let rhs = parse_expr st in
    SAssign (name, Some indices, rhs)
  end
  else begin
    expect st Assign;
    let rhs = parse_expr st in
    SAssign (name, None, rhs)
  end

let rec parse_do st : floop =
  (* 'do' already consumed *)
  let var = expect_id st in
  expect st Assign;
  (match peek st with
  | Int 1 -> advance st
  | t -> err st ("loop lower bound must be 1, found " ^ tok_to_string t));
  expect st Comma;
  let hi =
    match peek st with
    | Int v -> advance st; Sint v
    | Id s -> advance st; Sname s
    | t -> err st ("expected loop upper bound, found " ^ tok_to_string t)
  in
  skip_newlines st;
  let body =
    match peek st with
    | Id "do" ->
        advance st;
        let inner = parse_do st in
        skip_newlines st;
        Loop inner
    | _ ->
        let rec stmts acc =
          skip_newlines st;
          match peek st with
          | Id "end" | Id "enddo" -> List.rev acc
          | Eof -> err st "unexpected end of input inside do loop"
          | _ ->
              let s = parse_stmt st in
              skip_newlines st;
              stmts (s :: acc)
        in
        Stmts (stmts [])
  in
  (match peek st with
  | Id "enddo" -> advance st
  | Id "end" -> (
      advance st;
      match peek st with
      | Id "do" -> advance st
      | t -> err st ("expected 'do' after 'end', found " ^ tok_to_string t))
  | t -> err st ("expected 'end do', found " ^ tok_to_string t));
  { fl_var = var; fl_hi = hi; fl_body = body }

let parse_prog st : prog =
  let params = ref [] in
  skip_newlines st;
  let rec header () =
    match peek st with
    | Id "parameter" ->
        advance st;
        let name = expect_id st in
        expect st Assign;
        let v = parse_expr st in
        params := (name, v) :: !params;
        skip_newlines st;
        header ()
    | _ -> ()
  in
  header ();
  (match peek st with
  | Id "do" -> advance st
  | t -> err st ("expected a do loop, found " ^ tok_to_string t));
  let loop = parse_do st in
  skip_newlines st;
  (match peek st with
  | Eof -> ()
  | t -> err st ("trailing input after the loop nest: " ^ tok_to_string t));
  { fp_params = List.rev !params; fp_loop = loop }

(* ------------------------------------------------------------------ *)
(* Elaboration to the kernel DSL                                       *)
(* ------------------------------------------------------------------ *)

type elab = {
  el_ty : Tytra_ir.Ty.t;
  el_strides : (string * int) list;  (** loop var → linear stride *)
  el_dims : (string * int) list;     (** loop var → extent, outer first *)
  el_index_order : string list;
      (** expected array-subscript order: innermost-first for Fortran
          (leftmost-fastest), outermost-first for C (rightmost-fastest) *)
  mutable el_inputs : string list;
  el_params : (string * int64) list;
  mutable el_locals : (string * Expr.expr) list;
  mutable el_outputs : Expr.output list;
  mutable el_reductions : Expr.reduction list;
}

let lit_value ty (e : fexpr) : int64 =
  match (e, Tytra_ir.Ty.is_float ty) with
  | FNum v, false -> v
  | FNum v, true -> Expr.param_float (Int64.to_float v)
  | FReal f, true -> Expr.param_float f
  | FReal f, false -> Int64.of_float f
  | FNeg (FNum v), false -> Int64.neg v
  | FNeg (FReal f), true -> Expr.param_float (-.f)
  | _ -> raise (Error ("parameter value must be a literal", 0))

let rec elab_expr (el : elab) (e : fexpr) : Expr.expr =
  match e with
  | FNum v ->
      if Tytra_ir.Ty.is_float el.el_ty then Expr.ConstF (Int64.to_float v)
      else Expr.ConstI v
  | FReal f ->
      if Tytra_ir.Ty.is_float el.el_ty then Expr.ConstF f
      else Expr.ConstI (Int64.of_float f)
  | FName n -> (
      match List.assoc_opt n el.el_locals with
      | Some bound -> bound
      | None ->
          if List.mem_assoc n el.el_params then Expr.Param n
          else
            raise
              (Error
                 (Printf.sprintf
                    "scalar %S is neither a parameter, a local, nor an array"
                    n, 0)))
  | FArr (base, idxs) ->
      let vars_in_order = el.el_index_order in
      let given = List.map fst idxs in
      if given <> vars_in_order then
        raise
          (Error
             (Printf.sprintf
                "array %S must be indexed as (%s); found (%s)" base
                (String.concat "," vars_in_order)
                (String.concat "," given), 0));
      let off =
        List.fold_left
          (fun acc (v, o) -> acc + (o * List.assoc v el.el_strides))
          0 idxs
      in
      if not (List.mem base el.el_inputs) then
        el.el_inputs <- el.el_inputs @ [ base ];
      if off = 0 then Expr.Input base else Expr.Stencil (base, off)
  | FBin (op, a, b) -> Expr.Bin (op, elab_expr el a, elab_expr el b)
  | FNeg a -> Expr.Un (Tytra_ir.Ast.Neg, elab_expr el a)
  | FCall ("min", [ a; b ]) ->
      Expr.Bin (Tytra_ir.Ast.Min, elab_expr el a, elab_expr el b)
  | FCall ("max", [ a; b ]) ->
      Expr.Bin (Tytra_ir.Ast.Max, elab_expr el a, elab_expr el b)
  | FCall ("abs", [ a ]) -> Expr.Un (Tytra_ir.Ast.Abs, elab_expr el a)
  | FCall ("sqrt", [ a ]) -> Expr.Un (Tytra_ir.Ast.Sqrt, elab_expr el a)
  | FCall (f, args) ->
      raise
        (Error
           (Printf.sprintf "unsupported intrinsic %s/%d" f (List.length args),
            0))

(* does [e] mention scalar [name]? *)
let rec mentions name = function
  | FName n -> n = name
  | FArr _ | FNum _ | FReal _ -> false
  | FBin (_, a, b) -> mentions name a || mentions name b
  | FNeg a -> mentions name a
  | FCall (_, args) -> List.exists (mentions name) args

(* recognise accumulator updates: acc = acc + e | e + acc | max(acc, e)… *)
let reduction_pattern name (rhs : fexpr) : (Tytra_ir.Ast.op * fexpr) option =
  match rhs with
  | FBin (Tytra_ir.Ast.Add, FName n, e) when n = name && not (mentions name e)
    -> Some (Tytra_ir.Ast.Add, e)
  | FBin (Tytra_ir.Ast.Add, e, FName n) when n = name && not (mentions name e)
    -> Some (Tytra_ir.Ast.Add, e)
  | FCall ("max", [ FName n; e ]) when n = name && not (mentions name e) ->
      Some (Tytra_ir.Ast.Max, e)
  | FCall ("max", [ e; FName n ]) when n = name && not (mentions name e) ->
      Some (Tytra_ir.Ast.Max, e)
  | FCall ("min", [ FName n; e ]) when n = name && not (mentions name e) ->
      Some (Tytra_ir.Ast.Min, e)
  | FCall ("min", [ e; FName n ]) when n = name && not (mentions name e) ->
      Some (Tytra_ir.Ast.Min, e)
  | _ -> None

let elab_stmt (el : elab) (s : stmt) : unit =
  match s with
  | SAssign (name, Some idxs, rhs) ->
      (* stream output; the indices must be the plain loop variables *)
      List.iter
        (fun (_, o) ->
          if o <> 0 then
            raise (Error ("output array must be written at (i,j,k) exactly", 0)))
        idxs;
      el.el_outputs <-
        el.el_outputs @ [ { Expr.o_name = name; o_expr = elab_expr el rhs } ]
  | SAssign (name, None, rhs) -> (
      match reduction_pattern name rhs with
      | Some (op, e) ->
          el.el_reductions <-
            el.el_reductions
            @ [ { Expr.r_name = name; r_op = op; r_expr = elab_expr el e;
                  r_init = 0L } ]
      | None ->
          if mentions name rhs then
            raise
              (Error
                 (Printf.sprintf
                    "scalar %S depends on itself but is not a recognised \
                     reduction" name, 0));
          el.el_locals <- (name, elab_expr el rhs) :: el.el_locals)

(** Shared elaboration used by this front end and the C one: turn a
    statement list inside a loop nest into a kernel program. [dims] is
    outer→inner with extents; [index_order] is the array-subscript
    convention of the source language. *)
let elaborate ~(ty : Tytra_ir.Ty.t) ~(name : string)
    ~(params : (string * int64) list) ~(dims : (string * int) list)
    ~(index_order : string list) (body : stmt list) : Expr.program =
  let shape = List.map snd dims in
  (match Expr.check_shape shape with
  | Ok _ -> ()
  | Error e -> raise (Invalid e));
  let rev = List.rev dims in
  let strides =
    let rec go acc stride = function
      | [] -> acc
      | (v, ext) :: tl -> go ((v, stride) :: acc) (stride * ext) tl
    in
    go [] 1 rev
  in
  let el =
    {
      el_ty = ty;
      el_strides = List.map (fun (v, _) -> (v, List.assoc v strides)) dims;
      el_dims = dims;
      el_index_order = index_order;
      el_inputs = [];
      el_params = params;
      el_locals = [];
      el_outputs = [];
      el_reductions = [];
    }
  in
  List.iter (elab_stmt el) body;
  let kernel =
    {
      Expr.k_name = name;
      k_ty = ty;
      k_inputs = el.el_inputs;
      k_params = params;
      k_outputs = el.el_outputs;
      k_reductions = el.el_reductions;
    }
  in
  (match Expr.check_kernel kernel with
  | Ok () -> ()
  | Error e -> raise (Invalid e));
  { Expr.p_kernel = kernel; p_shape = shape }

(** [parse ?ty ?name ~sizes src] — parse and elaborate a Fortran-style
    loop nest into a kernel program. [sizes] resolves symbolic loop
    bounds (e.g. [("im", 16)]). *)
let parse ?(ty = Tytra_ir.Ty.UInt 18) ?(name = "legacy")
    ~(sizes : (string * int) list) (src : string) : Expr.program =
  let st = { toks = tokenize src } in
  let prog = parse_prog st in
  (* collect the nest: outer → inner *)
  let rec collect (l : floop) acc =
    match l.fl_body with
    | Loop inner -> collect inner ((l.fl_var, l.fl_hi) :: acc)
    | Stmts body -> (List.rev ((l.fl_var, l.fl_hi) :: acc), body)
  in
  let nest, body = collect prog.fp_loop [] in
  if List.length nest > 3 then
    raise (Error ("loop nests deeper than 3 are not supported", 0));
  let extent = function
    | Sint v -> v
    | Sname s -> (
        match List.assoc_opt s sizes with
        | Some v -> v
        | None -> raise (Error (Printf.sprintf "unknown size name %S" s, 0)))
  in
  let dims = List.map (fun (v, hi) -> (v, extent hi)) nest in
  let params =
    List.map (fun (n, e) -> (n, lit_value ty e)) prog.fp_params
  in
  (* Fortran arrays are leftmost-fastest: subscripts run innermost-first *)
  elaborate ~ty ~name ~params ~dims
    ~index_order:(List.rev (List.map fst dims))
    body

(** As {!parse}, reading from a file. *)
let parse_file ?ty ?name ~sizes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let src = really_input_string ic (in_channel_length ic) in
      let name =
        match name with
        | Some n -> n
        | None -> Filename.remove_extension (Filename.basename path)
      in
      parse ?ty ~name ~sizes src)
