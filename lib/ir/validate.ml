(** Static validation of TyTra-IR designs.

    The TyTra-IR is strongly and statically typed and uses static single
    assignment (paper §IV). [check] enforces:

    - name uniqueness (memory objects, streams, ports, globals, functions);
    - referential integrity (streams → memory objects, ports → streams and
      function parameters, calls → functions);
    - SSA discipline: every local is assigned at most once per function and
      defined before use;
    - type correctness of every instruction, including immediate ranges;
    - parallelism-kind well-formedness: [par] bodies contain only calls,
      [comb] bodies contain only combinatorial assignments, call-site kinds
      match callee declarations;
    - an acyclic call graph rooted at [@main].

    {!check_sym} is one traversal in source order over a {!Symtab}
    index with O(1) lookups; errors come back in source order with
    identical (loc, msg) pairs deduplicated (DESIGN.md §10). {!check}
    indexes a design and runs it.

    {!check_delta_sym} is the derived-variant entry point: it validates
    a design whose processing-element bodies are already-validated
    templates ([Tytra_front.Lower.derive_sym]), re-checking only the
    per-variant delta — Manage-IR, top-level wiring and call sites — on
    the index the cost model then reuses (DESIGN.md §10.6). *)

open Ast

type error = { loc : string; msg : string }

let pp_error fmt e = Format.fprintf fmt "%s: %s" e.loc e.msg
let error_to_string e = Format.asprintf "%a" pp_error e

let err errs loc fmt = Format.kasprintf (fun msg -> errs := { loc; msg } :: !errs) fmt

(* Type of the value produced by an assignment with declared operand type
   [ty]. Comparisons produce Bool. *)
let result_ty op ty =
  match op with
  | CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe -> Ty.Bool
  | _ -> ty

(* ------------------------------------------------------------------ *)
(* One pass over the Symtab index, errors in source order              *)
(* ------------------------------------------------------------------ *)

module Tbl = Symtab.Tbl

(* An entry of a function's SSA table. A name declared as a parameter
   stays a valid offset source even after a local reassigns it (an SSA
   error of its own); the entry's type is the latest definition's. *)
type binding = Param of Ty.t | Local of Ty.t

(* Operand check against the indexed globals; [env] is the per-function
   SSA table. *)
let check_operand errs loc (sy : Symtab.t) ~env ~expect (o : operand) =
  match o with
  | Var v -> (
      match Tbl.find_opt env v with
      | None -> err errs loc "use of undefined local %%%s" v
      | Some (Param t | Local t) ->
          if not (Ty.equal t expect) then
            err errs loc "operand %%%s has type %s, expected %s" v
              (Ty.to_string t) (Ty.to_string expect))
  | Glob g -> (
      match Symtab.find_global sy g with
      | None -> err errs loc "use of undeclared global @%s" g
      | Some gl ->
          if not (Ty.equal gl.g_ty expect) then
            err errs loc "global @%s has type %s, expected %s" g
              (Ty.to_string gl.g_ty) (Ty.to_string expect))
  | Imm i -> (
      if Ty.is_float expect then
        err errs loc "integer immediate %Ld used at float type %s" i
          (Ty.to_string expect)
      else
        match Ty.int_range expect with
        | Some (lo, hi) when Int64.compare i lo < 0 || Int64.compare i hi > 0 ->
            err errs loc "immediate %Ld out of range for %s" i
              (Ty.to_string expect)
        | _ -> ())
  | ImmF f ->
      if not (Ty.is_float expect) then
        err errs loc "float immediate %g used at integer type %s" f
          (Ty.to_string expect)

(* Body check of one function: SSA discipline, types, call wiring and
   kind shape, in one walk. The SSA environment only grows along the
   body, so one mutable table per function holds it, parameters
   included. *)
let check_func errs (sy : Symtab.t) (f : func) =
  let loc = "@" ^ f.fn_name in
  let env = Tbl.create (2 * (List.length f.fn_params + 8)) in
  (* parameters come first, so a name already in [env] is a duplicate
     parameter; the later declaration's type wins *)
  List.iter
    (fun (n, t) ->
      if Tbl.mem env n then err errs loc "duplicate %s %S" "parameter" n;
      Tbl.replace env n (Param t);
      if not (Ty.valid t) then
        err errs loc "parameter %%%s has invalid type %s" n (Ty.to_string t))
    f.fn_params;
  let reassigned n =
    if Tbl.mem env n then err errs loc "local %%%s reassigned (SSA)" n
  in
  (* (re)define [n] at [ty], keeping a parameter's tag *)
  let define n ty =
    Tbl.replace env n
      (match Tbl.find_opt env n with
      | Some (Param _) -> Param ty
      | Some (Local _) | None -> Local ty)
  in
  List.iter
    (fun i ->
        (* kind-specific body shape, checked at the instruction *)
        (match (f.fn_kind, i) with
        | Par, Call _ -> ()
        | Par, i ->
            err errs loc "par function body must contain only calls, found: %s"
              (Pprint.instr_to_string i)
        | Comb, Assign _ -> ()
        | Comb, (Offset _ as i) | Comb, (Call _ as i) ->
            err errs loc
              "comb function body must be pure combinatorial assignments, \
               found: %s"
              (Pprint.instr_to_string i)
        | (Pipe | Seq), _ -> ());
        match i with
        | Offset { dst; ty; src; off = _ } ->
            if f.fn_kind = Comb then
              err errs loc "offset %%%s not allowed in comb function" dst;
            reassigned dst;
            (match src with
            | Var v -> (
                match Tbl.find_opt env v with
                | Some (Param _) -> ()
                | Some (Local _) | None ->
                    err errs loc "offset source %%%s must be a stream parameter" v)
            | _ -> err errs loc "offset source must be a stream parameter");
            check_operand errs loc sy ~env ~expect:ty src;
            define dst ty
        | Assign { dst; ty; op; args } ->
            if not (Ty.valid ty) then
              err errs loc "instruction at invalid type %s" (Ty.to_string ty);
            if List.length args <> arity op then
              err errs loc "%s expects %d operands, got %d" (op_to_string op)
                (arity op) (List.length args);
            (match (op, ty) with
            | (And | Or | Xor | Not | Shl | Shr | Rem), t when Ty.is_float t ->
                err errs loc "bitwise/modular op %s at float type %s"
                  (op_to_string op) (Ty.to_string t)
            | _ -> ());
            (match (op, args) with
            | Select, [ c; a; b ] ->
                check_operand errs loc sy ~env ~expect:Ty.Bool c;
                check_operand errs loc sy ~env ~expect:ty a;
                check_operand errs loc sy ~env ~expect:ty b
            | _ ->
                List.iter (check_operand errs loc sy ~env ~expect:ty) args);
            let rty = result_ty op ty in
            (match dst with
            | Dlocal n ->
                reassigned n;
                define n rty
            | Dglobal g -> (
                match Symtab.find_global sy g with
                | None -> err errs loc "assignment to undeclared global @%s" g
                | Some gl ->
                    if not (Ty.equal gl.g_ty rty) then
                      err errs loc
                        "reduction into @%s: type %s does not match global %s" g
                        (Ty.to_string rty) (Ty.to_string gl.g_ty)))
        | Call { callee; args; kind; rets } -> (
            (if f.fn_kind = Comb then
               err errs loc "call not allowed in comb function");
            match Symtab.find_func sy callee with
            | None -> err errs loc "call to undefined function @%s" callee
            | Some g ->
                if g.fn_kind <> kind then
                  err errs loc
                    "call-site kind %s does not match @%s's declared kind %s"
                    (kind_to_string kind) callee (kind_to_string g.fn_kind);
                if List.length args <> List.length g.fn_params then
                  err errs loc "call to @%s with %d arguments, expected %d"
                    callee (List.length args) (List.length g.fn_params)
                else
                  List.iter2
                    (fun a (_, t) ->
                      check_operand errs loc sy ~env ~expect:t a)
                    args g.fn_params;
                (* returning calls: bind the callee's out_* streams *)
                let outs = Symtab.func_outputs sy g in
                if List.length rets > List.length outs then
                  err errs loc
                    "call to @%s binds %d results but the callee streams %d \
                     outputs"
                    callee (List.length rets) (List.length outs)
                else
                  List.iter2
                    (fun r (_, rty) ->
                      if Tbl.mem env r then
                        err errs loc "local %%%s reassigned (SSA)" r
                      else Tbl.add env r (Local rty))
                    rets
                    (List.filteri (fun i _ -> i < List.length rets) outs)))
    f.fn_body

(* Detect call-graph cycles reachable from any function, O(1) callee
   resolution. *)
let check_recursion errs (sy : Symtab.t) =
  let color = Tbl.create 16 in
  (* 0 = white, 1 = grey, 2 = black *)
  let rec visit name =
    match Tbl.find_opt color name with
    | Some 1 -> err errs ("@" ^ name) "recursive call cycle through @%s" name
    | Some 2 -> ()
    | _ -> (
        Tbl.replace color name 1;
        (match Symtab.find_func sy name with
        | None -> ()
        | Some f ->
            List.iter
              (function Call { callee; _ } -> visit callee | _ -> ())
              f.fn_body);
        Tbl.replace color name 2)
  in
  List.iter (fun f -> visit f.fn_name) (Symtab.design sy).d_funcs

(* Deduplicate identical (loc, msg) pairs, keeping the first occurrence,
   so cascading errors (the same undefined stream referenced by every
   lane's port, say) report once. *)
let dedup_errors (es : error list) : error list =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen (e.loc, e.msg) then false
      else begin
        Hashtbl.add seen (e.loc, e.msg) ();
        true
      end)
    es

(* The single source-order pass. [skip_body f] suppresses the
   per-instruction body walk of function [f] (derived variants whose PE
   bodies come from an already-validated template). *)
let check_indexed ~skip_body (sy : Symtab.t) : error list =
  let d = Symtab.design sy in
  let errs = ref [] in
  (* [report_dups what loc i n] reports the [i]th declaration of class
     [what], named [n], if the index recorded it as a duplicate *)
  let report_dups what =
    let q =
      ref
        (List.filter_map
           (fun (u : Symtab.dup) ->
             if u.dup_what = what then Some u.dup_pos else None)
           (Symtab.duplicates sy))
    in
    fun loc i n ->
      match !q with
      | j :: tl when j = i ->
          q := tl;
          err errs loc "duplicate %s %S" what n
      | _ -> ()
  in
  (* --- Manage-IR, in .tirl source order: mems, streams, ports --- *)
  let mem_dup = report_dups "memory object" in
  List.iteri
    (fun i m ->
      let loc = "%" ^ m.mo_name in
      mem_dup "manage" i m.mo_name;
      if m.mo_size <= 0 then err errs loc "memory object size must be positive";
      if not (Ty.valid m.mo_ty) then
        err errs loc "invalid element type %s" (Ty.to_string m.mo_ty))
    d.d_mems;
  let stream_dup = report_dups "stream object" in
  List.iteri
    (fun i s ->
      let loc = "%" ^ s.so_name in
      stream_dup "manage" i s.so_name;
      (match Symtab.find_mem sy s.so_mem with
      | None ->
          err errs loc "stream references unknown memory object %%%s" s.so_mem
      | Some _ -> ());
      match s.so_pattern with
      | Strided k when k <= 0 ->
          err errs loc "stride must be positive, got %d" k
      | _ -> ())
    d.d_streams;
  (* ports are not indexed by name, so they keep their own duplicate
     table; a port's location is only printed when it has an error *)
  let ports_seen = Hashtbl.create (List.length d.d_ports) in
  let port_err p = err errs (Printf.sprintf "@%s.%s" p.pt_fun p.pt_port) in
  List.iter
    (fun p ->
      if Hashtbl.mem ports_seen (p.pt_fun, p.pt_port) then
        err errs "manage" "duplicate %s %S" "port" (p.pt_fun ^ "." ^ p.pt_port)
      else Hashtbl.add ports_seen (p.pt_fun, p.pt_port) ();
      (match Symtab.find_stream sy p.pt_stream with
      | None -> port_err p "port references unknown stream object %%%s" p.pt_stream
      | Some s ->
          if s.so_dir <> p.pt_dir then
            port_err p "port direction %s conflicts with stream %%%s (%s)"
              (dir_to_string p.pt_dir) s.so_name (dir_to_string s.so_dir);
          (match Symtab.find_mem sy s.so_mem with
          | Some m when not (Ty.equal m.mo_ty p.pt_ty) ->
              port_err p "port type %s does not match memory %%%s element type %s"
                (Ty.to_string p.pt_ty) m.mo_name (Ty.to_string m.mo_ty)
          | _ -> ()));
      match Symtab.find_func sy p.pt_fun with
      | None -> port_err p "port on unknown function @%s" p.pt_fun
      | Some f -> (
          match Symtab.param_ty sy f p.pt_port with
          | None ->
              port_err p "function @%s has no parameter %%%s" p.pt_fun p.pt_port
          | Some t ->
              if not (Ty.equal t p.pt_ty) then
                port_err p "port type %s does not match parameter type %s"
                  (Ty.to_string p.pt_ty) (Ty.to_string t)))
    d.d_ports;
  let global_dup = report_dups "global" in
  List.iteri (fun i g -> global_dup "manage" i g.g_name) d.d_globals;
  (* --- Compute-IR, declaration order --- *)
  let func_dup = report_dups "function" in
  List.iteri
    (fun i f ->
      func_dup "design" i f.fn_name;
      if not (skip_body f) then check_func errs sy f)
    d.d_funcs;
  (* --- design level --- *)
  (match Symtab.find_func sy "main" with
  | None -> err errs "design" "no @main function"
  | Some _ -> ());
  check_recursion errs sy;
  dedup_errors (List.rev !errs)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** [check_sym sy] validates the indexed design, returning all errors
    found (empty on success), in source order with identical (loc, msg)
    pairs deduplicated. *)
let check_sym (sy : Symtab.t) : error list =
  Tytra_telemetry.Span.with_ ~name:"ir.validate"
    ~attrs:[ ("design", Tytra_telemetry.Span.Str (Symtab.design sy).d_name) ]
  @@ fun () -> check_indexed ~skip_body:(fun _ -> false) sy

(** [check d] — {!check_sym} on a fresh index of [d]. *)
let check (d : design) : error list = check_sym (Symtab.of_design d)

(** [check_delta_sym ~trusted sy] — validate the indexed design skipping
    the per-instruction body walk of the functions named in [trusted]
    (their bodies are shared with an already-validated template design,
    physically or structurally). Everything else — Manage-IR, wiring
    functions, call sites into trusted functions, the call graph — is
    checked in full. Counts one [ir.validate.fast_hits] per skipped
    body. *)
let check_delta_sym ~(trusted : string list) (sy : Symtab.t) : error list =
  Tytra_telemetry.Span.with_ ~name:"ir.validate"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str (Symtab.design sy).d_name);
        ("delta", Tytra_telemetry.Span.Bool true) ]
  @@ fun () ->
  let skipped = ref 0 in
  let skip_body (f : func) =
    let s = List.mem f.fn_name trusted in
    if s then incr skipped;
    s
  in
  let errors = check_indexed ~skip_body sy in
  if !skipped > 0 then
    Tytra_telemetry.Metrics.add "ir.validate.fast_hits"
      (float_of_int !skipped);
  errors

(** [check_delta ~trusted d] — {!check_delta_sym} on a fresh index of
    [d]. *)
let check_delta ~trusted (d : design) : error list =
  check_delta_sym ~trusted (Symtab.of_design d)

(** [check_exn d] raises [Invalid_argument] with a report if [d] is
    invalid; otherwise returns [d] (handy for pipelining). *)
let check_exn (d : design) : design =
  match check d with
  | [] -> d
  | errs ->
      invalid_arg
        (Printf.sprintf "invalid TyTra-IR design %s:\n%s" d.d_name
           (String.concat "\n" (List.map error_to_string errs)))

let is_valid d = check d = []
