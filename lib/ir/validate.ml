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
      match Tbl.find env v with
      | exception Not_found -> err errs loc "use of undefined local %%%s" v
      | Param t | Local t ->
          if not (Ty.equal t expect) then
            err errs loc "operand %%%s has type %s, expected %s" v
              (Ty.to_string t) (Ty.to_string expect))
  | Glob g -> (
      match Symtab.get_global sy g with
      | exception Not_found -> err errs loc "use of undeclared global @%s" g
      | gl ->
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
     parameter (the table does not grow); the later declaration's type
     wins *)
  List.iter
    (fun (n, t) ->
      let defined = Tbl.length env in
      Tbl.replace env n (Param t);
      if Tbl.length env = defined then
        err errs loc "duplicate %s %S" "parameter" n;
      if not (Ty.valid t) then
        err errs loc "parameter %%%s has invalid type %s" n (Ty.to_string t))
    f.fn_params;
  let reassigned n =
    if Tbl.mem env n then err errs loc "local %%%s reassigned (SSA)" n
  in
  (* (re)define [n] at [ty], keeping a parameter's tag *)
  let define n ty =
    Tbl.replace env n
      (match Tbl.find env n with
      | Param _ -> Param ty
      | Local _ | (exception Not_found) -> Local ty)
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
                match Tbl.find env v with
                | Param _ -> ()
                | Local _ | (exception Not_found) ->
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
                match Symtab.get_global sy g with
                | exception Not_found ->
                    err errs loc "assignment to undeclared global @%s" g
                | gl ->
                    if not (Ty.equal gl.g_ty rty) then
                      err errs loc
                        "reduction into @%s: type %s does not match global %s" g
                        (Ty.to_string rty) (Ty.to_string gl.g_ty)))
        | Call { callee; args; kind; rets } -> (
            (if f.fn_kind = Comb then
               err errs loc "call not allowed in comb function");
            match Symtab.get_func sy callee with
            | exception Not_found ->
                err errs loc "call to undefined function @%s" callee
            | g ->
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
    match Tbl.find color name with
    | 1 -> err errs ("@" ^ name) "recursive call cycle through @%s" name
    | _ -> ()
    | exception Not_found -> (
        Tbl.replace color name 1;
        (match Symtab.get_func sy name with
        | exception Not_found -> ()
        | f ->
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

(* The port pass's view of one function: its parameter table ([None]
   if the design has no such function) and the names of its ports so
   far. *)
type port_owner = { po_params : Ty.t Tbl.t option; po_ports : unit Tbl.t }

(* A location for a port's error, built only when it has one. *)
let port_err errs p = err errs (Printf.sprintf "@%s.%s" p.pt_fun p.pt_port)

(* The single source-order pass. [skip_body f] suppresses the
   per-instruction body walk of function [f] (derived variants whose PE
   bodies come from an already-validated template). *)
let check_indexed ~skip_body (sy : Symtab.t) : error list =
  let d = Symtab.design sy in
  let errs = ref [] in
  (* [report_dups what loc i] reports the [i]th declaration of class
     [what] if the index recorded it as a duplicate *)
  let report_dups what =
    let q =
      ref
        (List.filter
           (fun (u : Symtab.dup) -> u.dup_what = what)
           (Symtab.duplicates sy))
    in
    fun loc i ->
      match !q with
      | u :: tl when u.dup_pos = i ->
          q := tl;
          err errs loc "duplicate %s %S" what u.dup_name
      | _ -> ()
  in
  (* --- Manage-IR, in .tirl source order: mems, streams, ports. On a
     valid design a declaration allocates nothing but a port's entry in
     the duplicate table: a location is built only for an error, and no
     lookup boxes its result. --- *)
  let mem_dup = report_dups "memory object" in
  List.iteri
    (fun i m ->
      mem_dup "manage" i;
      if m.mo_size <= 0 then
        err errs ("%" ^ m.mo_name) "memory object size must be positive";
      if not (Ty.valid m.mo_ty) then
        err errs ("%" ^ m.mo_name) "invalid element type %s"
          (Ty.to_string m.mo_ty))
    d.d_mems;
  let stream_dup = report_dups "stream object" in
  List.iteri
    (fun i s ->
      stream_dup "manage" i;
      (match Symtab.get_mem sy s.so_mem with
      | _ -> ()
      | exception Not_found ->
          err errs ("%" ^ s.so_name)
            "stream references unknown memory object %%%s" s.so_mem);
      match s.so_pattern with
      | Strided k when k <= 0 ->
          err errs ("%" ^ s.so_name) "stride must be positive, got %d" k
      | _ -> ())
    d.d_streams;
  (* Ports are not indexed by name, so they keep their own duplicate
     table, one per function, next to the function's parameter table:
     the ports of one function share its lookups. A port's location is
     only printed when it has an error. The first function a port names
     ([@main] in every derived design) gets a table sized for all the
     ports; any other starts small and grows, so a design whose ports
     name many functions still costs work linear in its ports. *)
  let owners = Tbl.create 4 in
  let owner name =
    match Tbl.find owners name with
    | o -> o
    | exception Not_found ->
        let o =
          {
            po_params =
              (match Symtab.get_func sy name with
              | f -> Some (Symtab.params sy f)
              | exception Not_found -> None);
            po_ports =
              Tbl.create
                (if Tbl.length owners = 0 then List.length d.d_ports else 16);
          }
        in
        Tbl.add owners name o;
        o
  in
  List.iter
    (fun p ->
      let o = owner p.pt_fun in
      let seen = Tbl.length o.po_ports in
      Tbl.replace o.po_ports p.pt_port ();
      if Tbl.length o.po_ports = seen then
        err errs "manage" "duplicate %s %S" "port" (p.pt_fun ^ "." ^ p.pt_port);
      (match Symtab.get_stream sy p.pt_stream with
      | exception Not_found ->
          port_err errs p "port references unknown stream object %%%s"
            p.pt_stream
      | s -> (
          if s.so_dir <> p.pt_dir then
            port_err errs p "port direction %s conflicts with stream %%%s (%s)"
              (dir_to_string p.pt_dir) s.so_name (dir_to_string s.so_dir);
          match Symtab.get_mem sy s.so_mem with
          | m ->
              if not (Ty.equal m.mo_ty p.pt_ty) then
                port_err errs p
                  "port type %s does not match memory %%%s element type %s"
                  (Ty.to_string p.pt_ty) m.mo_name (Ty.to_string m.mo_ty)
          | exception Not_found -> ()));
      match o.po_params with
      | None -> port_err errs p "port on unknown function @%s" p.pt_fun
      | Some params -> (
          match Tbl.find params p.pt_port with
          | exception Not_found ->
              port_err errs p "function @%s has no parameter %%%s" p.pt_fun
                p.pt_port
          | t ->
              if not (Ty.equal t p.pt_ty) then
                port_err errs p "port type %s does not match parameter type %s"
                  (Ty.to_string p.pt_ty) (Ty.to_string t)))
    d.d_ports;
  let global_dup = report_dups "global" in
  List.iteri (fun i _ -> global_dup "manage" i) d.d_globals;
  (* --- Compute-IR, declaration order --- *)
  let func_dup = report_dups "function" in
  List.iteri
    (fun i f ->
      func_dup "design" i;
      if not (skip_body f) then check_func errs sy f)
    d.d_funcs;
  (* --- design level --- *)
  (match Symtab.get_func sy "main" with
  | _ -> ()
  | exception Not_found -> err errs "design" "no @main function");
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
    (their bodies are shared with an already-validated design,
    physically or structurally). Everything else — Manage-IR, wiring
    functions, call sites into trusted functions, the call graph — is
    checked in full. Counts one [ir.validate.fast_hits] per check that
    skipped a body, however many it skipped. [Tytra_front.Lower.derive]
    checks a replicated variant by position and calls this only when
    that check fails, so a sweep counts one, its Pipe baseline's. *)
let check_delta_sym ~(trusted : string list) (sy : Symtab.t) : error list =
  Tytra_telemetry.Span.with_ ~name:"ir.validate"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str (Symtab.design sy).d_name);
        ("delta", Tytra_telemetry.Span.Bool true) ]
  @@ fun () ->
  let skipped = ref false in
  let skip_body (f : func) =
    let s = List.mem f.fn_name trusted in
    if s then skipped := true;
    s
  in
  let errors = check_indexed ~skip_body sy in
  if !skipped then Tytra_telemetry.Metrics.incr "ir.validate.fast_hits";
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
