(* Differential oracle for [Validate.check]: the original multi-pass,
   list-scanning validator. It reports the same defects as the indexed
   one-pass validator, without its source-order and dedup guarantees,
   so test_fastpath compares the two as error sets. *)

open Tytra_ir
open Ast

let err = Validate.err

module SS = Validate.SS
module SM = Validate.SM

let result_ty = Validate.result_ty

let dup_names errs loc what names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then err errs loc "duplicate %s %S" what n
      else Hashtbl.add seen n ())
    names

let check_operand errs loc ~globals ~env ~expect (o : operand) =
  match o with
  | Var v -> (
      match SM.find_opt v env with
      | None -> err errs loc "use of undefined local %%%s" v
      | Some t ->
          if not (Ty.equal t expect) then
            err errs loc "operand %%%s has type %s, expected %s" v
              (Ty.to_string t) (Ty.to_string expect))
  | Glob g -> (
      match SM.find_opt g globals with
      | None -> err errs loc "use of undeclared global @%s" g
      | Some t ->
          if not (Ty.equal t expect) then
            err errs loc "global @%s has type %s, expected %s" g
              (Ty.to_string t) (Ty.to_string expect))
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

let check_func errs (d : design) (globals : Ty.t SM.t) (f : func) =
  let loc = "@" ^ f.fn_name in
  dup_names errs loc "parameter" (List.map fst f.fn_params);
  List.iter
    (fun (n, t) ->
      if not (Ty.valid t) then
        err errs loc "parameter %%%s has invalid type %s" n (Ty.to_string t))
    f.fn_params;
  let env0 =
    List.fold_left (fun m (n, t) -> SM.add n t m) SM.empty f.fn_params
  in
  let param_set = SS.of_list (List.map fst f.fn_params) in
  let _ =
    List.fold_left
      (fun env i ->
        match i with
        | Offset { dst; ty; src; off = _ } ->
            if f.fn_kind = Comb then
              err errs loc "offset %%%s not allowed in comb function" dst;
            if SM.mem dst env then err errs loc "local %%%s reassigned (SSA)" dst;
            (match src with
            | Var v when SS.mem v param_set -> ()
            | Var v -> err errs loc "offset source %%%s must be a stream parameter" v
            | _ -> err errs loc "offset source must be a stream parameter");
            check_operand errs loc ~globals ~env ~expect:ty src;
            SM.add dst ty env
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
                check_operand errs loc ~globals ~env ~expect:Ty.Bool c;
                check_operand errs loc ~globals ~env ~expect:ty a;
                check_operand errs loc ~globals ~env ~expect:ty b
            | _ ->
                List.iter (check_operand errs loc ~globals ~env ~expect:ty) args);
            let rty = result_ty op ty in
            (match dst with
            | Dlocal n ->
                if SM.mem n env then err errs loc "local %%%s reassigned (SSA)" n;
                SM.add n rty env
            | Dglobal g -> (
                match SM.find_opt g globals with
                | None ->
                    err errs loc "assignment to undeclared global @%s" g;
                    env
                | Some t ->
                    if not (Ty.equal t rty) then
                      err errs loc
                        "reduction into @%s: type %s does not match global %s" g
                        (Ty.to_string rty) (Ty.to_string t);
                    env))
        | Call { callee; args; kind; rets } -> (
            (if f.fn_kind = Comb then
               err errs loc "call not allowed in comb function");
            match find_func d callee with
            | None ->
                err errs loc "call to undefined function @%s" callee;
                env
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
                      check_operand errs loc ~globals ~env ~expect:t a)
                    args g.fn_params;
                (* returning calls: bind the callee's out_* streams *)
                let outs = func_outputs g in
                if List.length rets > List.length outs then begin
                  err errs loc
                    "call to @%s binds %d results but the callee streams %d \
                     outputs"
                    callee (List.length rets) (List.length outs);
                  env
                end
                else
                  List.fold_left2
                    (fun env r (_, rty) ->
                      if SM.mem r env then begin
                        err errs loc "local %%%s reassigned (SSA)" r;
                        env
                      end
                      else SM.add r rty env)
                    env rets
                    (List.filteri (fun i _ -> i < List.length rets) outs)))
      env0 f.fn_body
  in
  (* kind-specific body shape *)
  (match f.fn_kind with
  | Par ->
      List.iter
        (function
          | Call _ -> ()
          | i ->
              err errs loc "par function body must contain only calls, found: %s"
                (Pprint.instr_to_string i))
        f.fn_body
  | Comb ->
      List.iter
        (function
          | Assign _ -> ()
          | i ->
              err errs loc
                "comb function body must be pure combinatorial assignments, \
                 found: %s"
                (Pprint.instr_to_string i))
        f.fn_body
  | Pipe | Seq -> ());
  ()

(* Detect call-graph cycles reachable from any function. *)
let check_recursion errs (d : design) =
  let color = Hashtbl.create 16 in
  (* 0 = white, 1 = grey, 2 = black *)
  let rec visit name =
    match Hashtbl.find_opt color name with
    | Some 1 -> err errs ("@" ^ name) "recursive call cycle through @%s" name
    | Some 2 -> ()
    | _ -> (
        Hashtbl.replace color name 1;
        (match find_func d name with
        | None -> ()
        | Some f ->
            List.iter
              (function Call { callee; _ } -> visit callee | _ -> ())
              f.fn_body);
        Hashtbl.replace color name 2)
  in
  List.iter (fun f -> visit f.fn_name) d.d_funcs

let check_manage errs (d : design) =
  dup_names errs "manage" "memory object" (List.map (fun m -> m.mo_name) d.d_mems);
  dup_names errs "manage" "stream object"
    (List.map (fun s -> s.so_name) d.d_streams);
  dup_names errs "manage" "global" (List.map (fun g -> g.g_name) d.d_globals);
  dup_names errs "manage" "port"
    (List.map (fun p -> p.pt_fun ^ "." ^ p.pt_port) d.d_ports);
  List.iter
    (fun m ->
      if m.mo_size <= 0 then
        err errs ("%" ^ m.mo_name) "memory object size must be positive";
      if not (Ty.valid m.mo_ty) then
        err errs ("%" ^ m.mo_name) "invalid element type %s"
          (Ty.to_string m.mo_ty))
    d.d_mems;
  List.iter
    (fun s ->
      (match find_mem d s.so_mem with
      | None ->
          err errs ("%" ^ s.so_name) "stream references unknown memory object %%%s"
            s.so_mem
      | Some _ -> ());
      match s.so_pattern with
      | Strided k when k <= 0 ->
          err errs ("%" ^ s.so_name) "stride must be positive, got %d" k
      | _ -> ())
    d.d_streams;
  List.iter
    (fun p ->
      let loc = Printf.sprintf "@%s.%s" p.pt_fun p.pt_port in
      (match find_stream d p.pt_stream with
      | None -> err errs loc "port references unknown stream object %%%s" p.pt_stream
      | Some s ->
          if s.so_dir <> p.pt_dir then
            err errs loc "port direction %s conflicts with stream %%%s (%s)"
              (dir_to_string p.pt_dir) s.so_name (dir_to_string s.so_dir);
          (match find_mem d s.so_mem with
          | Some m when not (Ty.equal m.mo_ty p.pt_ty) ->
              err errs loc "port type %s does not match memory %%%s element type %s"
                (Ty.to_string p.pt_ty) m.mo_name (Ty.to_string m.mo_ty)
          | _ -> ()));
      match find_func d p.pt_fun with
      | None -> err errs loc "port on unknown function @%s" p.pt_fun
      | Some f -> (
          match List.assoc_opt p.pt_port f.fn_params with
          | None ->
              err errs loc "function @%s has no parameter %%%s" p.pt_fun p.pt_port
          | Some t ->
              if not (Ty.equal t p.pt_ty) then
                err errs loc "port type %s does not match parameter type %s"
                  (Ty.to_string p.pt_ty) (Ty.to_string t)))
    d.d_ports

let check (d : design) : Validate.error list =
  let errs = ref [] in
  dup_names errs "design" "function" (List.map (fun f -> f.fn_name) d.d_funcs);
  check_manage errs d;
  let globals =
    List.fold_left (fun m g -> SM.add g.g_name g.g_ty m) SM.empty d.d_globals
  in
  (match find_func d "main" with
  | None -> err errs "design" "no @main function"
  | Some _ -> ());
  List.iter (fun f -> check_func errs d globals f) d.d_funcs;
  check_recursion errs d;
  List.rev !errs
