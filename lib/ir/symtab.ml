(** Interned, indexed view of a design (DESIGN.md §10).

    The AST keeps the Manage-IR and Compute-IR as plain lists, which is
    the right shape for construction and printing but makes every
    cross-reference — [find_func], [find_stream], port→parameter
    resolution — a linear scan. Replicated variants make that quadratic:
    a 64-lane design has hundreds of ports, each resolved against
    hundreds of streams and [@main] parameters.

    [Symtab.of_design] builds hashtable-backed symbol tables for the
    design's functions, memory objects, streams and globals in one
    traversal, plus per-function port groups, memoized parameter tables
    and memoized streamed-output signatures. {!Validate.check} and
    {!Analysis} run on this index with O(1) lookups.

    Name collisions are recorded (first declaration wins, matching the
    [List.find_opt] semantics of the plain-AST lookups) so the validator
    can report duplicates without a separate pass. *)

open Ast

(** A duplicate declaration found while indexing: [what] is the entity
    class ("function", "memory object", …), [name] the colliding name,
    [pos] its index in the design's list of that class. *)
type dup = { dup_what : string; dup_name : string; dup_pos : int }

type t = {
  sy_design : design;
  sy_funcs : (string, func) Hashtbl.t;
  sy_mems : (string, mem_obj) Hashtbl.t;
  sy_streams : (string, stream_obj) Hashtbl.t;
  sy_globals : (string, global) Hashtbl.t;
  sy_ports : (string, port list) Hashtbl.t;
      (** ports grouped by function, declaration order *)
  sy_dups : dup list;  (** duplicate declarations, design order *)
  (* memoized derived facts, filled on first use *)
  sy_params : (string, (string, Ty.t) Hashtbl.t) Hashtbl.t;
  sy_outputs : (string, (string * Ty.t) list) Hashtbl.t;
}

let design t = t.sy_design

let of_design (d : design) : t =
  let dups = ref [] in
  let index what name_of xs =
    let tbl = Hashtbl.create (2 * List.length xs) in
    List.iteri
      (fun pos x ->
        let n = name_of x in
        if Hashtbl.mem tbl n then
          dups := { dup_what = what; dup_name = n; dup_pos = pos } :: !dups
        else Hashtbl.add tbl n x)
      xs;
    tbl
  in
  let funcs = index "function" (fun f -> f.fn_name) d.d_funcs in
  let mems = index "memory object" (fun m -> m.mo_name) d.d_mems in
  let streams = index "stream object" (fun s -> s.so_name) d.d_streams in
  let globals = index "global" (fun g -> g.g_name) d.d_globals in
  let ports = Hashtbl.create 64 in
  (* group per function preserving declaration order *)
  List.iter
    (fun p ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt ports p.pt_fun) in
      Hashtbl.replace ports p.pt_fun (p :: prev))
    d.d_ports;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) ports;
  {
    sy_design = d;
    sy_funcs = funcs;
    sy_mems = mems;
    sy_streams = streams;
    sy_globals = globals;
    sy_ports = ports;
    sy_dups = List.rev !dups;
    sy_params = Hashtbl.create 16;
    sy_outputs = Hashtbl.create 16;
  }

(** {2 O(1) lookups} *)

let find_func t name = Hashtbl.find_opt t.sy_funcs name
let find_mem t name = Hashtbl.find_opt t.sy_mems name
let find_stream t name = Hashtbl.find_opt t.sy_streams name
let find_global t name = Hashtbl.find_opt t.sy_globals name

let find_func_exn t name =
  match find_func t name with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "no function @%s in design %s" name
           t.sy_design.d_name)

(** Ports declared for function [fname], declaration order. *)
let ports_of t fname =
  Option.value ~default:[] (Hashtbl.find_opt t.sy_ports fname)

let duplicates t = t.sy_dups

(** Type of parameter [p] of function [f]; memoized hashtable per
    function, so resolving [n] ports against an [n]-parameter [@main]
    is O(n), not O(n²). *)
let param_ty t (f : func) (p : string) : Ty.t option =
  let tbl =
    match Hashtbl.find_opt t.sy_params f.fn_name with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create (2 * List.length f.fn_params) in
        List.iter
          (fun (n, ty) ->
            if not (Hashtbl.mem tbl n) then Hashtbl.add tbl n ty)
          f.fn_params;
        Hashtbl.replace t.sy_params f.fn_name tbl;
        tbl
  in
  Hashtbl.find_opt tbl p

(** Streamed outputs of [f] (see {!Ast.func_outputs}), memoized — a
    replicated design resolves the shared PE's outputs once per design
    instead of once per call site. *)
let func_outputs t (f : func) : (string * Ty.t) list =
  match Hashtbl.find_opt t.sy_outputs f.fn_name with
  | Some outs -> outs
  | None ->
      let outs = Ast.func_outputs f in
      Hashtbl.replace t.sy_outputs f.fn_name outs;
      outs
