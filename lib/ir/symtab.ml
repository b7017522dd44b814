(** Interned, indexed view of a design (DESIGN.md §10).

    The AST keeps the Manage-IR and Compute-IR as plain lists, which is
    the right shape for construction and printing but makes every
    cross-reference — [find_func], [find_stream], port→parameter
    resolution — a linear scan. Replicated variants make that quadratic:
    a 64-lane design has hundreds of ports, each resolved against
    hundreds of streams and [@main] parameters.

    [Symtab.of_design] builds hashtable-backed symbol tables for the
    design's functions, memory objects, streams and globals in one
    traversal, plus memoized parameter tables and memoized
    streamed-output signatures. {!Validate},
    {!Config_tree}, {!Analysis} and the cost model
    ([Tytra_cost.Resource_model], [Tytra_cost.Throughput],
    [Tytra_cost.Report]) run on this index with O(1) lookups. A derived
    DSE variant is indexed once, by [Tytra_front.Lower.derive_sym], and
    validated and costed on that one index (DESIGN.md §10.6).

    Name collisions are recorded (first declaration wins, matching the
    [List.find_opt] semantics of the plain-AST lookups) so the validator
    can report duplicates without a separate pass. *)

open Ast

(* every table is keyed on a name: a monomorphic string table hashes and
   compares without the polymorphic primitives *)
module Tbl = Hashtbl.Make (String)

(** A duplicate declaration found while indexing: [what] is the entity
    class ("function", "memory object", …), [name] the colliding name,
    [pos] its index in the design's list of that class. *)
type dup = { dup_what : string; dup_name : string; dup_pos : int }

type t = {
  sy_design : design;
  sy_funcs : func Tbl.t;
  sy_mems : mem_obj Tbl.t;
  sy_streams : stream_obj Tbl.t;
  sy_globals : global Tbl.t;
  sy_dups : dup list;  (** duplicate declarations, design order *)
  (* memoized derived facts, filled on first use *)
  sy_params : Ty.t Tbl.t Tbl.t;
  sy_outputs : (string * Ty.t) list Tbl.t;
}

let design t = t.sy_design

let of_design (d : design) : t =
  let dups = ref [] in
  let index what name_of xs =
    let tbl = Tbl.create (2 * List.length xs) in
    List.iteri
      (fun pos x ->
        let n = name_of x in
        if Tbl.mem tbl n then
          dups := { dup_what = what; dup_name = n; dup_pos = pos } :: !dups
        else Tbl.add tbl n x)
      xs;
    tbl
  in
  let funcs = index "function" (fun f -> f.fn_name) d.d_funcs in
  let mems = index "memory object" (fun m -> m.mo_name) d.d_mems in
  let streams = index "stream object" (fun s -> s.so_name) d.d_streams in
  let globals = index "global" (fun g -> g.g_name) d.d_globals in
  {
    sy_design = d;
    sy_funcs = funcs;
    sy_mems = mems;
    sy_streams = streams;
    sy_globals = globals;
    sy_dups = List.rev !dups;
    sy_params = Tbl.create 16;
    sy_outputs = Tbl.create 16;
  }

(** {2 O(1) lookups} *)

(** Lookups raising [Not_found] on a miss, so a hit is not boxed in an
    option. *)
let get_func t name = Tbl.find t.sy_funcs name
let get_mem t name = Tbl.find t.sy_mems name
let get_stream t name = Tbl.find t.sy_streams name
let get_global t name = Tbl.find t.sy_globals name

(** [get_func], raising [Invalid_argument] naming the function and the
    design on a miss. *)
let find_func_exn t name =
  match get_func t name with
  | f -> f
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "no function @%s in design %s" name
           t.sy_design.d_name)

let duplicates t = t.sy_dups

(** The types of function [f]'s parameters by name (the first
    declaration of a name wins); memoized per function, so resolving
    [n] ports against an [n]-parameter [@main] is O(n), not O(n²). *)
let params t (f : func) : Ty.t Tbl.t =
  match Tbl.find t.sy_params f.fn_name with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Tbl.create (2 * List.length f.fn_params) in
      List.iter
        (fun (n, ty) -> if not (Tbl.mem tbl n) then Tbl.add tbl n ty)
        f.fn_params;
      Tbl.replace t.sy_params f.fn_name tbl;
      tbl

(** Streamed outputs of [f] (see {!Ast.func_outputs}), memoized — a
    replicated design resolves the shared PE's outputs once per design
    instead of once per call site. *)
let func_outputs t (f : func) : (string * Ty.t) list =
  match Tbl.find_opt t.sy_outputs f.fn_name with
  | Some outs -> outs
  | None ->
      let outs = Ast.func_outputs f in
      Tbl.replace t.sy_outputs f.fn_name outs;
      outs
