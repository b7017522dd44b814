(** IR analyses deriving the kernel- and variant-dependent parameters of
    the throughput cost model (paper Table I).

    All of [NGS], [NWPT], [Noff], [NI], [NTO], [KNL], [DV] and the
    pipeline-depth input to [KPD] are obtained by "Parsing IR", exactly as
    the paper's Table I prescribes.

    Every analysis runs over a {!Symtab} index with O(1) lookups
    (DESIGN.md §10). [params_sym] takes the index and the configuration
    tree's classification from its caller, so the cost model
    ([Tytra_cost.Report]) indexes and classifies a design once for all
    of its stages, and a DSE variant reuses the index its derivation
    was validated on (§10.6). Each design-taking entry point below is a
    wrapper that builds a fresh index of its design. *)

open Ast

(** Parameters extracted from a design (paper Table I, the rows whose
    evaluation method is "Parsing IR"). *)
type params = {
  ngs : int;    (** [NGS] — global size: work-items in the NDRange *)
  nwpt : int;   (** [NWPT] — words per tuple per work-item *)
  noff : int;   (** [Noff] — maximum offset in any stream *)
  ni : int;     (** [NI] — datapath instructions per processing element *)
  nto : int;    (** [NTO] — cycles per instruction (1 for pipelined PEs) *)
  knl : int;    (** [KNL] — parallel kernel lanes *)
  dv : int;     (** [DV] — degree of vectorization per lane *)
  kpd : int;    (** [KPD] — kernel pipeline depth in cycles *)
  in_words : int;   (** total input words per work-item (subset of NWPT) *)
  out_words : int;  (** total output words per work-item *)
}
[@@deriving show { with_path = false }]

(* the first [n] elements of a list *)
let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(** {2 Pipeline depth} *)

(* The cycle at which all of [args] are available: the latest ready
   cycle in [env] of their locals, 0 for anything else. *)
let rec operands_ready env at = function
  | [] -> at
  | Var v :: rest -> (
      match Symtab.Tbl.find env v with
      | t -> operands_ready env (Int.max at t) rest
      | exception Not_found -> operands_ready env at rest)
  | (Glob _ | Imm _ | ImmF _) :: rest -> operands_ready env at rest

(* The depth of [body] after [maxd], with [env] mapping each local
   defined so far to the cycle its value is available at. *)
let rec body_depth sy env maxd = function
  | [] -> maxd
  | Offset { dst; _ } :: rest ->
      Symtab.Tbl.replace env dst 0;
      body_depth sy env maxd rest
  | Assign { dst; ty; op; args } :: rest ->
      let fin = operands_ready env 0 args + Opinfo.latency op ty in
      (match dst with
      | Dlocal n -> Symtab.Tbl.replace env n fin
      | Dglobal _ -> ());
      body_depth sy env (Int.max maxd fin) rest
  | Call { callee; _ } :: rest ->
      let maxd =
        match Symtab.get_func sy callee with
        | g when g.fn_kind = Comb || g.fn_kind = Pipe ->
            (* a called sub-pipeline or combinatorial block adds its
               own depth in series *)
            let sub = func_depth sy g in
            maxd + if g.fn_kind = Comb then Int.max 1 sub else sub
        | _ | (exception Not_found) -> maxd
      in
      body_depth sy env maxd rest

and func_depth sy (f : func) =
  body_depth sy (Symtab.Tbl.create (List.length f.fn_body)) 0 f.fn_body

(* [pe_depth_sym sy f] — longest latency path through [f]'s SSA dataflow
   graph, each functional unit contributing {!Opinfo.latency} stages.
   Stream offsets contribute no datapath stages (their buffering is
   accounted separately by the [Noff / (GPB·rho)] term of the EKIT
   expressions). *)
let pe_depth_sym (sy : Symtab.t) (f : func) : int = func_depth sy f

(** [pe_depth d f] is the pipeline depth of a single processing element
    [f] of design [d]. *)
let pe_depth (d : design) (f : func) : int =
  pe_depth_sym (Symtab.of_design d) f

(* [kpd_sym sy summary] — kernel pipeline depth: the depth of one lane
   (for coarse-grained pipelines, the serial composition of the lane's
   sub-pipelines). All lanes are structurally identical in generated
   variants; we take the max for safety. *)
let kpd_sym (sy : Symtab.t) (summary : Config_tree.summary) : int =
  match summary.cs_pes with
  | [] -> (
      (* sequential config: depth of main itself *)
      match Symtab.get_func sy "main" with
      | f -> pe_depth_sym sy f
      | exception Not_found -> 0)
  | pes ->
      (* depth of one lane = sum over that lane's serial PEs; as variants
         replicate a single lane structure, group PEs per lane *)
      let lanes = max 1 (summary.cs_knl * summary.cs_dv) in
      let per_lane = max 1 (List.length pes / lanes) in
      List.fold_left
        (fun acc n -> acc + pe_depth_sym sy (Symtab.find_func_exn sy n))
        0 (take per_lane pes)

(** [kpd d] — kernel pipeline depth of design [d]. *)
let kpd (d : design) : int =
  let sy = Symtab.of_design d in
  kpd_sym sy (Config_tree.classify_sym sy)

(** {2 Instruction counts} *)

(* Number of datapath instructions in one processing element, counting
   called [comb]/sub-[pipe] bodies once per call site. [Mov] is free
   (wiring) and not counted. *)
let rec ni_sym (sy : Symtab.t) (f : func) : int =
  List.fold_left
    (fun acc i ->
      match i with
      | Assign { op = Mov; _ } -> acc
      | Assign _ -> acc + 1
      | Offset _ -> acc
      | Call { callee; _ } -> (
          match Symtab.get_func sy callee with
          | g -> acc + ni_sym sy g
          | exception Not_found -> acc))
    0 f.fn_body

(** Number of datapath instructions in one processing element of [d]. *)
let ni_of_func (d : design) (f : func) : int = ni_sym (Symtab.of_design d) f

(* Maximum absolute stream offset in one PE (drives the offset-buffer
   fill time, the [Noff] term). *)
let rec noff_sym (sy : Symtab.t) (f : func) : int =
  List.fold_left
    (fun acc i ->
      match i with
      | Offset { off; _ } -> max acc (abs off)
      | Call { callee; _ } -> (
          match Symtab.get_func sy callee with
          | g -> max acc (noff_sym sy g)
          | exception Not_found -> acc)
      | _ -> acc)
    0 f.fn_body

(** Maximum absolute stream offset in one PE of [d]. *)
let noff_of_func (d : design) (f : func) : int =
  noff_sym (Symtab.of_design d) f

(** {2 Stream and work-item accounting} *)

(** Input/output ports of the design's entry function, resolved to their
    backing memory objects. *)
let io_ports (d : design) =
  let ports = d.d_ports in
  let ins = List.filter (fun p -> p.pt_dir = IStream) ports in
  let outs = List.filter (fun p -> p.pt_dir = OStream) ports in
  (ins, outs)

(* Size in elements of the memory object backing port [p]. *)
let port_mem_size_sym (sy : Symtab.t) (p : port) =
  match Symtab.get_mem sy (Symtab.get_stream sy p.pt_stream).so_mem with
  | m -> m.mo_size
  | exception Not_found -> 0

let port_mem_size (d : design) (p : port) =
  port_mem_size_sym (Symtab.of_design d) p

(* [ngs_sym sy summary] — global size: the total number of work-items in
   the index-space. Each lane processes the elements of its own input
   streams; the global size is the per-lane element count summed over
   lanes. Per-lane element count is the largest backing-memory size among
   that lane's input streams (all inputs of a tuple have equal length in
   well-formed designs). *)
let ngs_sym (sy : Symtab.t) (summary : Config_tree.summary) : int =
  let ins, outs = io_ports (Symtab.design sy) in
  let lanes = max 1 (summary.cs_knl * summary.cs_dv) in
  let relevant = if ins <> [] then ins else outs in
  if relevant = [] then 0
  else begin
    (* group ports by lane: ports are declared lane-major in generated
       variants; conservatively, take the max size and multiply by lanes
       when each lane has its own port set, else the single port size. *)
    let nrel = List.length relevant in
    if nrel >= lanes && lanes > 1 then begin
      (* distinct streams per lane: sum one representative per lane *)
      let sizes = List.map (port_mem_size_sym sy) relevant in
      (* sum of the largest [lanes] sizes approximates Σ elems/lane *)
      let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
      List.fold_left ( + ) 0
        (drop (nrel - lanes) (List.sort Int.compare sizes))
    end
    else
      List.fold_left (fun acc p -> max acc (port_mem_size_sym sy p)) 0 relevant
  end

(** [ngs d] — global size of [d]'s index-space. *)
let ngs (d : design) : int =
  let sy = Symtab.of_design d in
  ngs_sym sy (Config_tree.classify_sym sy)

(* [nwpt_sym d summary] — words per tuple per work-item: the number of
   distinct stream words each work-item consumes plus produces. Offsets
   re-use their base stream's words (served from on-chip offset buffers),
   so only ports count. *)
let nwpt_sym (d : design) (summary : Config_tree.summary) : int * int =
  let ins, outs = io_ports d in
  let lanes = max 1 (summary.cs_knl * summary.cs_dv) in
  let per_lane n = if n = 0 then 0 else max 1 (n / lanes) in
  (per_lane (List.length ins), per_lane (List.length outs))

(** [nwpt d] — input/output words per tuple per work-item. *)
let nwpt (d : design) : int * int =
  nwpt_sym d (Config_tree.classify d)

(** [params_sym sy summary] — all IR-derived Table I parameters for the
    indexed design, whose configuration tree classifies as [summary].
    One pass per parameter family. *)
let params_sym (sy : Symtab.t) (summary : Config_tree.summary) : params =
  let d = Symtab.design sy in
  Tytra_telemetry.Span.with_ ~name:"ir.analysis"
    ~attrs:[ ("design", Tytra_telemetry.Span.Str d.d_name) ]
  @@ fun () ->
  let pes = summary.cs_pes in
  (* each distinct PE function once, in first-use order: a replicated
     variant instantiates one function hundreds of times *)
  let distinct =
    let seen = Symtab.Tbl.create 4 in
    List.filter_map
      (fun n ->
        if Symtab.Tbl.mem seen n then None
        else begin
          Symtab.Tbl.add seen n ();
          Some (Symtab.find_func_exn sy n)
        end)
      pes
  in
  let ni =
    match pes with
    | [] -> (
        match Symtab.get_func sy "main" with
        | f -> ni_sym sy f
        | exception Not_found -> 0)
    | _ ->
        (* instructions per lane: coarse-grained lanes are a serial
           composition of PEs, so one lane's NI sums its stage PEs *)
        let lanes = max 1 (summary.Config_tree.cs_knl * summary.Config_tree.cs_dv) in
        let per_lane = max 1 (List.length pes / lanes) in
        List.fold_left
          (fun acc n -> acc + ni_sym sy (Symtab.find_func_exn sy n))
          0 (take per_lane pes)
  in
  let noff =
    List.fold_left (fun acc f -> max acc (noff_sym sy f)) 0
      (match distinct with
      | [] -> (
          match Symtab.get_func sy "main" with
          | f -> [ f ]
          | exception Not_found -> [])
      | l -> l)
  in
  let nto =
    match summary.cs_class with
    | Config_tree.C4 -> max 1 ni (* sequential: NI cycles per work-item *)
    | _ -> 1 (* pipelined: one work-item per cycle per lane in steady state *)
  in
  let in_w, out_w = nwpt_sym d summary in
  {
    ngs = ngs_sym sy summary;
    nwpt = in_w + out_w;
    noff;
    ni;
    nto;
    knl = summary.cs_knl;
    dv = summary.cs_dv;
    kpd = kpd_sym sy summary;
    in_words = in_w;
    out_words = out_w;
  }

(** [params d] — {!params_sym} on a fresh index of [d] and its
    classification. *)
let params (d : design) : params =
  let sy = Symtab.of_design d in
  params_sym sy (Config_tree.classify_sym sy)

(** Dominant access pattern among the design's global-memory streams (used
    to pick the sustained-bandwidth scaling factor). Returns the "worst"
    pattern present: random ≺ strided ≺ contiguous. *)
let dominant_pattern (d : design) : pattern =
  List.fold_left
    (fun acc s ->
      match (acc, s.so_pattern) with
      | Random, _ | _, Random -> Random
      | Strided a, Strided b -> Strided (max a b)
      | Strided a, _ | _, Strided a -> Strided a
      | Cont, Cont -> Cont)
    Cont d.d_streams

(** Total bytes moved between global memory and the device per execution
    of the whole index space (both directions), for an indexed design. *)
let bytes_per_ndrange_sym (sy : Symtab.t) : int =
  List.fold_left
    (fun acc p ->
      let words = port_mem_size_sym sy p in
      let bytes_per_word = (Ty.width p.pt_ty + 7) / 8 in
      acc + (words * bytes_per_word))
    0 (Symtab.design sy).d_ports

(** [bytes_per_ndrange d] — {!bytes_per_ndrange_sym} on a fresh index of
    [d]. *)
let bytes_per_ndrange (d : design) : int =
  bytes_per_ndrange_sym (Symtab.of_design d)
