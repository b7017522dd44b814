(** IR analyses deriving the kernel- and variant-dependent parameters of
    the throughput cost model (paper Table I).

    All of [NGS], [NWPT], [Noff], [NI], [NTO], [KNL], [DV] and the
    pipeline-depth input to [KPD] are obtained by "Parsing IR", exactly as
    the paper's Table I prescribes.

    Internally every analysis runs over a {!Symtab} index: [params]
    builds the index and classifies the configuration tree once, then
    derives all parameters with O(1) lookups (DESIGN.md §10). The
    design-based entry points below each build a fresh index and are kept
    for callers that analyse a single function in isolation. *)

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

module SM = Map.Make (String)

(* the first [n] elements of a list *)
let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(** {2 Pipeline depth} *)

(* [pe_depth_sym sy f] — longest latency path through [f]'s SSA dataflow
   graph, each functional unit contributing {!Opinfo.latency} stages.
   Stream offsets contribute no datapath stages (their buffering is
   accounted separately by the [Noff / (GPB·rho)] term of the EKIT
   expressions). *)
let pe_depth_sym (sy : Symtab.t) (f : func) : int =
  let rec depth_of (f : func) (env : int SM.t) : int * int SM.t =
    (* env maps names to the cycle at which their value is available *)
    List.fold_left
      (fun (maxd, env) i ->
        match i with
        | Offset { dst; _ } -> (maxd, SM.add dst 0 env)
        | Assign { dst; ty; op; args } ->
            let ready o =
              match o with
              | Var v -> ( match SM.find_opt v env with Some t -> t | None -> 0)
              | Glob _ | Imm _ | ImmF _ -> 0
            in
            let start = List.fold_left (fun a o -> max a (ready o)) 0 args in
            let fin = start + Opinfo.latency op ty in
            let env =
              match dst with
              | Dlocal n -> SM.add n fin env
              | Dglobal _ -> env
            in
            (max maxd fin, env)
        | Call { callee; _ } -> (
            match Symtab.find_func sy callee with
            | Some g when g.fn_kind = Comb || g.fn_kind = Pipe ->
                (* a called sub-pipeline or combinatorial block adds its
                   own depth in series *)
                let sub, _ = depth_of g SM.empty in
                let sub = if g.fn_kind = Comb then max 1 sub else sub in
                (maxd + sub, env)
            | _ -> (maxd, env)))
      (0, env) f.fn_body
  in
  fst (depth_of f SM.empty)

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
      match Symtab.find_func sy "main" with
      | Some f -> pe_depth_sym sy f
      | None -> 0)
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
          match Symtab.find_func sy callee with
          | Some g -> acc + ni_sym sy g
          | None -> acc))
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
          match Symtab.find_func sy callee with
          | Some g -> max acc (noff_sym sy g)
          | None -> acc)
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
  match Symtab.find_stream sy p.pt_stream with
  | None -> 0
  | Some s -> (
      match Symtab.find_mem sy s.so_mem with Some m -> m.mo_size | None -> 0)

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
      List.fold_left ( + ) 0 (drop (nrel - lanes) (List.sort compare sizes))
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

(** [params d] — all IR-derived Table I parameters for design [d].
    One index build, one configuration-tree classification, one pass per
    parameter family. *)
let params (d : design) : params =
  Tytra_telemetry.Span.with_ ~name:"ir.analysis"
    ~attrs:[ ("design", Tytra_telemetry.Span.Str d.d_name) ]
  @@ fun () ->
  let sy = Symtab.of_design d in
  let summary = Config_tree.classify_sym sy in
  let pes = summary.cs_pes in
  let pe_funcs = List.map (Symtab.find_func_exn sy) pes in
  let ni =
    match pe_funcs with
    | [] -> (
        match Symtab.find_func sy "main" with
        | Some f -> ni_sym sy f
        | None -> 0)
    | fs ->
        (* instructions per lane: coarse-grained lanes are a serial
           composition of PEs, so one lane's NI sums its stage PEs *)
        let lanes = max 1 (summary.Config_tree.cs_knl * summary.Config_tree.cs_dv) in
        let per_lane = max 1 (List.length fs / lanes) in
        List.fold_left (fun acc f -> acc + ni_sym sy f) 0 (take per_lane fs)
  in
  let noff =
    List.fold_left (fun acc f -> max acc (noff_sym sy f)) 0
      (match pe_funcs with
      | [] -> Option.to_list (Symtab.find_func sy "main")
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
    of the whole index space (both directions). *)
let bytes_per_ndrange (d : design) : int =
  let sy = Symtab.of_design d in
  List.fold_left
    (fun acc p ->
      let words = port_mem_size_sym sy p in
      let bytes_per_word = (Ty.width p.pt_ty + 7) / 8 in
      acc + (words * bytes_per_word))
    0 d.d_ports
