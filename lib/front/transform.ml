(** Type-transformation-driven variant generation (paper §II).

    From the baseline program [ps = map p_sor pps] (a single stream, one
    kernel pipeline) the flow derives variants by reshaping the data and
    annotating the maps with parallelism keywords:

    {v
    ps   = map p_sor pps                    -- baseline
    ppst = reshapeTo L pps                  -- reshaping data
    pst  = map^par (map^pipe p_sor) ppst    -- L concurrent pipelines
    v}

    Each reshaped vector translates to a different arrangement of streams
    over which different parallelism patterns apply; the cost model then
    chooses the best variant. Correctness is by construction: reshaping
    is order- and size-preserving, so every variant computes the same
    function (property-tested via {!Eval}). *)

(** A design variant: the parallelism annotation applied after (possibly)
    reshaping. These map onto the design-space classes of paper Fig 5. *)
type variant =
  | Seq                       (** [map^seq f] — C4, sequential *)
  | Pipe                      (** [map^pipe f] — C2, single kernel pipeline *)
  | ParPipe of int            (** [map^par (map^pipe f)] after [reshapeTo L]
                                  — C1, [L] replicated lanes *)
  | ParVecPipe of int * int   (** [map^par (map^par (map^pipe f))] after two
                                  reshapes — C3, [L] lanes × [V] vector *)

let to_string = function
  | Seq -> "seq"
  | Pipe -> "pipe"
  | ParPipe l -> Printf.sprintf "par%d-pipe" l
  | ParVecPipe (l, v) -> Printf.sprintf "par%d-vec%d-pipe" l v

(** Lanes × vectorization implied by a variant. *)
let lanes = function
  | Seq | Pipe -> 1
  | ParPipe l -> l
  | ParVecPipe (l, _) -> l

let vec = function ParVecPipe (_, v) -> v | _ -> 1

(** Total concurrent processing elements. *)
let pes v = lanes v * vec v

(** [reshaped_type p v] — the vector type of program [p]'s data after the
    variant's type transformation; [Error] when the reshape is not size
    preserving (lane count does not divide the index space). This is the
    dynamic check standing in for Idris's dependent-type proof. *)
let reshaped_type (p : Expr.program) (v : variant) : (Vtype.t, string) result
    =
  let base = Expr.vtype p in
  match v with
  | Seq | Pipe -> Ok base
  | ParPipe l -> Vtype.reshape_to l base
  | ParVecPipe (l, vv) ->
      Result.bind (Vtype.reshape_to l base) (fun t ->
          match t with
          | Vtype.Vect (l', inner) ->
              Result.map
                (fun i -> Vtype.Vect (l', i))
                (Vtype.reshape_to vv inner)
          | _ -> Error "unreachable")

(** {2 Lane names} *)

(** [lane_suffix i] — what lane [i] of a replicated variant appends to
    every port name it copies: the decimal [i]. *)
let lane_suffix i = Int.to_string i

(** [lane_name port i] — the name lane [i] of a replicated variant gives
    its copy of [port]: [p0], [p1], … Every per-lane name of a lowered
    design derives from it: the port and [@main] parameter [p3], the
    stream [s_p3] and the memory object [m_p3]. Single-PE variants keep
    the unsuffixed port name. *)
let lane_name port i = port ^ lane_suffix i

(* [decimal b j i bound] — the value of [i] followed by the digits
   [b.[j ..]], if they are all digits and it is at most [bound] *)
let rec decimal b j i bound =
  if j = String.length b then Some i
  else
    match b.[j] with
    | '0' .. '9' as c ->
        let i = (10 * i) + Char.code c - Char.code '0' in
        if i > bound then None else decimal b (j + 1) i bound
    | _ -> None

(* [lane_index a b bound] — [Some i] if [b] is [lane_name a i] for some
   [i <= bound] *)
let lane_index a b bound =
  let la = String.length a and lb = String.length b in
  if lb > la && String.starts_with ~prefix:a b && (b.[la] <> '0' || lb = la + 1)
  then decimal b la 0 bound
  else None

(** [lane_clash p pes] — [Some why] if two names in the design of a
    variant of [p] with [pes] PEs coincide, [why] naming them.
    - Two ports (inputs, and outputs as {!Expr.output_port} names them)
      clash when port [b] is port [a] followed by a decimal [d] without a
      leading zero: lane [10 d] of [a] is then lane 0 of [b], so the two
      coincide exactly when [pes > 10 d] ([u] and [u1] from 11 PEs on).
    - A scalar parameter is passed on unsuffixed beside every lane's
      inputs, so it clashes with lane [i < pes] of an input it names.
    Single-PE variants keep unsuffixed names, which
    {!Expr.check_kernel} keeps apart. *)
let lane_clash (p : Expr.program) (pes : int) : string option =
  let k = p.Expr.p_kernel in
  let port_clash a b =
    match lane_index a b ((pes - 1) / 10) with
    | Some d when d > 0 ->
        Some
          (Printf.sprintf
             "lane %d of stream %s and lane 0 of stream %s are both named %s"
             (10 * d) a b (lane_name a (10 * d)))
    | _ -> None
  in
  let scalar_clash a (c, _) =
    match lane_index a c (pes - 1) with
    | Some i ->
        Some
          (Printf.sprintf
             "lane %d of stream %s is named like the scalar parameter %s" i a
             c)
    | None -> None
  in
  if pes < 2 then None
  else
    let ports = k.Expr.k_inputs @ List.map Expr.output_port k.Expr.k_outputs in
    match List.find_map (fun a -> List.find_map (port_clash a) ports) ports with
    | Some why -> Some why
    | None ->
        List.find_map
          (fun a -> List.find_map (scalar_clash a) k.Expr.k_params)
          k.Expr.k_inputs

(** A variant is applicable to [p] iff its reshapes are size preserving
    and no two names of its design coincide ({!lane_clash}). *)
let applicable (p : Expr.program) (v : variant) : bool =
  Result.is_ok (reshaped_type p v) && Option.is_none (lane_clash p (pes v))

(** [enumerate ?max_lanes ?max_vec p] — the design space reachable with a
    single [reshapeTo] (lane replication) and optionally a second one
    (vectorization): the space that "grows very quickly even on the basis
    of a single basic reshape transformation" (paper §II). Only
    applicable variants are generated: size-preserving reshapes whose
    lane names do not clash. *)
let enumerate ?(max_lanes = 16) ?(max_vec = 1) (p : Expr.program) :
    variant list =
  let n = Expr.points p in
  let lanes_opts =
    List.filter (fun l -> l <= max_lanes) (Vtype.divisors n)
  in
  let base = [ Seq; Pipe ] in
  let pars =
    List.filter_map
      (fun l ->
        if l > 1 && applicable p (ParPipe l) then Some (ParPipe l) else None)
      lanes_opts
  in
  let vecs =
    if max_vec <= 1 then []
    else
      List.concat_map
        (fun l ->
          if l = 1 then []
          else
            List.filter_map
              (fun v ->
                if v > 1 && v <= max_vec && applicable p (ParVecPipe (l, v))
                then Some (ParVecPipe (l, v))
                else None)
              (Vtype.divisors (n / l)))
        (List.filter (fun l -> l > 1) lanes_opts)
  in
  base @ pars @ vecs

(** [lane_bounds p v] — for each processing element, the half-open range
    of flat indices it processes: contiguous chunks in lane-major order
    (order preservation of the reshape). *)
let lane_bounds (p : Expr.program) (v : variant) : (int * int) array =
  let n = Expr.points p in
  let k = pes v in
  if n mod k <> 0 then
    invalid_arg
      (Printf.sprintf "variant %s not applicable to %d points" (to_string v) n);
  let chunk = n / k in
  Array.init k (fun i -> (i * chunk, (i + 1) * chunk))
