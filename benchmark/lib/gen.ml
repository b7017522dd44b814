(** Seeded input generators for every benchmark workload.

    The program under test only ever sees what these functions return.
    Each draw comes from a splitmix64 stream keyed by (seed, purpose), so
    one seed always yields the same inputs, independent of the runtime's
    [Random] implementation.

    Seeds vary the inputs but not the amount of work: timing metrics are
    compared across seeds, so every generator keeps the axes that set the
    cost of a run (which kernels at which sizes, how many lanes) fixed or
    balanced, and draws the rest. *)

module Engine = Tytra_engine.Engine
module Ty = Tytra_ir.Ty
module Device = Tytra_device.Device
module Throughput = Tytra_cost.Throughput
module Transform = Tytra_front.Transform

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

type rng = { mutable state : int64 }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* FNV-1a, so stream keys do not depend on [Hashtbl.hash]. *)
let fnv s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

let rng ~seed purpose =
  { state = mix (Int64.add (Int64.of_int seed) (fnv purpose)) }

let next r =
  r.state <- Int64.add r.state 0x9e3779b97f4a7c15L;
  mix r.state

let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53
let pick r a = a.(int r (Array.length a))

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let kernels = [| Engine.Sor; Engine.Hotspot; Engine.Lavamd; Engine.Srad |]
let types = [| Ty.UInt 18; Ty.UInt 32; Ty.Float 32 |]
let devices = Array.of_list Device.all
let forms = [| Throughput.FormA; Throughput.FormB; Throughput.FormC |]
let sizes = [| 16; 32; 48; 64; 80; 96 |]

(* Srad at fp32 fails validation (an integer immediate used at float
   type), so no generator ever draws the pair. *)
let supported kernel ty = not (kernel = Engine.Srad && Ty.is_float ty)

let types_for kernel = Array.of_list (List.filter (supported kernel) (Array.to_list types))

let program kernel ty size =
  match kernel with
  | Engine.Sor -> Tytra_kernels.Sor.program ~ty ~im:size ~jm:size ~km:size ()
  | Engine.Hotspot -> Tytra_kernels.Hotspot.program ~ty ~rows:size ~cols:size ()
  | Engine.Lavamd -> Tytra_kernels.Lavamd.program ~ty ~boxes:size ()
  | Engine.Srad -> Tytra_kernels.Srad.program ~ty ~rows:size ~cols:size ()

(* "maxeler-maia.stratix-v-gsd8" -> "stratix-v-gsd8" *)
let device_tag (d : Device.t) =
  let n = d.Device.dev_name in
  match String.index_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

(* ------------------------------------------------------------------ *)
(* DSE sweeps                                                          *)
(* ------------------------------------------------------------------ *)

type sweep = {
  sw_kernel : Engine.kernel;
  sw_size : int;
  sw_ty : Ty.t;
  sw_device : Device.t;
  sw_form : Throughput.form;
}

let sweep_key s =
  String.concat "/"
    [ Engine.kernel_to_string s.sw_kernel; string_of_int s.sw_size;
      Ty.to_string s.sw_ty; device_tag s.sw_device;
      Throughput.form_to_string s.sw_form ]

let sweep_program s = program s.sw_kernel s.sw_ty s.sw_size

(** Every sweep config either DSE workload can draw. *)
let sweep_universe =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun size ->
          List.concat_map
            (fun ty ->
              List.concat_map
                (fun device ->
                  List.map
                    (fun form ->
                      { sw_kernel = kernel; sw_size = size; sw_ty = ty;
                        sw_device = device; sw_form = form })
                    (Array.to_list forms))
                (Array.to_list devices))
            (Array.to_list (types_for kernel)))
        (Array.to_list sizes))
    (Array.to_list kernels)

(* [balanced r values n] — [n] draws that use every value equally often
   (up to one), in a drawn order, so no seed can tilt a run toward the
   costlier values. *)
let balanced r values n =
  let k = Array.length values in
  Array.sub (shuffle r (Array.init (((n + k - 1) / k) * k) (fun i -> values.(i mod k)))) 0 n

(* Configs for the given sizes of one kernel: types, devices and forms
   (unless fixed) drawn balanced across the sizes. *)
let group r kernel sizes ?form () =
  let n = List.length sizes in
  let tys = balanced r (types_for kernel) n in
  let devs = balanced r devices n in
  let fms = match form with Some f -> Array.make n f | None -> balanced r forms n in
  List.mapi
    (fun i size ->
      { sw_kernel = kernel; sw_size = size; sw_ty = tys.(i); sw_device = devs.(i);
        sw_form = fms.(i) })
    sizes

(** Pass [pass] of [dse-exhaustive], in a drawn order. The (kernel,
    size) cells are fixed, because a cell's variant count (26 to 121)
    sets its cost; lavamd lowers ~3x more IR per variant than the
    stencils, so it gets fewer cells. Type, device and form are drawn
    afresh for every pass. *)
let dse_exhaustive ~seed ~pass =
  let r = rng ~seed (Printf.sprintf "dse-exhaustive/%d" pass) in
  List.concat_map
    (fun (kernel, sizes) -> group r kernel sizes ())
    [ (Engine.Sor, [ 16; 32; 48; 64; 80 ]);
      (Engine.Hotspot, [ 16; 32; 48; 64; 80 ]);
      (Engine.Srad, [ 16; 32; 48; 64; 80 ]);
      (Engine.Lavamd, [ 16; 80 ]) ]
  |> Array.of_list |> shuffle r |> Array.to_list

(** Pass [pass] of [dse-pruned], in a drawn order: every (kernel, size,
    form) cell once. Each cell steps through all its (type, device)
    pairs, one per pass, from a drawn start, and the cells of a (kernel,
    form) group start at distinct pairs. A sweep's peak memory depends on
    the pair (ui18 lavamd holds 3x the memory of fp32), so a run of
    {!pruned_cycle} passes meets every pair of every cell and its peak
    does not depend on the seed. Form C prunes 15-40% of a space, forms A and B 80-97%,
    so the form is a fixed axis. *)
let pruned_cycle = Array.length types * Array.length devices

let dse_pruned ~seed ~pass =
  let r = rng ~seed "dse-pruned" in
  List.concat_map
    (fun kernel ->
      let pairs =
        Array.of_list
          (List.concat_map
             (fun ty -> List.map (fun d -> (ty, d)) (Array.to_list devices))
             (Array.to_list (types_for kernel)))
      in
      let n = Array.length pairs in
      List.concat_map
        (fun form ->
          let pairs = shuffle r pairs in
          let start = shuffle r (Array.init n Fun.id) in
          List.mapi
            (fun j size ->
              let ty, device = pairs.((start.(j) + pass) mod n) in
              { sw_kernel = kernel; sw_size = size; sw_ty = ty; sw_device = device;
                sw_form = form })
            (Array.to_list sizes))
        (Array.to_list forms))
    (Array.to_list kernels)
  |> Array.of_list
  |> shuffle (rng ~seed (Printf.sprintf "dse-pruned/%d" pass))
  |> Array.to_list

(** The configs that get an untimed exhaustive cross-check in a
    [dse-pruned] run: one in [every], at a drawn offset. *)
let cross_checked ~seed ~every configs =
  let off = int (rng ~seed "dse-pruned-check") every in
  List.filteri (fun i _ -> i mod every = off) configs

(* ------------------------------------------------------------------ *)
(* Accuracy corpus                                                     *)
(* ------------------------------------------------------------------ *)

type design = {
  ds_kernel : Engine.kernel;
  ds_size : int;
  ds_ty : Ty.t;
  ds_lanes : int;
  ds_device : Device.t;
}

let lanes = [| 1; 2; 4; 8; 16 |]

let design_key d =
  String.concat "/"
    [ Engine.kernel_to_string d.ds_kernel; string_of_int d.ds_size;
      Ty.to_string d.ds_ty; "l" ^ string_of_int d.ds_lanes;
      device_tag d.ds_device ]

let variant_of_lanes l = if l = 1 then Transform.Pipe else Transform.ParPipe l

let design_universe =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun size ->
          List.concat_map
            (fun ty ->
              List.concat_map
                (fun l ->
                  List.map
                    (fun device ->
                      { ds_kernel = kernel; ds_size = size; ds_ty = ty;
                        ds_lanes = l; ds_device = device })
                    (Array.to_list devices))
                (Array.to_list lanes))
            (Array.to_list (types_for kernel)))
        (Array.to_list sizes))
    (Array.to_list kernels)

(** [accuracy ~seed ~reps] — [reps] designs per (kernel, lanes) cell,
    with balanced drawn sizes, types and devices, in a drawn order. The
    cell fixes the IR volume an estimate parses and costs. *)
let accuracy ~seed ~reps =
  let r = rng ~seed "accuracy" in
  Array.to_list kernels
  |> List.concat_map (fun kernel ->
         Array.to_list lanes
         |> List.concat_map (fun l ->
                let sz = balanced r sizes reps in
                let tys = balanced r (types_for kernel) reps in
                let devs = balanced r devices reps in
                List.init reps (fun i ->
                    { ds_kernel = kernel; ds_size = sz.(i); ds_ty = tys.(i); ds_lanes = l;
                      ds_device = devs.(i) })))
  |> Array.of_list |> shuffle r |> Array.to_list

(** Pretty-printed TyTra-IR of a corpus design: the bytes an estimate
    parses. *)
let design_text d =
  Tytra_ir.Pprint.design_to_string
    (Tytra_front.Lower.lower
       (program d.ds_kernel d.ds_ty d.ds_size)
       (variant_of_lanes d.ds_lanes))

(* ------------------------------------------------------------------ *)
(* Serve traffic                                                       *)
(* ------------------------------------------------------------------ *)

type kind = Cold | Parse_hit | Hot | Explore

let kind_name = function
  | Cold -> "cold"
  | Parse_hit -> "parse_hit"
  | Hot -> "hot"
  | Explore -> "explore"

type request = {
  rq_kind : kind;
  rq_request : Engine.request;
  rq_body : string;  (** the wire encoding sent to the server *)
}

let nkis = [| 1; 10; 100; 1000 |]

(** Design texts no server has seen: distinct (kernel, side, type,
    variant) combinations, lowered on first use. One pool serves every
    phase of a run, since each phase starts a fresh server. *)
type pool = { combos : (Engine.kernel * int * Ty.t * Transform.variant) array;
              texts : (int, string) Hashtbl.t }

(* The combinations of one side: about 22 (ParPipe variants only where
   the side divides). *)
let side_combos size =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun ty ->
          let prog = program kernel ty size in
          List.filter_map
            (fun v -> if Transform.applicable prog v then Some (kernel, size, ty, v) else None)
            [ Transform.Pipe; Transform.ParPipe 2; Transform.ParPipe 4 ])
        (Array.to_list (types_for kernel)))
    (Array.to_list kernels)

(** [cold_pool ~seed ~size] — a pool of at least [size] never-sent texts:
    sides from 8 up to 160, or further when [size] needs more. A phase
    of [n] requests draws fewer than [n] of them, so [size] is the
    longest phase's request count.

    The (kernel, variant) pair sets how much IR a text holds, so the pool
    is ordered to hold every pair in proportion to its share of the pool
    in each of its prefixes, up to one: the [j]-th of [m] texts of a pair
    (in a drawn order) sits at [(j + u) / m], with [u] drawn per pair. A
    phase's cold requests then cost the same for every seed. *)
let cold_pool ~seed ~size =
  let rec grow side acc n =
    if side > 160 && n >= size then acc
    else
      let c = side_combos side in
      grow (side + 1) (List.rev_append c acc) (n + List.length c)
  in
  let r = rng ~seed "serve-pool" in
  let all = List.rev (grow 8 [] 0) in
  let pairs = List.sort_uniq compare (List.map (fun (k, _, _, v) -> (k, v)) all) in
  let keyed =
    List.concat_map
      (fun pair ->
        let texts =
          shuffle r (Array.of_list (List.filter (fun (k, _, _, v) -> (k, v) = pair) all))
        in
        let m = float_of_int (Array.length texts) and u = float r in
        Array.to_list (Array.mapi (fun j c -> ((float_of_int j +. u) /. m, c)) texts))
      pairs
  in
  { combos =
      Array.of_list (List.map snd (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) keyed));
    texts = Hashtbl.create 1024 }

let pool_capacity p = Array.length p.combos

let pool_text p i =
  match Hashtbl.find_opt p.texts i with
  | Some t -> t
  | None ->
      let kernel, size, ty, v = p.combos.(i) in
      let t =
        Tytra_ir.Pprint.design_to_string
          (Tytra_front.Lower.lower (program kernel ty size) v)
      in
      Hashtbl.replace p.texts i t;
      t

let cost_request text (device, form, nki) =
  Engine.Cost
    { source = Engine.Inline text; device; form; nki; optimize = false;
      calib = None }

let explore_request r =
  Engine.Explore
    { x_kernel = pick r kernels; x_size = 16 + int r 49; x_max_lanes = 16;
      x_device = pick r devices; x_form = pick r forms;
      x_nki = pick r [| 1; 10; 100 |]; x_jobs = 1; x_prune = true;
      x_retries = 0; x_deadline_s = None; x_best_effort = false;
      x_checkpoint = None; x_checkpoint_every = 32; x_resume = None;
      x_place_mode = None }

(* Zipf exponent of exact repeats over the requests sent so far (rank 1 =
   first sent): within the 0.64-0.83 that Breslau et al. measured for web
   request popularity ("Web Caching and Zipf-like Distributions:
   Evidence and Implications", INFOCOM 1999). How far back a parse-hit
   may reach, in never-sent texts: well inside the server's 64-design
   parse cache. README.md gives the measured cache hits these yield. *)
let zipf_s = 0.8
let recent_window = 8

(* The mix in a block of 200 requests. *)
let mix_block =
  Array.concat
    [ Array.make 80 Cold; Array.make 60 Parse_hit; Array.make 59 Hot; [| Explore |] ]

(** [serve ~seed ~pool ~phase ~n] — the [n]-request mix of one phase:
    40% cost on never-sent text, 30% cost on recently sent text with new
    (device, form, nki), 29.5% exact repeats (Zipf over earlier cost
    requests), 0.5% small explores. The shares hold exactly in every
    block of 200 requests, each block in a drawn order. Repeats need
    earlier requests, so they fall back to never-sent text until one
    exists. *)
let serve ~seed ~pool ~phase ~n =
  let r = rng ~seed ("serve-" ^ phase) in
  let next_cold = ref 0 in
  let recent = Array.make recent_window "" and n_recent = ref 0 in
  let used = Hashtbl.create 256 in
  let sent = ref [||] and cum = ref [||] and n_sent = ref 0 in
  let remember rq =
    if !n_sent = Array.length !sent then begin
      let grow a fill = Array.append a (Array.make (max 64 (Array.length a)) fill) in
      sent := grow !sent rq;
      cum := grow !cum 0.0
    end;
    let w = 1.0 /. (float_of_int (!n_sent + 1) ** zipf_s) in
    (!cum).(!n_sent) <- (if !n_sent = 0 then w else (!cum).(!n_sent - 1) +. w);
    (!sent).(!n_sent) <- rq;
    incr n_sent
  in
  let params () = (pick r devices, pick r forms, pick r nkis) in
  let costed kind text p =
    Hashtbl.replace used (text, p) ();
    let req = cost_request text p in
    let rq = { rq_kind = kind; rq_request = req;
               rq_body = Tytra_engine.Protocol.encode_request req } in
    remember rq;
    rq
  in
  let cold () =
    if !next_cold >= pool_capacity pool then
      failwith "serve: never-sent design pool exhausted";
    let text = pool_text pool !next_cold in
    incr next_cold;
    recent.(!n_recent mod recent_window) <- text;
    incr n_recent;
    costed Cold text (params ())
  in
  let parse_hit () =
    let text = recent.(int r (min !n_recent recent_window)) in
    let rec fresh tries =
      let p = params () in
      if Hashtbl.mem used (text, p) && tries > 0 then fresh (tries - 1) else p
    in
    costed Parse_hit text (fresh 32)
  in
  let hot () =
    let u = float r *. (!cum).(!n_sent - 1) in
    let lo = ref 0 and hi = ref (!n_sent - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if (!cum).(mid) < u then lo := mid + 1 else hi := mid
    done;
    { ((!sent).(!lo)) with rq_kind = Hot }
  in
  let block = ref [||] in
  Array.init n (fun i ->
      let k = Array.length mix_block in
      if i mod k = 0 then block := shuffle r mix_block;
      match !block.(i mod k) with
      | Explore ->
          let req = explore_request r in
          { rq_kind = Explore; rq_request = req;
            rq_body = Tytra_engine.Protocol.encode_request req }
      | _ when !n_sent = 0 -> cold ()
      | Hot -> hot ()
      | Parse_hit -> parse_hit ()
      | Cold -> cold ())
