(** Process-wide counters, gauges and histograms.

    A single registry keyed by metric name. Like spans, every mutation is
    gated on {!Control.enabled}: disabled calls cost one boolean check.
    Hot loops (the techmap annealer, the cycle simulator) accumulate
    locally and publish aggregates once per run, so even enabled
    telemetry never adds per-iteration work on those paths.

    Domain-safety: the registry is shared by all domains of a process
    (the serve loop and its workers), so *every* access — mutations and
    reads alike — takes the registry mutex. Reads work on a snapshot
    taken under the lock, then format/sort outside it, so dumps never
    observe a metric mid-update and never deadlock against a mutating
    worker.

    Histograms keep exact samples up to a cap (for exact percentiles in
    tests and small sweeps) and degrade to count/sum/min/max beyond it. *)

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_samples : float list;  (** newest first; capped *)
  mutable h_kept : int;
}

type metric =
  | Counter of float ref
  | Gauge of float ref
  | Histogram of histogram

let max_samples = 65_536

let mutex = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let reset () =
  Mutex.lock mutex;
  Hashtbl.reset registry;
  Mutex.unlock mutex

let find_or_add name mk =
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
      let m = mk () in
      Hashtbl.replace registry name m;
      m

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

(* Counter mutations mirror into the structured event log when a sink is
   installed (Events has its own lock; emit outside the registry mutex). *)
let emit_delta name delta =
  if Events.active () then
    Events.emit (Events.Counter_delta { name; delta })

(** [incr ?by name] — add [by] (default 1) to counter [name]. *)
let incr ?(by = 1) name =
  if !Control.enabled then begin
    Mutex.lock mutex;
    (match find_or_add name (fun () -> Counter (ref 0.0)) with
    | Counter c -> c := !c +. float_of_int by
    | _ -> ());
    Mutex.unlock mutex;
    emit_delta name (float_of_int by)
  end

(** [add name x] — add float [x] to counter [name]. *)
let add name x =
  if !Control.enabled then begin
    Mutex.lock mutex;
    (match find_or_add name (fun () -> Counter (ref 0.0)) with
    | Counter c -> c := !c +. x
    | _ -> ());
    Mutex.unlock mutex;
    emit_delta name x
  end

(** [set name x] — set gauge [name] to [x]. *)
let set name x =
  if !Control.enabled then begin
    Mutex.lock mutex;
    (match find_or_add name (fun () -> Gauge (ref 0.0)) with
    | Gauge g -> g := x
    | _ -> ());
    Mutex.unlock mutex
  end

(** [observe name x] — record observation [x] into histogram [name]. *)
let observe name x =
  if !Control.enabled then begin
    Mutex.lock mutex;
    (match
       find_or_add name (fun () ->
           Histogram
             {
               h_count = 0;
               h_sum = 0.0;
               h_min = infinity;
               h_max = neg_infinity;
               h_samples = [];
               h_kept = 0;
             })
     with
    | Histogram h ->
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. x;
        if x < h.h_min then h.h_min <- x;
        if x > h.h_max then h.h_max <- x;
        if h.h_kept < max_samples then begin
          h.h_samples <- x :: h.h_samples;
          h.h_kept <- h.h_kept + 1
        end
    | _ -> ());
    Mutex.unlock mutex
  end

(* ------------------------------------------------------------------ *)
(* Queries (always available, independent of the enabled switch)       *)
(* ------------------------------------------------------------------ *)

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_mean : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
}

(* Nearest-rank percentile: rank ceil(q*n), 1-based. The product q*n can
   land a hair above an exact integer in floating point (0.95 *. 20. =
   19.000000000000004), which would push ceil one rank too high — the
   epsilon guard keeps exact ranks exact. *)
let percentile sorted n q =
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
    let idx = min (n - 1) (rank - 1) in
    List.nth sorted (max 0 idx)

(* Immutable copy of one metric, taken under the lock; everything
   downstream (sorting, percentile math, formatting) runs lock-free. *)
type snapshot_value =
  | SCounter of float
  | SGauge of float
  | SHistogram of histogram  (* a field-copied record; h_samples shared
                                structurally but immutable as a list *)

let snap_one = function
  | Counter c -> SCounter !c
  | Gauge g -> SGauge !g
  | Histogram h ->
      SHistogram
        {
          h_count = h.h_count;
          h_sum = h.h_sum;
          h_min = h.h_min;
          h_max = h.h_max;
          h_samples = h.h_samples;
          h_kept = h.h_kept;
        }

(** Consistent point-in-time copy of the whole registry, sorted by
    name. The only read path — all queries and dumps go through it. *)
let snapshot () : (string * snapshot_value) list =
  Mutex.lock mutex;
  let l = Hashtbl.fold (fun k m acc -> (k, snap_one m) :: acc) registry [] in
  Mutex.unlock mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let snap_find name =
  Mutex.lock mutex;
  let r = Option.map snap_one (Hashtbl.find_opt registry name) in
  Mutex.unlock mutex;
  r

let stats_of_histogram (h : histogram) : histogram_stats =
  let sorted = List.sort compare h.h_samples in
  let n = h.h_kept in
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_mean = (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count);
    hs_min = (if h.h_count = 0 then 0.0 else h.h_min);
    hs_max = (if h.h_count = 0 then 0.0 else h.h_max);
    hs_p50 = percentile sorted n 0.50;
    hs_p95 = percentile sorted n 0.95;
  }

let counter_value name : float option =
  match snap_find name with Some (SCounter c) -> Some c | _ -> None

let gauge_value name : float option =
  match snap_find name with Some (SGauge g) -> Some g | _ -> None

let histogram_stats name : histogram_stats option =
  match snap_find name with
  | Some (SHistogram h) -> Some (stats_of_histogram h)
  | _ -> None

(** All registered metric names, sorted. *)
let names () : string list =
  Mutex.lock mutex;
  let l = Hashtbl.fold (fun k _ acc -> k :: acc) registry [] in
  Mutex.unlock mutex;
  List.sort compare l

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

(* %.17g round-trips doubles; trim the common integral case for humans *)
let pp_num fmt x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Format.fprintf fmt "%.0f" x
  else Format.fprintf fmt "%.6g" x

(** Plain-text dump of every registered metric, sorted by name. *)
let pp_text fmt () =
  List.iter
    (fun (name, v) ->
      match v with
      | SCounter c -> Format.fprintf fmt "counter  %-42s %a@." name pp_num c
      | SGauge g -> Format.fprintf fmt "gauge    %-42s %a@." name pp_num g
      | SHistogram h ->
          let s = stats_of_histogram h in
          Format.fprintf fmt
            "hist     %-42s count=%d mean=%a min=%a p50=%a p95=%a max=%a@."
            name s.hs_count pp_num s.hs_mean pp_num s.hs_min pp_num
            s.hs_p50 pp_num s.hs_p95 pp_num s.hs_max)
    (snapshot ())

let to_text () = Format.asprintf "%a" pp_text ()

(* JSON encoding lives in {!Jsenc}; aliased here for existing callers. *)
let json_string = Jsenc.json_string
let json_num = Jsenc.json_num

(** JSON dump: {"counters":{..},"gauges":{..},"histograms":{..}}. *)
let to_json () : string =
  let snap = snapshot () in
  let b = Buffer.create 1024 in
  let cats =
    [
      ("counters",
       function SCounter c -> Some (json_num c) | _ -> None);
      ("gauges",
       function SGauge g -> Some (json_num g) | _ -> None);
      ("histograms",
       function
       | SHistogram h ->
           let s = stats_of_histogram h in
           Some
             (Printf.sprintf
                "{\"count\":%d,\"sum\":%s,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s}"
                s.hs_count (json_num s.hs_sum) (json_num s.hs_mean)
                (json_num s.hs_min) (json_num s.hs_max)
                (json_num s.hs_p50) (json_num s.hs_p95))
       | _ -> None);
    ]
  in
  Buffer.add_char b '{';
  List.iteri
    (fun i (cat, get) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":{" cat);
      let first = ref true in
      List.iter
        (fun (name, v) ->
          match get v with
          | Some v ->
              if not !first then Buffer.add_char b ',';
              first := false;
              Buffer.add_string b (json_string name ^ ":" ^ v)
          | None -> ())
        snap;
      Buffer.add_char b '}')
    cats;
  Buffer.add_char b '}';
  Buffer.contents b
