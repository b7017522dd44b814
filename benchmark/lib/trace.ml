(** The benchmark's own span recorder, used only in traced runs.

    Spans wrap the benchmark's calls into each layer of the program from
    the outside; the program's internal telemetry stays disabled, so it
    costs what it costs in production. Spans live in memory until
    {!write}. A span's self time is its duration minus the time its
    child spans cover. Spans are recorded from one domain only. *)

type span = {
  sp_name : string;
  sp_rid : int;      (** work-item id (config, design or request index) *)
  sp_parent : int;   (** index of the enclosing span, -1 at the root *)
  sp_start_ns : int64;
  sp_end_ns : int64;
  sp_alloc_bytes : float;
}

let enabled = ref false
let now_ns = Tytra_telemetry.Clock.now_ns

let blank =
  { sp_name = ""; sp_rid = -1; sp_parent = -1; sp_start_ns = 0L; sp_end_ns = 0L;
    sp_alloc_bytes = 0.0 }

let store = ref (Array.make 4096 blank)
let count = ref 0
let stack = ref []

let reset () =
  count := 0;
  stack := []

(** [with_span ?rid name f] — run [f ()], recording a span around it when
    tracing is enabled; otherwise just [f ()]. *)
let with_span ?(rid = -1) name f =
  if not !enabled then f ()
  else begin
    if !count = Array.length !store then
      store := Array.append !store (Array.make (Array.length !store) blank);
    let idx = !count in
    incr count;
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    stack := idx :: !stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      (!store).(idx) <-
        { sp_name = name; sp_rid = rid; sp_parent = parent; sp_start_ns = t0;
          sp_end_ns = t1; sp_alloc_bytes = Gc.allocated_bytes () -. a0 };
      stack := List.tl !stack
    in
    Fun.protect ~finally:finish f
  end

let spans () = Array.sub !store 0 !count
let dur_ns s = Int64.sub s.sp_end_ns s.sp_start_ns

(** Self time of every span, in nanoseconds, indexed like {!spans}. *)
let self_ns () =
  let sp = spans () in
  let covered = Array.make (Array.length sp) 0L in
  Array.iter
    (fun s ->
      if s.sp_parent >= 0 then
        covered.(s.sp_parent) <- Int64.add covered.(s.sp_parent) (dur_ns s))
    sp;
  Array.mapi (fun i s -> Int64.sub (dur_ns s) covered.(i)) sp

let select name f =
  Array.of_list
    (Array.fold_right
       (fun s acc -> if s.sp_name = name then f s :: acc else acc)
       (spans ()) [])

(** Durations (ms) of every span called [name]. *)
let durations_ms name = select name (fun s -> Int64.to_float (dur_ns s) /. 1e6)

(** Bytes allocated (KB) inside every span called [name]. *)
let allocs_kb name = select name (fun s -> s.sp_alloc_bytes /. 1024.0)

(** Write every span as one JSON object per line. *)
let write path =
  let self = self_ns () in
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"name\":%s,\"rid\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%Ld,\"alloc_bytes\":%.0f}\n"
        (Tytra_telemetry.Jsenc.json_string s.sp_name)
        s.sp_rid s.sp_parent s.sp_start_ns s.sp_end_ns self.(i) s.sp_alloc_bytes)
    (spans ());
  close_out oc

(** Per span name: count, total and self time (ms), sorted by self time. *)
let summary () =
  let self = self_ns () in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.sp_name)
      in
      Hashtbl.replace tbl s.sp_name
        ( n + 1,
          tot +. (Int64.to_float (dur_ns s) /. 1e6),
          slf +. (Int64.to_float self.(i) /. 1e6) ))
    (spans ());
  Hashtbl.fold (fun k (n, t, s) acc -> (k, n, t, s) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)
