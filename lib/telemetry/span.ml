(** Hierarchical timed spans.

    A span measures one phase of the compile/cost/DSE flow. Spans nest:
    [with_ ~name f] opens a span, runs [f], and records a completed event
    when [f] returns (or raises — the event is recorded with an [error]
    attribute and the exception re-raised). The recorded stream is the
    *completion* order: children always appear before their parents, and
    Chrome's trace viewer reconstructs the hierarchy from the (ts, dur)
    containment on each thread lane.

    Phase names are a stable public interface — see DESIGN.md §7 for the
    taxonomy. Attribute payloads are small typed values rendered into the
    Chrome-trace [args] object.

    A completed span is kept for an exporter only when {!keep} is set:
    a run sets it when it will export spans ([--trace], [--metrics],
    bench's [--json]/[--trace]). Enabled telemetry without it still
    times spans for the [--events] log, and keeps none of them, so a
    daemon that serves only metrics holds no per-request state.

    Overhead when disabled: one mutable-bool check, no allocation. *)

(** Typed span attribute values. *)
type attr = Str of string | Int of int | Float of float | Bool of bool

let attr_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Bool b -> string_of_bool b

(** One completed span. Times are nanoseconds from {!Clock}. *)
type event = {
  ev_name : string;
  ev_ts_ns : int64;   (** start time *)
  ev_dur_ns : int64;  (** duration (>= 0) *)
  ev_depth : int;     (** nesting depth at open time; roots are 0 *)
  ev_tid : int;       (** thread-of-execution (domain) id *)
  ev_seq : int;       (** global completion sequence number *)
  ev_attrs : (string * attr) list;
}

(* ------------------------------------------------------------------ *)
(* Recording state                                                     *)
(* ------------------------------------------------------------------ *)

let mutex = Mutex.create ()

(* completion-ordered, newest first; reversed on read *)
let recorded : event list ref = ref []
let n_recorded = ref 0
let seq = ref 0
let dropped = ref 0

(* Retention cap: a long DSE sweep or anneal could otherwise grow the
   buffer without bound. Past the cap, events are counted but not kept. *)
let default_max_events = 1_000_000
let max_events = ref default_max_events
let set_max_events n = max_events := max 0 n

(* Whether completed spans are kept at all; see the header. *)
let keep = ref false
let set_keep b = keep := b

(* Open-span stack and nesting depth are *per-domain* state: workers of
   the parallel DSE pool each carry their own stack, so concurrent spans
   nest correctly inside their own domain and never contend on a lock
   just to track depth. The completed-event buffer above stays shared
   (and mutex-guarded) so one export sees every domain's spans. *)
type domain_state = {
  mutable ds_stack : string list;
  mutable ds_depth : int;
}

let dls : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { ds_stack = []; ds_depth = 0 })

let reset () =
  Mutex.lock mutex;
  recorded := [];
  n_recorded := 0;
  seq := 0;
  dropped := 0;
  Mutex.unlock mutex;
  let ds = Domain.DLS.get dls in
  ds.ds_stack <- [];
  ds.ds_depth <- 0

(** Completed events in completion order (children before parents). *)
let events () : event list =
  Mutex.lock mutex;
  let l = List.rev !recorded in
  Mutex.unlock mutex;
  l

let dropped_events () = !dropped

(** Dotted path of the calling domain's open spans, outermost first
    (diagnostics). *)
let current_path () : string list =
  List.rev (Domain.DLS.get dls).ds_stack

(* ------------------------------------------------------------------ *)
(* The span combinator                                                 *)
(* ------------------------------------------------------------------ *)

let record ~name ~t0 ~t1 ~depth:d ~tid ~attrs =
  Mutex.lock mutex;
  let s = !seq in
  seq := s + 1;
  if !n_recorded < !max_events then begin
    recorded :=
      {
        ev_name = name;
        ev_ts_ns = t0;
        ev_dur_ns = Int64.max 0L (Int64.sub t1 t0);
        ev_depth = d;
        ev_tid = tid;
        ev_seq = s;
        ev_attrs = attrs;
      }
      :: !recorded;
    incr n_recorded
  end
  else incr dropped;
  Mutex.unlock mutex

(** [with_ ?attrs ~name f] — run [f ()] inside a span called [name].
    Returns [f ()]'s value; re-raises its exceptions after recording the
    span with an [error] attribute. When telemetry is disabled, or when
    spans are neither kept nor logged, this is exactly [f ()]. *)
let with_ ?(attrs : (string * attr) list = []) ~name f =
  if not !Control.enabled then f ()
  else if not (!keep || Events.active ()) then f ()
  else begin
    let tid = (Domain.self () :> int) in
    let ds = Domain.DLS.get dls in
    let d = ds.ds_depth in
    ds.ds_depth <- d + 1;
    ds.ds_stack <- name :: ds.ds_stack;
    let leave () =
      ds.ds_depth <- ds.ds_depth - 1;
      match ds.ds_stack with _ :: tl -> ds.ds_stack <- tl | [] -> ()
    in
    if Events.active () then Events.emit (Events.Span_open { name; depth = d });
    let t0 = Clock.now_ns () in
    match f () with
    | v ->
        let t1 = Clock.now_ns () in
        leave ();
        if !keep then record ~name ~t0 ~t1 ~depth:d ~tid ~attrs;
        if Events.active () then
          Events.emit
            (Events.Span_close
               { name; dur_ns = Int64.max 0L (Int64.sub t1 t0); error = None });
        v
    | exception e ->
        let t1 = Clock.now_ns () in
        leave ();
        if !keep then
          record ~name ~t0 ~t1 ~depth:d ~tid
            ~attrs:(("error", Str (Printexc.to_string e)) :: attrs);
        if Events.active () then
          Events.emit
            (Events.Span_close
               {
                 name;
                 dur_ns = Int64.max 0L (Int64.sub t1 t0);
                 error = Some (Printexc.to_string e);
               });
        raise e
  end
