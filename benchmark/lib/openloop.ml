(** Open-loop request issue on a fixed schedule.

    Request [i] is due at [due.(i)] whether or not earlier requests have
    been answered. [conns] connections pull the next due request in
    order, so a slow reply delays the requests queued behind it; each
    request is timed from its due time, which charges that wait to them
    (no coordinated omission). The clock and the sleep are parameters so
    tests can drive the loop with a synthetic clock. *)

type sample = {
  due : float;
  start : float;   (** when the request was actually sent *)
  finish : float;
  ok : bool;
}

let latency s = s.finish -. s.due

(** How late the generator sent the request. *)
let lag s = s.start -. s.due

(** [run ?conns ~now ~sleep_until ~due ~send ()] — issue every request
    of the schedule and return one sample per request, in schedule
    order. A closed loop is a schedule that is all due at once. [send i]
    must not raise. *)
let run ?(conns = 1) ~now ~sleep_until ~due ~send () =
  let n = Array.length due in
  let samples =
    Array.map (fun d -> { due = d; start = nan; finish = nan; ok = false }) due
  in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      sleep_until due.(i);
      let start = now () in
      let ok = send i in
      samples.(i) <- { due = due.(i); start; finish = now (); ok };
      worker ()
    end
  in
  let others = List.init (max 0 (conns - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join others;
  samples

(** Largest number of requests that were due but not yet sent, seen at
    any send: the backlog the generator built. *)
let backlog_max samples =
  let starts = Array.map (fun s -> s.start) samples in
  let dues = Array.map (fun s -> s.due) samples in
  Array.sort Float.compare starts;
  Array.sort Float.compare dues;
  let worst = ref 0 and d = ref 0 in
  Array.iteri
    (fun k t ->
      while !d < Array.length dues && dues.(!d) <= t do incr d done;
      worst := max !worst (!d - k - 1))
    starts;
  !worst

(** Monotonic seconds, and a sleep against the same clock. *)
let clock () = Int64.to_float (Tytra_telemetry.Clock.now_ns ()) /. 1e9

let sleep_until t =
  let dt = t -. clock () in
  if dt > 0.0 then Unix.sleepf dt
