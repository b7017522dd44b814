(** Exporters for recorded telemetry.

    Two consumers:

    - {b Chrome trace_event JSON} ({!to_chrome_json},
      {!write_chrome_trace}): load the file in [chrome://tracing] or
      {{:https://ui.perfetto.dev}Perfetto} to see the phase hierarchy on
      a timeline. Spans are emitted as complete ([ph:"X"]) events with
      microsecond timestamps; the span category is the dotted prefix of
      the phase name ([ir.parse] → cat [ir]).

    - {b Summary table} ({!summary}, {!pp_summary}, {!report_json}): a
      per-phase aggregation — count, total, mean, p95, max — plus the
      metrics registry, as aligned text for terminals and as JSON for the
      benchmark harness (machine-readable per-phase timing for E5). *)

let json_string = Metrics.json_string
let json_num = Metrics.json_num

let us_of_ns ns = Int64.to_float ns /. 1e3

let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let attr_json (v : Span.attr) =
  match v with
  | Span.Str s -> json_string s
  | Span.Int i -> string_of_int i
  | Span.Float f -> json_num f
  | Span.Bool b -> string_of_bool b

(* ------------------------------------------------------------------ *)
(* Chrome trace                                                        *)
(* ------------------------------------------------------------------ *)

let add_event b (ev : Span.event) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d"
       (json_string ev.Span.ev_name)
       (json_string (category ev.Span.ev_name))
       (json_num (us_of_ns ev.Span.ev_ts_ns))
       (json_num (us_of_ns ev.Span.ev_dur_ns))
       ev.Span.ev_tid);
  (match ev.Span.ev_attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (json_string k);
          Buffer.add_char b ':';
          Buffer.add_string b (attr_json v))
        attrs;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

(** The recorded spans as a Chrome [trace_event] JSON document. *)
let to_chrome_json ?(process_name = "tybec") () : string =
  let evs = Span.events () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":%s}}"
       (json_string process_name));
  List.iter
    (fun ev ->
      Buffer.add_char b ',';
      add_event b ev)
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"";
  let d = Span.dropped_events () in
  if d > 0 then
    Buffer.add_string b (Printf.sprintf ",\"droppedEvents\":%d" d);
  Buffer.add_char b '}';
  Buffer.contents b

(** Write the Chrome trace to [path]. *)
let write_chrome_trace ?process_name (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json ?process_name ()))

(* ------------------------------------------------------------------ *)
(* Per-phase summary                                                   *)
(* ------------------------------------------------------------------ *)

type row = {
  sr_name : string;
  sr_count : int;
  sr_total_ns : int64;
  sr_mean_ns : float;
  sr_p95_ns : float;
  sr_max_ns : int64;
}

(** Aggregate the recorded spans per phase name, heaviest total first. *)
let summary () : row list =
  let tbl : (string, int64 list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (ev : Span.event) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl ev.Span.ev_name) in
      Hashtbl.replace tbl ev.Span.ev_name (ev.Span.ev_dur_ns :: prev))
    (Span.events ());
  Hashtbl.fold
    (fun name durs acc ->
      let n = List.length durs in
      let total = List.fold_left Int64.add 0L durs in
      let sorted = List.sort compare (List.map Int64.to_float durs) in
      let p95 = Metrics.percentile sorted n 0.95 in
      {
        sr_name = name;
        sr_count = n;
        sr_total_ns = total;
        sr_mean_ns = Int64.to_float total /. float_of_int (max 1 n);
        sr_p95_ns = p95;
        sr_max_ns = List.fold_left Int64.max 0L durs;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.sr_total_ns a.sr_total_ns)

let pp_ns fmt ns =
  if ns >= 1e9 then Format.fprintf fmt "%8.3f s " (ns /. 1e9)
  else if ns >= 1e6 then Format.fprintf fmt "%8.3f ms" (ns /. 1e6)
  else if ns >= 1e3 then Format.fprintf fmt "%8.3f us" (ns /. 1e3)
  else Format.fprintf fmt "%8.0f ns" ns

(** Aligned per-phase table: count, total, mean, p95, max. *)
let pp_summary fmt () =
  let rows = summary () in
  if rows = [] then Format.fprintf fmt "(no spans recorded)@."
  else begin
    Format.fprintf fmt "%-34s %7s %11s %11s %11s %11s@." "phase" "count"
      "total" "mean" "p95" "max";
    List.iter
      (fun r ->
        Format.fprintf fmt "%-34s %7d %a %a %a %a@." r.sr_name r.sr_count
          pp_ns (Int64.to_float r.sr_total_ns)
          pp_ns r.sr_mean_ns pp_ns r.sr_p95_ns
          pp_ns (Int64.to_float r.sr_max_ns))
      rows;
    let d = Span.dropped_events () in
    if d > 0 then
      Format.fprintf fmt "(%d events dropped past the retention cap)@." d
  end

let summary_to_string () = Format.asprintf "%a" pp_summary ()

(** Machine-readable report: per-phase rows plus the metrics registry.
    This is what [bench/main.exe --json FILE] writes per experiment run. *)
let report_json () : string =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"count\":%d,\"total_ns\":%Ld,\"mean_ns\":%s,\"p95_ns\":%s,\"max_ns\":%Ld}"
           (json_string r.sr_name) r.sr_count r.sr_total_ns
           (json_num r.sr_mean_ns) (json_num r.sr_p95_ns) r.sr_max_ns))
    (summary ());
  Buffer.add_string b "],\"metrics\":";
  Buffer.add_string b (Metrics.to_json ());
  Buffer.add_string b
    (Printf.sprintf ",\"dropped_events\":%d}" (Span.dropped_events ()));
  Buffer.contents b

let write_report (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (report_json ()))

(** Reset spans and metrics together (fresh run). *)
let reset_all () =
  Span.reset ();
  Metrics.reset ()
