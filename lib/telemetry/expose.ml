(** Prometheus-style text exposition of the metrics registry.

    Renders the whole registry (from one consistent {!Metrics.snapshot})
    in the Prometheus text format (version 0.0.4): counters and gauges as
    single samples, histograms as summaries (quantile-labelled samples
    plus [_sum]/[_count]). Metric names are sanitized — dots become
    underscores, everything gets a [tytra_] prefix — so
    [dse.points_evaluated] exposes as [tytra_dse_points_evaluated].

    The same module renders the registry as stable sorted JSON
    ({!registry_json}, the [--metrics-json] payload — byte-identical
    across runs with identical counters, so CI can diff it). *)

let prefix = "tytra_"

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  prefix ^ Bytes.to_string b

(* Prometheus sample values: Go-style float formatting; integral values
   print without an exponent so greps stay simple. *)
let sample x =
  if Float.is_nan x then "NaN"
  else if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(** The whole registry in Prometheus text exposition format 0.0.4. *)
let render () : string =
  let b = Buffer.create 2048 in
  let meta name ty =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty)
  in
  List.iter
    (fun (name, v) ->
      let pname = sanitize name in
      match (v : Metrics.snapshot_value) with
      | Metrics.SCounter c ->
          meta pname "counter";
          Buffer.add_string b (Printf.sprintf "%s %s\n" pname (sample c))
      | Metrics.SGauge g ->
          meta pname "gauge";
          Buffer.add_string b (Printf.sprintf "%s %s\n" pname (sample g))
      | Metrics.SHistogram h ->
          let s = Metrics.stats_of_histogram h in
          meta pname "summary";
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"0.5\"} %s\n" pname (sample s.hs_p50));
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"0.95\"} %s\n" pname (sample s.hs_p95));
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" pname (sample s.hs_sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" pname s.hs_count))
    (Metrics.snapshot ());
  (* Self-accounting: exporters must be loss-accounted. *)
  Buffer.add_string b "# TYPE tytra_telemetry_dropped_spans counter\n";
  Buffer.add_string b
    (Printf.sprintf "tytra_telemetry_dropped_spans %d\n" (Span.dropped_events ()));
  Buffer.add_string b "# TYPE tytra_telemetry_events_emitted counter\n";
  Buffer.add_string b
    (Printf.sprintf "tytra_telemetry_events_emitted %d\n" (Events.emitted ()));
  Buffer.contents b

(** The registry as stable sorted JSON (same shape as
    [Metrics.to_json]; the [--metrics-json FILE] payload). *)
let registry_json () : string = Metrics.to_json ()

(** [write_registry_json path] — dump {!registry_json} to [path]. *)
let write_registry_json (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (registry_json ());
      output_char oc '\n')
