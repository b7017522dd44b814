(* Telemetry tests: span nesting/ordering and metric aggregation under a
   deterministic injected clock, JSON export validity, and an end-to-end
   check that `tybec cost --trace` emits a Chrome trace containing the
   documented phase names (DESIGN.md §7 — the taxonomy is a public
   interface, so renaming a phase must fail here). *)

module Tel = Tytra_telemetry

(* Every test runs against fresh global telemetry state and leaves
   telemetry disabled for the rest of the suite. *)
let with_fresh_telemetry f =
  Tel.Export.reset_all ();
  Tel.Clock.set_source (Tel.Clock.counting ~start:0L ~step:1000L ());
  Tel.Control.set_enabled true;
  Tel.Span.set_keep true;
  Fun.protect
    ~finally:(fun () ->
      Tel.Control.set_enabled false;
      Tel.Span.set_keep false;
      Tel.Clock.use_monotonic ();
      Tel.Export.reset_all ())
    f

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser — enough to *validate* exporter output and walk
   it. No external JSON package is available in this environment.       *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); Buffer.contents b
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 ->
                  Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad \\u escape");
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c -> advance (); Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let str_member key j =
  match member key j with Some (Str s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_and_ordering () =
  with_fresh_telemetry @@ fun () ->
  let r =
    Tel.Span.with_ ~name:"outer" (fun () ->
        Tel.Span.with_ ~name:"inner.a" (fun () -> ()) ;
        Tel.Span.with_ ~name:"inner.b" (fun () -> 42))
  in
  Alcotest.(check int) "body value returned" 42 r;
  let evs = Tel.Span.events () in
  Alcotest.(check (list string)) "completion order: children first"
    [ "inner.a"; "inner.b"; "outer" ]
    (List.map (fun e -> e.Tel.Span.ev_name) evs);
  Alcotest.(check (list int)) "depths"
    [ 1; 1; 0 ]
    (List.map (fun e -> e.Tel.Span.ev_depth) evs);
  Alcotest.(check (list int)) "sequence numbers are the completion order"
    [ 0; 1; 2 ]
    (List.map (fun e -> e.Tel.Span.ev_seq) evs);
  (* counting clock: each reading advances by 1000 ns, so every span
     measures exactly (readings in between + 1) * 1000 ns *)
  let by_name n = List.find (fun e -> e.Tel.Span.ev_name = n) evs in
  Alcotest.(check int64) "inner.a duration" 1000L (by_name "inner.a").Tel.Span.ev_dur_ns;
  Alcotest.(check int64) "inner.b duration" 1000L (by_name "inner.b").Tel.Span.ev_dur_ns;
  Alcotest.(check int64) "outer duration spans the children" 5000L
    (by_name "outer").Tel.Span.ev_dur_ns;
  let outer = by_name "outer" and a = by_name "inner.a" in
  Alcotest.(check bool) "child starts inside parent" true
    (a.Tel.Span.ev_ts_ns > outer.Tel.Span.ev_ts_ns
    && Int64.add a.Tel.Span.ev_ts_ns a.Tel.Span.ev_dur_ns
       < Int64.add outer.Tel.Span.ev_ts_ns outer.Tel.Span.ev_dur_ns)

let test_span_exception_safety () =
  with_fresh_telemetry @@ fun () ->
  (try
     Tel.Span.with_ ~name:"boom" (fun () -> failwith "expected") |> ignore;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "re-raised" "expected" m);
  (match Tel.Span.events () with
  | [ e ] ->
      Alcotest.(check string) "recorded" "boom" e.Tel.Span.ev_name;
      Alcotest.(check bool) "tagged with error attr" true
        (List.mem_assoc "error" e.Tel.Span.ev_attrs)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  Alcotest.(check (list string)) "stack unwound" [] (Tel.Span.current_path ())

let test_span_disabled_is_passthrough () =
  Tel.Export.reset_all ();
  Tel.Control.set_enabled false;
  let r = Tel.Span.with_ ~name:"ghost" (fun () -> 7) in
  Tel.Metrics.incr "ghost.counter";
  Tel.Metrics.observe "ghost.hist" 1.0;
  Alcotest.(check int) "value passes through" 7 r;
  Alcotest.(check int) "no events" 0 (List.length (Tel.Span.events ()));
  Alcotest.(check (list string)) "no metrics" [] (Tel.Metrics.names ())

let test_span_retention_cap () =
  with_fresh_telemetry @@ fun () ->
  Tel.Span.set_max_events 3;
  Fun.protect
    ~finally:(fun () -> Tel.Span.set_max_events 1_000_000)
    (fun () ->
      for i = 1 to 5 do
        Tel.Span.with_ ~name:(Printf.sprintf "s%d" i) (fun () -> ())
      done;
      Alcotest.(check int) "kept up to cap" 3 (List.length (Tel.Span.events ()));
      Alcotest.(check int) "rest counted as dropped" 2 (Tel.Span.dropped_events ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_aggregation () =
  with_fresh_telemetry @@ fun () ->
  Tel.Metrics.incr "points";
  Tel.Metrics.incr "points";
  Tel.Metrics.incr ~by:3 "points";
  Tel.Metrics.add "bytes" 0.5;
  Tel.Metrics.add "bytes" 1.75;
  Tel.Metrics.set "front" 4.0;
  Tel.Metrics.set "front" 9.0;
  Alcotest.(check (option (float 1e-9))) "counter sums" (Some 5.0)
    (Tel.Metrics.counter_value "points");
  Alcotest.(check (option (float 1e-9))) "float counter sums" (Some 2.25)
    (Tel.Metrics.counter_value "bytes");
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 9.0)
    (Tel.Metrics.gauge_value "front");
  Alcotest.(check (option (float 1e-9))) "missing metric" None
    (Tel.Metrics.counter_value "nope");
  Alcotest.(check (list string)) "names sorted"
    [ "bytes"; "front"; "points" ]
    (Tel.Metrics.names ())

let test_histogram_stats () =
  with_fresh_telemetry @@ fun () ->
  List.iter (Tel.Metrics.observe "lat")
    [ 5.0; 1.0; 3.0; 2.0; 4.0; 6.0; 7.0; 8.0; 9.0; 10.0 ];
  match Tel.Metrics.histogram_stats "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count" 10 s.Tel.Metrics.hs_count;
      Alcotest.(check (float 1e-9)) "sum" 55.0 s.Tel.Metrics.hs_sum;
      Alcotest.(check (float 1e-9)) "mean" 5.5 s.Tel.Metrics.hs_mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Tel.Metrics.hs_min;
      Alcotest.(check (float 1e-9)) "max" 10.0 s.Tel.Metrics.hs_max;
      Alcotest.(check (float 1e-9)) "p50 of 1..10" 5.0 s.Tel.Metrics.hs_p50;
      Alcotest.(check (float 1e-9)) "p95 of 1..10" 10.0 s.Tel.Metrics.hs_p95

let test_metrics_json_valid () =
  with_fresh_telemetry @@ fun () ->
  Tel.Metrics.incr "a \"quoted\"\nname";
  Tel.Metrics.observe "h" 1.5;
  let j = parse_json (Tel.Metrics.to_json ()) in
  (match member "counters" j with
  | Some (Obj [ (name, Num 1.0) ]) ->
      Alcotest.(check string) "escaped name round-trips" "a \"quoted\"\nname"
        name
  | _ -> Alcotest.fail "counters object malformed");
  match member "histograms" j with
  | Some (Obj [ ("h", h) ]) ->
      Alcotest.(check bool) "histogram has stats" true
        (member "p95" h <> None && member "count" h <> None)
  | _ -> Alcotest.fail "histograms object malformed"

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_export () =
  with_fresh_telemetry @@ fun () ->
  Tel.Span.with_ ~name:"cost.evaluate"
    ~attrs:[ ("design", Tel.Span.Str "sor"); ("lanes", Tel.Span.Int 4) ]
    (fun () -> Tel.Span.with_ ~name:"cost.throughput" (fun () -> ()));
  let j = parse_json (Tel.Export.to_chrome_json ~process_name:"test" ()) in
  let evs =
    match member "traceEvents" j with
    | Some (List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let complete =
    List.filter (fun e -> str_member "ph" e = Some "X") evs
  in
  Alcotest.(check (list (option string))) "span names"
    [ Some "cost.throughput"; Some "cost.evaluate" ]
    (List.map (str_member "name") complete);
  let ev_cost = List.nth complete 1 in
  Alcotest.(check (option string)) "category is the dotted prefix"
    (Some "cost") (str_member "cat" ev_cost);
  (match member "args" ev_cost with
  | Some args ->
      Alcotest.(check (option string)) "string attr" (Some "sor")
        (str_member "design" args);
      Alcotest.(check bool) "int attr" true
        (member "lanes" args = Some (Num 4.0))
  | None -> Alcotest.fail "args missing");
  Alcotest.(check bool) "has process_name metadata event" true
    (List.exists
       (fun e ->
         str_member "ph" e = Some "M"
         && str_member "name" e = Some "process_name")
       evs)

let test_summary_aggregates () =
  with_fresh_telemetry @@ fun () ->
  for _ = 1 to 3 do
    Tel.Span.with_ ~name:"phase.x" (fun () -> ())
  done;
  Tel.Span.with_ ~name:"phase.y" (fun () ->
      Tel.Span.with_ ~name:"phase.x" (fun () -> ()));
  match Tel.Export.summary () with
  | [ heavy; light ] ->
      (* four 1-tick phase.x spans (4000 ns total) outweigh the single
         3-tick phase.y span: heaviest-total-first ordering *)
      Alcotest.(check string) "x first (heavier)" "phase.x"
        heavy.Tel.Export.sr_name;
      Alcotest.(check int) "x count" 4 heavy.Tel.Export.sr_count;
      Alcotest.(check int64) "x total" 4000L heavy.Tel.Export.sr_total_ns;
      Alcotest.(check (float 1e-9)) "x mean" 1000.0 heavy.Tel.Export.sr_mean_ns;
      Alcotest.(check string) "y second" "phase.y" light.Tel.Export.sr_name;
      Alcotest.(check int64) "y total" 3000L light.Tel.Export.sr_total_ns
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* End-to-end: tybec cost --trace emits the documented phases          *)
(* ------------------------------------------------------------------ *)

let find_existing candidates = List.find_opt Sys.file_exists candidates

let test_tybec_cost_trace () =
  let tybec =
    find_existing [ "../bin/tybec.exe"; "_build/default/bin/tybec.exe" ]
  in
  let example =
    find_existing
      [ "../../../examples/ir/sor_c2.tirl"; "examples/ir/sor_c2.tirl" ]
  in
  match (tybec, example) with
  | Some tybec, Some example ->
      let trace = Filename.temp_file "tytra_trace" ".json" in
      Fun.protect ~finally:(fun () -> try Sys.remove trace with _ -> ())
      @@ fun () ->
      let cmd =
        Printf.sprintf "%s cost %s --trace %s > /dev/null"
          (Filename.quote tybec) (Filename.quote example)
          (Filename.quote trace)
      in
      Alcotest.(check int) "tybec cost exits 0" 0 (Sys.command cmd);
      let ic = open_in_bin trace in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      let j = parse_json contents in
      let names =
        match member "traceEvents" j with
        | Some (List evs) ->
            List.filter_map
              (fun e ->
                if str_member "ph" e = Some "X" then str_member "name" e
                else None)
              evs
        | _ -> Alcotest.fail "traceEvents missing"
      in
      List.iter
        (fun phase ->
          Alcotest.(check bool)
            (Printf.sprintf "trace contains %s" phase)
            true (List.mem phase names))
        [ "ir.parse"; "ir.validate"; "ir.analysis"; "cost.resource_model";
          "cost.evaluate"; "cost.throughput"; "cost.limits"; "tybec.report";
          "tybec.cost" ]
  | _ -> Alcotest.skip ()

let suite =
  [
    Alcotest.test_case "span nesting and completion order" `Quick
      test_span_nesting_and_ordering;
    Alcotest.test_case "span records and re-raises on exception" `Quick
      test_span_exception_safety;
    Alcotest.test_case "disabled telemetry is a pass-through" `Quick
      test_span_disabled_is_passthrough;
    Alcotest.test_case "event retention cap counts drops" `Quick
      test_span_retention_cap;
    Alcotest.test_case "counter and gauge aggregation" `Quick
      test_counter_aggregation;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_stats;
    Alcotest.test_case "metrics JSON is valid and escaped" `Quick
      test_metrics_json_valid;
    Alcotest.test_case "Chrome-trace export structure" `Quick
      test_chrome_trace_export;
    Alcotest.test_case "per-phase summary aggregates" `Quick
      test_summary_aggregates;
    Alcotest.test_case "tybec cost --trace end to end" `Slow
      test_tybec_cost_trace;
  ]
