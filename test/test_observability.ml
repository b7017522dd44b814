(* Live-observability tests: the structured event log (encode/decode
   round-trip, span/counter hooks), the Prometheus exposition and stable
   registry JSON, the HTTP/Unix-socket snapshot server, the event log's
   integration with an actual sweep, exact nearest-rank percentiles, and
   a multi-domain stress run over every exporter at once. *)

module Tel = Tytra_telemetry
module Events = Tytra_telemetry.Events

(* Fresh telemetry state (Test_telemetry's fixture) plus a guarantee
   that the event sink is torn down afterwards. *)
let with_obs f =
  Test_telemetry.with_fresh_telemetry @@ fun () ->
  Fun.protect ~finally:Events.close f

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let all_event_kinds : Events.event list =
  [
    Sweep_started { kernel = "sor"; space = 26; prune = true };
    Point_evaluated
      { variant = "par8-pipe"; ekit = 123.5; valid = true; dur_ns = 42_000L };
    Point_pruned
      { variant = "par64-pipe"; reason = "overflow (ekit_ub=1.5, fits=false)" };
    Span_open { name = "dse.sweep"; depth = 0 };
    Span_close { name = "dse.sweep"; dur_ns = 9_000L; error = None };
    Span_close { name = "ir.parse"; dur_ns = 1_000L; error = Some "boom" };
    Counter_delta { name = "dse.points_evaluated"; delta = 1.0 };
    Sweep_finished { evaluated = 12; pruned = 14 };
  ]

let test_events_roundtrip () =
  with_obs @@ fun () ->
  let buf = Buffer.create 1024 in
  Events.open_memory buf;
  List.iter Events.emit all_event_kinds;
  Events.close ();
  let records, errors = Events.decode_lines (Buffer.contents buf) in
  Alcotest.(check (list (pair int string))) "no decode errors" [] errors;
  Alcotest.(check int) "all events decoded" (List.length all_event_kinds)
    (List.length records);
  List.iteri
    (fun i (r : Events.record) ->
      Alcotest.(check int) "seq is emission order" i r.r_seq;
      (* counting clock: one reading per emit, step 1000 *)
      Alcotest.(check int64) "deterministic timestamp"
        (Int64.of_int (i * 1000))
        r.r_ts_ns;
      Alcotest.(check bool) "event round-trips" true
        (r.r_event = List.nth all_event_kinds i))
    records

let test_events_decode_tolerates_unknown_fields () =
  (* schema policy: additive fields must not break old decoders *)
  let line =
    "{\"v\":1,\"seq\":0,\"ts_ns\":5,\"dom\":0,\"type\":\"point_pruned\",\
     \"variant\":\"par2\",\"reason\":\"r\",\"future_field\":[1,2]}"
  in
  (match Events.decode_line line with
  | Ok { r_event = Events.Point_pruned { variant; reason }; _ } ->
      Alcotest.(check string) "variant" "par2" variant;
      Alcotest.(check string) "reason" "r" reason
  | Ok _ -> Alcotest.fail "decoded to the wrong event"
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (match Events.decode_line "{\"v\":99,\"seq\":0,\"ts_ns\":0,\"dom\":0}" with
  | Error e ->
      Alcotest.(check bool) "version mismatch is reported" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "future schema version must not decode");
  match Events.decode_line "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

let test_span_and_counter_hooks () =
  with_obs @@ fun () ->
  let buf = Buffer.create 1024 in
  Events.open_memory buf;
  Tel.Span.with_ ~name:"t.outer" (fun () ->
      Tel.Span.with_ ~name:"t.inner" (fun () -> Tel.Metrics.incr "t.count"));
  Tel.Metrics.add "t.acc" 2.5;
  Events.close ();
  let records, errors = Events.decode_lines (Buffer.contents buf) in
  Alcotest.(check (list (pair int string))) "no decode errors" [] errors;
  let evs = List.map (fun (r : Events.record) -> r.r_event) records in
  let expect_mem name p =
    Alcotest.(check bool) name true (List.exists p evs)
  in
  expect_mem "outer opens at depth 0" (function
    | Events.Span_open { name = "t.outer"; depth = 0 } -> true
    | _ -> false);
  expect_mem "inner opens at depth 1" (function
    | Events.Span_open { name = "t.inner"; depth = 1 } -> true
    | _ -> false);
  expect_mem "counter delta 1" (function
    | Events.Counter_delta { name = "t.count"; delta = 1.0 } -> true
    | _ -> false);
  expect_mem "add delta 2.5" (function
    | Events.Counter_delta { name = "t.acc"; delta = 2.5 } -> true
    | _ -> false);
  (* close order: inner closes before outer *)
  let closes =
    List.filter_map
      (function Events.Span_close { name; _ } -> Some name | _ -> None)
      evs
  in
  Alcotest.(check (list string)) "span close order" [ "t.inner"; "t.outer" ]
    closes;
  (* durations come from the counting clock, so they are exact *)
  List.iter
    (function
      | Events.Span_close { dur_ns; _ } ->
          Alcotest.(check bool) "positive deterministic duration" true
            (Int64.compare dur_ns 0L > 0)
      | _ -> ())
    evs

let test_events_disabled_is_free () =
  with_obs @@ fun () ->
  Alcotest.(check bool) "no sink: inactive" false (Events.active ());
  let before = Events.emitted () in
  Events.emit (Events.Counter_delta { name = "x"; delta = 1.0 });
  Alcotest.(check int) "no sink: nothing emitted" before (Events.emitted ())

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_exposition_format () =
  with_obs @@ fun () ->
  Tel.Metrics.incr ~by:3 "t.requests";
  Tel.Metrics.set "t.depth" 2.5;
  List.iter (fun i -> Tel.Metrics.observe "t.lat" (float_of_int i))
    [ 1; 2; 3; 4; 5 ];
  let text = Tel.Expose.render () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains ~needle text))
    [
      "# TYPE tytra_t_requests counter\n";
      "tytra_t_requests 3\n";
      "# TYPE tytra_t_depth gauge\n";
      "tytra_t_depth 2.5\n";
      "# TYPE tytra_t_lat summary\n";
      "tytra_t_lat{quantile=\"0.5\"} 3\n";
      "tytra_t_lat{quantile=\"0.95\"} 5\n";
      "tytra_t_lat_sum 15\n";
      "tytra_t_lat_count 5\n";
      "# TYPE tytra_telemetry_dropped_spans counter\n";
      "# TYPE tytra_telemetry_events_emitted counter\n";
    ];
  (* every sample line's metric name is exposition-legal: no dots *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        let name =
          match String.index_opt line '{' with
          | Some i -> String.sub line 0 i
          | None -> (
              match String.index_opt line ' ' with
              | Some i -> String.sub line 0 i
              | None -> line)
        in
        String.iter
          (fun c ->
            let ok =
              (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
              || (c >= '0' && c <= '9')
              || c = '_' || c = ':'
            in
            if not ok then
              Alcotest.failf "illegal char %C in metric name %S" c name)
          name)
    (String.split_on_char '\n' text)

let test_registry_json_stable () =
  with_obs @@ fun () ->
  Tel.Metrics.incr "b.counter";
  Tel.Metrics.incr "a.counter";
  Tel.Metrics.set "z.gauge" 1.0;
  let j1 = Tel.Expose.registry_json () in
  let j2 = Tel.Expose.registry_json () in
  Alcotest.(check string) "rendering is deterministic" j1 j2;
  (match Test_telemetry.parse_json j1 with
  | Test_telemetry.Obj kvs ->
      (match List.assoc_opt "counters" kvs with
      | Some (Test_telemetry.Obj cs) ->
          let names = List.map fst cs in
          Alcotest.(check (list string)) "counters sorted by name"
            (List.sort compare names) names
      | _ -> Alcotest.fail "no counters object")
  | _ -> Alcotest.fail "registry JSON is not an object");
  let path = Filename.temp_file "tytra_reg" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tel.Expose.write_registry_json path;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "file ends with newline" true
        (String.length s > 0 && s.[String.length s - 1] = '\n');
      ignore (Test_telemetry.parse_json (String.trim s)))

(* ------------------------------------------------------------------ *)
(* Snapshot server                                                     *)
(* ------------------------------------------------------------------ *)

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let http_get sockaddr path =
  let fd =
    Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: t\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      read_all fd)

let test_serve_tcp () =
  with_obs @@ fun () ->
  Tel.Metrics.incr ~by:5 "t.served";
  let sv = Tel.Serve.start ~addr:"127.0.0.1:0" () in
  Fun.protect
    ~finally:(fun () -> Tel.Serve.stop sv)
    (fun () ->
      let addr = Tel.Serve.bound_addr sv in
      let port =
        match String.rindex_opt addr ':' with
        | Some i ->
            int_of_string (String.sub addr (i + 1) (String.length addr - i - 1))
        | None -> Alcotest.failf "unparseable bound addr %S" addr
      in
      Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
      let sa = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let metrics = http_get sa "/metrics" in
      Alcotest.(check bool) "/metrics is 200" true
        (contains ~needle:"200 OK" metrics);
      Alcotest.(check bool) "/metrics has the counter" true
        (contains ~needle:"tytra_t_served 5" metrics);
      Alcotest.(check bool) "exposition content type" true
        (contains ~needle:"text/plain; version=0.0.4" metrics);
      let health = http_get sa "/healthz" in
      Alcotest.(check bool) "/healthz ok" true
        (contains ~needle:"200 OK" health && contains ~needle:"ok" health);
      let mjson = http_get sa "/metrics.json" in
      (match String.index_opt mjson '{' with
      | Some i ->
          ignore
            (Test_telemetry.parse_json
               (String.trim
                  (String.sub mjson i (String.length mjson - i))))
      | None -> Alcotest.fail "/metrics.json has no JSON body");
      let missing = http_get sa "/nope" in
      Alcotest.(check bool) "unknown path is 404" true
        (contains ~needle:"404 Not Found" missing);
      Alcotest.(check bool) "served all scrapes" true
        (Tel.Serve.requests_served sv >= 4));
  (* stop is idempotent *)
  Tel.Serve.stop sv

let test_serve_unix_socket () =
  with_obs @@ fun () ->
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tytra_test_%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let sv = Tel.Serve.start ~addr:("unix:" ^ path) () in
  let health = http_get (Unix.ADDR_UNIX path) "/healthz" in
  Alcotest.(check bool) "unix socket /healthz ok" true
    (contains ~needle:"200 OK" health);
  Tel.Serve.stop sv;
  Alcotest.(check bool) "socket file unlinked on stop" false
    (Sys.file_exists path)

let test_serve_bad_addr () =
  match Tel.Serve.start ~addr:"not an address" () with
  | exception Failure _ -> ()
  | sv ->
      Tel.Serve.stop sv;
      Alcotest.fail "nonsense address must be rejected"

(* The serving loop's reader on byte sequences (a file or a pipe stands
   in for the peer; its end is the peer closing): what it accepts, and
   the wire status it answers otherwise. *)
let test_read_request_statuses () =
  let read bytes =
    let path = Filename.temp_file "tytra-request" ".http" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Tel.Serve.read_request fd
  in
  let ok what bytes (meth, path, body) =
    match read bytes with
    | Ok rq ->
        Alcotest.(check (triple string string string))
          what (meth, path, body)
          (rq.Tel.Serve.rq_meth, rq.Tel.Serve.rq_path, rq.Tel.Serve.rq_body)
    | Error status -> Alcotest.failf "%s: status %d" what status
  in
  let fails what bytes status =
    match read bytes with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error s -> Alcotest.(check int) what status s
  in
  ok "no body" "GET /healthz HTTP/1.0\r\n\r\n" ("GET", "/healthz", "");
  ok "header names in any case, bytes past the body ignored"
    "post /v1/submit HTTP/1.0\r\ncontent-LENGTH: 5\r\n\r\nhelloEXTRA"
    ("POST", "/v1/submit", "hello");
  (* the head's end arrives split over two reads *)
  let r, w = Unix.pipe ~cloexec:true () in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  write "GET /x HTTP/1.0\r\nX-Pad: a\r\n\r";
  let late =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        write "\n";
        Unix.close w)
  in
  let split = Tel.Serve.read_request r in
  Domain.join late;
  Unix.close r;
  (match split with
  | Ok rq ->
      Alcotest.(check (pair string string))
        "head end across reads" ("GET", "/x")
        (rq.Tel.Serve.rq_meth, rq.Tel.Serve.rq_path)
  | Error status -> Alcotest.failf "head end across reads: status %d" status);
  fails "no request line" "garbage\r\n\r\n" 400;
  fails "nothing sent" "" 400;
  fails "body cut short" "POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nshort" 400;
  fails "head over 16 KB" ("GET / HTTP/1.0\r\nX: " ^ String.make 20_000 'a') 400;
  fails "body over the cap" "POST / HTTP/1.0\r\nContent-Length: 9999999999\r\n\r\n" 413;
  fails "negative length" "POST / HTTP/1.0\r\nContent-Length: -1\r\n\r\n" 413

(* ------------------------------------------------------------------ *)
(* Integration with a real sweep                                       *)
(* ------------------------------------------------------------------ *)

let test_explore_integration () =
  with_obs @@ fun () ->
  let buf = Buffer.create 4096 in
  Events.open_memory buf;
  let prog = Tytra_kernels.Sor.program ~im:8 ~jm:8 ~km:8 () in
  let config = { Tytra_dse.Dse.default_config with max_lanes = 8 } in
  let sw = Tytra_dse.Dse.explore_sweep ~config prog in
  Events.close ();
  let st = sw.Tytra_dse.Dse.sw_stats in
  let pruned =
    st.Tytra_dse.Dse.ss_pruned_resource + st.Tytra_dse.Dse.ss_pruned_incumbent
  in
  let log = Buffer.contents buf in
  let records, errors = Events.decode_lines log in
  Alcotest.(check (list (pair int string))) "event log decodes clean" []
    errors;
  let find_map f =
    List.find_map (fun (r : Events.record) -> f r.r_event) records
  in
  (match
     find_map (function
       | Events.Sweep_started { kernel; space; prune } ->
           Some (kernel, space, prune)
       | _ -> None)
   with
  | Some (kernel, space, prune) ->
      Alcotest.(check string) "sweep_started kernel" "sor" kernel;
      Alcotest.(check int) "sweep_started space" st.Tytra_dse.Dse.ss_space
        space;
      Alcotest.(check bool) "sweep_started prune" true prune
  | None -> Alcotest.fail "no sweep_started event");
  (* version-1 readers still find the constant jobs member *)
  Alcotest.(check bool) "sweep_started keeps jobs at 1" true
    (List.exists
       (fun l ->
         contains ~needle:"\"type\":\"sweep_started\"" l
         && contains ~needle:"\"jobs\":1," l)
       (String.split_on_char '\n' log));
  (match
     find_map (function
       | Events.Sweep_finished { evaluated; pruned } -> Some (evaluated, pruned)
       | _ -> None)
   with
  | Some (evaluated, p) ->
      Alcotest.(check int) "sweep_finished evaluated"
        st.Tytra_dse.Dse.ss_evaluated evaluated;
      Alcotest.(check int) "sweep_finished pruned" pruned p
  | None -> Alcotest.fail "no sweep_finished event");
  (* version-1 readers still find the constant failed/restored members *)
  Alcotest.(check bool) "sweep_finished keeps failed/restored at 0" true
    (List.exists
       (fun l ->
         contains ~needle:"\"type\":\"sweep_finished\"" l
         && contains ~needle:"\"failed\":0,\"restored\":0" l)
       (String.split_on_char '\n' log));
  let n_point_events =
    List.length
      (List.filter
         (fun (r : Events.record) ->
           match r.r_event with
           | Events.Point_evaluated _ -> true
           | _ -> false)
         records)
  in
  Alcotest.(check int) "one point_evaluated per evaluation"
    st.Tytra_dse.Dse.ss_evaluated n_point_events;
  (* ... and each keeps the constant cached member version-1 readers
     require *)
  Alcotest.(check int) "point_evaluated keeps \"cached\":false"
    n_point_events
    (List.length
       (List.filter
          (fun l ->
            contains ~needle:"\"type\":\"point_evaluated\"" l
            && contains ~needle:"\"cached\":false," l)
          (String.split_on_char '\n' log)))

(* ------------------------------------------------------------------ *)
(* Multi-domain stress: every exporter at once                         *)
(* ------------------------------------------------------------------ *)

let test_multidomain_stress () =
  with_obs @@ fun () ->
  let buf = Buffer.create 65536 in
  Events.open_memory buf;
  let n_domains = 4 and per_domain = 50 in
  let worker k () =
    for i = 1 to per_domain do
      Tel.Span.with_ ~name:(Printf.sprintf "stress.d%d" k) (fun () ->
          Tel.Metrics.incr "stress.count";
          Tel.Metrics.observe "stress.lat" (float_of_int i);
          Events.emit
            (Events.Point_pruned
               { variant = Printf.sprintf "d%d-%d" k i; reason = "stress" }))
    done
  in
  let domains = List.init n_domains (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  Events.close ();
  (* counters aggregated exactly across domains *)
  Alcotest.(check (option (float 0.0))) "counter total"
    (Some (float_of_int (n_domains * per_domain)))
    (Tel.Metrics.counter_value "stress.count");
  (* event log: loss-accounted and fully decodable *)
  let records, errors = Events.decode_lines (Buffer.contents buf) in
  Alcotest.(check (list (pair int string))) "stress log decodes clean" []
    errors;
  Alcotest.(check int) "emitted accounts every line" (Events.emitted ())
    (List.length records);
  Alcotest.(check int) "no write errors" 0 (Events.write_errors ());
  (* seq is a gapless total order even under contention *)
  List.iteri
    (fun i (r : Events.record) ->
      Alcotest.(check int) "gapless seq" i r.r_seq)
    records;
  (* every domain's full output is present *)
  for k = 0 to n_domains - 1 do
    let mine =
      List.filter
        (fun (r : Events.record) ->
          match r.r_event with
          | Events.Point_pruned { variant; _ } ->
              String.length variant > 1
              && variant.[1] = Char.chr (Char.code '0' + k)
          | _ -> false)
        records
    in
    Alcotest.(check int)
      (Printf.sprintf "domain %d events all present" k)
      per_domain (List.length mine)
  done;
  (* the other exporters stay well-formed over the same state *)
  ignore (Test_telemetry.parse_json (Tel.Export.to_chrome_json ()));
  ignore (Test_telemetry.parse_json (Tel.Export.report_json ()));
  ignore (Test_telemetry.parse_json (Tel.Expose.registry_json ()));
  let text = Tel.Expose.render () in
  Alcotest.(check bool) "exposition sees the stress counter" true
    (contains
       ~needle:
         (Printf.sprintf "tytra_stress_count %d" (n_domains * per_domain))
       text);
  Alcotest.(check int) "no spans dropped" 0 (Tel.Span.dropped_events ())

(* ------------------------------------------------------------------ *)
(* Percentiles: nearest-rank vs an exact integer-arithmetic reference   *)
(* ------------------------------------------------------------------ *)

let test_percentile_exact () =
  (* the motivating case: 0.95 *. 20. = 19.000000000000004, which once
     pushed ceil one rank too high (p95 of 1..20 read 20, not 19) *)
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p95 of 1..20 is rank 19" 19.0
    (Tel.Metrics.percentile (upto 20) 20 0.95);
  Alcotest.(check (float 0.0)) "p50 of 1..20 is rank 10" 10.0
    (Tel.Metrics.percentile (upto 20) 20 0.5);
  Alcotest.(check (float 0.0)) "single sample" 7.5
    (Tel.Metrics.percentile [ 7.5 ] 1 0.95);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Tel.Metrics.percentile [] 0 0.95);
  Alcotest.(check (float 0.0)) "q=1 is the max" 20.0
    (Tel.Metrics.percentile (upto 20) 20 1.0);
  (* heavy tail: one outlier must not leak into p95 at n = 20 *)
  let heavy = List.sort compare (1e12 :: List.init 19 (fun _ -> 1.0)) in
  Alcotest.(check (float 0.0)) "heavy tail p95 stays at the body" 1.0
    (Tel.Metrics.percentile heavy 20 0.95);
  Alcotest.(check (float 0.0)) "heavy tail p100 is the outlier" 1e12
    (Tel.Metrics.percentile heavy 20 1.0);
  (* exhaustive: every q = p/100, n = 1..40 against exact nearest-rank
     computed in integer arithmetic (rank = ceil(p*n/100)) *)
  for n = 1 to 40 do
    let sorted = upto n in
    for p = 1 to 100 do
      let rank = ((p * n) + 99) / 100 in
      let expected = float_of_int rank in
      let got =
        Tel.Metrics.percentile sorted n (float_of_int p /. 100.0)
      in
      if got <> expected then
        Alcotest.failf "percentile n=%d q=%d%%: got %g, want %g" n p got
          expected
    done
  done

let test_histogram_stats_percentiles () =
  with_obs @@ fun () ->
  List.iter (fun i -> Tel.Metrics.observe "t.h" (float_of_int i))
    (List.init 20 (fun i -> i + 1));
  match Tel.Metrics.histogram_stats "t.h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check (float 0.0)) "hist p95" 19.0 s.Tel.Metrics.hs_p95;
      Alcotest.(check (float 0.0)) "hist p50" 10.0 s.Tel.Metrics.hs_p50;
      Alcotest.(check (float 0.0)) "hist max" 20.0 s.Tel.Metrics.hs_max;
      Alcotest.(check int) "hist count" 20 s.Tel.Metrics.hs_count

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "event log encode/decode round-trip" `Quick
      test_events_roundtrip;
    Alcotest.test_case "event decoder tolerates additive fields" `Quick
      test_events_decode_tolerates_unknown_fields;
    Alcotest.test_case "span and counter hooks emit events" `Quick
      test_span_and_counter_hooks;
    Alcotest.test_case "no sink means no events" `Quick
      test_events_disabled_is_free;
    Alcotest.test_case "Prometheus exposition format" `Quick
      test_exposition_format;
    Alcotest.test_case "registry JSON is stable and sorted" `Quick
      test_registry_json_stable;
    Alcotest.test_case "snapshot server over TCP" `Quick test_serve_tcp;
    Alcotest.test_case "snapshot server over a Unix socket" `Quick
      test_serve_unix_socket;
    Alcotest.test_case "snapshot server rejects bad addresses" `Quick
      test_serve_bad_addr;
    Alcotest.test_case "request reader statuses" `Quick
      test_read_request_statuses;
    Alcotest.test_case "sweep integration: events/progress" `Quick
      test_explore_integration;
    Alcotest.test_case "multi-domain stress over every exporter" `Quick
      test_multidomain_stress;
    Alcotest.test_case "nearest-rank percentile is exact" `Quick
      test_percentile_exact;
    Alcotest.test_case "histogram stats percentiles" `Quick
      test_histogram_stats_percentiles;
  ]
