(* serve-mixed: open-loop HTTP traffic against `tybec serve`.

   Every phase starts a fresh server with default flags. A fixed-rate
   phase issues the mixed traffic on a schedule (a warm-up, then a
   measured window) over at most [nproc] connections, timing each
   request from its due time; a closed-loop phase sends a fixed number of
   requests back to back and measures the rate they complete at. The
   untraced run replays one 200 req/s schedule and one closed loop
   several times (see [end_to_end]); the traced run has one phase at
   each of 200, 400 and 800 req/s. *)

open Tybench
module Engine = Tytra_engine.Engine
module Protocol = Tytra_engine.Protocol
module J = Tytra_telemetry.Jsenc

let conns = min 2 Common.nproc

type server = { pid : int; port : int }

let healthy port =
  match Http.request ~meth:"GET" ~port "/healthz" "" with
  | 200, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Shutdown is not measured, and a graceful one takes up to half a
   second, so the server is killed outright. *)
let stop s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Start a server and time it until /healthz answers: one set-up sample.
   The server inherits this process's environment, which main.ml has
   cleared of TYTRA_* variables. *)
let start ~tybec =
  let port = Http.free_port () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Common.now () in
  let pid =
    Unix.create_process tybec
      [| tybec; "serve"; "--addr"; Printf.sprintf "127.0.0.1:%d" port |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let s = { pid; port } in
  let rec wait () =
    if healthy port then Common.now () -. t0
    else if Common.now () -. t0 > 30.0 then begin
      stop s;
      failwith "tybec serve did not answer /healthz within 30 s"
    end
    else begin
      Unix.sleepf 0.0005;
      wait ()
    end
  in
  (s, wait ())

let with_server ~tybec f =
  let s, setup = start ~tybec in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> f s setup)

let is_ok body = String.starts_with ~prefix:"{\"v\":1,\"status\":\"ok\"" body

(* The server's own cache counters, from /metrics.json. *)
type caches = { resp_hits : float; resp_lookups : float; parse_hits : float; parse_lookups : float }

let scrape port =
  let counters =
    match Http.request ~meth:"GET" ~port "/metrics.json" "" with
    | 200, body -> (
        match J.parse body with Ok j -> J.member "counters" j | Error _ -> None)
    | _ -> None
    | exception Unix.Unix_error _ -> None
  in
  let get name =
    Option.value ~default:0.0 (Option.bind counters (J.num_member name))
  in
  let hits p = get (p ^ ".hits") and lookups p = get (p ^ ".hits") +. get (p ^ ".misses") in
  { resp_hits = hits "engine.response_cache"; resp_lookups = lookups "engine.response_cache";
    parse_hits = hits "engine.parse_cache"; parse_lookups = lookups "engine.parse_cache" }

let count kind reqs =
  Array.fold_left (fun n (r : Gen.request) -> if r.Gen.rq_kind = kind then n + 1 else n) 0 reqs

(* Response-cache hits per hot request: only exact repeats can hit, since
   cold text was never sent and a parse-hit request carries a (device,
   form, nki) not yet sent with its text. *)
let hot_hit_ratio c reqs = Stats.ratio c.resp_hits (float_of_int (count Gen.Hot reqs))

let log_caches what c reqs =
  Common.log
    "%s: %d hot requests, %.0f response-cache hits (%.3f per hot request); %d parse-hit \
     requests, %.0f parse-cache hits of %.0f lookups"
    what (count Gen.Hot reqs) c.resp_hits (hot_hit_ratio c reqs) (count Gen.Parse_hit reqs)
    c.parse_hits c.parse_lookups

type phase = {
  ph_samples : Openloop.sample list;  (** measured window only *)
  ph_all : Openloop.sample array;
  ph_rejected : int;
  ph_rss_mb : float;
  ph_setup_s : float;
  ph_caches : caches;
}

(* One fixed-rate phase. Sampled bodies (one in 50) are kept for the
   byte-identity check against the in-process engine. *)
let phase ~tybec ~ops ~check ~reqs ~rate ~warmup ~seed =
  let n = Array.length reqs in
  let r = Gen.rng ~seed (Printf.sprintf "serve-sample-r%d" rate) in
  let sampled = Array.init n (fun _ -> Gen.int r 50 = 0) in
  let bodies = Array.make n None and statuses = Array.make n 0 in
  with_server ~tybec @@ fun s setup ->
  let send i =
    match Http.request ~port:s.port "/v1/submit" reqs.(i).Gen.rq_body with
    | status, body ->
        statuses.(i) <- status;
        if sampled.(i) then bodies.(i) <- Some body;
        status = 200 && is_ok body
    | exception Unix.Unix_error _ -> false
  in
  let t0 = Common.now () +. 0.05 in
  let due = Array.init n (fun i -> t0 +. (float_of_int i /. float_of_int rate)) in
  let all =
    Openloop.run ~conns ~now:Openloop.clock ~sleep_until:Openloop.sleep_until ~due ~send ()
  in
  Array.iteri
    (fun i (x : Openloop.sample) ->
      Common.record ops x.Openloop.ok ~what:(fun () ->
          Printf.sprintf "%s request at %d req/s: HTTP %d"
            (Gen.kind_name reqs.(i).Gen.rq_kind) rate statuses.(i)))
    all;
  Array.iteri (fun i b -> Option.iter (fun b -> check reqs.(i) b) b) bodies;
  { ph_samples = List.filter (fun (x : Openloop.sample) -> x.Openloop.due >= t0 +. warmup) (Array.to_list all);
    ph_all = all;
    ph_rejected = Array.fold_left (fun k st -> if st = 429 then k + 1 else k) 0 statuses;
    ph_rss_mb = Common.peak_rss_mb (string_of_int s.pid);
    ph_setup_s = setup;
    ph_caches = scrape s.port }

let lat_ms samples = Array.map (fun x -> Common.ms (Openloop.latency x)) samples

(* Latencies (ms) of every measured request. *)
let measured ph = lat_ms (Array.of_list ph.ph_samples)

(* Closed loop: [conns] connections send the requests back to back; the
   capacity is the number sent over the time until the last answer. *)
let capacity ~tybec ~ops ~reqs =
  with_server ~tybec @@ fun s setup ->
  let send i =
    match Http.request ~port:s.port "/v1/submit" reqs.(i).Gen.rq_body with
    | 200, body -> is_ok body
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let t0 = Common.now () in
  let all =
    Openloop.run ~conns ~now:Openloop.clock ~sleep_until:(fun _ -> ())
      ~due:(Array.make (Array.length reqs) t0) ~send ()
  in
  Array.iter (fun (x : Openloop.sample) -> Common.record ops x.Openloop.ok) all;
  let last = Array.fold_left (fun m (x : Openloop.sample) -> Float.max m x.Openloop.finish) t0 all in
  log_caches "closed loop" (scrape s.port) reqs;
  (Stats.ratio (float_of_int (Array.length all)) (last -. t0), setup,
   Common.peak_rss_mb (string_of_int s.pid))

(* In-process replay of a schedule through Engine.submit on a fresh
   engine and cold process-wide caches; spans per request kind when
   tracing. *)
let replay reqs =
  Tytra_cost.Report.clear_stage_caches ();
  Tytra_dse.Dse.clear_cache ();
  let eng = Engine.create Engine.default_config in
  let (), wall =
    Common.time (fun () ->
        Array.iteri
          (fun i (rq : Gen.request) ->
            ignore
              (Trace.with_span ~rid:i
                 ("engine.submit." ^ Gen.kind_name rq.Gen.rq_kind)
                 (fun () -> Engine.submit eng rq.Gen.rq_request)))
          reqs)
  in
  (eng, wall)

let schedule ~seed ~pool ~phase ~rate ~window =
  Gen.serve ~seed ~pool ~phase ~n:(Plan.fixed_rate ~rate ~window)

(* The untraced run: the 200 req/s schedule replayed on fresh servers,
   then the closed loop, replayed likewise. Each replay is the same
   traffic on the same timetable against a server in the same state, so
   whatever queueing the traffic itself causes (bursts, a request behind
   an explore) happens in every replay; a request's latency is its
   fastest over the replays ([Common.op_times]), and the throughput that
   of the fastest closed loop. Two servers started before each replay
   add set-up samples. *)
let end_to_end ~seed ~seconds ~tybec ~ops ~check ~pool =
  let warmup = Plan.warmup seconds and window = Plan.window seconds in
  let reqs = schedule ~seed ~pool ~phase:"r200" ~rate:Plan.headline_rate ~window:(warmup +. window) in
  let cap_reqs = Gen.serve ~seed ~pool ~phase:"capacity" ~n:(Plan.closed seconds) in
  let setup = Common.setups () in
  let starts () =
    for _ = 1 to 2 do
      Common.add_setup setup (with_server ~tybec (fun _ t -> t))
    done
  in
  let phases =
    List.init Plan.replays (fun _ ->
        starts ();
        let ph = phase ~tybec ~ops ~check ~reqs ~rate:Plan.headline_rate ~warmup ~seed in
        Common.add_setup setup ph.ph_setup_s;
        ph)
  in
  log_caches "200 req/s" (List.hd phases).ph_caches reqs;
  let closed =
    List.init Plan.closed_replays (fun _ ->
        starts ();
        let rate, t, rss = capacity ~tybec ~ops ~reqs:cap_reqs in
        Common.add_setup setup t;
        (rate, rss))
  in
  let lat = Common.op_times (List.map measured phases) in
  let largest = List.fold_left Float.max 0.0 in
  [ ("setup_s", Common.setup_s setup);
    ("peak_rss_mb", largest (List.map (fun ph -> ph.ph_rss_mb) phases @ List.map snd closed));
    ("latency_p50_ms", Stats.median lat);
    ("latency_tail_ms", Stats.percentile lat (Ledger.tail_pct "serve-mixed"));
    ("throughput_per_s", largest (List.map fst closed)) ]

(* The traced run: all three rates, then the engine replay and the wire
   measurement. *)
let layers ~seed ~seconds ~tybec ~ops ~check ~pool =
  let warmup = Plan.warmup seconds in
  let phases =
    List.map
      (fun rate ->
        let reqs =
          schedule ~seed ~pool ~phase:(Printf.sprintf "r%d" rate) ~rate
            ~window:(warmup +. Plan.traced_window seconds rate)
        in
        (rate, reqs, phase ~tybec ~ops ~check ~reqs ~rate ~warmup ~seed))
      Plan.rates
  in
  let phase_of rate = List.find (fun (r, _, _) -> r = rate) phases in
  let _, head_reqs, head = phase_of Plan.headline_rate in
  let reqs = Array.sub head_reqs 0 (min 1000 (Array.length head_reqs)) in
  let _, untraced_wall = replay reqs in
  Trace.reset ();
  Trace.enabled := true;
  let eng, traced_wall = replay reqs in
  let cold_text (rq : Gen.request) =
    match rq.Gen.rq_request with
    | Engine.Cost { source = Engine.Inline text; _ } when rq.Gen.rq_kind = Gen.Cold -> Some text
    | _ -> None
  in
  Array.iteri
    (fun i rq ->
      Option.iter
        (fun text ->
          ignore (Trace.with_span ~rid:i "ir.parse" (fun () -> Tytra_ir.Parser.parse text)))
        (cold_text rq))
    reqs;
  Trace.enabled := false;
  let p50 name = Stats.median (Trace.durations_ms name) in
  let hit (s : Tytra_exec.Cache.stats) =
    Stats.ratio (float_of_int s.Tytra_exec.Cache.st_hits)
      (float_of_int (s.Tytra_exec.Cache.st_hits + s.Tytra_exec.Cache.st_misses))
  in
  (* before the wire measurement below adds its own hits *)
  let parse_hit = hit (Engine.parse_cache_stats eng) in
  let response_hit = hit (Engine.response_cache_stats eng) in
  (* wire cost: one request repeated over a single connection (a
     response-cache hit) against the same request in process *)
  let repeated = List.find (fun r -> cold_text r <> None) (Array.to_list reqs) in
  let times f = Array.sub (Array.init 201 (fun _ -> snd (Common.time f))) 1 200 in
  let wire =
    with_server ~tybec @@ fun s _ ->
    times (fun () -> ignore (Http.request ~port:s.port "/v1/submit" repeated.Gen.rq_body))
  in
  let inproc = times (fun () -> ignore (Engine.submit eng repeated.Gen.rq_request)) in
  let parse = Trace.durations_ms "ir.parse" in
  let lines =
    Array.fold_left
      (fun acc rq ->
        acc
        + Option.fold ~none:0
            ~some:(fun t -> List.length (String.split_on_char '\n' t))
            (cold_text rq))
      0 reqs
  in
  let rate_ms rate p =
    let _, _, ph = phase_of rate in
    Stats.percentile (measured ph) p
  in
  let all = List.concat_map (fun (_, _, ph) -> Array.to_list ph.ph_all) phases in
  [ ("ir.parse.ms_p50", Stats.median parse);
    ("ir.parse.lines_per_s", Stats.ratio (float_of_int lines) (Stats.sum parse /. 1000.0));
    ("engine.submit.cold.ms_p50", p50 "engine.submit.cold");
    ("engine.submit.parse_hit.ms_p50", p50 "engine.submit.parse_hit");
    ("engine.submit.hot.ms_p50", p50 "engine.submit.hot");
    ("engine.submit.explore.ms_p50", p50 "engine.submit.explore");
    ("engine.parse_cache.hit_ratio", parse_hit);
    ("engine.response_cache.hit_ratio", response_hit);
    ("serve.response_cache.hot_hit_ratio", hot_hit_ratio head.ph_caches head_reqs);
    ("serve.parse_cache.hit_ratio", Stats.ratio head.ph_caches.parse_hits head.ph_caches.parse_lookups);
    ("serve.wire_ms_p50", Common.ms (Stats.median wire -. Stats.median inproc));
    ("serve.rejected_429",
     float_of_int (List.fold_left (fun k (_, _, ph) -> k + ph.ph_rejected) 0 phases));
    ("serve.gen_lag_p99_ms",
     Stats.percentile (Array.of_list (List.map (fun x -> Common.ms (Openloop.lag x)) all)) 99.0);
    ("serve.backlog_max",
     float_of_int
       (List.fold_left (fun m (_, _, ph) -> max m (Openloop.backlog_max ph.ph_all)) 0 phases));
    ("serve.r200.p99_ms", rate_ms 200 99.0);
    ("serve.r400.p50_ms", rate_ms 400 50.0);
    ("serve.r400.p99_ms", rate_ms 400 99.0);
    ("serve.r800.p50_ms", rate_ms 800 50.0);
    ("serve.r800.p99_ms", rate_ms 800 99.0);
    ("trace.overhead_pct", 100.0 *. (Stats.ratio traced_wall untraced_wall -. 1.0));
    ("bench.samples",
     float_of_int (Plan.fixed_rate ~rate:Plan.headline_rate ~window:(Plan.window seconds)));
    ("bench.tail_pct", Ledger.tail_pct "serve-mixed") ]

let run ~seed ~seconds ~traced ~tybec =
  let pool = Gen.cold_pool ~seed ~size:(Plan.longest seconds) in
  let ops = Common.tally () in
  let engine = Engine.create Engine.default_config in
  let check (rq : Gen.request) body =
    Common.record ops
      ~what:(fun () ->
        Printf.sprintf "served %s body differs from the in-process response: %s"
          (Gen.kind_name rq.Gen.rq_kind) (String.sub body 0 (min 300 (String.length body))))
      (match Engine.submit engine rq.Gen.rq_request with
      | Ok rs ->
          (* the server ends every body with a newline *)
          body = Protocol.encode_response ~op:(Engine.op_name rq.Gen.rq_request) rs ^ "\n"
      | Error _ -> false)
  in
  let metrics =
    (if traced then layers else end_to_end) ~seed ~seconds ~tybec ~ops ~check ~pool
  in
  { Common.attempted = ops.Common.n; failed = ops.Common.bad; metrics }
