(** [tybec serve] — the cost model as a long-lived service.

    Mounts one {!Engine} behind the telemetry HTTP server
    ({!Tytra_telemetry.Serve}): [POST /v1/submit] speaks the
    {!Protocol} JSON codec, everything else falls through to the
    built-in [/metrics], [/metrics.json] and [/healthz] routes, so one
    port answers both work and observability traffic. Admission control
    is the server's bounded worker queue: when it is full, connections
    are answered [429] without touching the engine.

    Every request body is decoded once and goes straight to
    {!Engine.submit}, and every request is answered whole: one JSON
    reply with its typed HTTP status. An explore takes a few
    milliseconds, so there is no progress to stream (DESIGN.md §15.2).

    {!run} serves on the calling domain, which runs the server's one
    loop (accept, read, answer wire errors) while the workers answer
    requests, until SIGTERM/SIGINT; then it drains gracefully: the
    listener stops accepting, every request already accepted is
    answered, the workers join, and the accounting line is printed —
    whereupon the CLI exits 0. *)

module Serve = Tytra_telemetry.Serve

let json_response status body =
  {
    Serve.rs_status = status;
    rs_content_type = "application/json";
    rs_body = body ^ "\n";
  }

(* The request's own deadline always wins; [--deadline-default-ms] only
   fills in for frames that carry none, so old clients get a budget
   without resending anything. *)
let effective_deadline ?default_deadline_s (d : Protocol.decoded_request) =
  match d.Protocol.dq_deadline_s with
  | Some _ as s -> s
  | None -> default_deadline_s

(* Wire-level failures — the server gave up before (or instead of)
   reaching the engine — rendered as typed protocol errors, so a client
   never has to parse plain-text bodies to tell "you sent garbage" from
   "the service is shedding load". *)
let wire_error (status : int) : Serve.response option =
  let err =
    match status with
    | 413 -> Some (Engine.Request_too_large Serve.max_body_bytes)
    | 408 -> Some (Engine.Bad_request "timeout reading request")
    | 429 -> Some Engine.Overloaded
    | 400 -> Some (Engine.Bad_request "malformed HTTP request")
    | _ -> None
  in
  Option.map
    (fun e -> json_response status (Protocol.encode_error e))
    err

let handler ?default_deadline_s (eng : Engine.t) (rq : Serve.request) :
    Serve.response option =
  let error err =
    json_response (Protocol.http_status err) (Protocol.encode_error err)
  in
  match (rq.Serve.rq_meth, rq.Serve.rq_path) with
  | "POST", "/v1/submit" ->
      Some
        (match Protocol.decode_request rq.Serve.rq_body with
        | Error err -> error err
        | Ok d -> (
            match
              Engine.submit
                ?deadline_s:(effective_deadline ?default_deadline_s d)
                eng d.Protocol.dq_request
            with
            | Ok resp ->
                json_response 200
                  (Protocol.encode_response
                     ~op:(Engine.op_name d.Protocol.dq_request)
                     resp)
            | Error err -> error err))
  | "GET", "/v1/protocol" ->
      Some
        (json_response 200
           (Printf.sprintf
              {|{"v":%d,"minor":%d,"ops":["check","cost","synth","sim","explore"],"frames":["result"]}|}
              Protocol.version Protocol.version_minor))
  | _ -> None (* falls through to /metrics, /metrics.json, /healthz *)

(* The serving loop runs on the daemon's own domain, so it counts
   against the cores: one worker per remaining core, at least one, at
   most 4 (DESIGN.md §13.3). *)
let default_workers () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

let run ?(config = Engine.default_config) ?(workers = default_workers ())
    ?(queue_cap = 64) ?(reuseport = false) ?listen_fd ?admin_addr
    ?deadline_default_ms ?cache_journal ~addr () =
  (* the service exists to be scraped: metrics are always live here *)
  Tytra_telemetry.Control.set_enabled true;
  let config =
    match cache_journal with
    | None -> config
    | Some _ -> { config with Engine.cache_journal = cache_journal }
  in
  let default_deadline_s =
    Option.map (fun ms -> Float.max 0.0 ms /. 1000.0) deadline_default_ms
  in
  let eng = Engine.create config in
  let stopping = Atomic.make false in
  (* the drain line goes straight to the descriptor: the handler may run
     on any domain, in the middle of whatever it was printing *)
  let on_stop =
    Sys.Signal_handle
      (fun _ ->
        if not (Atomic.exchange stopping true) then
          let m = "tybec: drain: stopped accepting, answering in-flight requests\n" in
          ignore (Unix.write_substring Unix.stderr m 0 (String.length m)))
  in
  Sys.set_signal Sys.sigterm on_stop;
  Sys.set_signal Sys.sigint on_stop;
  (* a shard's private observability endpoint: plain metrics routes on a
     second (usually unix-socket) server, so the parent aggregator can
     scrape each shard even though they share the public port *)
  let admin = ref None in
  let sv =
    Fun.protect
      ~finally:(fun () -> Option.iter Serve.stop !admin)
      (fun () ->
        Serve.run
          ~handler:(handler ?default_deadline_s eng)
          ~error_responder:wire_error ~workers ~queue_cap ~reuseport
          ?listen_fd ~stop:stopping ~addr
          ~on_listen:(fun sv ->
            admin := Option.map (fun a -> Serve.start ~addr:a ()) admin_addr;
            Printf.eprintf "tybec: engine serving on %s (workers %d, queue %d)\n%!"
              (Serve.bound_addr sv) workers queue_cap)
          ())
  in
  Printf.eprintf "tybec: served %d requests (%d rejected)\n%!"
    (Serve.requests_served sv)
    (Serve.requests_rejected sv)
