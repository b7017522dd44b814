(** TyBEC — the TyTra back-end compiler command-line tool.

    Accepts a design variant in TyTra-IR ([.tirl]), costs it and, if
    needed, generates the HDL code for it (paper Fig 11). Subcommands:

    - [check]   — parse and validate a [.tirl] file;
    - [cost]    — run the analytic cost model (fast path);
    - [synth]   — run the detailed tech-mapper (slow path, "synthesis");
    - [sim]     — cycle-level simulation on the platform model;
    - [hdl]     — emit Verilog, the configuration include and the MaxJ
                  wrapper;
    - [explore] — front-end design-space exploration over a built-in
                  kernel;
    - [bw]      — the sustained-bandwidth streaming benchmark. *)

open Cmdliner

(* ---- exit codes ----

   Distinct and documented (README "Exit codes"): scripts branch on
   them. 0 = success, 1 = internal error (a bug or an unexpected
   exception), 2 = the input could not be read or parsed, 3 = it parsed
   but failed static validation. *)

let exit_internal = 1
let exit_parse = 2
let exit_validation = 3

type failure = { fcode : int; fmsg : string }

let fail code fmt = Printf.ksprintf (fun m -> Error { fcode = code; fmsg = m }) fmt

let exit_of = function
  | Ok () -> 0
  | Error { fcode; fmsg } ->
      prerr_endline ("tybec: " ^ fmsg);
      fcode

(* Last line of defense for the crash-free CLI contract: anything a
   subcommand lets escape is an internal error, reported as exit 1 —
   never an uncaught-exception backtrace with cmdliner's exit 125. *)
let guarded f =
  try f ()
  with e ->
    let bt = Printexc.get_backtrace () in
    prerr_endline ("tybec: internal error: " ^ Printexc.to_string e);
    if bt <> "" then prerr_string bt;
    exit_internal

(* ---- observability: Logs reporter + telemetry flags ---- *)

(* A plain reporter on stderr with elapsed-time stamps and the source
   name: "[+0.012s] tytra.dse: [INFO] explored 16 variants". *)
let log_reporter ppf =
  let t0 = Unix.gettimeofday () in
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header ?tags fmt ->
    ignore tags;
    let label =
      match header with
      | Some h -> h
      | None -> String.uppercase_ascii (Logs.level_to_string (Some level))
    in
    Format.kfprintf k ppf
      ("[+%.3fs] %s: [%s] @[" ^^ fmt ^^ "@]@.")
      (Unix.gettimeofday () -. t0)
      (Logs.Src.name src) label
  in
  { Logs.report }

let setup_observability trace metrics verbose level events metrics_json
    metrics_addr =
  let level =
    match level with
    | Some l -> l
    | None -> (
        match List.length verbose with
        | 0 -> Some Logs.Warning
        | 1 -> Some Logs.Info
        | _ -> Some Logs.Debug)
  in
  Logs.set_level level;
  Logs.set_reporter (log_reporter Format.err_formatter);
  if
    trace <> None || metrics || events <> None || metrics_json <> None
    || metrics_addr <> None
  then Tytra_telemetry.Control.set_enabled true;
  (* only the trace and the summary table read spans back *)
  Tytra_telemetry.Span.set_keep (trace <> None || metrics);
  (match events with
  | Some path -> (
      match Tytra_telemetry.Events.open_file path with
      | () -> ()
      | exception Sys_error e ->
          prerr_endline ("tybec: cannot open --events file: " ^ e);
          exit exit_parse)
  | None -> ());
  let server =
    match metrics_addr with
    | None -> None
    | Some addr -> (
        match Tytra_telemetry.Serve.start ~addr () with
        | sv ->
            (* announced on stderr immediately, so scrapers (the CI curl
               step) know the endpoint is up before the sweep ends *)
            Printf.eprintf "tybec: serving /metrics on %s\n%!"
              (Tytra_telemetry.Serve.bound_addr sv);
            Some sv
        | exception Failure m ->
            prerr_endline ("tybec: " ^ m);
            exit exit_parse)
  in
  at_exit (fun () ->
      (match trace with
      | Some path -> (
          match
            Tytra_telemetry.Export.write_chrome_trace ~process_name:"tybec"
              path
          with
          | () -> Logs.info (fun m -> m "wrote Chrome trace to %s" path)
          | exception Sys_error e ->
              Logs.err (fun m -> m "cannot write trace: %s" e))
      | None -> ());
      (match metrics_json with
      | Some path -> (
          match Tytra_telemetry.Expose.write_registry_json path with
          | () -> Logs.info (fun m -> m "wrote metrics JSON to %s" path)
          | exception Sys_error e ->
              Logs.err (fun m -> m "cannot write metrics JSON: %s" e))
      | None -> ());
      Option.iter Tytra_telemetry.Serve.stop server;
      Tytra_telemetry.Events.close ();
      if metrics then
        Format.printf
          "@.=== telemetry: per-phase summary ===@.%a@.=== telemetry: \
           metrics ===@.%a"
          Tytra_telemetry.Export.pp_summary ()
          Tytra_telemetry.Metrics.pp_text ())

let observability_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.json"
          ~doc:
            "Write a Chrome trace_event JSON of this run to $(docv); open \
             it in chrome://tracing or https://ui.perfetto.dev.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the per-phase span summary (count, total, mean, p95) \
             and the metric registry on exit.")
  in
  let verbose_arg =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:"Increase log verbosity ($(b,-v): info, $(b,-vv): debug).")
  in
  let level_arg =
    let conv_level =
      let parse s =
        match Logs.level_of_string s with
        | Ok l -> Ok l
        | Error (`Msg m) -> Error (`Msg m)
      in
      let print fmt l = Format.pp_print_string fmt (Logs.level_to_string l) in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt (some conv_level) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Log level: $(b,debug), $(b,info), $(b,warning), $(b,error), \
                $(b,app) or $(b,quiet). Overrides $(b,-v).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE.jsonl"
          ~doc:
            "Append a structured event log to $(docv): one JSON object \
             per line (sweep lifecycle, per-point outcomes, span \
             open/close, counter deltas). Follows live with tail -f; \
             schema documented in DESIGN.md §12.")
  in
  let metrics_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the metric registry as stable, sorted JSON to $(docv) \
             on exit (machine-readable twin of $(b,--metrics); suitable \
             for diffing in CI).")
  in
  let metrics_addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Serve live metric snapshots over HTTP while the command \
             runs: $(b,GET /metrics) (Prometheus text format), \
             $(b,/metrics.json) and $(b,/healthz). $(docv) is HOST:PORT, \
             :PORT, PORT (0 = ephemeral) or unix:PATH.")
  in
  Term.(
    const setup_observability $ trace_arg $ metrics_arg $ verbose_arg
    $ level_arg $ events_arg
    $ metrics_json_arg $ metrics_addr_arg)

(* Root span of one tybec subcommand. *)
let traced name f = Tytra_telemetry.Span.with_ ~name:("tybec." ^ name) f

(* ---- the engine ----

   Every subcommand is a thin adapter over [Tytra_engine.Engine]: flags
   in, one typed request through [Engine.submit], [rs_text] printed
   verbatim. One lazy process-wide engine keeps the CLI a cheap
   one-shot client of the same lifecycle [tybec serve] keeps warm. *)

module Engine = Tytra_engine.Engine

let engine = lazy (Engine.create Engine.default_config)

(* Typed engine errors carry the same "file:line:"-located messages the
   library diagnostics always produced, and the error class picks the
   exit code (internal errors keep the [guarded]-style prefix). *)
let failure_of_engine_error e =
  match e with
  | Engine.Internal_error m ->
      { fcode = Engine.exit_code e; fmsg = "internal error: " ^ m }
  | e -> { fcode = Engine.exit_code e; fmsg = Engine.error_message e }

(* Run one request and print its rendering — the whole lifecycle of a
   design-consuming subcommand. *)
let run_request req =
  match Engine.submit (Lazy.force engine) req with
  | Ok resp ->
      print_string resp.Engine.rs_text;
      Ok ()
  | Error e -> Error (failure_of_engine_error e)

(* Shared parse→validate preamble for the subcommands that consume the
   design directly (hdl, testbench): same cache, same diagnostics. *)
let read_design path =
  Result.map_error failure_of_engine_error
    (Engine.load_design (Lazy.force engine) (Engine.File path))

(* ---- common args ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.tirl")

let device_arg =
  let parse s =
    match Tytra_device.Device.find s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown device %S (known: %s)" s
               (String.concat ", "
                  (List.map
                     (fun d -> d.Tytra_device.Device.dev_name)
                     Tytra_device.Device.all))))
  in
  let print fmt d =
    Format.pp_print_string fmt d.Tytra_device.Device.dev_name
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tytra_device.Device.stratixv_gsd8
    & info [ "device" ] ~docv:"DEVICE" ~doc:"Target FPGA platform.")

let form_arg =
  let forms =
    [ ("A", Tytra_cost.Throughput.FormA); ("B", Tytra_cost.Throughput.FormB);
      ("C", Tytra_cost.Throughput.FormC) ]
  in
  Arg.(
    value
    & opt (enum forms) Tytra_cost.Throughput.FormB
    & info [ "form" ] ~docv:"A|B|C"
        ~doc:"Memory-execution form (paper Fig 6).")

let nki_arg =
  Arg.(
    value & opt int 1
    & info [ "nki" ] ~docv:"N" ~doc:"Kernel-instance repetitions.")

let calib_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "calib" ] ~docv:"FILE"
        ~doc:"Bandwidth calibration file (from 'tybec bw --save').")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the IR optimization passes (constant folding, strength \
              reduction, CSE, DCE, constant-argument propagation) before \
              the requested action.")

(* ---- check ---- *)

let check_cmd =
  let run () file =
    guarded @@ fun () ->
    traced "check" @@ fun () ->
    exit_of (run_request (Engine.Check { source = Engine.File file }))
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and validate a .tirl design")
    Term.(const run $ observability_term $ file_arg)

(* ---- cost ---- *)

let cost_cmd =
  let run () file device form nki opt calib_file =
    guarded @@ fun () ->
    traced "cost" @@ fun () ->
    exit_of
      (run_request
         (Engine.Cost
            { source = Engine.File file; device; form; nki; optimize = opt;
              calib = calib_file }))
  in
  Cmd.v
    (Cmd.info "cost" ~doc:"Run the analytic cost model (fast estimates)")
    Term.(const run $ observability_term $ file_arg $ device_arg $ form_arg
          $ nki_arg $ optimize_arg $ calib_arg)

(* ---- synth ---- *)

let synth_cmd =
  let effort_arg =
    Arg.(
      value
      & opt (enum [ ("fast", `Fast); ("normal", `Normal); ("full", `Full) ])
          `Normal
      & info [ "effort" ] ~doc:"Placement effort.")
  in
  let run () file device effort opt =
    guarded @@ fun () ->
    traced "synth" @@ fun () ->
    exit_of
      (run_request
         (Engine.Synth
            { source = Engine.File file; device; effort; optimize = opt }))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Run the detailed technology mapper (slow, synthesis-grade)")
    Term.(const run $ observability_term $ file_arg $ device_arg $ effort_arg
          $ optimize_arg)

(* ---- sim ---- *)

let sim_cmd =
  let run () file device form nki opt =
    guarded @@ fun () ->
    traced "sim" @@ fun () ->
    exit_of
      (run_request
         (Engine.Sim
            { source = Engine.File file; device; form; nki; optimize = opt }))
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Cycle-level simulation on the platform model")
    Term.(const run $ observability_term $ file_arg $ device_arg $ form_arg
          $ nki_arg $ optimize_arg)

(* ---- hdl ---- *)

let hdl_cmd =
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run () file dir opt =
    guarded @@ fun () ->
    traced "hdl" @@ fun () ->
    exit_of
      (Result.map
         (fun d ->
           let d = Engine.maybe_optimize opt d in
           let v, vh = Tytra_hdl.Verilog.write ~dir d in
           let mj =
             Filename.concat dir
               (Tytra_hdl.Verilog.sanitize d.Tytra_ir.Ast.d_name ^ "Kernel.maxj")
           in
           let oc = open_out mj in
           output_string oc (Tytra_hdl.Maxj.emit d);
           close_out oc;
           Format.printf "wrote %s@.wrote %s@.wrote %s@." v vh mj)
         (read_design file))
  in
  Cmd.v
    (Cmd.info "hdl" ~doc:"Emit Verilog, config include and MaxJ wrapper")
    Term.(const run $ observability_term $ file_arg $ out_arg $ optimize_arg)

(* ---- explore ---- *)

let explore_cmd =
  let kernel_arg =
    Arg.(
      value
      & opt (enum [ ("sor", `Sor); ("hotspot", `Hotspot); ("lavamd", `Lavamd);
                    ("srad", `Srad) ])
          `Sor
      & info [ "kernel" ] ~doc:"Built-in kernel to explore.")
  in
  let size_arg =
    Arg.(
      value & opt int 16
      & info [ "size" ] ~docv:"N" ~doc:"Grid side (sor/hotspot) or boxes (lavamd).")
  in
  let lanes_arg =
    Arg.(value & opt int 16 & info [ "max-lanes" ] ~doc:"Maximum lane count.")
  in
  let no_prune_arg =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Evaluate the whole space exhaustively instead of skipping \
             points whose cost bounds prove them oversize or dominated. \
             The selected variant and Pareto front are identical either \
             way; this flag exists for benchmarking and verification.")
  in
  let run () kernel size lanes device form nki no_prune =
    guarded @@ fun () ->
    traced "explore" @@ fun () ->
    let req =
      Engine.Explore
        {
          Engine.x_kernel =
            (match kernel with
            | `Sor -> Engine.Sor
            | `Hotspot -> Engine.Hotspot
            | `Lavamd -> Engine.Lavamd
            | `Srad -> Engine.Srad);
          x_size = size; x_max_lanes = lanes; x_device = device;
          x_form = form; x_nki = nki; x_jobs = 1;
          x_prune = not no_prune; x_retries = 0; x_deadline_s = None;
          x_best_effort = false; x_checkpoint = None; x_checkpoint_every = 32;
          x_resume = None; x_place_mode = None;
        }
    in
    match Engine.submit (Lazy.force engine) req with
    | Ok resp ->
        print_string resp.Engine.rs_text;
        0
    | Error e -> exit_of (Error (failure_of_engine_error e))
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Design-space exploration over a built-in kernel")
    Term.(
      const run $ observability_term $ kernel_arg $ size_arg $ lanes_arg
      $ device_arg $ form_arg $ nki_arg $ no_prune_arg)

(* ---- bw ---- *)

let bw_cmd =
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Save the sweep as a calibration file for 'tybec cost --calib'.")
  in
  let run () device save =
    guarded @@ fun () ->
    traced "bw" @@ fun () ->
    let ms = Tytra_streambench.Streambench.sweep device in
    Format.printf " side       bytes        pattern     sustained@.";
    List.iter
      (fun m -> Format.printf "%a@." Tytra_streambench.Streambench.pp m)
      ms;
    (match save with
    | Some path ->
        Tytra_device.Calib_io.save path
          (Tytra_streambench.Streambench.to_calib device ms);
        Format.printf "calibration written to %s@." path
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "bw" ~doc:"Sustained-bandwidth benchmark (paper Fig 10)")
    Term.(const run $ observability_term $ device_arg $ save_arg)



(* ---- testbench ---- *)

let tb_cmd =
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let seed_arg =
    Arg.(
      value & opt string "tb"
      & info [ "seed" ] ~docv:"SEED" ~doc:"Stimulus generator seed.")
  in
  let run () file dir seed =
    guarded @@ fun () ->
    traced "testbench" @@ fun () ->
    exit_of
      (Result.bind (read_design file) (fun d ->
           (* random stimulus for every IStream port *)
           let env =
             List.filter_map
               (fun (p : Tytra_ir.Ast.port) ->
                 if p.Tytra_ir.Ast.pt_dir <> Tytra_ir.Ast.IStream then None
                 else
                   match Tytra_ir.Ast.find_stream d p.Tytra_ir.Ast.pt_stream with
                   | None -> None
                   | Some s ->
                       let n =
                         match Tytra_ir.Ast.find_mem d s.Tytra_ir.Ast.so_mem with
                         | Some m -> m.Tytra_ir.Ast.mo_size
                         | None -> 0
                       in
                       let rng =
                         Tytra_sim.Prng.of_string
                           (seed ^ ":" ^ p.Tytra_ir.Ast.pt_port)
                       in
                       Some
                         ( p.Tytra_ir.Ast.pt_port,
                           Array.init n (fun _ ->
                               Int64.of_int (Tytra_sim.Prng.int rng 64)) ))
               d.Tytra_ir.Ast.d_ports
           in
           match Tytra_hdl.Testbench.write ~dir d env with
           | tb ->
               let v, vh = Tytra_hdl.Verilog.write ~dir d in
               Format.printf "wrote %s@.wrote %s@.wrote %s@." v vh tb;
               Format.printf
                 "run with e.g.: iverilog -o tb %s %s && vvp tb@." v tb;
               Ok ()
           | exception Invalid_argument m -> fail exit_validation "%s" m))
  in
  Cmd.v
    (Cmd.info "testbench"
       ~doc:"Emit Verilog plus a self-checking testbench with golden vectors")
    Term.(const run $ observability_term $ file_arg $ out_arg $ seed_arg)

(* ---- serve ---- *)

let serve_cmd =
  let addr_arg =
    Arg.(
      value & opt string "127.0.0.1:9470"
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:
            "Listen address: HOST:PORT, :PORT, PORT (0 = ephemeral) or \
             unix:PATH. The daemon announces the bound address on stderr.")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Tytra_engine.Daemon.default_workers ())
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains answering requests concurrently, beside the \
             daemon's own domain, which accepts connections and reads \
             requests (default: one per core but that one, at least 1, \
             at most 4).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission-control bound: connections queued beyond the busy \
             workers. A full queue answers 429 immediately instead of \
             building unbounded backlog.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Serve through N shard processes sharing the listen port \
             (SO_REUSEPORT, or an inherited listening fd on kernels \
             without it / unix sockets / port 0). The parent supervises: \
             crashed shards restart, SIGTERM drains every shard, and the \
             admin address aggregates /metrics, /metrics.json and \
             /healthz across them.")
  in
  let admin_addr_arg =
    Arg.(
      value & opt (some string) None
      & info [ "admin-addr" ] ~docv:"ADDR"
          ~doc:
            "With --shards: where the supervisor serves the aggregated \
             /metrics, /metrics.json and /healthz. Default: work port + 1 \
             (ephemeral when the work address is a unix socket or port 0).")
  in
  let shard_child_arg =
    Arg.(
      value & opt (some int) None
      & info [ "shard-child" ] ~docv:"I"
          ~doc:
            "Internal: run as shard I of a --shards front (set by the \
             supervisor, with the socket mode in the environment).")
  in
  let shard_admin_arg =
    Arg.(
      value & opt (some string) None
      & info [ "shard-admin" ] ~docv:"ADDR"
          ~doc:
            "Internal: this shard's private metrics endpoint (set by the \
             supervisor; scraped by the aggregator).")
  in
  let deadline_default_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-default-ms" ] ~docv:"MS"
          ~doc:
            "Default evaluation budget for requests that carry no \
             deadline_ms of their own: the request is answered with a \
             typed timeout error instead of running unboundedly. A \
             request's own deadline_ms always wins.")
  in
  let cache_journal_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-journal" ] ~docv:"PATH"
          ~doc:
            "Journal the engine's response cache to an append-only, \
             digest-validated JSONL file so a restarted process reloads \
             its hot cache (crash-safe warm state, DESIGN.md §16). With \
             --shards, each shard journals to PATH.shard-I.")
  in
  let restart_budget_arg =
    Arg.(
      value & opt int 8
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "With --shards: consecutive restarts (exponential backoff, \
             0.5s doubling to 30s) a crash-looping shard is allowed \
             before the supervisor marks it dead; 5s of healthy uptime \
             resets the count.")
  in
  let run () addr workers queue_cap shards admin_addr shard_child
      shard_admin deadline_default_ms cache_journal restart_budget =
    guarded @@ fun () ->
    traced "serve" @@ fun () ->
    let workers = max 1 workers and queue_cap = max 1 queue_cap in
    match
      match shard_child with
      | Some _ ->
          (* shard child: the supervisor tells us how to get the socket *)
          let reuseport, listen_fd =
            match Tytra_engine.Shards.child_socket () with
            | Tytra_engine.Shards.Child_plain -> (false, None)
            | Tytra_engine.Shards.Child_reuseport -> (true, None)
            | Tytra_engine.Shards.Child_fd fd -> (false, Some fd)
          in
          Tytra_engine.Daemon.run ~workers ~queue_cap ~reuseport
            ?listen_fd ?admin_addr:shard_admin ?deadline_default_ms
            ?cache_journal ~addr ()
      | None ->
          if shards <= 1 then
            Tytra_engine.Daemon.run ~workers ~queue_cap ?admin_addr
              ?deadline_default_ms ?cache_journal ~addr ()
          else begin
            let is_unix =
              String.length addr > 5 && String.sub addr 0 5 = "unix:"
            in
            let admin_addr =
              match admin_addr with
              | Some a -> a
              | None -> (
                  (* default: work port + 1 on the same host *)
                  match
                    if is_unix then None else String.rindex_opt addr ':'
                  with
                  | Some i -> (
                      match
                        int_of_string_opt
                          (String.sub addr (i + 1)
                             (String.length addr - i - 1))
                      with
                      | Some p when p > 0 ->
                          String.sub addr 0 (i + 1) ^ string_of_int (p + 1)
                      | _ -> "127.0.0.1:0")
                  | None -> (
                      match if is_unix then None else int_of_string_opt addr
                      with
                      | Some p when p > 0 -> string_of_int (p + 1)
                      | _ -> "127.0.0.1:0"))
            in
            let child_argv ~shard ~admin_addr:shard_admin_addr =
              Array.of_list
                ([
                   Sys.executable_name; "serve";
                   "--addr"; addr;
                   "--workers"; string_of_int workers;
                   "--queue-cap"; string_of_int queue_cap;
                 ]
                @ (match deadline_default_ms with
                  | Some d ->
                      [ "--deadline-default-ms"; string_of_float d ]
                  | None -> [])
                @ (match cache_journal with
                  | Some p ->
                      (* per-shard journal: shards share nothing, the
                         warm state included *)
                      [
                        "--cache-journal";
                        p ^ ".shard-" ^ string_of_int shard;
                      ]
                  | None -> [])
                @ [
                    "--shard-child"; string_of_int shard;
                    "--shard-admin"; shard_admin_addr;
                  ])
            in
            Tytra_engine.Shards.run ~restart_budget ~shards ~addr ~admin_addr
              ~child_argv ()
          end
    with
    | () -> 0
    | exception Failure m ->
        (* an unusable listen address is an input error *)
        exit_of (fail exit_parse "%s" m)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the cost model as a long-lived daemon: POST /v1/submit \
          speaks the versioned JSON protocol (DESIGN.md §13) and answers \
          every request, explores included, with one JSON reply; /metrics \
          and /healthz answer on the same port. --shards N scales to a \
          multi-process front (DESIGN.md §15). SIGTERM drains \
          gracefully.")
    Term.(
      const run $ observability_term $ addr_arg $ workers_arg $ queue_cap_arg
      $ shards_arg $ admin_addr_arg $ shard_child_arg
      $ shard_admin_arg $ deadline_default_arg $ cache_journal_arg
      $ restart_budget_arg)

(* ---- import (legacy front ends) ---- *)

let import_cmd =
  let src_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.f90|FILE.c")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list ~sep:',' (pair ~sep:'=' string int)) []
      & info [ "sizes" ] ~docv:"NAME=V,..."
          ~doc:"Bindings for symbolic loop bounds, e.g. im=16,jm=16,km=16.")
  in
  let lanes_opt =
    Arg.(
      value & opt int 1
      & info [ "lanes" ] ~docv:"N" ~doc:"Lane count of the generated variant.")
  in
  let ty_arg =
    let parse s =
      match Tytra_ir.Ty.of_string s with
      | Ok t -> Ok t
      | Error e -> Error (`Msg e)
    in
    Arg.(
      value
      & opt (conv (parse, fun fmt t ->
                Format.pp_print_string fmt (Tytra_ir.Ty.to_string t)))
          (Tytra_ir.Ty.UInt 18)
      & info [ "ty" ] ~docv:"TYPE" ~doc:"Element type (ui18, fp32, ...).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE.tirl"
          ~doc:"Write the lowered TyTra-IR here (default: stdout).")
  in
  let run () src sizes lanes ty out =
    guarded @@ fun () ->
    traced "import" @@ fun () ->
    let result =
      try
        let prog =
          if Filename.check_suffix src ".c" then
            Tytra_front.C_front.parse_file ~ty ~sizes src
          else Tytra_front.Fortran.parse_file ~ty ~sizes src
        in
        let v =
          if lanes <= 1 then Tytra_front.Transform.Pipe
          else Tytra_front.Transform.ParPipe lanes
        in
        match
          ( Tytra_front.Transform.reshaped_type prog v,
            Tytra_front.Transform.lane_clash prog
              (Tytra_front.Transform.pes v) )
        with
        | Error _, _ ->
            fail exit_validation
              "%d lanes do not divide the %d-point index space" lanes
              (Tytra_front.Expr.points prog)
        | Ok _, Some why -> fail exit_validation "%d lanes: %s" lanes why
        | Ok _, None ->
            let d = Tytra_front.Lower.lower prog v in
            (match out with
            | Some path ->
                Tytra_ir.Pprint.write_file path d;
                Format.printf "wrote %s@." path
            | None -> Format.printf "%a@." Tytra_ir.Pprint.pp_design d);
            Ok ()
      with
      | Tytra_front.Fortran.Error (m, l) -> fail exit_parse "%s:%d: %s" src l m
      | Tytra_front.Fortran.Invalid m ->
          fail exit_validation "%s: elaborated kernel invalid: %s" src m
      | Invalid_argument m -> fail exit_parse "%s" m
    in
    exit_of result
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Import a legacy Fortran/C loop nest and lower it to TyTra-IR")
    Term.(
      const run $ observability_term $ src_arg $ sizes_arg $ lanes_opt $ ty_arg
      $ out_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "tybec" ~version:"1.0.0"
       ~doc:"TyTra back-end compiler: cost models and code generation for \
             FPGA design-space exploration")
    [ check_cmd; cost_cmd; synth_cmd; sim_cmd; hdl_cmd; tb_cmd;
      explore_cmd; import_cmd; bw_cmd; serve_cmd ]

let () = exit (Cmd.eval' main_cmd)
