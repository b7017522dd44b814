(** The cost-model engine: one typed front door for every tybec verb.

    [tybec] subcommands used to own the whole request lifecycle — parse,
    validate, resolve the device, evaluate, render. That worked for a
    one-shot CLI but made every invocation pay the cold-start tax and
    left nothing for a long-lived service to hold on to. This module
    extracts the lifecycle behind a typed API:

    - {!create} builds an engine holding its two caches: a
      content-addressed parse+validate cache and a full-request
      response cache. Nothing below the engine keeps state between
      requests.
    - {!submit} runs one typed {!request} to a typed {!response} or
      {!error}. Requests never raise: parse and validation failures,
      deadline expiry and escaped exceptions all come back as typed
      errors with a stable {!exit_code} mapping.

    The CLI is a thin adapter over this module (flags in, [rs_text]
    out); [tybec serve] speaks the same API over the wire through
    {!Protocol} and {!Daemon}. Byte-compatibility contract: [rs_text] is
    exactly what the pre-engine CLI printed to stdout, rendered through
    the same pretty-printers in the same order. *)

module Ast = Tytra_ir.Ast
module Cache = Tytra_exec.Cache
module Task = Tytra_exec.Task
module Span = Tytra_telemetry.Span
module Metrics = Tytra_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(** Where the design text comes from. [File] reads (and digests) the
    file; [Inline] carries the TyTra-IR text in the request itself — the
    natural shape for remote clients of [tybec serve]. *)
type source = File of string | Inline of string

(** Built-in kernels of the exploration front end. *)
type kernel = Sor | Hotspot | Lavamd | Srad

let kernel_to_string = function
  | Sor -> "sor"
  | Hotspot -> "hotspot"
  | Lavamd -> "lavamd"
  | Srad -> "srad"

let kernel_of_string = function
  | "sor" -> Some Sor
  | "hotspot" -> Some Hotspot
  | "lavamd" -> Some Lavamd
  | "srad" -> Some Srad
  | _ -> None

(** Parameters of one exploration request — the typed twin of the
    [tybec explore] flag set. *)
type explore_params = {
  x_kernel : kernel;
  x_size : int;             (** grid side (sor/hotspot/srad) or boxes *)
  x_max_lanes : int;
  x_device : Tytra_device.Device.t;
  x_form : Tytra_cost.Throughput.form;
  x_nki : int;
  x_jobs : int;
      (** ignored: every sweep runs on the domain that submits it; kept
          only because [benchmark/] sets it, and not part of the cache
          key *)
  x_prune : bool;
  (* Retired sweep-resilience fields: [submit] answers [Bad_request]
     unless each is at its default (0, None, false, None, any, None). *)
  x_retries : int;
  x_deadline_s : float option;
  x_best_effort : bool;
  x_checkpoint : string option;
  x_checkpoint_every : int;
  x_resume : string option;
  x_place_mode : unit option;
      (** ignored: kept so existing record literals still compile; not
          encoded on the wire and not part of the cache key *)
}

type request =
  | Check of { source : source }
  | Cost of {
      source : source;
      device : Tytra_device.Device.t;
      form : Tytra_cost.Throughput.form;
      nki : int;
      optimize : bool;
      calib : string option;  (** calibration file path *)
    }
  | Synth of {
      source : source;
      device : Tytra_device.Device.t;
      effort : [ `Fast | `Normal | `Full ];
      optimize : bool;
    }
  | Sim of {
      source : source;
      device : Tytra_device.Device.t;
      form : Tytra_cost.Throughput.form;
      nki : int;
      optimize : bool;
    }
  | Explore of explore_params

let op_name = function
  | Check _ -> "check"
  | Cost _ -> "cost"
  | Synth _ -> "synth"
  | Sim _ -> "sim"
  | Explore _ -> "explore"

(* ------------------------------------------------------------------ *)
(* Responses and errors                                                *)
(* ------------------------------------------------------------------ *)

(** Structured result fields, one constructor per request kind. *)
type payload =
  | Checked of { ck_design : string; ck_funcs : int; ck_streams : int }
  | Costed of { co_ekit : float; co_valid : bool }
  | Synthed of { sy_fmax_mhz : float; sy_synth_s : float }
  | Simmed of { si_ekit : float; si_total_s : float }
  | Explored of {
      xr_space : int;
      xr_evaluated : int;
      xr_pruned : int;
      xr_failed : int;
      xr_restored : int;
          (** both always 0: kept so the reply stays protocol v1 and a
              journaled response keeps its marshalled layout *)
      xr_points : int;
      xr_pareto : int;
      xr_selected : string option;
    }

type response = {
  rs_text : string;
      (** the exact CLI stdout rendering of this result (the CLI prints
          it verbatim; remote clients may ignore it) *)
  rs_payload : payload;
}

type error =
  | Bad_request of string      (** malformed request (wire decode, unknown device) *)
  | Parse_error of string      (** source unreadable or not TyTra-IR *)
  | Validation_error of string (** parsed but statically invalid *)
  | Timeout_error of float     (** request-level cooperative deadline expired *)
  | Request_too_large of int   (** request body exceeded the wire cap (bytes) *)
  | Internal_error of string   (** an exception escaped the evaluation *)
  | Overloaded                 (** serve-side admission control shed this request *)

(* The documented CLI contract (README "Exit codes"): 0 success,
   1 internal, 2 parse/input, 3 validation. *)
let exit_code = function
  | Bad_request _ | Parse_error _ | Request_too_large _ -> 2
  | Validation_error _ -> 3
  | Timeout_error _ | Internal_error _ | Overloaded -> 1

let error_message = function
  | Bad_request m | Parse_error m | Validation_error m | Internal_error m -> m
  | Timeout_error allotted ->
      Printf.sprintf "request deadline exceeded (%g s)" allotted
  | Request_too_large cap ->
      Printf.sprintf "request body exceeds the %d-byte limit" cap
  | Overloaded -> "engine overloaded, retry later"

(** Stable machine-readable discriminator (the wire ["error"] field). *)
let error_kind = function
  | Bad_request _ -> "bad_request"
  | Parse_error _ -> "parse"
  | Validation_error _ -> "validation"
  | Timeout_error _ -> "timeout"
  | Request_too_large _ -> "request_too_large"
  | Internal_error _ -> "internal"
  | Overloaded -> "overloaded"

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  parse_cache_capacity : int;
      (** entries in the content-addressed parse+validate cache *)
  response_cache_capacity : int;
      (** entries in the full-request response cache *)
  cache_journal : string option;
      (** journal response-cache insertions to this file and replay it
          at {!create}, so the warm cache survives a crash *)
}

let default_config =
  { parse_cache_capacity = 64; response_cache_capacity = 128;
    cache_journal = None }

type t = {
  cfg : config;
  parse_cache : (Ast.design, Tytra_ir.Error.t) result Cache.t;
  response_cache : response Cache.t;
  journal : Journal.t option;
}

(* The journal payload is the marshaled response. Only bytes that came
   back digest-valid from [Journal.load] reach [from_string], so the
   unmarshal cannot read torn data; a response written by a different
   binary is caught by the digest only if the file was torn, hence the
   exception guard — an undecodable payload is skipped, never fatal. *)
let response_of_journal (payload : string) : response option =
  match (Marshal.from_string payload 0 : response) with
  | rs -> Some rs
  | exception _ -> None

let replay_journal response_cache path =
  let entries, skipped = Journal.load path in
  let replayed =
    List.fold_left
      (fun n (key, payload) ->
        match response_of_journal payload with
        | Some rs ->
            Cache.add response_cache ~key rs;
            n + 1
        | None -> n)
      0 entries
  in
  if replayed > 0 then Metrics.incr ~by:replayed "engine.journal.replayed";
  let skipped = skipped + (List.length entries - replayed) in
  if skipped > 0 then Metrics.incr ~by:skipped "engine.journal.skipped";
  Logs.info (fun m ->
      m "cache journal %s: replayed %d entr%s (%d skipped)" path replayed
        (if replayed = 1 then "y" else "ies")
        skipped)

let create cfg =
  let response_cache =
    Cache.create ~metrics_prefix:"engine.response_cache"
      ~capacity:(max 1 cfg.response_cache_capacity) ()
  in
  let journal =
    match cfg.cache_journal with
    | None -> None
    | Some path ->
        replay_journal response_cache path;
        let j = Journal.open_append path in
        if j = None then
          Logs.warn (fun m ->
              m "cache journal %s: cannot open for append, journaling off"
                path);
        j
  in
  {
    cfg;
    parse_cache =
      Cache.create ~metrics_prefix:"engine.parse_cache"
        ~capacity:(max 1 cfg.parse_cache_capacity) ();
    response_cache;
    journal;
  }

let config t = t.cfg
let parse_cache_stats t = Cache.stats t.parse_cache
let response_cache_stats t = Cache.stats t.response_cache

(* ------------------------------------------------------------------ *)
(* Loading: content-addressed parse + validate                         *)
(* ------------------------------------------------------------------ *)

let validate_design d =
  match Tytra_ir.Validate.check d with
  | [] -> Ok d
  | errs -> Error (Tytra_ir.Error.Invalid errs)

(* The contents of file [path], or the message of the error reading it *)
let read_file path : (string, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

(* A source as a request uses it: a [File] read once, so the response
   key, the parse-cache key and the answer come from the same bytes. *)
type read_source =
  | Read_inline of string
  | Read_file of { path : string; bytes : (string, string) result }

let read_source = function
  | Inline text -> Read_inline text
  | File path -> Read_file { path; bytes = read_file path }

(* The cache key includes the diagnostic name alongside the bytes:
   located errors ("path:3: parse error ...") embed the path, so the
   same bytes under two names must not share an entry. *)
let load_design_ir t (src : read_source) :
    (Ast.design, Tytra_ir.Error.t) result =
  match src with
  | Read_inline text ->
      let key = Cache.digest_key [ "inline"; text ] in
      Cache.find_or_add t.parse_cache ~key (fun () ->
          Result.bind (Tytra_ir.Parser.parse_result text) validate_design)
  | Read_file { path; bytes = Error msg } ->
      Error (Tytra_ir.Error.Io { path; msg })
  | Read_file { path; bytes = Ok text } ->
      let key = Cache.digest_key [ "file"; path; text ] in
      Cache.find_or_add t.parse_cache ~key (fun () ->
          Result.bind
            (Tytra_ir.Parser.parse_result
               ~name:(Filename.remove_extension (Filename.basename path))
               ~file:path text)
            validate_design)

let error_of_ir (e : Tytra_ir.Error.t) =
  match e with
  | Tytra_ir.Error.Invalid _ -> Validation_error (Tytra_ir.Error.to_string e)
  | Tytra_ir.Error.Lex _ | Tytra_ir.Error.Parse _ | Tytra_ir.Error.Io _ ->
      Parse_error (Tytra_ir.Error.to_string e)

let load t src = Result.map_error error_of_ir (load_design_ir t src)
let load_design t src = load t (read_source src)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Every renderer writes into a fresh buffer formatter with the default
   geometry — the same margins [Format.printf] used when the CLI printed
   these reports directly, so [rs_text] stays byte-identical. *)
let render f =
  let b = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer b in
  let v = f fmt in
  Format.pp_print_flush fmt ();
  (Buffer.contents b, v)

let maybe_optimize opt d =
  if opt then begin
    let d', st = Tytra_ir.Optim.run d in
    Logs.info (fun m -> m "optimizer: %a" Tytra_ir.Optim.pp_stats st);
    d'
  end
  else d

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* [Ok ()] if [v], the value of field [field] of an [op] request, is at
   least 1; a kernel-instance count or a grid side below 1 has no
   meaning, and the cost model would answer it anyway *)
let at_least_one op field v =
  if v >= 1 then Ok ()
  else
    Error
      (Bad_request
         (Printf.sprintf "%s: %S must be at least 1, got %d" op field v))

let do_check t ~source =
  let* d = load t source in
  let text, () =
    render (fun fmt ->
        Format.fprintf fmt "%s: valid TyTra-IR design (%d functions, %d streams)@."
          d.Ast.d_name
          (List.length d.Ast.d_funcs)
          (List.length d.Ast.d_streams);
        Format.fprintf fmt "%a@."
          (fun fmt n -> Tytra_ir.Config_tree.pp_node fmt n)
          (Tytra_ir.Config_tree.build d))
  in
  Ok
    {
      rs_text = text;
      rs_payload =
        Checked
          {
            ck_design = d.Ast.d_name;
            ck_funcs = List.length d.Ast.d_funcs;
            ck_streams = List.length d.Ast.d_streams;
          };
    }

(* A calibration file as a request uses it: its path and its bytes, read
   once, or the message of the error reading it. A file that cannot be
   read or does not parse is an input error, same class as a bad .tirl. *)
let load_calib = function
  | None -> Ok None
  | Some (_, Error msg) -> Error (Parse_error msg)
  | Some (path, Ok text) ->
      Result.map Option.some
        (Result.map_error
           (fun m -> Parse_error m)
           (Tytra_device.Calib_io.parse ~path text))

let do_cost t ~source ~device ~form ~nki ~optimize ~calib:calib_file =
  let* () = at_least_one "cost" "nki" nki in
  let* d = load t source in
  let* calib = load_calib calib_file in
  let d = maybe_optimize optimize d in
  (* one index and one classification for the whole answer: the form
     selection and the roofline read the report's Table-I inputs, at the
     base clock *)
  let sy = Tytra_ir.Symtab.of_design d in
  let r = Tytra_cost.Report.evaluate_sym ~device ?calib ~form ~nki sy in
  Task.check ();
  let base = Tytra_cost.Report.base_clock_inputs ~device r in
  let text, () =
    Span.with_ ~name:"tybec.report" @@ fun () ->
    render (fun fmt ->
        Format.fprintf fmt "%a@." Tytra_cost.Report.pp r;
        Format.fprintf fmt "form selection:@.%a@." Tytra_cost.Formsel.pp
          (Tytra_cost.Formsel.recommend ~device
             ~footprint:(Tytra_ir.Analysis.bytes_per_ndrange_sym sy)
             base);
        Format.fprintf fmt "@.roofline: %a@." Tytra_cost.Roofline.pp
          (Tytra_cost.Roofline.of_inputs ~form base))
  in
  Ok
    {
      rs_text = text;
      rs_payload =
        Costed
          {
            co_ekit =
              r.Tytra_cost.Report.rp_breakdown.Tytra_cost.Throughput.bd_ekit;
            co_valid = r.Tytra_cost.Report.rp_valid;
          };
    }

let do_synth t ~source ~device ~effort ~optimize =
  let* d = load t source in
  let d = maybe_optimize optimize d in
  let t0 = Unix.gettimeofday () in
  let r = Tytra_sim.Techmap.run ~device ~effort d in
  let dt = Unix.gettimeofday () -. t0 in
  Task.check ();
  let text, () =
    render (fun fmt ->
        Format.fprintf fmt "%a@." Tytra_sim.Techmap.pp_report r;
        Format.fprintf fmt "synthesis time: %.2f s@." dt)
  in
  Ok
    {
      rs_text = text;
      rs_payload =
        Synthed
          { sy_fmax_mhz = r.Tytra_sim.Techmap.tm_fmax_mhz; sy_synth_s = dt };
    }

let do_sim t ~source ~device ~form ~nki ~optimize =
  let* () = at_least_one "sim" "nki" nki in
  let* d = load t source in
  let sform =
    match form with
    | Tytra_cost.Throughput.FormA -> Tytra_sim.Cyclesim.A
    | Tytra_cost.Throughput.FormB -> Tytra_sim.Cyclesim.B
    | Tytra_cost.Throughput.FormC -> Tytra_sim.Cyclesim.C
  in
  let d = maybe_optimize optimize d in
  let r = Tytra_sim.Cyclesim.run ~device ~form:sform ~nki d in
  Task.check ();
  let text, () =
    render (fun fmt -> Format.fprintf fmt "%a@." Tytra_sim.Cyclesim.pp_result r)
  in
  Ok
    {
      rs_text = text;
      rs_payload =
        Simmed
          {
            si_ekit = r.Tytra_sim.Cyclesim.r_ekit;
            si_total_s = r.Tytra_sim.Cyclesim.r_total_s;
          };
    }

let program_of = function
  | { x_kernel = Sor; x_size = s; _ } ->
      Tytra_kernels.Sor.program ~im:s ~jm:s ~km:s ()
  | { x_kernel = Hotspot; x_size = s; _ } ->
      Tytra_kernels.Hotspot.program ~rows:s ~cols:s ()
  | { x_kernel = Lavamd; x_size = s; _ } ->
      Tytra_kernels.Lavamd.program ~boxes:s ()
  | { x_kernel = Srad; x_size = s; _ } ->
      Tytra_kernels.Srad.program ~rows:s ~cols:s ()

(* These fields ask for sweep resilience the engine does not offer: a
   sweep lasts milliseconds and its points are deterministic, so a
   retried point would fail again. A request that asks for one is told
   so rather than silently ignored. *)
let retired_explore_field x =
  if x.x_retries <> 0 then Some "point_retries"
  else if x.x_deadline_s <> None then Some "point_deadline_s"
  else if x.x_best_effort then Some "best_effort"
  else if x.x_checkpoint <> None then Some "checkpoint"
  else if x.x_resume <> None then Some "resume"
  else None

let do_explore (x : explore_params) =
  let module Dse = Tytra_dse.Dse in
  let* () =
    match retired_explore_field x with
    | None -> Ok ()
    | Some f ->
        Error
          (Bad_request
             (Printf.sprintf "explore: %S is no longer supported" f))
  in
  let* () = at_least_one "explore" "size" x.x_size in
  let* () = at_least_one "explore" "nki" x.x_nki in
  let prog = program_of x in
  let* _ =
    Result.map_error
      (fun e ->
        Bad_request (Printf.sprintf "explore: \"size\" %d: %s" x.x_size e))
      (Tytra_front.Expr.check_shape prog.Tytra_front.Expr.p_shape)
  in
  let config =
    { Dse.default_config with
      device = x.x_device; form = x.x_form; nki = x.x_nki;
      max_lanes = x.x_max_lanes; prune = x.x_prune }
  in
  let sw = Dse.explore_sweep ~config prog in
  let pts = sw.Dse.sw_points in
  let front = Dse.pareto pts in
  let text, selected =
    Span.with_ ~name:"tybec.report" @@ fun () ->
    render (fun fmt ->
        List.iter (fun p -> Format.fprintf fmt "%a@." Dse.pp_point p) pts;
        List.iter
          (fun b ->
            Format.fprintf fmt "%-16s pruned (%s): %a@."
              (Tytra_front.Transform.to_string b.Dse.bp_variant)
              (Dse.prune_reason_to_string b.Dse.bp_reason)
              Tytra_cost.Bounds.pp b.Dse.bp_bounds)
          sw.Dse.sw_bounded;
        Format.fprintf fmt "sweep: %a@." Dse.pp_sweep_stats sw.Dse.sw_stats;
        Format.fprintf fmt "pareto front: %d of %d points@."
          (List.length front) (List.length pts);
        match Dse.best pts with
        | Some b ->
            let s = Tytra_front.Transform.to_string b.Dse.dp_variant in
            Format.fprintf fmt "selected: %s@." s;
            Some s
        | None ->
            Format.fprintf fmt "no valid variant@.";
            None)
  in
  let st = sw.Dse.sw_stats in
  Ok
    {
      rs_text = text;
      rs_payload =
        Explored
          {
            xr_space = st.Dse.ss_space;
            xr_evaluated = st.Dse.ss_evaluated;
            xr_pruned = st.Dse.ss_pruned_resource + st.Dse.ss_pruned_incumbent;
            xr_failed = 0;
            xr_restored = 0;
            xr_points = List.length pts;
            xr_pareto = List.length front;
            xr_selected = selected;
          };
    }

(* ------------------------------------------------------------------ *)
(* Response cache                                                      *)
(* ------------------------------------------------------------------ *)

(* The key digests the *full* request: op, every parameter that can
   influence the response, the content behind every path parameter
   (source bytes, calibration bytes — a path alone is not a key; the
   path itself still participates because diagnostic names and design
   names embed it). [None] means uncacheable: a source or calib file
   that cannot be read (keyless, falls through to the normal error
   path). Only [Ok] responses are inserted, so errors are re-derived
   (and re-rendered with current file state) every time. *)

let source_key = function
  | Read_inline text -> Some [ "inline"; text ]
  | Read_file { path; bytes = Ok text } -> Some [ "file"; path; text ]
  | Read_file { bytes = Error _; _ } -> None

let journal_insert t ~key rs =
  match t.journal with
  | None -> ()
  | Some j ->
      Journal.append j ~key ~payload:(Marshal.to_string rs []);
      Metrics.incr "engine.journal.appended"

(* The response cached under [key], or [answer ()], cached under [key]
   when it is [Ok]; a [None] key caches nothing. *)
let cached t key answer =
  match key with
  | None -> answer ()
  | Some key -> (
      match Cache.find t.response_cache ~key with
      | Some rs -> Ok rs
      | None ->
          let r = answer () in
          (match r with
          | Ok rs ->
              Cache.add t.response_cache ~key rs;
              journal_insert t ~key rs
          | Error _ -> ());
          r)

(* Answer [req] through the response cache. Each file the request names
   is read once, here: the response key, the parse-cache key and the
   answer all come from those bytes, so a file rewritten meanwhile
   cannot cache one content's answer under another's key. *)
let dispatch_cached t (req : request) =
  let ( let* ) = Option.bind in
  let key op source params =
    let* src = source_key source in
    Some (Cache.digest_key ((op :: src) @ params))
  in
  match req with
  | Explore x ->
      (* the ignored fields take one value in the key, so requests that
         differ only there share an entry *)
      let x = { x with x_jobs = 1; x_place_mode = None } in
      cached t
        (Some (Cache.digest_key [ "explore"; Cache.digest_marshal x ]))
        (fun () -> do_explore x)
  | Check { source } ->
      let source = read_source source in
      cached t (key "check" source []) (fun () -> do_check t ~source)
  | Cost { source; device; form; nki; optimize; calib } ->
      let source = read_source source in
      let calib = Option.map (fun path -> (path, read_file path)) calib in
      let calib_part =
        match calib with
        | None -> Some [ "nocalib" ]
        | Some (path, Ok text) -> Some [ "calib"; path; text ]
        | Some (_, Error _) -> None
      in
      cached t
        (let* calib_part = calib_part in
         key "cost" source
           (calib_part @ [ Cache.digest_marshal (device, form, nki, optimize) ]))
        (fun () -> do_cost t ~source ~device ~form ~nki ~optimize ~calib)
  | Synth { source; device; effort; optimize } ->
      let source = read_source source in
      cached t
        (key "synth" source [ Cache.digest_marshal (device, effort, optimize) ])
        (fun () -> do_synth t ~source ~device ~effort ~optimize)
  | Sim { source; device; form; nki; optimize } ->
      let source = read_source source in
      cached t
        (key "sim" source [ Cache.digest_marshal (device, form, nki, optimize) ])
        (fun () -> do_sim t ~source ~device ~form ~nki ~optimize)

let submit ?deadline_s t req =
  Metrics.incr "engine.requests";
  Span.with_ ~name:"engine.submit"
    ~attrs:[ ("op", Span.Str (op_name req)) ]
  @@ fun () ->
  let r =
    match Task.with_context ?deadline_s (fun () -> dispatch_cached t req) with
    | r -> r
    | exception Task.Timeout allotted -> Error (Timeout_error allotted)
    | exception e -> Error (Internal_error (Printexc.to_string e))
  in
  (match r with Error _ -> Metrics.incr "engine.errors" | Ok _ -> ());
  r
