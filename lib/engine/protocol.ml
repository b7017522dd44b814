(** Versioned JSON wire codec for {!Engine} requests and responses.

    One request or response is one JSON object carrying the protocol
    version ([{"v":1}]). Encoding goes through the telemetry JSON
    encoders ({!Tytra_telemetry.Jsenc}); decoding goes through its total
    parser, so malformed bytes of any shape come back as a typed
    [Engine.Bad_request] — never an exception (the fuzz suite pins
    this).

    Versioning policy mirrors the event-log schema (DESIGN.md §12):
    additive field changes keep the version, renames/removals/meaning
    changes bump it. Decoders ignore unknown fields; requests with a
    version other than {!version} are rejected.

    Minor version 1 (additive, old clients unaffected): the ["stream"]
    request flag and the JSONL frame vocabulary for streamed explore
    progress — [{"frame":"progress",...}] lines followed by one final
    [{"frame":"result",...}] line that is a normal reply object plus
    the discriminator; a line with no ["frame"] member reads as the
    result frame. Minor 5 retired the flag and the progress frames.

    Minor version 2 (additive): the ["deadline_ms"] request budget
    (preferred over the legacy ["deadline_s"] when both are present —
    millisecond wire precision matches what serving deadlines actually
    are) and the ["request_too_large"] error kind. Old clients never
    send the field and decode the new error objects through the same
    ["error"]/["exit_code"]/["message"] shape as every other kind.
    Minor 2 also introduced a ["deadline_exceeded"] kind that is no
    longer emitted: a spent budget answers ["timeout"], with the same
    HTTP 504 and exit code 1.

    Minor version 3 (no field added or removed): the sweep-resilience
    members of an explore request — ["point_retries"],
    ["point_deadline_s"], ["best_effort"], ["checkpoint"] and
    ["resume"] — are still decoded, but any non-default value is
    answered with a typed ["bad_request"] instead of being honoured;
    ["checkpoint_every"] is read and ignored. The ["failed"] and
    ["restored"] members of an explore reply are always 0.

    Minor version 4 (no field added or removed): an explore request's
    ["jobs"] is read and ignored, since every sweep runs on the domain
    that answers it; requests that differ only in ["jobs"] get the same
    answer, from one response-cache entry.

    Minor version 5 (no field added): every explore is answered in one
    reply. ["stream"] is no longer decoded, so like any unknown member
    it is ignored: a request with ["stream":true] gets the ordinary
    reply, with its typed HTTP status, and shares the response cache
    with the same request without it. No progress frame is written,
    and a reply carries no ["frame"] member; a client that reads frames
    by minor 1's rule reads the reply as its result frame.
    [GET /v1/protocol] lists only the ["result"] frame. Minor 5 also
    refuses an integer member beyond ±2{^53}, the range a JSON number
    (a double) holds exactly, where it used to read a wrapped value. *)

module J = Tytra_telemetry.Jsenc

let version = 1

let version_minor = 5

(* ------------------------------------------------------------------ *)
(* Field-level codecs                                                  *)
(* ------------------------------------------------------------------ *)

let form_to_string = function
  | Tytra_cost.Throughput.FormA -> "A"
  | Tytra_cost.Throughput.FormB -> "B"
  | Tytra_cost.Throughput.FormC -> "C"

let form_of_string = function
  | "A" -> Some Tytra_cost.Throughput.FormA
  | "B" -> Some Tytra_cost.Throughput.FormB
  | "C" -> Some Tytra_cost.Throughput.FormC
  | _ -> None

let effort_to_string = function
  | `Fast -> "fast"
  | `Normal -> "normal"
  | `Full -> "full"

let effort_of_string = function
  | "fast" -> Some `Fast
  | "normal" -> Some `Normal
  | "full" -> Some `Full
  | _ -> None

let source_fields = function
  | Engine.File p -> Printf.sprintf {|"source":{"path":%s}|} (J.json_string p)
  | Engine.Inline s ->
      Printf.sprintf {|"source":{"inline":%s}|} (J.json_string s)

let obj fields = "{" ^ String.concat "," (List.filter (( <> ) "") fields) ^ "}"

let str_field k v = Printf.sprintf "%s:%s" (J.json_string k) (J.json_string v)
let num_field k v = Printf.sprintf "%s:%s" (J.json_string k) (J.json_num v)
let int_field k v = num_field k (float_of_int v)
let bool_field k v = Printf.sprintf "%s:%b" (J.json_string k) v
let opt f k = function None -> "" | Some v -> f k v

(* ------------------------------------------------------------------ *)
(* Request encoding                                                    *)
(* ------------------------------------------------------------------ *)

let encode_request ?deadline_s ?deadline_ms ?(retries = 0)
    (req : Engine.request) : string =
  let envelope =
    [ int_field "v" version; str_field "op" (Engine.op_name req) ]
    @ (match deadline_s with
      | None -> []
      | Some d -> [ num_field "deadline_s" d ])
    @ (match deadline_ms with
      | None -> []
      | Some d -> [ num_field "deadline_ms" d ])
    @ if retries = 0 then [] else [ int_field "retries" retries ]
  in
  let body =
    match req with
    | Engine.Check { source } -> [ source_fields source ]
    | Engine.Cost { source; device; form; nki; optimize; calib } ->
        [ source_fields source;
          str_field "device" device.Tytra_device.Device.dev_name;
          str_field "form" (form_to_string form);
          int_field "nki" nki;
          bool_field "optimize" optimize;
          opt str_field "calib" calib ]
    | Engine.Synth { source; device; effort; optimize } ->
        [ source_fields source;
          str_field "device" device.Tytra_device.Device.dev_name;
          str_field "effort" (effort_to_string effort);
          bool_field "optimize" optimize ]
    | Engine.Sim { source; device; form; nki; optimize } ->
        [ source_fields source;
          str_field "device" device.Tytra_device.Device.dev_name;
          str_field "form" (form_to_string form);
          int_field "nki" nki;
          bool_field "optimize" optimize ]
    | Engine.Explore x ->
        [ str_field "kernel" (Engine.kernel_to_string x.Engine.x_kernel);
          int_field "size" x.Engine.x_size;
          int_field "max_lanes" x.Engine.x_max_lanes;
          str_field "device" x.Engine.x_device.Tytra_device.Device.dev_name;
          str_field "form" (form_to_string x.Engine.x_form);
          int_field "nki" x.Engine.x_nki;
          int_field "jobs" x.Engine.x_jobs;
          bool_field "prune" x.Engine.x_prune;
          int_field "point_retries" x.Engine.x_retries;
          opt num_field "point_deadline_s" x.Engine.x_deadline_s;
          bool_field "best_effort" x.Engine.x_best_effort;
          opt str_field "checkpoint" x.Engine.x_checkpoint;
          int_field "checkpoint_every" x.Engine.x_checkpoint_every;
          opt str_field "resume" x.Engine.x_resume ]
  in
  obj (envelope @ body)

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

type decoded_request = {
  dq_request : Engine.request;
  dq_deadline_s : float option;  (** request-level deadline *)
  dq_retries : int;              (** request-level retry budget *)
}

let bad fmt = Printf.ksprintf (fun m -> Error (Engine.Bad_request m)) fmt
let ( let* ) = Result.bind

(* A double holds every integer up to 2^53 exactly; past it, and past
   [int]'s range, [int_of_float] would read another number. *)
let max_wire_int = 9007199254740992.0

let int_member ?default key j =
  match J.member key j with
  | Some (J.Num f) when Float.is_integer f && Float.abs f <= max_wire_int ->
      Ok (int_of_float f)
  | Some _ -> bad "field %S must be an integer" key
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> bad "missing field %S" key)

let float_opt_member key j =
  match J.member key j with
  | Some (J.Num f) -> Ok (Some f)
  | Some J.Null | None -> Ok None
  | Some _ -> bad "field %S must be a number" key

let str_opt_member key j =
  match J.member key j with
  | Some (J.Str s) -> Ok (Some s)
  | Some J.Null | None -> Ok None
  | Some _ -> bad "field %S must be a string" key

let bool_member ~default key j =
  match J.member key j with
  | Some (J.Bool b) -> Ok b
  | None -> Ok default
  | Some _ -> bad "field %S must be a boolean" key

let decode_source j =
  match J.member "source" j with
  | None -> bad "missing field \"source\""
  | Some s -> (
      match (J.str_member "path" s, J.str_member "inline" s) with
      | Some p, None -> Ok (Engine.File p)
      | None, Some text -> Ok (Engine.Inline text)
      | Some _, Some _ -> bad "\"source\" has both \"path\" and \"inline\""
      | None, None ->
          bad "\"source\" must carry \"path\" or \"inline\"")

let decode_device j =
  match J.str_member "device" j with
  | None -> Ok Tytra_device.Device.stratixv_gsd8
  | Some name -> (
      match Tytra_device.Device.find name with
      | Some d -> Ok d
      | None ->
          bad "unknown device %S (known: %s)" name
            (String.concat ", "
               (List.map
                  (fun d -> d.Tytra_device.Device.dev_name)
                  Tytra_device.Device.all)))

let decode_form j =
  match J.str_member "form" j with
  | None -> Ok Tytra_cost.Throughput.FormB
  | Some s -> (
      match form_of_string s with
      | Some f -> Ok f
      | None -> bad "unknown form %S (known: A, B, C)" s)

let decode_effort j =
  match J.str_member "effort" j with
  | None -> Ok `Normal
  | Some s -> (
      match effort_of_string s with
      | Some e -> Ok e
      | None -> bad "unknown effort %S (known: fast, normal, full)" s)

let decode_op j = function
  | "check" ->
      let* source = decode_source j in
      Ok (Engine.Check { source })
  | "cost" ->
      let* source = decode_source j in
      let* device = decode_device j in
      let* form = decode_form j in
      let* nki = int_member ~default:1 "nki" j in
      let* optimize = bool_member ~default:false "optimize" j in
      let* calib = str_opt_member "calib" j in
      Ok (Engine.Cost { source; device; form; nki; optimize; calib })
  | "synth" ->
      let* source = decode_source j in
      let* device = decode_device j in
      let* effort = decode_effort j in
      let* optimize = bool_member ~default:false "optimize" j in
      Ok (Engine.Synth { source; device; effort; optimize })
  | "sim" ->
      let* source = decode_source j in
      let* device = decode_device j in
      let* form = decode_form j in
      let* nki = int_member ~default:1 "nki" j in
      let* optimize = bool_member ~default:false "optimize" j in
      Ok (Engine.Sim { source; device; form; nki; optimize })
  | "explore" ->
      let* kernel =
        match J.str_member "kernel" j with
        | None -> Ok Engine.Sor
        | Some s -> (
            match Engine.kernel_of_string s with
            | Some k -> Ok k
            | None ->
                bad "unknown kernel %S (known: sor, hotspot, lavamd, srad)" s)
      in
      let* size = int_member ~default:16 "size" j in
      let* max_lanes = int_member ~default:16 "max_lanes" j in
      let* device = decode_device j in
      let* form = decode_form j in
      let* nki = int_member ~default:1 "nki" j in
      (* ignored since minor 4 *)
      let* jobs = int_member ~default:1 "jobs" j in
      let* prune = bool_member ~default:true "prune" j in
      (* retired since minor 3, still read so that [Engine.submit] can
         refuse a client that asks for them *)
      let* retries = int_member ~default:0 "point_retries" j in
      let* deadline = float_opt_member "point_deadline_s" j in
      let* best_effort = bool_member ~default:false "best_effort" j in
      let* checkpoint = str_opt_member "checkpoint" j in
      let* checkpoint_every = int_member ~default:32 "checkpoint_every" j in
      let* resume = str_opt_member "resume" j in
      Ok
        (Engine.Explore
           {
             Engine.x_kernel = kernel; x_size = size; x_max_lanes = max_lanes;
             x_device = device; x_form = form; x_nki = nki; x_jobs = jobs;
             x_prune = prune; x_retries = retries; x_deadline_s = deadline;
             x_best_effort = best_effort; x_checkpoint = checkpoint;
             x_checkpoint_every = checkpoint_every; x_resume = resume;
             x_place_mode = None;
           })
  | op -> bad "unknown op %S (known: check, cost, synth, sim, explore)" op

let decode_request (body : string) : (decoded_request, Engine.error) result =
  match J.parse body with
  | Error m -> bad "invalid JSON: %s" m
  | Ok j -> (
      match j with
      | J.Obj _ -> (
          match J.num_member "v" j with
          | None -> bad "missing protocol version \"v\""
          | Some v when v <> float_of_int version ->
              bad "unsupported protocol version %s (supported: %d)"
                (J.json_num v) version
          | Some _ -> (
              match J.str_member "op" j with
              | None -> bad "missing field \"op\""
              | Some op ->
                  let* dq_request = decode_op j op in
                  let* deadline_s = float_opt_member "deadline_s" j in
                  let* deadline_ms = float_opt_member "deadline_ms" j in
                  (* minor 2: deadline_ms wins over the legacy field
                     when a client sends both; either decodes into the
                     one engine-side budget *)
                  let dq_deadline_s =
                    match deadline_ms with
                    | Some ms -> Some (ms /. 1000.0)
                    | None -> deadline_s
                  in
                  let* dq_retries = int_member ~default:0 "retries" j in
                  Ok { dq_request; dq_deadline_s; dq_retries }))
      | _ -> bad "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Response encoding                                                   *)
(* ------------------------------------------------------------------ *)

let payload_fields = function
  | Engine.Checked { ck_design; ck_funcs; ck_streams } ->
      [ str_field "design" ck_design;
        int_field "functions" ck_funcs;
        int_field "streams" ck_streams ]
  | Engine.Costed { co_ekit; co_valid } ->
      [ num_field "ekit" co_ekit; bool_field "valid" co_valid ]
  | Engine.Synthed { sy_fmax_mhz; sy_synth_s } ->
      [ num_field "fmax_mhz" sy_fmax_mhz; num_field "synth_s" sy_synth_s ]
  | Engine.Simmed { si_ekit; si_total_s } ->
      [ num_field "ekit" si_ekit; num_field "total_s" si_total_s ]
  | Engine.Explored
      { xr_space; xr_evaluated; xr_pruned; xr_failed; xr_restored; xr_points;
        xr_pareto; xr_selected } ->
      [ int_field "space" xr_space;
        int_field "evaluated" xr_evaluated;
        int_field "pruned" xr_pruned;
        int_field "failed" xr_failed;
        int_field "restored" xr_restored;
        int_field "points" xr_points;
        int_field "pareto" xr_pareto;
        (match xr_selected with
        | Some s -> str_field "selected" s
        | None -> Printf.sprintf "%s:null" (J.json_string "selected")) ]

let encode_response ~op (resp : Engine.response) : string =
  obj
    [ int_field "v" version;
      str_field "status" "ok";
      str_field "op" op;
      str_field "text" resp.Engine.rs_text;
      Printf.sprintf "%s:%s" (J.json_string "data")
        (obj (payload_fields resp.Engine.rs_payload)) ]

let encode_error (err : Engine.error) : string =
  obj
    [ int_field "v" version;
      str_field "status" "error";
      str_field "error" (Engine.error_kind err);
      int_field "exit_code" (Engine.exit_code err);
      str_field "message" (Engine.error_message err) ]

(** HTTP status for an error reply: wire-level rejections are 400,
    oversized bodies 413, rejected designs 422, deadline expiry 504,
    shed load 429, engine bugs 500. *)
let http_status = function
  | Engine.Bad_request _ -> 400
  | Engine.Request_too_large _ -> 413
  | Engine.Parse_error _ | Engine.Validation_error _ -> 422
  | Engine.Timeout_error _ -> 504
  | Engine.Overloaded -> 429
  | Engine.Internal_error _ -> 500

(* ------------------------------------------------------------------ *)
(* Response decoding (clients, round-trip tests)                       *)
(* ------------------------------------------------------------------ *)

type reply =
  | Reply_ok of { rp_op : string; rp_text : string; rp_data : J.t }
  | Reply_error of {
      re_kind : string;
      re_exit_code : int;
      re_message : string;
    }

let decode_reply (body : string) : (reply, string) result =
  match J.parse body with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok j -> (
      match J.num_member "v" j with
      | None -> Error "missing protocol version \"v\""
      | Some v when v <> float_of_int version ->
          Error
            (Printf.sprintf "unsupported protocol version %s" (J.json_num v))
      | Some _ -> (
          match J.str_member "status" j with
          | Some "ok" -> (
              match (J.str_member "op" j, J.str_member "text" j) with
              | Some rp_op, Some rp_text ->
                  Ok
                    (Reply_ok
                       {
                         rp_op;
                         rp_text;
                         rp_data =
                           Option.value ~default:(J.Obj [])
                             (J.member "data" j);
                       })
              | _ -> Error "ok reply missing \"op\" or \"text\"")
          | Some "error" -> (
              match
                ( J.str_member "error" j,
                  J.num_member "exit_code" j,
                  J.str_member "message" j )
              with
              | Some re_kind, Some code, Some re_message ->
                  Ok
                    (Reply_error
                       { re_kind; re_exit_code = int_of_float code; re_message })
              | _ ->
                  Error
                    "error reply missing \"error\", \"exit_code\" or \
                     \"message\"")
          | Some s -> Error (Printf.sprintf "unknown status %S" s)
          | None -> Error "missing field \"status\""))
