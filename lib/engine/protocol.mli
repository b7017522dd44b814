(** Versioned JSON wire codec for {!Engine} requests and responses.

    Public interface of [Tytra_engine.Protocol]. One request or response
    is one JSON object carrying [{"v":1}]; decoding is total — malformed
    bytes of any shape come back as [Engine.Bad_request], never an
    exception. Schema documented in DESIGN.md §13. *)

val version : int
(** Protocol version stamped into (and required of) every message. *)

val version_minor : int
(** Revision within {!version}. Minor 1 added the ["stream"] request
    flag and the progress/result frame vocabulary; minor 2 added the
    ["deadline_ms"] request budget and the ["request_too_large"] error
    kind (its ["deadline_exceeded"] kind is no longer emitted: a spent
    budget answers ["timeout"], with the same HTTP 504 and exit code).
    Minor 3 answers an explore that asks for point retries, a point
    deadline, best-effort, a checkpoint or a resume with a typed
    ["bad_request"], and its ["failed"] and ["restored"] counts are
    always 0. Minor 4 reads an explore's ["jobs"] and ignores it.
    Minor 5 answers every explore in one reply: ["stream"] is ignored
    like any unknown member, no progress frame is written, and an
    integer member beyond ±2{^53} is a ["bad_request"]. Minor 6
    ignores the request-level ["retries"] budget like any unknown
    member. Decoders never check it, clients read it from
    [GET /v1/protocol] for capability discovery. *)

(** {2 Requests} *)

val encode_request :
  ?deadline_s:float -> ?deadline_ms:float -> Engine.request -> string
(** One JSON object for the request, including the envelope fields
    ([deadline_s]/[deadline_ms] are the request-level budget passed to
    [Engine.submit]; omitted when absent — when both deadline spellings
    are given, decoders prefer [deadline_ms]). *)

(** A decoded request: the typed operation plus its envelope.
    [dq_deadline_s] is the unified budget — decoded from
    ["deadline_ms"] (preferred, minor 2) or the legacy ["deadline_s"]. *)
type decoded_request = {
  dq_request : Engine.request;
  dq_deadline_s : float option;
}

val decode_request : string -> (decoded_request, Engine.error) result
(** Inverse of {!encode_request}. Missing optional fields take the CLI
    defaults (device, form B, nki 1, ...); unknown fields, ["stream"]
    and ["retries"] among them, are ignored; every malformed input is
    an [Engine.Bad_request], an integer field that is fractional or
    beyond ±2{^53} included. *)

(** {2 Responses} *)

val encode_response : op:string -> Engine.response -> string
(** [{"v":1,"status":"ok","op":…,"text":…,"data":{…}}] — [text] is the
    exact CLI rendering, [data] the structured payload fields. *)

val encode_error : Engine.error -> string
(** [{"v":1,"status":"error","error":…,"exit_code":…,"message":…}]. *)

val http_status : Engine.error -> int
(** HTTP status for an error reply: 400 bad request, 413 oversized
    body, 422 rejected design (parse/validation), 429 shed load, 504
    request deadline expired, 500 internal. *)

(** What a client gets back from one exchange. *)
type reply =
  | Reply_ok of {
      rp_op : string;
      rp_text : string;
      rp_data : Tytra_telemetry.Jsenc.t;
    }
  | Reply_error of {
      re_kind : string;      (** [Engine.error_kind] discriminator *)
      re_exit_code : int;
      re_message : string;
    }

val decode_reply : string -> (reply, string) result
(** Decode a response body (inverse of {!encode_response} and
    {!encode_error}). *)

(** {2 Field codecs} (shared with tests) *)

val form_to_string : Tytra_cost.Throughput.form -> string
val form_of_string : string -> Tytra_cost.Throughput.form option
val effort_to_string : [ `Fast | `Normal | `Full ] -> string
val effort_of_string : string -> [ `Fast | `Normal | `Full ] option
