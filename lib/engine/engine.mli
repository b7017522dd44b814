(** Cost-model engine: the typed request lifecycle behind every tybec
    verb.

    Public interface of [Tytra_engine.Engine]. {!create} an engine once,
    {!submit} any number of typed requests against it: the engine holds
    the warm state (a content-addressed parse+validate cache and a
    full-request response cache; nothing below the engine keeps state
    between requests), so a long-lived process answers repeat requests
    at cache speed. The CLI adapters and [tybec serve] are both thin
    layers over this module.

    [submit] never raises: every failure mode is a typed {!error} with a
    stable {!exit_code} mapping matching the documented CLI contract.
    [rs_text] in a {!response} is byte-identical to what the pre-engine
    CLI printed for the same request. *)

(** {2 Requests} *)

type source =
  | File of string    (** read the design from this path *)
  | Inline of string  (** TyTra-IR text carried in the request *)

type kernel = Sor | Hotspot | Lavamd | Srad

val kernel_to_string : kernel -> string
val kernel_of_string : string -> kernel option

type explore_params = {
  x_kernel : kernel;
  x_size : int;
      (** grid side (sor/hotspot/srad) or boxes; [submit] answers
          [Bad_request] below 1, or when the kernel's index space at
          this size has more than [max_int] points *)
  x_max_lanes : int;
  x_device : Tytra_device.Device.t;
  x_form : Tytra_cost.Throughput.form;
  x_nki : int;  (** kernel instances; [submit] answers [Bad_request] below 1 *)
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
      nki : int;  (** kernel instances; [submit] answers [Bad_request] below 1 *)
      optimize : bool;
      calib : string option;
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
      nki : int;  (** as for [Cost] *)
      optimize : bool;
    }
  | Explore of explore_params

val op_name : request -> string
(** "check", "cost", "synth", "sim" or "explore" — the wire ["op"]. *)

(** {2 Responses and errors} *)

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
  rs_text : string;    (** exact CLI stdout rendering of the result *)
  rs_payload : payload;
}

type error =
  | Bad_request of string
  | Parse_error of string
  | Validation_error of string
  | Timeout_error of float
      (** the request-level cooperative deadline expired *)
  | Request_too_large of int
      (** the request body exceeded the wire cap (bytes) *)
  | Internal_error of string
  | Overloaded

val exit_code : error -> int
(** The CLI contract: 2 for bad input/parse/oversize, 3 for validation,
    1 for internal/timeout/overload. *)

val error_message : error -> string

val error_kind : error -> string
(** Stable machine-readable discriminator (the wire ["error"] field):
    "bad_request", "parse", "validation", "timeout",
    "request_too_large", "internal", "overloaded". *)

(** {2 Lifecycle} *)

type config = {
  parse_cache_capacity : int;
  response_cache_capacity : int;
      (** entries in the full-request response cache: completed [Ok]
          responses keyed on a digest of the op, every parameter and
          the content behind every path parameter. Error responses are never
          cached. *)
  cache_journal : string option;
      (** when set, every response-cache insertion is appended to this
          digest-validated JSONL file ({!Journal}) and {!create} replays
          the file into the fresh cache — the warm path survives a
          crash. Telemetry: [engine.journal.replayed/appended/skipped]. *)
}

val default_config : config
(** 64 parse-cache entries, 128 response-cache entries, no journal. *)

type t
(** A running engine: configuration and caches. *)

val create : config -> t

val config : t -> config

val parse_cache_stats : t -> Tytra_exec.Cache.stats
(** Hit/miss/eviction statistics of the content-addressed
    parse+validate cache (also published as [engine.parse_cache.*]
    telemetry counters). *)

val response_cache_stats : t -> Tytra_exec.Cache.stats
(** Hit/miss/eviction statistics of the full-request response cache
    (also published as [engine.response_cache.*] telemetry counters).
    A hit replays the stored response verbatim — including the
    originally rendered [rs_text] (wall-clock figures such as the synth
    time line reflect the first, uncached run). *)

val submit :
  ?deadline_s:float -> t -> request -> (response, error) result
(** [submit ?deadline_s t req] — run one request to completion, once,
    and answer it whole. [deadline_s] arms a request-level cooperative
    deadline ({!Tytra_exec.Task.with_context}). An [Explore] that asks
    for point retries, a point deadline, best-effort, a checkpoint or a
    resume is answered [Bad_request]. Never raises. *)

val load_design :
  t -> source -> (Tytra_ir.Ast.design, error) result
(** Parse + validate a source through the engine's content-addressed
    cache — the shared preamble of every design-consuming subcommand
    (the HDL/testbench emitters use it directly). *)

val maybe_optimize : bool -> Tytra_ir.Ast.design -> Tytra_ir.Ast.design
(** [maybe_optimize true d] — the optimization-pass preamble shared by
    every [-O]-accepting request (logs the pass statistics at info). *)
