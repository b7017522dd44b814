(** Prometheus-style text exposition of the metrics registry.

    Public interface of [Tytra_telemetry.Expose]. Renders the whole
    registry (from one consistent {!Metrics.snapshot}) as Prometheus
    text and as stable sorted JSON. *)

val render : unit -> string
(** The whole registry in Prometheus text exposition format 0.0.4:
    counters and gauges as single samples, histograms as summaries.
    Metric names are sanitized — dots become underscores, everything
    gets a [tytra_] prefix — so [dse.points_evaluated] exposes as
    [tytra_dse_points_evaluated]. *)

val registry_json : unit -> string
(** The registry as stable sorted JSON (same shape as
    [Metrics.to_json]; the [--metrics-json FILE] payload —
    byte-identical across runs with identical counters, so CI can diff
    it). *)

val write_registry_json : string -> unit
(** [write_registry_json path] — dump {!registry_json} to [path]. *)
