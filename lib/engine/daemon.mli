(** [tybec serve] — the cost model as a long-lived service.

    Public interface of [Tytra_engine.Daemon]. See [daemon.ml] for the
    route table and drain contract. *)

val handler :
  ?default_deadline_s:float -> Engine.t -> Tytra_telemetry.Serve.handler
(** The route table: [POST /v1/submit] (the {!Protocol} codec, answered
    by {!Engine.submit}), [GET /v1/protocol]; everything else falls
    through to the built-in metrics routes. A submit body is decoded
    once and answered with one JSON reply, at the HTTP status
    {!Protocol.http_status} gives its error, or 200.
    [default_deadline_s] is applied to requests that carry no deadline
    of their own (the frame's own [deadline_ms] always wins). Exposed so
    tests can mount an engine on an ephemeral-port server directly. *)

val wire_error : int -> Tytra_telemetry.Serve.response option
(** {!Tytra_telemetry.Serve.error_responder} used by {!run}: renders the
    server's wire-level failure statuses as typed protocol errors —
    400 → [Bad_request], 408 → [Bad_request] (read timeout),
    413 → [Request_too_large], 429 → [Overloaded] — so every byte a
    client ever reads off the socket is protocol JSON. Unknown statuses
    return [None] (plain-text fallback). *)

val default_workers : unit -> int
(** Request domains {!run} (and [tybec serve --workers]) uses when not
    told: one per core but the one the serving loop runs on, at least
    1, at most 4 — [max 1 (min 4 (Domain.recommended_domain_count () -
    1))]; 1 on two cores. More domains than cores make every
    stop-the-world minor collection wait for descheduled peers, and
    each domain's minor heap adds to the resident set (DESIGN.md
    §13.3). *)

val run :
  ?config:Engine.config ->
  ?workers:int ->
  ?queue_cap:int ->
  ?reuseport:bool ->
  ?listen_fd:Unix.file_descr ->
  ?admin_addr:string ->
  ?deadline_default_ms:float ->
  ?cache_journal:string ->
  addr:string ->
  unit ->
  unit
(** [run ?config ?workers ?queue_cap ?reuseport ?listen_fd ?admin_addr
    ?deadline_default_ms ?cache_journal ~addr ()] — create an engine and
    serve it on [addr] ([HOST:PORT], [:PORT], [PORT] or [unix:PATH])
    until SIGTERM/SIGINT. The calling domain runs the server's loop
    ({!Tytra_telemetry.Serve.run}): it accepts, reads every request and
    answers wire errors, and hands complete requests to [workers]
    request domains (default {!default_workers}) through a bounded
    queue of [queue_cap] requests (full queue ⇒ typed 429).

    [reuseport]/[listen_fd] pass through to {!Tytra_telemetry.Serve.run}
    for multi-shard fronts ({!Shards}); [admin_addr] additionally serves
    the plain metrics routes on a second address (each shard's private
    scrape endpoint).

    [deadline_default_ms] gives every request that carries no
    [deadline_ms] of its own a default evaluation budget
    ([--deadline-default-ms]); [cache_journal] overrides
    [config.cache_journal] with an append-only response-cache journal
    path, so a restarted process reloads its hot cache
    ([--cache-journal], DESIGN.md §16).

    On signal: graceful drain — stop accepting, answer everything in
    flight, join, print the served/rejected accounting. Returns
    normally so the CLI exits 0. *)
