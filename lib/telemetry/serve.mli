(** Minimal HTTP/Unix-socket server: metrics snapshots and custom
    handlers.

    Public interface of [Tytra_telemetry.Serve]. See [serve.ml] for the
    accept-loop, worker-handoff and drain contracts. Out of the box a
    server answers [GET /metrics], [GET /metrics.json] and
    [GET /healthz] from the live registry; a custom {!handler} is
    consulted first and falls through to those routes when it returns
    [None]. *)

(** One parsed HTTP request, as passed to a {!handler}. *)
type request = {
  rq_meth : string;  (** "GET", "POST", ... (uppercased) *)
  rq_path : string;  (** path component of the request line *)
  rq_body : string;  (** request body ("" when absent) *)
}

(** A whole response: status, content type and body. *)
type response = {
  rs_status : int;  (** 200, 400, 404, 429, 500, ... *)
  rs_content_type : string;
  rs_body : string;
}

(** An incrementally-written response: the head goes out first (status +
    content type, {e no} Content-Length — the connection close delimits
    the body), then [st_write] runs with a chunk writer that pushes
    bytes to the peer immediately. Built for the JSONL progress frames
    of streaming [explore] requests (DESIGN.md §15). *)
type stream = {
  st_status : int;
  st_content_type : string;
  st_write : (string -> unit) -> unit;
}

(** What a {!handler} answers with: a whole response, or a stream. *)
type reply = Response of response | Stream of stream

type handler = request -> reply option
(** The one request hook. [None] falls through to the built-in metrics
    routes (and their 404). An exception from a handler is answered as
    a 500, never crashes a worker; one raised by a stream's [st_write]
    after the head went out appends an error line and closes the
    stream. *)

type error_responder = int -> response option
(** Renders wire-level failures into a custom response body. Consulted
    with the HTTP status the server chose — 400 (malformed request),
    408 (read timeout, e.g. a slow-loris client), 413 (body over
    {!max_body_bytes}), 429 (queue full) — before the built-in
    plain-text rendering; [None] (and any exception) falls back to it.
    [tybec serve] uses this to answer wire-level failures as typed
    protocol JSON. *)

val max_body_bytes : int
(** Hard cap on request-body size (8 MiB); a larger Content-Length is
    answered with status 413 without reading the body. *)

type server
(** A running server: listening socket, accept domain and (optionally)
    worker domains. Opaque — lifecycle goes through {!start}/{!stop}. *)

val start :
  ?handler:handler ->
  ?error_responder:error_responder ->
  ?workers:int ->
  ?queue_cap:int ->
  ?reuseport:bool ->
  ?listen_fd:Unix.file_descr ->
  addr:string ->
  unit ->
  server
(** [start ?handler ?error_responder ?workers ?queue_cap ?reuseport
    ?listen_fd ~addr ()] — bind, listen and serve on background
    domains. [addr] is
    [HOST:PORT], [:PORT], [PORT] (TCP; port 0 = ephemeral) or
    [unix:PATH]. Raises [Failure] on an unusable address.

    With [workers = 0] (default) the accept loop serves one request at a
    time — the metrics-scrape configuration. With [workers = n > 0],
    accepted connections are handed to a bounded queue ([queue_cap],
    default 64) drained by [n] worker domains; when the queue is full
    the connection is answered [429 Too Many Requests] immediately
    (admission control).

    [reuseport] (TCP only) sets [SO_REUSEPORT] before binding so several
    shard processes can bind the same port and let the kernel balance
    accepts; raises [Failure] on kernels without it. [listen_fd] skips
    bind/listen entirely and accepts on an inherited, already-listening
    socket (the sharding fallback when [SO_REUSEPORT] is unavailable or
    the port is ephemeral); the fd is switched to non-blocking since
    several processes may race on one accept. *)

val stop : server -> unit
(** Graceful drain: stop accepting, answer every connection already
    accepted, join all domains, close the socket (and unlink a Unix
    socket path). Idempotent enough for an [at_exit] hook. *)

val bound_addr : server -> string
(** The bound address, e.g. "127.0.0.1:9464" — with port 0, the
    ephemeral port actually assigned. *)

val requests_served : server -> int
(** Connections answered (including error responses) since {!start}. *)

val requests_rejected : server -> int
(** Connections shed with a 429 because the queue was full. *)
