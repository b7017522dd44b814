(** Minimal HTTP/Unix-socket server: metrics snapshots and custom
    handlers.

    Public interface of [Tytra_telemetry.Serve]. See [serve.ml] for the
    serving loop, worker-handoff and drain contracts. Out of the box a
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

type handler = request -> response option
(** The one request hook: it answers a request whole, written with its
    Content-Length, then the connection closes. [None] falls through to
    the built-in metrics routes (and their 404). An exception from a
    handler is answered as a 500, never crashes a worker. *)

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

val read_request : Unix.file_descr -> (request, int) result
(** [read_request fd] — read one request (head, then a body of its
    Content-Length) from [fd] with the serving loop's reader, blocking
    until it is complete or fails: [Error 400] when it is malformed or
    the peer closes early, [Error 408] when it is not complete within
    the loop's 10 s read deadline, [Error 413] when its Content-Length
    is over {!max_body_bytes}. Every byte is read once into one buffer
    per request and copied at most once. *)

type server
(** A running server: its listening socket, its counters and its stop
    flag. Opaque — lifecycle goes through {!run} or {!start}/{!stop}. *)

val run :
  ?handler:handler ->
  ?error_responder:error_responder ->
  ?workers:int ->
  ?queue_cap:int ->
  ?reuseport:bool ->
  ?listen_fd:Unix.file_descr ->
  ?on_listen:(server -> unit) ->
  stop:bool Atomic.t ->
  addr:string ->
  unit ->
  server
(** [run ?handler ?error_responder ?workers ?queue_cap ?reuseport
    ?listen_fd ?on_listen ~stop ~addr ()] — bind and listen on [addr],
    call [on_listen] with the server, then run the serving loop on the
    calling domain until [stop] is set, drain, and return the stopped
    server (its counters stay readable). [addr] is [HOST:PORT],
    [:PORT], [PORT] (TCP; port 0 = ephemeral) or [unix:PATH]. Raises
    [Failure] on an unusable address.

    The loop accepts every connection and reads its request under a
    10 s deadline, with [Unix.select] over every connection it is
    reading, so a slow client holds no worker. While it reads 256
    connections it accepts no more; the kernel's listen backlog holds
    them. It answers malformed (400), late (408) and oversized (413)
    requests itself through [error_responder], and sheds with a 429 a
    connection whose descriptor is past [Unix.select]'s FD_SETSIZE.

    With [workers = 0] (default) the loop answers each complete request
    itself — the metrics-scrape configuration. With [workers = n > 0],
    complete requests go to a bounded queue ([queue_cap], default 64)
    drained by [n] worker domains; when the queue is full the request
    is answered [429 Too Many Requests] by the loop (admission
    control).

    [reuseport] (TCP only) sets [SO_REUSEPORT] before binding so several
    shard processes can bind the same port and let the kernel balance
    accepts; raises [Failure] on kernels without it. [listen_fd] skips
    bind/listen entirely and accepts on an inherited, already-listening
    socket (the sharding fallback when [SO_REUSEPORT] is unavailable or
    the port is ephemeral). Either way the listening socket is made
    non-blocking, since several processes may race on one accept, and
    SIGPIPE is ignored, so a peer that hangs up only loses its answer.

    Drain, once [stop] is set: stop accepting, finish reading the
    connections already accepted, let the workers answer every request
    handed to them, join them, close the socket (and unlink a Unix
    socket path). *)

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
    ?listen_fd ~addr ()] — {!run} on a spawned domain, with a stop flag
    of its own that {!stop} sets. Returns once the socket listens. *)

val stop : server -> unit
(** Graceful drain of a {!start}ed server: set its stop flag and join
    the loop's domain, which drains as {!run} does. Idempotent enough
    for an [at_exit] hook; on a server {!run} returned it does
    nothing. *)

val bound_addr : server -> string
(** The bound address, e.g. "127.0.0.1:9464" — with port 0, the
    ephemeral port actually assigned. *)

val requests_served : server -> int
(** Connections answered (wire errors included, 429s not) since the
    server started. A connection is counted before its socket is
    closed, so a client that has read its whole reply sees it
    counted. *)

val requests_rejected : server -> int
(** Connections shed with a 429: the worker queue was full, or the
    connection's descriptor was past what [Unix.select] watches. *)
