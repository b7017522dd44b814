(** Multi-process sharded serving: the supervisor behind
    [tybec serve --shards N].

    Public interface of [Tytra_engine.Shards]. Each shard is a full
    {!Daemon} process (own engine, pool and caches); the parent
    binds or brokers the shared listen socket, supervises the children
    (health probes, postmortem dumps, exponential-backoff restarts
    under a budget, SIGKILL of hung shards, a circuit breaker shedding
    typed [overloaded] when every shard is down — DESIGN.md §16),
    forwards SIGTERM for a graceful drain, and serves aggregated
    [/metrics] (per-shard [shard="i"] labels), [/metrics.json] (with
    per-shard [pid]/[state]/[restarts]) and [/healthz] on the admin
    address. See [shards.ml] for the socket strategy (SO_REUSEPORT vs
    inherited fd) and the supervision state machine. *)

(** How a shard child should obtain its listen socket, decoded from the
    environment the supervisor set ([TYTRA_SHARD_FD] /
    [TYTRA_SHARD_REUSEPORT]). *)
type child_socket =
  | Child_plain  (** not a shard child: bind normally *)
  | Child_reuseport  (** bind the address yourself with [SO_REUSEPORT] *)
  | Child_fd of Unix.file_descr
      (** accept on this inherited, already-listening descriptor *)

val child_socket : unit -> child_socket
(** Called by the [serve] CLI when [--shard-child] is present. *)

val reuseport_supported : unit -> bool
(** Probe the kernel: can a TCP socket take [SO_REUSEPORT]? *)

val http_get :
  ?timeout_s:float -> addr:string -> string -> (int * string, string) result
(** [http_get ~addr path] — one-shot HTTP/1.0 GET against ["unix:PATH"]
    or ["host:port"], returning (status, close-delimited body). The
    aggregator's scrape client; exposed for tests. *)

val run :
  ?restart_budget:int ->
  shards:int ->
  addr:string ->
  admin_addr:string ->
  child_argv:(shard:int -> admin_addr:string -> string array) ->
  unit ->
  unit
(** [run ?restart_budget ~shards ~addr ~admin_addr ~child_argv ()] —
    supervise [shards] child processes serving [addr] and block until
    SIGTERM/SIGINT. [child_argv ~shard ~admin_addr] must produce the
    full exec argv for one shard (our own executable with
    [serve --shard-child i --shard-admin <admin_addr>] plus the user's
    flags); the supervisor adds the socket-mode environment.

    Supervision (DESIGN.md §16): a crashed shard is postmortemed (crash
    JSONL + last metrics snapshot into the run directory, plus a typed
    [shard_crash] event) and restarted after an
    exponential backoff (0.5 s doubling, 30 s cap); [restart_budget]
    (default 8) consecutive restarts without 5 s of proven stability
    marks the shard dead. A shard whose [/healthz] stops answering for
    3 consecutive probes is SIGKILLed and treated as a crash. When no
    shard is up, a circuit breaker serves the work address itself,
    answering every request with typed [overloaded] (HTTP 429) until a
    shard passes a health probe again.

    On signal: forward SIGTERM to every shard, wait for each to drain,
    stop the aggregator, clean up the admin sockets (postmortem files,
    if any, are left behind). *)
