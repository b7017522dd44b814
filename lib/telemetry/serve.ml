(** Minimal HTTP/Unix-socket server: metrics snapshots and custom
    handlers.

    Listens on a TCP address ([HOST:PORT], [:PORT], or [PORT]; port 0
    binds an ephemeral port) or a Unix socket ([unix:PATH]). Out of the
    box it answers the metrics snapshot routes:

    - [GET /metrics]      → Prometheus text exposition ({!Expose.render})
    - [GET /metrics.json] → the registry as stable sorted JSON
    - [GET /healthz]      → [200 ok]

    A custom {!handler} is consulted first and falls through to those
    routes when it returns [None] — [tybec serve] mounts the engine
    request protocol this way and gets [/metrics] and [/healthz] for
    free.

    Every metrics response is rendered from a {!Metrics.snapshot} taken
    at request time, so a scrape never blocks the sweep: workers only
    hold the registry mutex for the duration of the copy, exactly as any
    other reader.

    Concurrency is chosen at {!start}:

    - [workers = 0] (the default): the accept loop serves one request at
      a time on its own domain — all a scrape endpoint needs, and it
      keeps the server trivially correct.
    - [workers = n > 0]: the accept loop only accepts, handing each
      connection to a bounded queue drained by [n] worker domains.
      When the queue is full the connection is answered [429 Too Many
      Requests] immediately from the accept domain (admission control:
      the queue bounds memory and tail latency, the 429 sheds load).

    {!stop} drains gracefully: the listening socket stops accepting,
    every connection already accepted is answered, then the domains are
    joined and the socket closed deterministically. The accept loop
    polls a stop flag through [Unix.select], so {!stop} returns promptly
    (≤ the poll interval + the in-flight work). *)

type request = {
  rq_meth : string;  (** "GET", "POST", ... (uppercased) *)
  rq_path : string;  (** path component of the request line *)
  rq_body : string;  (** request body ("" when absent) *)
}

type response = {
  rs_status : int;  (** 200, 400, 404, 429, 500, ... *)
  rs_content_type : string;
  rs_body : string;
}

(** An incrementally-written response: the head is sent first (status +
    content type, no Content-Length — the body is delimited by the
    connection close), then [st_write] runs with a chunk writer that
    pushes bytes to the peer immediately. Built for the JSONL progress
    frames of streaming [explore] requests (DESIGN.md §15). *)
type stream = {
  st_status : int;
  st_content_type : string;
  st_write : (string -> unit) -> unit;
}

type reply = Response of response | Stream of stream

(* The one request hook: it answers a request whole or as a stream;
   [None] falls through to the metrics routes. *)
type handler = request -> reply option

type error_responder = int -> response option
(** Renders wire-level failures (400 malformed, 408 read timeout, 413
    oversized body, 429 shed load) into a custom response body —
    [tybec serve] answers them as typed protocol JSON. [None] falls
    back to the built-in plain-text rendering. *)

type server = {
  sv_fd : Unix.file_descr;
  sv_addr : string;         (* bound address, e.g. "127.0.0.1:9464" *)
  sv_unix_path : string option;
  sv_stop : bool Atomic.t;
  sv_requests : int Atomic.t;
  sv_rejected : int Atomic.t;
  sv_accept : unit Domain.t;
  sv_workers : unit Domain.t list;
  sv_queue : Unix.file_descr Queue.t;
  sv_queue_cap : int;
  sv_mutex : Mutex.t;
  sv_cond : Condition.t;
}

let bound_addr t = t.sv_addr
let requests_served t = Atomic.get t.sv_requests
let requests_rejected t = Atomic.get t.sv_rejected

(* --------------------------------------------------------------- *)
(* Request handling                                                 *)
(* --------------------------------------------------------------- *)

let reason_of_status = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 408 -> "408 Request Timeout"
  | 413 -> "413 Payload Too Large"
  | 429 -> "429 Too Many Requests"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | c -> string_of_int c ^ " Status"

let http_response { rs_status; rs_content_type; rs_body } =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    (reason_of_status rs_status)
    rs_content_type (String.length rs_body) rs_body

(* Stream head: no Content-Length — the close delimits the body. *)
let http_stream_head status content_type =
  Printf.sprintf "HTTP/1.0 %s\r\nContent-Type: %s\r\nConnection: close\r\n\r\n"
    (reason_of_status status) content_type

let text status body = { rs_status = status; rs_content_type = "text/plain"; rs_body = body }

(** The built-in metrics snapshot routes; the fallback behind every
    custom handler. *)
let metrics_routes (rq : request) : response =
  match (rq.rq_meth, rq.rq_path) with
  | "GET", "/metrics" ->
      {
        rs_status = 200;
        rs_content_type = "text/plain; version=0.0.4; charset=utf-8";
        rs_body = Expose.render ();
      }
  | "GET", "/metrics.json" ->
      {
        rs_status = 200;
        rs_content_type = "application/json";
        rs_body = Expose.registry_json () ^ "\n";
      }
  | "GET", "/healthz" -> text 200 "ok\n"
  | _ -> text 404 "not found\n"

(* Hard caps: request heads stay small; bodies carry inline .tirl
   sources, so they get room but not unbounded room. *)
let max_head_bytes = 16_384
let max_body_bytes = 8 * 1024 * 1024

(* Read until [enough] says the buffer is complete, the peer closes, the
   cap is hit or the deadline passes; slow clients get dropped rather
   than wedging a worker. *)
let read_until fd ~deadline ~cap ~enough b =
  let buf = Bytes.create 4096 in
  let rec go () =
    if Buffer.length b > cap || enough (Buffer.contents b) then ()
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then ()
      else
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes b buf 0 n;
                go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
                go ())
  in
  go ()

let head_end s =
  (* offset just past "\r\n\r\n", if the head is complete *)
  let n = String.length s in
  let rec find i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else find (i + 1)
  in
  find 0

let content_length head =
  (* case-insensitive scan of the header lines *)
  let lines = String.split_on_char '\n' head in
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None -> (
          match String.index_opt line ':' with
          | None -> None
          | Some i ->
              let k = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
              if k <> "content-length" then None
              else
                int_of_string_opt
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)))))
    None lines

(** Read one full request (head + Content-Length body) from [fd].
    Returns [Error status] on malformed, oversize or timed-out input. *)
let read_request fd : (request, int) result =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let b = Buffer.create 512 in
  read_until fd ~deadline ~cap:max_head_bytes
    ~enough:(fun s -> head_end s <> None)
    b;
  let data = Buffer.contents b in
  match head_end data with
  | None -> Error (if String.length data = 0 then 408 else 400)
  | Some body_off -> (
      let head = String.sub data 0 body_off in
      let want = Option.value ~default:0 (content_length head) in
      if want < 0 || want > max_body_bytes then Error 413
      else begin
        read_until fd ~deadline ~cap:(body_off + want)
          ~enough:(fun s -> String.length s >= body_off + want)
          b;
        let data = Buffer.contents b in
        if String.length data < body_off + want then Error 400
        else
          match String.index_opt head '\r' with
          | None -> Error 400
          | Some eol -> (
              let line = String.sub head 0 eol in
              match String.split_on_char ' ' line with
              | meth :: path :: _ ->
                  Ok
                    {
                      rq_meth = String.uppercase_ascii meth;
                      rq_path = path;
                      rq_body = String.sub data body_off want;
                    }
              | _ -> Error 400)
      end)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> ()

let error_response (error_responder : error_responder) status =
  match error_responder status with
  | Some r -> r
  | None -> text status (reason_of_status status ^ "\n")
  | exception _ -> text status (reason_of_status status ^ "\n")

let handle_client ~(error_responder : error_responder) (handler : handler) fd
    requests =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match read_request fd with
      | Error status ->
          write_all fd (http_response (error_response error_responder status))
      | Ok rq -> (
          match
            match handler rq with
            | Some reply -> reply
            | None -> Response (metrics_routes rq)
          with
          | Response r -> write_all fd (http_response r)
          | Stream st -> (
              (* head first, then chunks as the producer emits them; a
                 peer that goes away mid-stream just loses bytes
                 (write_all swallows the error), the producer finishes
                 undisturbed *)
              write_all fd (http_stream_head st.st_status st.st_content_type);
              try st.st_write (fun chunk -> write_all fd chunk)
              with e ->
                write_all fd
                  ("{\"status\":\"error\",\"message\":"
                  ^ Printf.sprintf "%S" (Printexc.to_string e)
                  ^ "}\n"))
          | exception e ->
              write_all fd
                (http_response
                   (text 500 ("internal error: " ^ Printexc.to_string e ^ "\n")))));
      Atomic.incr requests;
      Metrics.incr "serve.requests")

(* --------------------------------------------------------------- *)
(* Accept loop and worker handoff                                   *)
(* --------------------------------------------------------------- *)

(* workers = 0: serve inline on the accept domain (the metrics-scrape
   configuration). workers > 0: enqueue for the worker domains, shedding
   load with a 429 when the bounded queue is full. *)
let accept_loop fd stop handler ~error_responder ~inline ~queue
    ~queue_cap ~mutex ~cond ~requests ~rejected =
  let rec go () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true fd with
          | client, _ ->
              if inline then (
                try
                  handle_client ~error_responder handler client requests
                with _ -> (
                  try Unix.close client with Unix.Unix_error _ -> ()))
              else begin
                Mutex.lock mutex;
                let full = Queue.length queue >= queue_cap in
                if not full then Queue.push client queue;
                Mutex.unlock mutex;
                if full then begin
                  Atomic.incr rejected;
                  Metrics.incr "serve.rejected";
                  (try
                     write_all client
                       (http_response (error_response error_responder 429))
                   with _ -> ());
                  try Unix.close client with Unix.Unix_error _ -> ()
                end
                else Condition.signal cond
              end
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* Workers block on the condition until work or shutdown; on shutdown
   they drain whatever the accept loop already admitted (the graceful-
   drain contract: every accepted connection is answered). *)
let worker_loop handler ~error_responder ~stop ~queue ~mutex ~cond ~requests
    =
  let rec go () =
    Mutex.lock mutex;
    let rec await () =
      if Queue.is_empty queue then
        if Atomic.get stop then None
        else begin
          Condition.wait cond mutex;
          await ()
        end
      else Some (Queue.pop queue)
    in
    let job = await () in
    Mutex.unlock mutex;
    match job with
    | None -> ()
    | Some client ->
        (try handle_client ~error_responder handler client requests
         with _ -> (try Unix.close client with Unix.Unix_error _ -> ()));
        go ()
  in
  go ()

(* --------------------------------------------------------------- *)
(* Lifecycle                                                        *)
(* --------------------------------------------------------------- *)

let parse_tcp_addr addr =
  match String.rindex_opt addr ':' with
  | Some i ->
      let host = String.sub addr 0 i in
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      let host = if host = "" then "127.0.0.1" else host in
      (host, int_of_string port)
  | None -> ("127.0.0.1", int_of_string addr)

let start ?(handler : handler = fun _ -> None)
    ?(error_responder : error_responder = fun _ -> None) ?(workers = 0)
    ?(queue_cap = 64) ?(reuseport = false) ?listen_fd ~addr () : server =
  let fd, bound, unix_path =
    match listen_fd with
    | Some fd ->
        (* Inherited listening socket (multi-shard fallback mode): it is
           already bound and listening; several shards may accept on the
           same fd, so it must be non-blocking — select can report it
           readable in every shard while only one accept succeeds. *)
        Unix.set_nonblock fd;
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (a, p) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX p -> "unix:" ^ p
          | exception Unix.Unix_error _ -> addr
        in
        (fd, bound, None)
    | None ->
    if String.length addr > 5 && String.sub addr 0 5 = "unix:" then begin
      let path = String.sub addr 5 (String.length addr - 5) in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e ->
         Unix.close fd;
         failwith
           (Printf.sprintf "cannot bind unix socket %s: %s" path
              (Printexc.to_string e)));
      (fd, addr, Some path)
    end
    else begin
      let host, port =
        try parse_tcp_addr addr
        with _ ->
          failwith
            (Printf.sprintf
               "bad address %S (expected HOST:PORT, :PORT, PORT or unix:PATH)"
               addr)
      in
      let inet =
        try Unix.inet_addr_of_string host
        with _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } ->
              failwith (Printf.sprintf "cannot resolve host %S" host)
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found ->
              failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      if reuseport then begin
        (* Shared-nothing sharding: every shard binds the same port and
           the kernel load-balances accepts. Raises on kernels without
           SO_REUSEPORT — {!Shards} probes support before asking. *)
        try Unix.setsockopt fd Unix.SO_REUSEPORT true
        with e ->
          Unix.close fd;
          failwith ("SO_REUSEPORT unsupported: " ^ Printexc.to_string e)
      end;
      (try Unix.bind fd (Unix.ADDR_INET (inet, port))
       with e ->
         Unix.close fd;
         failwith
           (Printf.sprintf "cannot bind %s: %s" addr (Printexc.to_string e)));
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | _ -> addr
      in
      (fd, bound, None)
    end
  in
  if listen_fd = None then Unix.listen fd (max 16 queue_cap);
  let stop = Atomic.make false in
  let requests = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let queue = Queue.create () in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let inline = workers <= 0 in
  let accept =
    Domain.spawn (fun () ->
        accept_loop fd stop handler ~error_responder ~inline ~queue ~queue_cap
          ~mutex ~cond ~requests ~rejected)
  in
  let worker_domains =
    List.init (max 0 workers) (fun _ ->
        Domain.spawn (fun () ->
            worker_loop handler ~error_responder ~stop ~queue ~mutex ~cond
              ~requests))
  in
  {
    sv_fd = fd;
    sv_addr = bound;
    sv_unix_path = unix_path;
    sv_stop = stop;
    sv_requests = requests;
    sv_rejected = rejected;
    sv_accept = accept;
    sv_workers = worker_domains;
    sv_queue = queue;
    sv_queue_cap = queue_cap;
    sv_mutex = mutex;
    sv_cond = cond;
  }

let stop (t : server) : unit =
  if not (Atomic.exchange t.sv_stop true) then begin
    (* 1. stop admitting: join the accept loop, close the socket *)
    Domain.join t.sv_accept;
    (try Unix.close t.sv_fd with Unix.Unix_error _ -> ());
    (* 2. drain: wake every worker; they answer whatever was already
       accepted before exiting on the empty queue *)
    Mutex.lock t.sv_mutex;
    Condition.broadcast t.sv_cond;
    Mutex.unlock t.sv_mutex;
    List.iter Domain.join t.sv_workers;
    match t.sv_unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ()
  end
