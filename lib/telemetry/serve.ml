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

    One loop does all the socket work but writing answers. It accepts
    every connection and reads each request with [Unix.select], under a
    deadline per connection, so a slow client holds a slot in the select
    set, never a worker. It answers the wire errors itself (400
    malformed, 408 deadline passed, 413 body over the cap, 429 shed
    load) and hands only complete requests on:

    - [workers = 0] (the default): the loop answers each request itself,
      one at a time — all a scrape endpoint needs.
    - [workers = n > 0]: complete requests go to a bounded queue drained
      by [n] worker domains. When the queue is full the request is
      answered [429 Too Many Requests] by the loop (admission control:
      the queue bounds memory and tail latency, the 429 sheds load).

    {!run} runs the loop on the calling domain until its stop flag is
    set; {!start} runs it on a spawned domain and {!stop} sets the flag
    and joins it. Either way the loop drains gracefully: it stops
    accepting, finishes reading the connections it already accepted,
    lets the workers answer every request handed to them, then joins
    them and closes the socket. The loop polls the stop flag through
    [Unix.select], so a stop takes effect within the poll interval. *)

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

(* The one request hook: it answers a request whole; [None] falls
   through to the metrics routes. *)
type handler = request -> response option

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
  sv_loop : unit Domain.t option;  (* the domain {!start} runs the loop on *)
}

let bound_addr t = t.sv_addr
let requests_served t = Atomic.get t.sv_requests
let requests_rejected t = Atomic.get t.sv_rejected

(* --------------------------------------------------------------- *)
(* Responses                                                        *)
(* --------------------------------------------------------------- *)

let reason_of_status = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 408 -> "408 Request Timeout"
  | 413 -> "413 Payload Too Large"
  | 422 -> "422 Unprocessable Content"
  | 429 -> "429 Too Many Requests"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | 504 -> "504 Gateway Timeout"
  | c -> string_of_int c ^ " Status"

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

(* A peer that went away loses the rest of its answer; nothing else
   notices (SIGPIPE is ignored while a server runs). *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> ()

(* The head, then the body as it is: a response body is never copied
   into a joined buffer. Closing the socket right after pushes the body
   out at once, whatever Nagle's algorithm held back. *)
let write_response fd r =
  write_all fd
    (String.concat ""
       [ "HTTP/1.0 "; reason_of_status r.rs_status; "\r\nContent-Type: ";
         r.rs_content_type; "\r\nContent-Length: ";
         string_of_int (String.length r.rs_body);
         "\r\nConnection: close\r\n\r\n" ]);
  write_all fd r.rs_body

let error_response (error_responder : error_responder) status =
  match error_responder status with
  | Some r -> r
  | None -> text status (reason_of_status status ^ "\n")
  | exception _ -> text status (reason_of_status status ^ "\n")

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Count a request as served before closing its socket, so a client
   that has read its reply to the end already sees it counted. *)
let count_and_close sv fd =
  Atomic.incr sv.sv_requests;
  Metrics.incr "serve.requests";
  close_quietly fd

(* Answer one complete request on [fd] and close it; never raises. *)
let answer (handler : handler) sv fd rq =
  (try
     write_response fd
       (try match handler rq with Some r -> r | None -> metrics_routes rq
        with e -> text 500 ("internal error: " ^ Printexc.to_string e ^ "\n"))
   with _ -> ());
  count_and_close sv fd

(* A wire error, answered by the loop: [error_responder]'s body for
   [status], then close. *)
let answer_error ~error_responder sv fd status =
  (try write_response fd (error_response error_responder status) with _ -> ());
  count_and_close sv fd

(* Admission control: a 429, counted as rejected, not as served. *)
let shed ~error_responder sv fd =
  Atomic.incr sv.sv_rejected;
  Metrics.incr "serve.rejected";
  (try write_response fd (error_response error_responder 429) with _ -> ());
  close_quietly fd

(* --------------------------------------------------------------- *)
(* Reading a request                                                *)
(* --------------------------------------------------------------- *)

(* Hard caps: request heads stay small; bodies carry inline .tirl
   sources, so they get room but not unbounded room. *)
let max_head_bytes = 16_384
let max_body_bytes = 8 * 1024 * 1024

(* A connection must deliver its whole request within this long of
   being accepted, or it is answered 408. *)
let read_deadline_s = 10.0

(* Connections the loop reads at once; while it reads this many, it
   accepts no more, and the kernel's backlog holds the rest. *)
let max_reading = 256

(* One connection being read. Its head goes into [c_buf], which has room
   for the largest head allowed, so a typical request arrives whole in
   one read; once the head is in, [c_buf] is replaced by a buffer of
   exactly the Content-Length, which the body is read into and which
   becomes [rq_body] as it is. Each byte is read once and copied at most
   once. *)
type conn = {
  c_fd : Unix.file_descr;
  c_deadline : float;
  mutable c_buf : Bytes.t;
  mutable c_len : int;  (* bytes of [c_buf] filled *)
  mutable c_line : (string * string) option;
      (* method and path, once the head is in *)
}

type progress = Reading | Complete of request | Failed of int | Gone

let new_conn fd ~now =
  {
    c_fd = fd;
    c_deadline = now +. read_deadline_s;
    (* too large for the minor heap: it adds nothing to the loop's *)
    c_buf = Bytes.create max_head_bytes;
    c_len = 0;
    c_line = None;
  }

(* The offset just past the first "\r\n\r\n" of [b] that ends at or
   after [from] + 4 and before [len], or -1. *)
let head_end b ~from ~len =
  let rec find i =
    if i + 3 >= len then -1
    else if
      Bytes.get b (i + 3) = '\n'
      && Bytes.get b (i + 2) = '\r'
      && Bytes.get b (i + 1) = '\n'
      && Bytes.get b i = '\r'
    then i + 4
    else find (i + 1)
  in
  find (max 0 from)

(* The first Content-Length header line of [head] whose value parses,
   compared case-insensitively; 0 when there is none. *)
let content_length head =
  let n = String.length head in
  let rec line s =
    if s >= n then 0
    else
      let t = Option.value ~default:n (String.index_from_opt head s '\n') in
      match String.index_from_opt head s ':' with
      | Some c
        when c < t
             && String.lowercase_ascii (String.trim (String.sub head s (c - s)))
                = "content-length" -> (
          match int_of_string_opt (String.trim (String.sub head (c + 1) (t - c - 1))) with
          | Some v -> v
          | None -> line (t + 1))
      | _ -> line (t + 1)
  in
  line 0

(* Method and path of the request line, the head's first line. *)
let request_line head =
  match String.index_opt head '\r' with
  | None -> None
  | Some eol -> (
      match String.index_opt head ' ' with
      | Some sp when sp < eol ->
          let stop =
            match String.index_from_opt head (sp + 1) ' ' with
            | Some e when e < eol -> e
            | _ -> eol
          in
          Some
            ( String.uppercase_ascii (String.sub head 0 sp),
              String.sub head (sp + 1) (stop - sp - 1) )
      | _ -> None)

let complete c =
  match c.c_line with
  | Some (meth, path) when c.c_len = Bytes.length c.c_buf ->
      Complete
        { rq_meth = meth; rq_path = path; rq_body = Bytes.unsafe_to_string c.c_buf }
  | _ -> Reading

(* The head is [c_buf]'s first [e] bytes: check it, then move the body
   bytes already read into the body's own buffer. *)
let start_body c e =
  let head = Bytes.sub_string c.c_buf 0 e in
  let want = content_length head in
  if want < 0 || want > max_body_bytes then Failed 413
  else
    match request_line head with
    | None -> Failed 400
    | Some _ as line ->
        let body = Bytes.create want in
        let have = min want (c.c_len - e) in
        Bytes.blit c.c_buf e body 0 have;
        c.c_buf <- body;
        c.c_len <- have;
        c.c_line <- line;
        complete c

(* One read from a connection [Unix.select] found readable, so it does
   not block. A peer that closes before its request is complete sent a
   malformed one. *)
let step c =
  match Unix.read c.c_fd c.c_buf c.c_len (Bytes.length c.c_buf - c.c_len) with
  | 0 -> Failed 400
  | n -> (
      let before = c.c_len in
      c.c_len <- before + n;
      match c.c_line with
      | Some _ -> complete c
      | None -> (
          match head_end c.c_buf ~from:(before - 3) ~len:c.c_len with
          | -1 -> if c.c_len >= max_head_bytes then Failed 400 else Reading
          | e -> start_body c e))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      Reading
  | exception Unix.Unix_error _ -> Gone

(** Read one full request (head + Content-Length body) from [fd] with
    the loop's reader, blocking until it is complete, malformed or past
    the read deadline. *)
let read_request fd : (request, int) result =
  let c = new_conn fd ~now:(Unix.gettimeofday ()) in
  let rec go () =
    let remaining = c.c_deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then Error 408
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> go ()
      | _ -> (
          match step c with
          | Reading -> go ()
          | Complete rq -> Ok rq
          | Failed status -> Error status
          | Gone -> Error 400)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --------------------------------------------------------------- *)
(* The loop and its workers                                         *)
(* --------------------------------------------------------------- *)

(* Complete requests waiting for a worker. [q_closing] is set once the
   loop will hand over no more. *)
type queue = {
  q_jobs : (Unix.file_descr * request) Queue.t;
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  mutable q_closing : bool;
}

(* Workers block on the condition until work or shutdown; on shutdown
   they answer whatever the loop already handed over (the graceful-
   drain contract: every accepted connection is answered). *)
let worker q answer =
  let rec next () =
    Mutex.lock q.q_mutex;
    while Queue.is_empty q.q_jobs && not q.q_closing do
      Condition.wait q.q_cond q.q_mutex
    done;
    let job = Queue.take_opt q.q_jobs in
    Mutex.unlock q.q_mutex;
    match job with
    | None -> ()
    | Some (fd, rq) ->
        answer fd rq;
        next ()
  in
  next ()

(* [Unix.select] takes no descriptor past FD_SETSIZE. *)
let watchable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* How long the loop sleeps in [Unix.select] at most: the stop flag's
   poll interval. *)
let poll_s = 0.2

let serve_loop ~handler ~error_responder ~workers ~queue_cap sv =
  let answer = answer handler sv in
  let q =
    {
      q_jobs = Queue.create ();
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      q_closing = false;
    }
  in
  let domains =
    List.init workers (fun _ -> Domain.spawn (fun () -> worker q answer))
  in
  let handoff fd rq =
    if workers = 0 then answer fd rq
    else begin
      Mutex.lock q.q_mutex;
      let full = Queue.length q.q_jobs >= queue_cap in
      if not full then begin
        Queue.push (fd, rq) q.q_jobs;
        Condition.signal q.q_cond
      end;
      Mutex.unlock q.q_mutex;
      if full then shed ~error_responder sv fd
    end
  in
  (* [true] while [c] is still being read *)
  let advance c =
    match step c with
    | Reading -> true
    | Complete rq ->
        handoff c.c_fd rq;
        false
    | Failed status ->
        answer_error ~error_responder sv c.c_fd status;
        false
    | Gone ->
        close_quietly c.c_fd;
        false
  in
  let expire now c =
    c.c_deadline > now
    || begin
         answer_error ~error_responder sv c.c_fd 408;
         false
       end
  in
  let rec accept_all now conns n =
    if n >= max_reading then conns
    else
      match Unix.accept ~cloexec:true sv.sv_fd with
      | fd, _ ->
          (* a client sends its request as soon as it connects, so it is
             often there already: read it now, not one select later *)
          let c = new_conn fd ~now in
          if (not (readable fd)) || advance c then
            accept_all now (c :: conns) (n + 1)
          else accept_all now conns n
      | exception Unix.Unix_error _ -> conns
  in
  let rec loop conns =
    let stopping = Atomic.get sv.sv_stop in
    if not (stopping && conns = []) then begin
      let now = Unix.gettimeofday () in
      let timeout =
        List.fold_left (fun t c -> Float.min t (c.c_deadline -. now)) poll_s conns
      in
      let fds = List.map (fun c -> c.c_fd) conns in
      let accepting = (not stopping) && List.compare_length_with conns max_reading < 0 in
      let fds = if accepting then sv.sv_fd :: fds else fds in
      match Unix.select fds [] [] (Float.max 0.0 timeout) with
      | ready, _, _ ->
          let now = Unix.gettimeofday () in
          let conns =
            List.filter
              (fun c -> (not (List.mem c.c_fd ready) || advance c) && expire now c)
              conns
          in
          loop
            (if accepting && List.mem sv.sv_fd ready then
               accept_all now conns (List.length conns)
             else conns)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop conns
      | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
          (* a descriptor past FD_SETSIZE, as when thousands of queued
             requests hold the lower ones: shed what select cannot watch *)
          loop
            (List.filter
               (fun c ->
                 watchable c.c_fd
                 || begin
                      shed ~error_responder sv c.c_fd;
                      false
                    end)
               conns)
    end
  in
  loop [];
  Mutex.lock q.q_mutex;
  q.q_closing <- true;
  Condition.broadcast q.q_cond;
  Mutex.unlock q.q_mutex;
  List.iter Domain.join domains;
  close_quietly sv.sv_fd;
  Option.iter
    (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
    sv.sv_unix_path

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

(* Bind and listen on [addr], or adopt [listen_fd]. The socket is
   non-blocking, so the loop accepts until none is left, and several
   shards may race on one inherited fd: select can report it readable
   in every shard while only one accept succeeds. *)
let listen ~queue_cap ~reuseport ?listen_fd ~stop ~addr () : server =
  let fd, bound, unix_path =
    match listen_fd with
    | Some fd ->
        (* inherited listening socket (multi-shard fallback mode): it
           is already bound and listening *)
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
  Unix.set_nonblock fd;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    sv_fd = fd;
    sv_addr = bound;
    sv_unix_path = unix_path;
    sv_stop = stop;
    sv_requests = Atomic.make 0;
    sv_rejected = Atomic.make 0;
    sv_loop = None;
  }

let run ?(handler : handler = fun _ -> None)
    ?(error_responder : error_responder = fun _ -> None) ?(workers = 0)
    ?(queue_cap = 64) ?(reuseport = false) ?listen_fd
    ?(on_listen = fun (_ : server) -> ()) ~stop ~addr () : server =
  let sv = listen ~queue_cap ~reuseport ?listen_fd ~stop ~addr () in
  on_listen sv;
  serve_loop ~handler ~error_responder ~workers:(max 0 workers) ~queue_cap sv;
  sv

let start ?(handler : handler = fun _ -> None)
    ?(error_responder : error_responder = fun _ -> None) ?(workers = 0)
    ?(queue_cap = 64) ?(reuseport = false) ?listen_fd ~addr () : server =
  let sv =
    listen ~queue_cap ~reuseport ?listen_fd ~stop:(Atomic.make false) ~addr ()
  in
  let loop =
    Domain.spawn (fun () ->
        serve_loop ~handler ~error_responder ~workers:(max 0 workers)
          ~queue_cap sv)
  in
  { sv with sv_loop = Some loop }

let stop (t : server) : unit =
  if not (Atomic.exchange t.sv_stop true) then Option.iter Domain.join t.sv_loop
