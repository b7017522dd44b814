(** Multi-process sharded serving: [tybec serve --shards N].

    One process per shard, each a {e full} {!Daemon} — its own engine,
    workers and caches — so shards share nothing and scale until
    the machine runs out of cores. The parent never touches a request;
    it only supervises:

    - {b Socket sharing.} On kernels with [SO_REUSEPORT] every shard
      binds the same TCP port and the kernel load-balances accepts
      (shared-nothing all the way down). Fallback — and always for
      [unix:] addresses and ephemeral port 0, where per-shard binds
      would produce N different ports — the parent binds once and the
      shards inherit the listening fd across [exec], racing on a
      non-blocking [accept].
    - {b Supervision.} Children are started with fork+exec of our own
      executable ([create_process], never a bare [fork]: the parent
      runs domains, and a forked child would inherit their mutexes
      mid-flight). A crashed shard is reaped, postmortemed (crash
      record + last metrics snapshot, as JSONL in the run directory)
      and restarted under an exponential-backoff restart
      budget ([shards.restarts], [shards.crashes]); a shard that is
      alive but stops answering health probes is SIGKILLed and treated
      as a crash ([shards.hung_kills]); when {e every} shard is down a
      circuit breaker takes over the work address and answers typed
      [overloaded] instead of letting connections hang in the backlog
      ([shards.breaker_trips]). SIGTERM/SIGINT forwards to every shard,
      which drains gracefully, then the parent reaps them all.
    - {b Aggregation.} Each shard serves its private metrics on a unix
      socket ([--shard-admin]); the parent's admin server scrapes them
      on demand and answers [/metrics] with per-shard
      [{shard="i"}]-labeled samples (plus its own as
      [{shard="parent"}]), [/metrics.json] with the raw per-shard
      registries, and [/healthz] with 200 only when every shard
      answers. *)

module Serve = Tytra_telemetry.Serve
module Metrics = Tytra_telemetry.Metrics
module Expose = Tytra_telemetry.Expose

let env_fd = "TYTRA_SHARD_FD"
let env_reuseport = "TYTRA_SHARD_REUSEPORT"

(* ------------------------------------------------------------------ *)
(* Child-side mode detection                                           *)
(* ------------------------------------------------------------------ *)

type child_socket = Child_plain | Child_reuseport | Child_fd of Unix.file_descr

(* On Unix an abstract [Unix.file_descr] is the int fd; crossing exec we
   can only carry the number, so the child conjures the descriptor back
   from the environment. *)
let fd_of_int (n : int) : Unix.file_descr = Obj.magic n
let int_of_fd (fd : Unix.file_descr) : int = Obj.magic fd

let child_socket () : child_socket =
  match Option.bind (Sys.getenv_opt env_fd) int_of_string_opt with
  | Some n -> Child_fd (fd_of_int n)
  | None -> (
      match Sys.getenv_opt env_reuseport with
      | Some ("1" | "true") -> Child_reuseport
      | _ -> Child_plain)

(* ------------------------------------------------------------------ *)
(* Parent-side socket setup                                            *)
(* ------------------------------------------------------------------ *)

let reuseport_supported () =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.setsockopt fd Unix.SO_REUSEPORT true with
          | () -> true
          | exception _ -> false)

let is_unix_addr addr =
  String.length addr > 5 && String.sub addr 0 5 = "unix:"

let parse_tcp_addr addr =
  match String.rindex_opt addr ':' with
  | Some i ->
      let host = String.sub addr 0 i in
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      let host = if host = "" then "127.0.0.1" else host in
      (host, int_of_string port)
  | None -> ("127.0.0.1", int_of_string addr)

let is_port_zero addr =
  match parse_tcp_addr addr with
  | _, 0 -> true
  | _ -> false
  | exception _ -> false

(* Bind + listen once in the parent; the fd is inherited by every shard
   (cloexec cleared — it must survive the exec). *)
let bind_listener addr : Unix.file_descr * string =
  let fd, bound =
    if is_unix_addr addr then begin
      let path = String.sub addr 5 (String.length addr - 5) in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      (fd, addr)
    end
    else begin
      let host, port = parse_tcp_addr addr in
      let inet =
        try Unix.inet_addr_of_string host
        with _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> raise Not_found
          | h -> h.Unix.h_addr_list.(0))
      in
      let fd = Unix.socket ~cloexec:false Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | _ -> addr
      in
      (fd, bound)
    end
  in
  Unix.listen fd 64;
  Unix.clear_close_on_exec fd;
  (fd, bound)

(* ------------------------------------------------------------------ *)
(* Scraping a shard's admin socket                                     *)
(* ------------------------------------------------------------------ *)

(* A one-shot HTTP/1.0 GET against "unix:PATH" or "host:port"; the
   close-delimited body comes back whole. Deliberately tiny — the only
   client is the aggregator scraping its own children. *)
let http_get ?(timeout_s = 2.0) ~addr path : (int * string, string) result =
  match
    let fd, sockaddr =
      if is_unix_addr addr then
        ( Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0,
          Unix.ADDR_UNIX (String.sub addr 5 (String.length addr - 5)) )
      else
        let host, port = parse_tcp_addr addr in
        ( Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd sockaddr;
        let rq = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        ignore (Unix.write_substring fd rq 0 (String.length rq));
        let deadline = Unix.gettimeofday () +. timeout_s in
        let b = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining > 0.0 then
            match Unix.select [ fd ] [] [] remaining with
            | [], _, _ -> ()
            | _ -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> ()
                | n ->
                    Buffer.add_subbytes b chunk 0 n;
                    drain ()
                | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _)
                  ->
                    drain ())
        in
        drain ();
        Buffer.contents b)
  with
  | exception e -> Error (Printexc.to_string e)
  | raw -> (
      let split_head s =
        let n = String.length s in
        let rec find i =
          if i + 3 >= n then None
          else if
            s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
          then Some (i + 4)
          else find (i + 1)
        in
        find 0
      in
      match split_head raw with
      | None -> Error "short response"
      | Some off -> (
          match String.split_on_char ' ' raw with
          | _ :: code :: _ -> (
              match int_of_string_opt code with
              | Some status ->
                  Ok (status, String.sub raw off (String.length raw - off))
              | None -> Error "bad status line")
          | _ -> Error "bad status line"))

(* ------------------------------------------------------------------ *)
(* Prometheus relabeling                                               *)
(* ------------------------------------------------------------------ *)

(* Tag every sample of one shard's exposition with [shard="<id>"];
   comment lines (# HELP / # TYPE) are passed through for [seen]-side
   dedup by the caller. *)
let relabel ~shard text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" then None
         else if line.[0] = '#' then Some (`Meta line)
         else
           match String.index_opt line ' ' with
           | None -> Some (`Meta line)
           | Some sp ->
               let name = String.sub line 0 sp in
               let rest = String.sub line sp (String.length line - sp) in
               let labeled =
                 match String.index_opt name '{' with
                 | Some b ->
                     (* splice into the existing label set *)
                     String.sub name 0 (b + 1)
                     ^ Printf.sprintf "shard=%S," shard
                     ^ String.sub name (b + 1) (String.length name - b - 1)
                 | None -> Printf.sprintf "%s{shard=%S}" name shard
               in
               Some (`Sample (labeled ^ rest)))

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-shard health state machine (DESIGN.md §16):

     Up --crash--> Backoff --timer--> Up
     Up --3 failed probes--> SIGKILL --reap--> Backoff
     Backoff --restart budget exhausted--> Dead

   A successful health probe after [stability_s] of uptime resets the
   consecutive-restart counter, so the budget only ever trips on a
   genuine crash loop, not on occasional faults spread over hours. *)
type state = Up | Backoff | Dead

type shard = {
  sh_index : int;
  sh_admin : string;  (* "unix:PATH" scrape endpoint *)
  mutable sh_pid : int;
  mutable sh_state : state;
  mutable sh_spawned : float;  (* wall time of the last spawn *)
  mutable sh_fails : int;  (* consecutive failed health probes *)
  mutable sh_restarts : int;  (* consecutive restarts without stability *)
  mutable sh_backoff_until : float;
  mutable sh_last_metrics : string option;  (* last good /metrics.json *)
}

type t = {
  t_shards : shard array;
  t_dir : string;  (* per-run admin-socket (and postmortem) directory *)
}

let probe_interval_s = 1.0  (* health-probe cadence per shard *)
let probe_grace_s = 1.0  (* no probes until a fresh shard has bound *)
let probe_strikes = 3  (* consecutive failures before SIGKILL *)
let backoff_cap_s = 30.0
let stability_s = 5.0  (* uptime that forgives past restarts *)

let state_name = function Up -> "up" | Backoff -> "backoff" | Dead -> "dead"

(* 0.5, 1, 2, 4, ... seconds, capped — a crash-looping shard must not
   be respawned as fast as it can die. *)
let backoff_delay n = Float.min backoff_cap_s (0.5 *. (2.0 ** float (n - 1)))

let shard_sources t =
  Array.to_list t.t_shards
  |> List.map (fun s -> (string_of_int s.sh_index, s.sh_admin))

let aggregate_metrics t =
  let buf = Buffer.create 16_384 in
  let seen = Hashtbl.create 64 in
  let add_exposition ~shard text =
    List.iter
      (function
        | `Meta line ->
            if not (Hashtbl.mem seen line) then begin
              Hashtbl.add seen line ();
              Buffer.add_string buf line;
              Buffer.add_char buf '\n'
            end
        | `Sample line ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n')
      (relabel ~shard text)
  in
  List.iter
    (fun (shard, admin) ->
      match http_get ~addr:admin "/metrics" with
      | Ok (200, body) -> add_exposition ~shard body
      | Ok _ | Error _ -> ())
    (shard_sources t);
  (* the parent's own registry (shards.restarts, serve.requests of the
     aggregator itself) rides along under shard="parent" *)
  add_exposition ~shard:"parent" (Expose.render ());
  Buffer.contents buf

(* [pid] and [state] ride along so external tooling (the chaos harness)
   can target a specific shard process without guessing. *)
let aggregate_metrics_json t =
  let shard_objs =
    Array.to_list t.t_shards
    |> List.map (fun s ->
           let prefix =
             Printf.sprintf {|"shard":%d,"pid":%d,"state":%S,"restarts":%d|}
               s.sh_index s.sh_pid (state_name s.sh_state) s.sh_restarts
           in
           match
             if s.sh_state = Up then http_get ~addr:s.sh_admin "/metrics.json"
             else Error "not up"
           with
           | Ok (200, body) ->
               Printf.sprintf {|{%s,"up":true,"metrics":%s}|} prefix
                 (String.trim body)
           | Ok _ | Error _ ->
               Printf.sprintf {|{%s,"up":false}|} prefix)
  in
  Printf.sprintf {|{"shards":[%s]}|} (String.concat "," shard_objs)

let health t =
  let down =
    Array.to_list t.t_shards
    |> List.filter_map (fun s ->
           let id = string_of_int s.sh_index in
           if s.sh_state <> Up then Some id
           else
             match http_get ~addr:s.sh_admin "/healthz" with
             | Ok (200, _) -> None
             | Ok _ | Error _ -> Some id)
  in
  match down with
  | [] -> (200, "ok\n")
  | down ->
      (503, Printf.sprintf "shards down: %s\n" (String.concat ", " down))

let aggregator_handler t (rq : Serve.request) : Serve.response option =
  let respond status content_type body =
    Some
      { Serve.rs_status = status; rs_content_type = content_type;
        rs_body = body }
  in
  match (rq.Serve.rq_meth, rq.Serve.rq_path) with
  | "GET", "/metrics" ->
      respond 200 "text/plain; version=0.0.4; charset=utf-8"
        (aggregate_metrics t)
  | "GET", "/metrics.json" ->
      respond 200 "application/json" (aggregate_metrics_json t ^ "\n")
  | "GET", "/healthz" ->
      let status, body = health t in
      respond status "text/plain" body
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Crash postmortems and the circuit breaker                           *)
(* ------------------------------------------------------------------ *)

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* One JSONL file per crash in the run directory: the crash record and
   the shard's last good /metrics.json scrape (its state died with it —
   this snapshot is all that survives). The run directory is
   deliberately left behind when postmortems exist, so the evidence
   outlives the run. *)
let postmortem t s ~pid ~status =
  let path =
    Filename.concat t.t_dir
      (Printf.sprintf "postmortem-shard-%d-pid-%d.jsonl" s.sh_index pid)
  in
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc
          {|{"type":"shard_crash","shard":%d,"pid":%d,"restarts":%d,"status":%S,"uptime_s":%.3f}|}
          s.sh_index pid s.sh_restarts (describe_status status)
          (Unix.gettimeofday () -. s.sh_spawned);
        output_char oc '\n';
        match s.sh_last_metrics with
        | Some m ->
            Printf.fprintf oc {|{"type":"last_metrics","shard":%d,"metrics":%s}|}
              s.sh_index (String.trim m);
            output_char oc '\n'
        | None -> ());
    Some path
  with Sys_error _ -> None

(* When every shard is down the kernel would let connections queue in
   the listen backlog until they time out — the worst failure mode, an
   untyped hang. The breaker takes over the work address and answers
   everything with a typed [overloaded] immediately, so clients fail
   fast and can back off. *)
let breaker_handler (_ : Serve.request) : Serve.response option =
  Some
    {
      Serve.rs_status = 429;
      rs_content_type = "application/json";
      rs_body = Protocol.encode_error Engine.Overloaded ^ "\n";
    }

let run ?(restart_budget = 8) ~shards:n ~addr ~admin_addr
    ~(child_argv : shard:int -> admin_addr:string -> string array) () =
  if n < 1 then invalid_arg "Shards.run: shards must be >= 1";
  Tytra_telemetry.Control.set_enabled true;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tybec-shards-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* socket mode: kernel balancing when we can, inherited fd when we
     must (unix sockets, ephemeral ports, old kernels) *)
  let inherited, bound_addr =
    if is_unix_addr addr || is_port_zero addr || not (reuseport_supported ())
    then
      let fd, bound = bind_listener addr in
      (Some fd, bound)
    else (None, addr)
  in
  let base_env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun s ->
           not
             (String.starts_with ~prefix:(env_fd ^ "=") s
             || String.starts_with ~prefix:(env_reuseport ^ "=") s))
  in
  let child_env =
    (match inherited with
    | Some fd -> Printf.sprintf "%s=%d" env_fd (int_of_fd fd)
    | None -> env_reuseport ^ "=1")
    :: base_env
    |> Array.of_list
  in
  let spawn i admin =
    let argv = child_argv ~shard:i ~admin_addr:admin in
    Unix.create_process_env argv.(0) argv child_env Unix.stdin Unix.stdout
      Unix.stderr
  in
  let now0 = Unix.gettimeofday () in
  let t =
    {
      t_dir = dir;
      t_shards =
        Array.init n (fun i ->
            let admin =
              "unix:" ^ Filename.concat dir (Printf.sprintf "shard-%d.sock" i)
            in
            {
              sh_index = i;
              sh_admin = admin;
              sh_pid = spawn i admin;
              sh_state = Up;
              sh_spawned = now0;
              sh_fails = 0;
              sh_restarts = 0;
              sh_backoff_until = 0.0;
              sh_last_metrics = None;
            });
    }
  in
  let stopping = Atomic.make false in
  let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stopping true) in
  Sys.set_signal Sys.sigterm on_stop;
  Sys.set_signal Sys.sigint on_stop;
  let agg = Serve.start ~handler:(aggregator_handler t) ~addr:admin_addr () in
  Printf.eprintf
    "tybec: %d shard(s) on %s (%s), supervisor pid %d, admin %s\n%!" n
    bound_addr
    (if inherited = None then "SO_REUSEPORT" else "inherited fd")
    (Unix.getpid ()) (Serve.bound_addr agg);
  (* --- circuit breaker ------------------------------------------- *)
  let breaker : Serve.server option ref = ref None in
  let trip_breaker () =
    if !breaker = None && not (Atomic.get stopping) then begin
      Metrics.incr "shards.breaker_trips";
      Printf.eprintf
        "tybec: all shards down, circuit breaker shedding load on %s\n%!"
        bound_addr;
      breaker :=
        (try
           Some
             (match inherited with
             | Some fd ->
                 (* dup: Serve.stop closes its fd, and the original must
                    survive for the shards still inheriting it *)
                 Serve.start ~handler:breaker_handler
                   ~error_responder:Daemon.wire_error ~workers:2
                   ~queue_cap:16 ~listen_fd:(Unix.dup fd) ~addr:bound_addr ()
             | None ->
                 Serve.start ~handler:breaker_handler
                   ~error_responder:Daemon.wire_error ~workers:2
                   ~queue_cap:16 ~reuseport:true ~addr:bound_addr ())
         with Failure _ | Unix.Unix_error _ -> None)
    end
  in
  let reset_breaker reason =
    match !breaker with
    | None -> ()
    | Some sv ->
        Printf.eprintf "tybec: circuit breaker reset (%s)\n%!" reason;
        breaker := None;
        Serve.stop sv
  in
  (* --- supervision ------------------------------------------------ *)
  let handle_crash s ~pid ~status =
    s.sh_restarts <- s.sh_restarts + 1;
    Metrics.incr "shards.crashes";
    Tytra_telemetry.Events.emit
      (Tytra_telemetry.Events.Shard_crash
         { shard = s.sh_index; pid; restarts = s.sh_restarts });
    let dumped = postmortem t s ~pid ~status in
    if s.sh_restarts > restart_budget then begin
      s.sh_state <- Dead;
      Printf.eprintf
        "tybec: shard %d (pid %d) died (%s); restart budget (%d) exhausted, \
         shard marked dead%s\n%!"
        s.sh_index pid (describe_status status) restart_budget
        (match dumped with
        | Some p -> ", postmortem " ^ p
        | None -> "")
    end
    else begin
      let delay = backoff_delay s.sh_restarts in
      s.sh_state <- Backoff;
      s.sh_backoff_until <- Unix.gettimeofday () +. delay;
      Printf.eprintf
        "tybec: shard %d (pid %d) died (%s), restart %d/%d in %.1fs%s\n%!"
        s.sh_index pid (describe_status status) s.sh_restarts restart_budget
        delay
        (match dumped with
        | Some p -> ", postmortem " ^ p
        | None -> "")
    end
  in
  let last_probe = ref 0.0 in
  while not (Atomic.get stopping) do
    (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* 1. reap crashed shards *)
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | 0, _ -> ()
      | pid, status ->
          if not (Atomic.get stopping) then
            Array.iter
              (fun s ->
                if s.sh_pid = pid && s.sh_state = Up then
                  handle_crash s ~pid ~status)
              t.t_shards;
          reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ();
    (* 2. respawn shards whose backoff has elapsed *)
    let now = Unix.gettimeofday () in
    if not (Atomic.get stopping) then
      Array.iter
        (fun s ->
          if s.sh_state = Backoff && now >= s.sh_backoff_until then begin
            Metrics.incr "shards.restarts";
            Printf.eprintf "tybec: shard %d restarting (attempt %d)\n%!"
              s.sh_index s.sh_restarts;
            s.sh_pid <- spawn s.sh_index s.sh_admin;
            s.sh_state <- Up;
            s.sh_spawned <- now;
            s.sh_fails <- 0
          end)
        t.t_shards;
    (* 3. health probes: catch shards that are alive but hung *)
    if now -. !last_probe >= probe_interval_s then begin
      last_probe := now;
      Array.iter
        (fun s ->
          if s.sh_state = Up && now -. s.sh_spawned >= probe_grace_s then
            match http_get ~timeout_s:1.0 ~addr:s.sh_admin "/healthz" with
            | Ok (200, _) ->
                s.sh_fails <- 0;
                if
                  s.sh_restarts > 0 && now -. s.sh_spawned >= stability_s
                then
                  s.sh_restarts <- 0;
                (match http_get ~timeout_s:1.0 ~addr:s.sh_admin
                         "/metrics.json"
                 with
                | Ok (200, body) -> s.sh_last_metrics <- Some body
                | Ok _ | Error _ -> ());
                reset_breaker
                  (Printf.sprintf "shard %d healthy" s.sh_index)
            | Ok _ | Error _ ->
                s.sh_fails <- s.sh_fails + 1;
                if s.sh_fails >= probe_strikes then begin
                  Printf.eprintf
                    "tybec: shard %d (pid %d) hung (%d failed probes), \
                     killing\n%!"
                    s.sh_index s.sh_pid s.sh_fails;
                  Metrics.incr "shards.hung_kills";
                  try Unix.kill s.sh_pid Sys.sigkill
                  with Unix.Unix_error _ -> ()
                end)
        t.t_shards
    end;
    (* 4. trip the breaker when nothing is left to serve *)
    if Array.for_all (fun s -> s.sh_state <> Up) t.t_shards then
      trip_breaker ()
  done;
  (* graceful drain: forward the signal, wait for every shard to finish
     answering its in-flight requests, then take the front down *)
  prerr_endline "tybec: shards: draining";
  reset_breaker "shutdown";
  Array.iter
    (fun s ->
      if s.sh_state = Up then
        try Unix.kill s.sh_pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.t_shards;
  Array.iter
    (fun s ->
      let rec wait () =
        match Unix.waitpid [] s.sh_pid with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      if s.sh_state = Up then wait ())
    t.t_shards;
  Serve.stop agg;
  (match inherited with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  if is_unix_addr addr then begin
    try Unix.unlink (String.sub addr 5 (String.length addr - 5))
    with Unix.Unix_error _ -> ()
  end;
  Array.iter
    (fun s ->
      try Unix.unlink (String.sub s.sh_admin 5 (String.length s.sh_admin - 5))
      with Unix.Unix_error _ -> ())
    t.t_shards;
  (try Unix.rmdir t.t_dir with Unix.Unix_error _ -> ());
  Printf.eprintf "tybec: shards stopped (%d supervisor restarts)\n%!"
    (match Metrics.counter_value "shards.restarts" with
    | Some v -> int_of_float v
    | None -> 0)
