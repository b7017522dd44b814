(* Self-healing serve, end to end (DESIGN.md §16): a 2-shard daemon
   whose shards SIGKILL themselves at a fixed design point
   (TYTRA_FAULT_SPEC=crash_at=N) loses the shard that takes an explore
   in the middle of its sweep; the test SIGKILLs the other shard too.
   It asserts the E10 contract: the interrupted request ends cleanly
   (EOF or reset, never a hang) with no byte of a reply, the supervisor
   restarts both shards, and the restarted shard answers the pre-crash
   request from its replayed response-cache journal — a HIT with zero
   misses, byte-identical to the uninterrupted run. *)

module Engine = Tytra_engine.Engine
module Protocol = Tytra_engine.Protocol
module Jsenc = Tytra_telemetry.Jsenc

let find_existing candidates = List.find_opt Sys.file_exists candidates

let tybec_exe () =
  find_existing [ "../bin/tybec.exe"; "_build/default/bin/tybec.exe" ]

let dev = Tytra_device.Device.stratixv_gsd8

let explore_req ~size ~max_lanes =
  Engine.Explore
    {
      Engine.x_kernel = Engine.Sor;
      x_size = size;
      x_max_lanes = max_lanes;
      x_device = dev;
      x_form = Tytra_cost.Throughput.FormB;
      x_nki = 1;
      x_jobs = 1;
      x_prune = false;
      x_retries = 0;
      x_deadline_s = None;
      x_best_effort = false;
      x_checkpoint = None;
      x_checkpoint_every = 32;
      x_resume = None;
      x_place_mode = None;
    }

(* ------------------------------------------------------------------ *)
(* Deadline-bounded socket plumbing: nothing in this test may block    *)
(* forever — a hang is precisely the bug class it exists to catch.     *)
(* ------------------------------------------------------------------ *)

let sockaddr_of_port port =
  Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let connect_within ~timeout_s port =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr_of_port port) with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if Unix.gettimeofday () >= deadline then None
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

(* Read until EOF, failing the test if the peer stalls longer than
   [timeout_s] between bytes. *)
let read_all_within ~timeout_s ~what fd =
  let buf = Bytes.create 8192 in
  let b = Buffer.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] timeout_s with
    | [], _, _ -> Alcotest.failf "%s: peer stalled > %.0fs" what timeout_s
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b buf 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            Buffer.contents b)
  in
  go ()

let body_of raw =
  let rec find i =
    if i + 3 >= String.length raw then String.length raw
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then i + 4
    else find (i + 1)
  in
  let s = find 0 in
  String.sub raw s (String.length raw - s)

let http ~timeout_s ~what port meth path body =
  match connect_within ~timeout_s port with
  | None -> Alcotest.failf "%s: connect to port %d timed out" what port
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let req =
            Printf.sprintf "%s %s HTTP/1.0\r\ncontent-length: %d\r\n\r\n%s"
              meth path (String.length body) body
          in
          ignore (Unix.write_substring fd req 0 (String.length req));
          read_all_within ~timeout_s ~what fd)

(* ------------------------------------------------------------------ *)
(* Admin-plane scraping                                                *)
(* ------------------------------------------------------------------ *)

type shard_view = {
  v_pid : int;
  v_state : string;
  v_up : bool;
  v_counters : (string * float) list;
}

let scrape_shards admin_port =
  let raw =
    http ~timeout_s:5.0 ~what:"admin scrape" admin_port "GET" "/metrics.json"
      ""
  in
  match Jsenc.parse (body_of raw) with
  | Error m -> Alcotest.failf "metrics.json unparseable: %s" m
  | Ok j -> (
      match Jsenc.member "shards" j with
      | Some (Jsenc.List shards) ->
          List.filter_map
            (fun s ->
              match
                (Jsenc.num_member "pid" s, Jsenc.str_member "state" s)
              with
              | Some pid, Some state ->
                  let counters =
                    match Jsenc.member "metrics" s with
                    | Some m -> (
                        match Jsenc.member "counters" m with
                        | Some (Jsenc.Obj kvs) ->
                            List.filter_map
                              (fun (k, v) ->
                                match v with
                                | Jsenc.Num f -> Some (k, f)
                                | _ -> None)
                              kvs
                        | _ -> [])
                    | None -> []
                  in
                  Some
                    {
                      v_pid = int_of_float pid;
                      v_state = state;
                      v_up =
                        Option.value ~default:false (Jsenc.bool_member "up" s);
                      v_counters = counters;
                    }
              | _ -> None)
            shards
      | _ -> Alcotest.fail "metrics.json has no shards array")

let counter_of v name =
  Option.value ~default:0.0 (List.assoc_opt name v.v_counters)

let wait_shards ~timeout_s ~what admin_port pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let shards = scrape_shards admin_port in
    if pred shards then shards
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "%s: condition not reached in %.0fs" what timeout_s
    else begin
      Unix.sleepf 0.25;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The test                                                            *)
(* ------------------------------------------------------------------ *)

let test_sigkill_mid_explore () =
  match tybec_exe () with
  | None -> Alcotest.skip ()
  | Some tybec ->
      let port = 21000 + (Unix.getpid () mod 800) in
      let admin_port = port + 1000 in
      let addr = Printf.sprintf "127.0.0.1:%d" port in
      let admin_addr = Printf.sprintf "127.0.0.1:%d" admin_port in
      let journal =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "tytra-selfheal-%d.journal" (Unix.getpid ()))
      in
      let log =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "tytra-selfheal-%d.log" (Unix.getpid ()))
      in
      let cleanup_files () =
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ journal ^ ".shard-0"; journal ^ ".shard-1"; log ]
      in
      cleanup_files ();
      let log_fd =
        Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
      in
      (* A sweep draws one task id per point, 0-based and counted per
         process. The warm explore (SOR 8^3, 4 lanes) evaluates 4
         points and the interrupted one (SOR 20^3, 16 lanes) 8, so a
         crash at id 5 spares the warm explore and kills whichever
         shard takes the interrupted one, whether it served the warm
         explore first (ids 4-11) or not (ids 0-7). A restarted shard
         that answers the warm explore as a miss (ids 0-3) survives. *)
      let env =
        Array.of_list
          ("TYTRA_FAULT_SPEC=crash_at=5"
          :: List.filter
               (fun kv -> not (String.starts_with ~prefix:"TYTRA_FAULT_SPEC=" kv))
               (Array.to_list (Unix.environment ())))
      in
      let supervisor =
        Unix.create_process_env tybec
          [|
            tybec; "serve"; "--addr"; addr; "--admin-addr"; admin_addr;
            "--shards"; "2"; "--workers"; "2";
            "--cache-journal"; journal;
          |]
          env Unix.stdin Unix.stdout log_fd
      in
      Unix.close log_fd;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill supervisor Sys.sigterm
           with Unix.Unix_error _ -> ());
          let rec reap tries =
            match Unix.waitpid [ Unix.WNOHANG ] supervisor with
            | 0, _ when tries > 0 ->
                Unix.sleepf 0.25;
                reap (tries - 1)
            | 0, _ ->
                (try Unix.kill supervisor Sys.sigkill
                 with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] supervisor)
            | _ -> ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          in
          reap 40;
          cleanup_files ())
        (fun () ->
          (* both shards up before we do anything *)
          ignore
            (wait_shards ~timeout_s:20.0 ~what:"startup" admin_port
               (fun shards ->
                 List.length shards = 2
                 && List.for_all (fun v -> v.v_state = "up" && v.v_up) shards));
          (* the uninterrupted reference run: a cacheable explore,
             journaled by whichever shard serves it *)
          let warm_body =
            Protocol.encode_request (explore_req ~size:8 ~max_lanes:4)
          in
          let reference =
            let raw =
              http ~timeout_s:60.0 ~what:"warm explore" port "POST"
                "/v1/submit" warm_body
            in
            match Protocol.decode_reply (body_of raw) with
            | Ok (Protocol.Reply_ok { rp_text; _ }) -> rp_text
            | Ok (Protocol.Reply_error { re_kind; _ }) ->
                Alcotest.failf "warm explore refused: %s" re_kind
            | Error m -> Alcotest.failf "warm reply undecodable: %s" m
          in
          let victims =
            List.filter (fun v -> v.v_up) (scrape_shards admin_port)
          in
          Alcotest.(check int) "two shards to kill" 2 (List.length victims);
          (* the shard that takes this explore dies in its sweep, at
             task id 5: the request must END — EOF or reset, never a
             hang — with no byte of a reply, which the shard never got
             to write *)
          let interrupted =
            http ~timeout_s:15.0 ~what:"interrupted explore" port "POST"
              "/v1/submit"
              (Protocol.encode_request (explore_req ~size:20 ~max_lanes:16))
          in
          Alcotest.(check string) "the shard died inside the request" ""
            interrupted;
          (* and the other shard goes too *)
          List.iter
            (fun v ->
              try Unix.kill v.v_pid Sys.sigkill with Unix.Unix_error _ -> ())
            victims;
          (* supervisor restarts both shards; the journaled shard
             replays its cache on the way up. Fresh pids distinguish a
             real restart from a stale scrape of the corpses. *)
          let victim_pids = List.map (fun v -> v.v_pid) victims in
          ignore
            (wait_shards ~timeout_s:40.0 ~what:"recovery" admin_port
               (fun shards ->
                 List.length shards = 2
                 && List.for_all
                      (fun v ->
                        v.v_state = "up" && v.v_up
                        && not (List.mem v.v_pid victim_pids))
                      shards
                 && List.exists
                      (fun v -> counter_of v "engine.journal.replayed" >= 1.0)
                 shards));
          (* resubmit the pre-crash request until it lands on the
             replayed shard: served as a HIT with zero misses (only a
             journal replay can produce a hit on a fresh process), and
             byte-identical to the uninterrupted run *)
          let deadline = Unix.gettimeofday () +. 30.0 in
          let rec warm_hit () =
            let raw =
              http ~timeout_s:60.0 ~what:"post-restart explore" port "POST"
                "/v1/submit" warm_body
            in
            let answered =
              match Protocol.decode_reply (body_of raw) with
              | Ok (Protocol.Reply_ok { rp_text; _ }) ->
                  Alcotest.(check string)
                    "post-restart answer byte-identical to uninterrupted run"
                    reference rp_text;
                  true
              | Ok (Protocol.Reply_error { re_kind = "overloaded"; _ }) ->
                  (* the breaker is still draining the recovery window:
                     typed shedding, retry *)
                  false
              | Ok (Protocol.Reply_error { re_kind; _ }) ->
                  Alcotest.failf "post-restart explore refused: %s" re_kind
              | Error m ->
                  Alcotest.failf "post-restart reply undecodable: %s" m
            in
            let served_from_journal =
              answered
              &&
              List.exists
                (fun v ->
                  v.v_up
                  && counter_of v "engine.journal.replayed" >= 1.0
                  && counter_of v "engine.response_cache.hits" >= 1.0
                  && counter_of v "engine.response_cache.misses" = 0.0)
                (scrape_shards admin_port)
            in
            if served_from_journal then ()
            else if Unix.gettimeofday () >= deadline then
              Alcotest.fail
                "no restarted shard served the warm request from its journal"
            else begin
              Unix.sleepf 0.5;
              warm_hit ()
            end
          in
          warm_hit ())

let suite =
  [
    Alcotest.test_case "SIGKILL mid-explore: typed stream end + journaled warm restart"
      `Slow test_sigkill_mid_explore;
  ]
