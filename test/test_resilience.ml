(* The execution layer's failure model: cooperative deadlines and
   cancellation (serve's request deadlines and Pool.map's abort), the
   crash_at fault injection the chaos harness relies on — in-process and
   through a real [tybec explore] — and the sweep's accounting. *)

open Tytra_exec
open Tytra_dse

(* ---- Task: deadlines and cancellation ---- *)

let test_task_deadline () =
  (* no context: check is a no-op *)
  Task.check ();
  (match
     Task.with_context ~deadline_s:0.0 (fun () ->
         Unix.sleepf 0.001;
         Task.check ())
   with
  | () -> Alcotest.fail "expected Timeout"
  | exception Task.Timeout d -> Alcotest.(check (float 0.0)) "allotted" 0.0 d);
  (* context restored on exit: no deadline outside *)
  Task.check ()

let test_task_abort () =
  let abort = Atomic.make false in
  Task.with_context ~abort (fun () ->
      Task.check ();
      Atomic.set abort true;
      match Task.check () with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Task.Cancelled -> ())

(* ---- Faultgen ---- *)

let test_faultgen_parse () =
  (match Faultgen.parse "crash_at=12" with
  | Ok n -> Alcotest.(check int) "crash_at" 12 n
  | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match Faultgen.parse bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [ ""; "nonsense"; "crash_at=x"; "unknown_key=1"; "fail=0.1";
      "timeout_at=3,crash_at=1" ]

let test_faultgen_disabled_and_counter () =
  Faultgen.with_spec None (fun () ->
      List.iter (fun id -> Faultgen.inject ~id) (List.init 10 Fun.id));
  (* the pool draws one id per item, at submission, only while a crash
     is installed *)
  let pool = Pool.create ~jobs:2 () in
  Faultgen.reset_counter ();
  ignore (Faultgen.with_spec None (fun () -> Pool.map pool succ [ 1; 2; 3 ]));
  Alcotest.(check int) "no ids drawn without a crash" 0 (Faultgen.next_id ());
  Faultgen.reset_counter ();
  Alcotest.(check (list int))
    "map unaffected by a crash id it never reaches" [ 2; 3; 4 ]
    (Faultgen.with_spec (Some 1_000) (fun () ->
         Pool.map pool succ [ 1; 2; 3 ]));
  Alcotest.(check int) "one id per item" 3 (Faultgen.next_id ());
  Faultgen.reset_counter ();
  Alcotest.(check int) "ids restart" 0 (Faultgen.next_id ());
  Alcotest.(check int) "and advance" 1 (Faultgen.next_id ());
  Faultgen.reset_counter ()

(* ---- crash_at through a real explore ---- *)

let tybec_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/tybec.exe"; "_build/default/bin/tybec.exe" ]

(* Run [tybec explore] on a small exhaustive SOR space with
   TYTRA_FAULT_SPEC set to [spec] (unset without one); returns the exit
   status and stdout. *)
let explore ~tybec ?spec ~jobs () =
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"TYTRA_FAULT_SPEC=" kv))
  in
  let env =
    match spec with None -> env | Some s -> ("TYTRA_FAULT_SPEC=" ^ s) :: env
  in
  let out = Filename.temp_file "tytra_crash_at" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env tybec
      [| tybec; "explore"; "--kernel"; "sor"; "--size"; "16";
         "--max-lanes"; "8"; "--no-prune"; "--jobs"; string_of_int jobs |]
      (Array.of_list env) Unix.stdin fd null
  in
  Unix.close fd;
  Unix.close null;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  (status, In_channel.with_open_bin out In_channel.input_all)

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by %d" n

(* Task 1 is the sweep's Pipe point at every pool width: ids are drawn
   at submission in input order, not by whichever domain runs it. *)
let test_crash_at_fires () =
  match tybec_exe () with
  | None -> Alcotest.skip ()
  | Some tybec ->
      List.iter
        (fun jobs ->
          (match explore ~tybec ~spec:"crash_at=1" ~jobs () with
          | Unix.WSIGNALED s, _ when s = Sys.sigkill -> ()
          | st, _ ->
              Alcotest.failf "jobs %d, crash_at=1: expected SIGKILL, got %s"
                jobs (describe st));
          let clean_st, clean = explore ~tybec ~jobs () in
          let beyond_st, beyond =
            explore ~tybec ~spec:"crash_at=1000" ~jobs ()
          in
          Alcotest.(check string) "clean run exits 0" "exit 0"
            (describe clean_st);
          Alcotest.(check string)
            "crash_at beyond the space exits 0" "exit 0" (describe beyond_st);
          Alcotest.(check bool) "clean run selects a variant" true
            (List.exists
               (String.starts_with ~prefix:"selected: ")
               (String.split_on_char '\n' clean));
          Alcotest.(check string)
            (Printf.sprintf "jobs %d: stdout unchanged by an unreached crash"
               jobs)
            clean beyond)
        [ 1; 2 ]

(* ---- DSE accounting ---- *)

let test_jobs =
  match Sys.getenv_opt "TYTRA_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* Every sweep wave is one Pool.map, so a point that raises aborts the
   sweep with its own exception, at any pool width. An empty bandwidth
   calibration makes costing raise on the first point. *)
let test_sweep_fail_fast_raises () =
  let empty =
    Tytra_device.Bandwidth.make ~device:"empty" ~cont:[] ~strided:[]
      ~random:[]
  in
  List.iter
    (fun jobs ->
      match
        Dse.explore
          ~config:
            { Dse.default_config with
              max_lanes = 8; jobs; calib = Some empty }
          (Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ())
      with
      | _ -> Alcotest.failf "jobs %d: expected the point's failure" jobs
      | exception Invalid_argument m ->
          Alcotest.(check string)
            (Printf.sprintf "jobs %d: the point's own exception" jobs)
            "Bandwidth.interp: empty calibration" m)
    [ 1; test_jobs ]

let test_sweep_stats_accounting () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let sw =
    Dse.explore_sweep
      ~config:{ Dse.default_config with max_lanes = 8; jobs = test_jobs }
      p
  in
  let s = sw.Dse.sw_stats in
  Alcotest.(check int) "space fully accounted" s.Dse.ss_space
    (s.Dse.ss_evaluated + s.Dse.ss_pruned_resource + s.Dse.ss_pruned_incumbent);
  Alcotest.(check int) "one point per evaluation" s.Dse.ss_evaluated
    (List.length sw.Dse.sw_points);
  Alcotest.(check int) "one bound per prune"
    (s.Dse.ss_pruned_resource + s.Dse.ss_pruned_incumbent)
    (List.length sw.Dse.sw_bounded);
  Alcotest.(check string) "stats line"
    (Printf.sprintf
       "%d variants: %d evaluated, %d pruned (%d overflow, %d dominated)"
       s.Dse.ss_space s.Dse.ss_evaluated
       (s.Dse.ss_pruned_resource + s.Dse.ss_pruned_incumbent)
       s.Dse.ss_pruned_resource s.Dse.ss_pruned_incumbent)
    (Format.asprintf "%a" Dse.pp_sweep_stats s)

let suite =
  [
    Alcotest.test_case "task deadline" `Quick test_task_deadline;
    Alcotest.test_case "task abort" `Quick test_task_abort;
    Alcotest.test_case "faultgen spec parse" `Quick test_faultgen_parse;
    Alcotest.test_case "faultgen disabled + counter" `Quick
      test_faultgen_disabled_and_counter;
    Alcotest.test_case "crash_at SIGKILLs at jobs 1 and 2" `Quick
      test_crash_at_fires;
    Alcotest.test_case "sweep fail-fast raises" `Quick
      test_sweep_fail_fast_raises;
    Alcotest.test_case "sweep stats accounting" `Quick
      test_sweep_stats_accounting;
  ]
