(* The execution layer's failure model: cooperative deadlines (serve's
   request deadlines, down to a sweep's points), the crash_at fault
   injection the chaos harness relies on — in-process and through a
   real [tybec explore] — and the sweep's accounting. *)

open Tytra_exec
open Tytra_dse

(* ---- Task: deadlines ---- *)

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

(* A sweep checks the request deadline after every point: a spent
   budget stops a cold explore with a typed timeout, as it stops a
   cost. *)
let test_explore_deadline () =
  let module Engine = Tytra_engine.Engine in
  let eng = Engine.create Engine.default_config in
  let explore =
    Engine.Explore
      { Engine.x_kernel = Engine.Sor; x_size = 16; x_max_lanes = 64;
        x_device = Tytra_device.Device.stratixv_gsd8;
        x_form = Tytra_cost.Throughput.FormB; x_nki = 100; x_jobs = 1;
        x_prune = false; x_retries = 0; x_deadline_s = None;
        x_best_effort = false; x_checkpoint = None; x_checkpoint_every = 32;
        x_resume = None; x_place_mode = None }
  in
  (match Engine.submit ~deadline_s:0.0 eng explore with
  | Error (Engine.Timeout_error d) ->
      Alcotest.(check (float 0.0)) "allotted" 0.0 d
  | Ok _ -> Alcotest.fail "a spent deadline answered Ok"
  | Error e -> Alcotest.failf "expected timeout, got %s" (Engine.error_kind e));
  (* the timeout is not cached: the same request without a deadline
     runs the sweep *)
  match Engine.submit eng explore with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "no deadline: %s" (Engine.error_message e)

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
  (* a sweep draws one id per point it evaluates, only while a crash is
     installed *)
  let sweep () =
    List.map
      (Format.asprintf "%a" Dse.pp_point)
      (Dse.explore
         ~config:{ Dse.default_config with max_lanes = 8; prune = false }
         (Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ()))
  in
  Faultgen.reset_counter ();
  let clean = Faultgen.with_spec None sweep in
  Alcotest.(check int) "no ids drawn without a crash" 0 (Faultgen.next_id ());
  Faultgen.reset_counter ();
  Alcotest.(check (list string))
    "sweep unaffected by a crash id it never reaches" clean
    (Faultgen.with_spec (Some 1_000) sweep);
  Alcotest.(check int) "one id per point" (List.length clean)
    (Faultgen.next_id ());
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
let explore ~tybec ?spec () =
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
         "--max-lanes"; "8"; "--no-prune" |]
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

(* Task 1 is the sweep's Pipe point: a sweep draws one id per point,
   just before evaluating it, in its evaluation order. *)
let test_crash_at_fires () =
  match tybec_exe () with
  | None -> Alcotest.skip ()
  | Some tybec ->
      (match explore ~tybec ~spec:"crash_at=1" () with
      | Unix.WSIGNALED s, _ when s = Sys.sigkill -> ()
      | st, _ ->
          Alcotest.failf "crash_at=1: expected SIGKILL, got %s" (describe st));
      let clean_st, clean = explore ~tybec () in
      let beyond_st, beyond = explore ~tybec ~spec:"crash_at=1000" () in
      Alcotest.(check string) "clean run exits 0" "exit 0" (describe clean_st);
      Alcotest.(check string)
        "crash_at beyond the space exits 0" "exit 0" (describe beyond_st);
      Alcotest.(check bool) "clean run selects a variant" true
        (List.exists
           (String.starts_with ~prefix:"selected: ")
           (String.split_on_char '\n' clean));
      Alcotest.(check string) "stdout unchanged by an unreached crash" clean
        beyond

(* ---- DSE accounting ---- *)

(* A point that raises aborts the sweep with its own exception. An
   empty bandwidth calibration makes costing raise on the first point. *)
let test_sweep_fail_fast_raises () =
  let empty =
    Tytra_device.Bandwidth.make ~device:"empty" ~cont:[] ~strided:[]
      ~random:[]
  in
  match
    Dse.explore
      ~config:{ Dse.default_config with max_lanes = 8; calib = Some empty }
      (Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ())
  with
  | _ -> Alcotest.fail "expected the point's failure"
  | exception Invalid_argument m ->
      Alcotest.(check string) "the point's own exception"
        "Bandwidth.interp: empty calibration" m

let test_sweep_stats_accounting () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let sw =
    Dse.explore_sweep
      ~config:{ Dse.default_config with max_lanes = 8 }
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
    Alcotest.test_case "explore honours its deadline" `Quick
      test_explore_deadline;
    Alcotest.test_case "faultgen spec parse" `Quick test_faultgen_parse;
    Alcotest.test_case "faultgen disabled + counter" `Quick
      test_faultgen_disabled_and_counter;
    Alcotest.test_case "crash_at SIGKILLs the Pipe point" `Quick
      test_crash_at_fires;
    Alcotest.test_case "sweep fail-fast raises" `Quick
      test_sweep_fail_fast_raises;
    Alcotest.test_case "sweep stats accounting" `Quick
      test_sweep_stats_accounting;
  ]
