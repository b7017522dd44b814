(* Resilience layer: cooperative deadlines, Pool.map_result retry
   semantics (under a virtual clock), the deterministic fault-injection
   harness, checkpoint save/load/corruption, and the DSE degraded-mode /
   resume guarantees — best/pareto of a faulted or resumed sweep must
   equal the clean run's. *)

open Tytra_exec
open Tytra_dse

(* Run [f] under a virtual clock: sleeps advance time instead of
   blocking, so retry/backoff schedules execute instantly and
   deterministically. Returns (result, final virtual time). *)
let with_virtual_time f =
  let t = ref 0.0 in
  let r =
    Task.with_hooks ~clock:(fun () -> !t) ~sleep:(fun d -> t := !t +. d) f
  in
  (r, !t)

(* ---- Task: deadlines and cancellation ---- *)

let test_task_deadline () =
  let (), _ =
    with_virtual_time @@ fun () ->
    (* no context: check is a no-op, sleep just advances the clock *)
    Task.check ();
    Task.sleep 1.0;
    (* armed deadline: a cooperative sleep notices it mid-delay *)
    (match
       Task.with_context ~deadline_s:0.5 (fun () -> Task.sleep 60.0)
     with
    | () -> Alcotest.fail "expected Timeout"
    | exception Task.Timeout d ->
        Alcotest.(check (float 1e-9)) "allotted" 0.5 d);
    (* context restored on exit: no deadline outside *)
    Task.check ()
  in
  ()

let test_task_abort () =
  let abort = Atomic.make false in
  Task.with_context ~abort (fun () ->
      Task.check ();
      Atomic.set abort true;
      match Task.check () with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Task.Cancelled -> ())

(* ---- Pool.map_result ---- *)

let expect_ok = function
  | Ok v -> v
  | Error te -> Alcotest.failf "unexpected task error: %a" Pool.pp_task_error te

let test_map_result_isolates_failures () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      let inputs = List.init 20 Fun.id in
      let rs =
        Pool.map_result pool
          (fun x -> if x mod 5 = 0 then failwith "boom" else x * x)
          inputs
      in
      Alcotest.(check int) "all items reported" 20 (List.length rs);
      List.iteri
        (fun i r ->
          if i mod 5 = 0 then
            match r with
            | Error te ->
                Alcotest.(check int) "one attempt" 1 te.Pool.te_attempts;
                Alcotest.(check bool) "not a timeout" false
                  te.Pool.te_timed_out
            | Ok _ -> Alcotest.failf "item %d should have failed" i
          else Alcotest.(check int) "value in order" (i * i) (expect_ok r))
        rs)
    [ 1; 4 ]

let test_map_result_retry_backoff () =
  let (attempts, rs), elapsed =
    with_virtual_time @@ fun () ->
    let attempts = ref 0 in
    let retry =
      { Pool.max_attempts = 3; base_delay_s = 0.1; max_delay_s = 10.0;
        jitter = 0.0 }
    in
    let rs =
      Pool.map_result (Pool.create ~jobs:1 ()) ~retry
        (fun () ->
          incr attempts;
          if !attempts < 3 then failwith "transient" else 42)
        [ () ]
    in
    (!attempts, rs)
  in
  Alcotest.(check int) "third attempt succeeds" 3 attempts;
  Alcotest.(check int) "ok result" 42 (expect_ok (List.hd rs));
  (* backoff slept 0.1 then 0.2 virtual seconds (jitter 0) *)
  Alcotest.(check (float 1e-6)) "backoff schedule" 0.3 elapsed

let test_map_result_retry_exhausted () =
  let rs, _ =
    with_virtual_time @@ fun () ->
    let retry = { Pool.default_retry with max_attempts = 4; jitter = 0.0 } in
    Pool.map_result (Pool.create ~jobs:1 ()) ~retry
      (fun () -> failwith "always")
      [ () ]
  in
  match rs with
  | [ Error te ] ->
      Alcotest.(check int) "all attempts spent" 4 te.Pool.te_attempts;
      Alcotest.(check bool) "failure kept" true
        (match te.Pool.te_exn with Failure m -> m = "always" | _ -> false)
  | _ -> Alcotest.fail "expected one error"

let test_map_result_deadline () =
  let rs, elapsed =
    with_virtual_time @@ fun () ->
    Pool.map_result (Pool.create ~jobs:1 ()) ~deadline_s:1.0
      (fun x -> if x = 0 then Task.sleep 100.0; x)
      [ 0; 7 ]
  in
  (match rs with
  | [ Error te; ok ] ->
      Alcotest.(check bool) "timed out" true te.Pool.te_timed_out;
      Alcotest.(check int) "other item unaffected" 7 (expect_ok ok)
  | _ -> Alcotest.fail "expected [timeout; ok]");
  Alcotest.(check bool) "stopped at the deadline, not the sleep"
    true (elapsed < 2.0)

(* Deterministic jitter: the same (index, attempt) always sleeps the
   same schedule, so two identical runs take identical virtual time. *)
let test_retry_jitter_deterministic () =
  let run () =
    snd
      (with_virtual_time @@ fun () ->
       let retry = { Pool.default_retry with max_attempts = 3 } in
       ignore
         (Pool.map_result (Pool.create ~jobs:1 ()) ~retry
            (fun () -> failwith "x")
            [ (); () ]))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "some backoff happened" true (a > 0.0);
  Alcotest.(check (float 1e-12)) "identical schedules" a b

(* ---- Faultgen ---- *)

let test_faultgen_parse () =
  (match Faultgen.parse "seed=42,fail=0.1,fail_at=3:5,timeout_at=7,delay_s=2,crash_at=12" with
  | Error m -> Alcotest.fail m
  | Ok sp ->
      Alcotest.(check int) "seed" 42 sp.Faultgen.fs_seed;
      Alcotest.(check (float 0.0)) "fail" 0.1 sp.Faultgen.fs_fail;
      Alcotest.(check (list int)) "fail_at" [ 3; 5 ] sp.Faultgen.fs_fail_at;
      Alcotest.(check (list int)) "timeout_at" [ 7 ] sp.Faultgen.fs_timeout_at;
      Alcotest.(check (float 0.0)) "delay" 2.0 sp.Faultgen.fs_delay_s;
      Alcotest.(check (option int)) "crash" (Some 12) sp.Faultgen.fs_crash_at;
      (* to_string round-trips *)
      match Faultgen.parse (Faultgen.to_string sp) with
      | Ok sp' ->
          Alcotest.(check bool) "round trip" true (sp = sp')
      | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match Faultgen.parse bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [ "nonsense"; "fail=2.0"; "seed=x"; "unknown_key=1" ]

let test_faultgen_deterministic () =
  let spec = { Faultgen.default with fs_seed = 7; fs_fail = 0.3 } in
  let failing_ids () =
    Faultgen.with_spec (Some spec) @@ fun () ->
    List.filter
      (fun id ->
        match Faultgen.inject ~id ~attempt:1 with
        | () -> false
        | exception Faultgen.Injected_failure _ -> true)
      (List.init 100 Fun.id)
  in
  let a = failing_ids () and b = failing_ids () in
  Alcotest.(check (list int)) "same schedule every run" a b;
  let n = List.length a in
  Alcotest.(check bool)
    (Printf.sprintf "roughly 30%% fail (got %d)" n)
    true
    (n > 10 && n < 60);
  (* retries pass once attempt exceeds fail_attempts *)
  Faultgen.with_spec (Some spec) @@ fun () ->
  List.iter (fun id -> Faultgen.inject ~id ~attempt:2) a

let test_faultgen_disabled_and_counter () =
  Faultgen.with_spec None (fun () ->
      List.iter (fun id -> Faultgen.inject ~id ~attempt:1) (List.init 10 Fun.id));
  Faultgen.reset_counter ();
  Alcotest.(check int) "ids restart" 0 (Faultgen.next_id ());
  Alcotest.(check int) "and advance" 1 (Faultgen.next_id ());
  Faultgen.reset_counter ()

(* ---- Checkpoint files ---- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_checkpoint_roundtrip () =
  let path = tmp_path "tytra_test_ckpt.bin" in
  let v = [ (1, "one"); (2, "two") ] in
  Checkpoint.save ~path ~kind:"test" ~meta:"m1" v;
  (match Checkpoint.load ~path ~kind:"test" ~meta:"m1" with
  | Ok v' -> Alcotest.(check bool) "payload intact" true (v = v')
  | Error m -> Alcotest.fail m);
  (* wrong kind / wrong meta are load errors, not crashes *)
  (match Checkpoint.load ~path ~kind:"other" ~meta:"m1" with
  | Ok (_ : (int * string) list) -> Alcotest.fail "kind mismatch accepted"
  | Error _ -> ());
  (match Checkpoint.load ~path ~kind:"test" ~meta:"m2" with
  | Ok (_ : (int * string) list) -> Alcotest.fail "meta mismatch accepted"
  | Error _ -> ());
  Sys.remove path

let test_checkpoint_corruption () =
  let path = tmp_path "tytra_test_ckpt_corrupt.bin" in
  Checkpoint.save ~path ~kind:"test" ~meta:"m" (List.init 100 Fun.id);
  (* flip a byte near the end (inside the marshalled payload) *)
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  let i = Bytes.length b - 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Checkpoint.load ~path ~kind:"test" ~meta:"m" with
  | Ok (_ : int list) -> Alcotest.fail "corrupt payload accepted"
  | Error m ->
      Alcotest.(check bool) "digest diagnosis" true
        (String.length m > 0));
  (* truncation *)
  let oc = open_out_bin path in
  output_string oc (String.sub s 0 (String.length s / 2));
  close_out oc;
  (match Checkpoint.load ~path ~kind:"test" ~meta:"m" with
  | Ok (_ : int list) -> Alcotest.fail "truncated payload accepted"
  | Error _ -> ());
  (* garbage and absence *)
  let oc = open_out_bin path in
  output_string oc "not a checkpoint at all";
  close_out oc;
  (match Checkpoint.load ~path ~kind:"test" ~meta:"m" with
  | Ok (_ : int list) -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  Sys.remove path;
  match Checkpoint.load ~path ~kind:"test" ~meta:"m" with
  | Ok (_ : int list) -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* ---- DSE: degraded mode, checkpoints, resume ---- *)

let prog () = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ()

let test_jobs =
  match Sys.getenv_opt "TYTRA_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let cfg ?(prune = true) () =
  { Dse.default_config with max_lanes = 8; jobs = test_jobs; prune }

let variant_names pts =
  List.map (fun p -> Tytra_front.Transform.to_string p.Dse.dp_variant) pts

let same_selection a b =
  let sel pts =
    ( Option.map (fun p -> Tytra_front.Transform.to_string p.Dse.dp_variant)
        (Dse.best pts),
      variant_names (Dse.pareto pts) )
  in
  sel a = sel b

let test_sweep_best_effort_quarantine () =
  let p = prog () in
  let clean = Dse.explore ~config:{ (cfg ~prune:false ()) with jobs = 1 } p in
  (* fail the Pipe point (enumeration index 1) with no retry budget:
     best-effort must quarantine it and keep the rest *)
  Faultgen.reset_counter ();
  let sw =
    Faultgen.with_spec
      (Some { Faultgen.default with fs_fail_at = [ 1 ] })
      (fun () ->
        Dse.explore_sweep
          ~config:{ (cfg ~prune:false ()) with jobs = 1; fail_fast = false }
          p)
  in
  Alcotest.(check int) "one quarantined" 1 (List.length sw.Dse.sw_errors);
  Alcotest.(check int) "stats agree" 1 sw.Dse.sw_stats.Dse.ss_failed;
  let failed = List.hd sw.Dse.sw_errors in
  Alcotest.(check string) "the pipe point failed" "pipe"
    (Tytra_front.Transform.to_string failed.Dse.se_variant);
  Alcotest.(check (list string))
    "everything else evaluated"
    (List.filter (fun v -> v <> "pipe") (variant_names clean))
    (variant_names sw.Dse.sw_points)

let test_sweep_retries_recover () =
  let p = prog () in
  let clean = Dse.explore ~config:(cfg ()) p in
  (* 30% of first attempts fail; retries succeed (fail_attempts = 1) *)
  Faultgen.reset_counter ();
  let sw =
    Faultgen.with_spec
      (Some { Faultgen.default with fs_seed = 11; fs_fail = 0.3 })
      (fun () ->
        Dse.explore_sweep ~config:{ (cfg ()) with max_attempts = 3 } p)
  in
  Alcotest.(check int) "nothing quarantined" 0
    (List.length sw.Dse.sw_errors);
  Alcotest.(check bool) "selection equals clean run" true
    (same_selection clean sw.Dse.sw_points)

let test_sweep_fail_fast_raises () =
  Faultgen.reset_counter ();
  match
    Faultgen.with_spec
      (Some { Faultgen.default with fs_fail_at = [ 0 ] })
      (fun () -> Dse.explore ~config:{ (cfg ()) with jobs = 1 } (prog ()))
  with
  | _ -> Alcotest.fail "expected the injected failure to propagate"
  | exception Faultgen.Injected_failure 0 -> ()

let test_sweep_checkpoint_and_resume () =
  let p = prog () in
  let path = tmp_path "tytra_test_dse_ckpt.bin" in
  let config = { (cfg ~prune:false ()) with checkpoint = Some path;
                 checkpoint_every = 2 } in
  let clean = Dse.explore_sweep ~config p in
  (* the completed sweep left a complete, loadable checkpoint *)
  let restored =
    match Dse.load_checkpoint ~path config p with
    | Ok pts -> pts
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "checkpoint holds the full sweep"
    (List.length clean.Dse.sw_points)
    (List.length restored);
  (* resuming from a *prefix* (as after a mid-sweep crash) re-evaluates
     only the tail and reaches the same selection *)
  let prefix = List.filteri (fun i _ -> i < 2) clean.Dse.sw_points in
  let resumed = Dse.explore_sweep ~config:(cfg ~prune:false ()) ~restore:prefix p in
  Alcotest.(check int) "prefix restored" 2 resumed.Dse.sw_stats.Dse.ss_restored;
  Alcotest.(check int) "tail evaluated"
    (List.length clean.Dse.sw_points - 2)
    resumed.Dse.sw_stats.Dse.ss_evaluated;
  Alcotest.(check (list string)) "same points, same order"
    (variant_names clean.Dse.sw_points)
    (variant_names resumed.Dse.sw_points);
  Alcotest.(check bool) "same selection" true
    (same_selection clean.Dse.sw_points resumed.Dse.sw_points);
  (* resuming a *pruned* sweep from the prefix also preserves selection *)
  let clean_pruned = Dse.explore_sweep ~config:(cfg ()) p in
  let prefix = List.filteri (fun i _ -> i < 2) clean_pruned.Dse.sw_points in
  let resumed_pruned = Dse.explore_sweep ~config:(cfg ()) ~restore:prefix p in
  Alcotest.(check bool) "pruned resume selection" true
    (same_selection clean_pruned.Dse.sw_points resumed_pruned.Dse.sw_points);
  (* a stale checkpoint (different sweep bounds) is refused *)
  (match Dse.load_checkpoint ~path { config with max_lanes = 4 } p with
  | Ok _ -> Alcotest.fail "stale checkpoint accepted"
  | Error _ -> ());
  Sys.remove path

let contains s substr =
  let n = String.length substr in
  let rec find i =
    i + n <= String.length s && (String.sub s i n = substr || find (i + 1))
  in
  find 0

(* A DSE checkpoint holds marshalled points, so one written for another
   point layout (a previous build's [Report.t]) must be refused by its
   header before the payload is read: the version line says "1". *)
let test_checkpoint_old_version_refused () =
  let p = prog () in
  let path = tmp_path "tytra_test_dse_ckpt_v1.bin" in
  let config = cfg ~prune:false () in
  Dse.save_checkpoint ~path config p (Dse.explore ~config p);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let nl = String.index s '\n' in
  let header = String.sub s 0 nl in
  (match String.split_on_char ' ' header with
  | [ "TYTRA-CKPT"; _; kind ] ->
      let oc = open_out_bin path in
      output_string oc ("TYTRA-CKPT 1 " ^ kind);
      output_string oc (String.sub s nl (String.length s - nl));
      close_out oc
  | _ -> Alcotest.failf "unexpected checkpoint header %S" header);
  (match Dse.load_checkpoint ~path config p with
  | Ok _ -> Alcotest.fail "version-1 checkpoint accepted"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "format-version error (%s)" m)
        true (contains m "format version 1"));
  Sys.remove path

let test_sweep_stats_accounting () =
  let p = prog () in
  let sw = Dse.explore_sweep ~config:(cfg ()) p in
  let s = sw.Dse.sw_stats in
  Alcotest.(check int) "space fully accounted" s.Dse.ss_space
    (s.Dse.ss_evaluated + s.Dse.ss_restored + s.Dse.ss_failed
    + s.Dse.ss_pruned_resource + s.Dse.ss_pruned_incumbent);
  (* the legacy rendering is unchanged for clean sweeps *)
  let txt = Format.asprintf "%a" Dse.pp_sweep_stats s in
  Alcotest.(check bool) "no restored/failed noise" false
    (String.length txt >= 8
    && (String.ends_with ~suffix:"restored" txt
       || String.ends_with ~suffix:"failed" txt))

let suite =
  [
    Alcotest.test_case "task deadline" `Quick test_task_deadline;
    Alcotest.test_case "task abort" `Quick test_task_abort;
    Alcotest.test_case "map_result isolates failures" `Quick
      test_map_result_isolates_failures;
    Alcotest.test_case "map_result retry + backoff" `Quick
      test_map_result_retry_backoff;
    Alcotest.test_case "map_result retry exhausted" `Quick
      test_map_result_retry_exhausted;
    Alcotest.test_case "map_result deadline" `Quick test_map_result_deadline;
    Alcotest.test_case "retry jitter deterministic" `Quick
      test_retry_jitter_deterministic;
    Alcotest.test_case "faultgen spec parse" `Quick test_faultgen_parse;
    Alcotest.test_case "faultgen deterministic" `Quick
      test_faultgen_deterministic;
    Alcotest.test_case "faultgen disabled + counter" `Quick
      test_faultgen_disabled_and_counter;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint corruption" `Quick
      test_checkpoint_corruption;
    Alcotest.test_case "sweep best-effort quarantine" `Quick
      test_sweep_best_effort_quarantine;
    Alcotest.test_case "sweep retries recover" `Quick
      test_sweep_retries_recover;
    Alcotest.test_case "sweep fail-fast raises" `Quick
      test_sweep_fail_fast_raises;
    Alcotest.test_case "sweep checkpoint + resume" `Quick
      test_sweep_checkpoint_and_resume;
    Alcotest.test_case "sweep stats accounting" `Quick
      test_sweep_stats_accounting;
    Alcotest.test_case "checkpoint of an older format refused" `Quick
      test_checkpoint_old_version_refused;
  ]
