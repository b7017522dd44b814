(* The repository benchmark. See README.md next to this file.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
         run one workload; the last stdout line is its JSON result
     main.exe --seed N [--seconds S] [--trace 0|1] [--out FILE]
         run every workload and print a table
     main.exe --golden
         regenerate the golden digests under benchmark/golden/

   Either way each workload runs in a child process of its own process
   group (see [supervise]), which is this program again with --in-group
   before the workload's arguments. Paths are relative to the repository
   root, the working directory. *)

open Tybench

let golden_dir = "benchmark/golden"

let default_tybec () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/tybec.exe"

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--tybec \
     EXE] [--spans FILE]\n\
    \       main.exe --seed N [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       main.exe --golden";
  exit 2

type args = {
  workload : string option;
  seed : int option;
  seconds : float;
  traced : bool;
  tybec : string;
  spans : string option;
  out : string option;
}

let parse_args argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: tl -> go { a with workload = Some w } tl
    | "--seed" :: n :: tl -> go { a with seed = int_of_string_opt n } tl
    | "--seconds" :: s :: tl -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 -> go { a with seconds = s } tl
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: tl -> go { a with traced = t = "1" } tl
    | "--tybec" :: p :: tl -> go { a with tybec = p } tl
    | "--spans" :: p :: tl -> go { a with spans = Some p } tl
    | "--out" :: p :: tl -> go { a with out = Some p } tl
    | _ -> usage ()
  in
  go
    { workload = None; seed = None; seconds = 20.0; traced = false;
      tybec = default_tybec (); spans = None; out = None }
    argv

let json_num = Tytra_telemetry.Jsenc.json_num

(* The result line: exactly the keys correct/attempted/failed/metrics. *)
let result_json (o : Common.outcome) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.Common.failed = 0 && o.Common.attempted > 0)
    o.Common.attempted o.Common.failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Tytra_telemetry.Jsenc.json_string name)
              (json_num v)
              (Tytra_telemetry.Jsenc.json_string (Ledger.unit_of name)))
          o.Common.metrics))

(* Every metric the mode promises, in catalog order; a per-layer metric
   the workload does not exercise reads 0. *)
let complete ~traced metrics =
  let names =
    if traced then List.map (fun (m, _) -> m.Ledger.name) Ledger.per_layer
    else List.map (fun m -> m.Ledger.name) Ledger.end_to_end
  in
  List.map
    (fun n ->
      match List.assoc_opt n metrics with
      | Some v -> (n, if Float.is_nan v then 0.0 else v)
      | None when traced -> (n, 0.0)
      | None -> failwith ("workload did not report " ^ n))
    names

let run_workload a w seed =
  let golden name = Common.load_golden (Filename.concat golden_dir name) in
  Common.log "benchmark: %s seed %d, %.0f s, trace %b, %d cores" w seed a.seconds
    a.traced Common.nproc;
  let o =
    match w with
    | "dse-exhaustive" | "dse-pruned" ->
        Dse_work.run ~workload:w ~seed ~seconds:a.seconds ~traced:a.traced
          ~golden:(golden "dse.txt")
    | "accuracy" ->
        Accuracy_work.run ~seed ~seconds:a.seconds ~traced:a.traced
          ~golden:(golden "accuracy.txt")
    | "serve-mixed" ->
        if not (Sys.file_exists a.tybec) then
          failwith (a.tybec ^ " not found: build it with dune build bin/tybec.exe");
        Serve_work.run ~seed ~seconds:a.seconds ~traced:a.traced ~tybec:a.tybec
    | _ -> failwith ("unknown workload " ^ w)
  in
  let o = { o with Common.metrics = complete ~traced:a.traced o.Common.metrics } in
  if a.traced then begin
    Common.log "%-28s %8s %12s %12s" "span" "count" "total ms" "self ms";
    List.iter
      (fun (n, c, t, s) -> Common.log "%-28s %8d %12.3f %12.3f" n c t s)
      (Trace.summary ());
    Option.iter Trace.write a.spans
  end;
  List.iter
    (fun (n, v) -> Common.log "%-40s %14.6g %s" n v (Ledger.unit_of n))
    o.Common.metrics;
  print_endline (result_json o);
  exit (if o.Common.failed = 0 then 0 else 1)

(* TYTRA_* variables switch batching, placement and the IR fast path;
   workloads run without them, so every entry point measures the
   defaults. *)
let clean_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"TYTRA_" kv))
  |> Array.of_list

let run_timeout_s = 175.0

(* Run one workload ([args] after the program name) in a child process
   with the cleaned environment, in a process group of its own, for at
   most [run_timeout_s]; then kill whatever is left of the group (a
   server of a crashed workload). With [capture] the child's standard
   output is returned, otherwise it is this process's. Returns the exit
   code (124 on timeout) and the captured output. *)
let supervise ?(capture = false) args =
  let pipe = if capture then Some (Unix.pipe ~cloexec:true ()) else None in
  match Unix.fork () with
  | 0 -> (
      ignore (Unix.setsid ());
      Option.iter (fun (_, w) -> Unix.dup2 ~cloexec:false w Unix.stdout) pipe;
      try
        Unix.execve Sys.executable_name
          (Array.of_list ((Sys.executable_name :: "--in-group" :: args)))
          (clean_env ())
      with _ -> Unix._exit 127)
  | pid ->
      let deadline = Common.now () +. run_timeout_s in
      let out = Buffer.create 4096 in
      Option.iter
        (fun (r, w) ->
          Unix.close w;
          let chunk = Bytes.create 4096 in
          let rec drain () =
            let left = deadline -. Common.now () in
            if left > 0.0 then
              match Unix.select [ r ] [] [] left with
              | [], _, _ -> ()
              | _ -> (
                  match Unix.read r chunk 0 (Bytes.length chunk) with
                  | 0 -> ()
                  | k ->
                      Buffer.add_subbytes out chunk 0 k;
                      drain ())
          in
          drain ();
          Unix.close r)
        pipe;
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Common.now () < deadline ->
            Unix.sleepf 0.02;
            wait ()
        | 0, _ ->
            Common.log "benchmark: %s exceeded %.0f s" (String.concat " " args) run_timeout_s;
            (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            124
        | _, Unix.WEXITED c -> c
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 1
      in
      let code = wait () in
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      (code, Buffer.contents out)

let shell_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let l = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if l = "" then "unknown" else l
  | exception Unix.Unix_error _ -> "unknown"

(* Every workload, supervised like a single one; the table goes to
   stdout and, with --out, a JSON file that also records the machine and
   the commit. *)
let run_all a seed =
  let module J = Tytra_telemetry.Jsenc in
  let results =
    List.map
      (fun w ->
        let _, out =
          supervise ~capture:true
            [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" a.seconds; "--trace"; (if a.traced then "1" else "0");
              "--tybec"; a.tybec ]
        in
        let last = List.fold_left (fun _ l -> l) "" (String.split_on_char '\n' (String.trim out)) in
        (w, match J.parse last with Ok j -> Some (last, j) | Error _ -> None))
      Ledger.workloads
  in
  let correct (_, r) =
    match r with Some (_, j) -> J.bool_member "correct" j = Some true | None -> false
  in
  List.iter
    (fun ((w, r) as res) ->
      match r with
      | None -> Printf.printf "%-15s FAILED (no result)\n" w
      | Some (_, j) -> (
          Printf.printf "%-15s correct=%b attempted=%.0f failed=%.0f\n" w (correct res)
            (Option.value ~default:0.0 (J.num_member "attempted" j))
            (Option.value ~default:0.0 (J.num_member "failed" j));
          match J.member "metrics" j with
          | Some (J.Obj ms) ->
              List.iter
                (fun (n, m) ->
                  Printf.printf "  %-40s %14.6g %s\n" n
                    (Option.value ~default:nan (J.num_member "value" m))
                    (Option.value ~default:"" (J.str_member "unit" m)))
                ms
          | _ -> ()))
    results;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc
            "{\"nproc\": %d, \"commit\": %s, \"ocaml\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"results\": {%s}}\n"
            Common.nproc
            (J.json_string (shell_line "git rev-parse HEAD 2>/dev/null"))
            (J.json_string Sys.ocaml_version)
            seed (json_num a.seconds) a.traced
            (String.concat ", "
               (List.map
                  (fun (w, r) ->
                    Printf.sprintf "%s: %s" (J.json_string w)
                      (match r with Some (raw, _) -> raw | None -> "null"))
                  results))))
    a.out;
  exit (if List.for_all correct results then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--ready" ] -> ignore (Tytra_engine.Engine.create Tytra_engine.Engine.default_config)
  | [ "--golden" ] ->
      Common.save_golden (Filename.concat golden_dir "accuracy.txt") (Accuracy_work.golden_rows ());
      Common.save_golden (Filename.concat golden_dir "dse.txt") (Dse_work.golden_rows ())
  | "--in-group" :: argv -> (
      let a = parse_args argv in
      match (a.workload, a.seed) with
      | Some w, Some seed -> run_workload a w seed
      | _ -> usage ())
  | argv -> (
      let a = parse_args argv in
      match (a.workload, a.seed) with
      | Some _, Some _ -> exit (fst (supervise argv))
      | None, Some seed -> run_all a seed
      | _, None -> usage ())
