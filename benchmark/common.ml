(* Shared plumbing of the workloads: clocks, memory, set-up timing,
   golden digests and the result record. *)

open Tybench

let now = Openloop.clock

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let nproc = Domain.recommended_domain_count ()

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Option.map
                (fun kb -> kb /. 1024.0)
                (float_of_string_opt
                   (String.trim (Filename.chop_suffix (String.trim v) "kB")))
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:nan

(* One set-up sample of the in-process workloads: a fresh process of this
   binary that creates an engine and exits ([--ready]), timed from spawn
   to exit. *)
let setup_probe () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      snd
        (time (fun () ->
             let pid =
               Unix.create_process Sys.executable_name
                 [| Sys.executable_name; "--ready" |]
                 devnull devnull Unix.stderr
             in
             match Unix.waitpid [] pid with
             | _, Unix.WEXITED 0 -> ()
             | _ -> failwith "set-up probe process failed")))

(* Golden digests: "key digest" lines, committed under golden/. *)
let load_golden path =
  let tbl = Hashtbl.create 1024 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match String.split_on_char ' ' line with
            | [ k; d ] -> Hashtbl.replace tbl k d
            | _ -> ());
            go ()
      in
      go ());
  tbl

let save_golden path rows =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) rows)

let digest s = Digest.to_hex (Digest.string s)

(* What a workload run reports: operations attempted and failed (an
   exception, a wrong output or a refused request each count), and its
   metrics as (name, value) pairs. *)
type outcome = { attempted : int; failed : int; metrics : (string * float) list }

(* A counter of attempted/failed operations. *)
type tally = { mutable n : int; mutable bad : int }

let tally () = { n = 0; bad = 0 }

(* Failures are counted; the first few are described on stderr. *)
let record ?(what = fun () -> "") t ok =
  t.n <- t.n + 1;
  if not ok then begin
    t.bad <- t.bad + 1;
    if t.bad <= 5 then log "failed: %s" (what ())
  end

let ms x = 1000.0 *. x

(* Set-up samples of one run. They are taken a few at a time across the
   whole run, between passes, sweeps or phases, so that they meet the
   machine in every state the run does rather than in one burst. *)
type setups = { mutable samples : float list; mutable last : float }

let setups () = { samples = []; last = neg_infinity }

let add_setup s t = s.samples <- t :: s.samples

(* A set-up probe, if the last was at least 0.1 s ago. *)
let probe_setup s =
  if now () -. s.last >= 0.1 then begin
    add_setup s (setup_probe ());
    s.last <- now ()
  end

(* The set-up metric: median of the faster half of the samples, since
   a spawn is slowed by whatever else the machine runs. *)
let setup_s s =
  let samples = Array.of_list s.samples in
  Stats.median (Array.map (fun i -> samples.(i)) (Stats.faster_half samples))

(* One pass of an in-process workload over its whole input: wall time
   of the timed operations, work done (variants decided, estimates) and
   one latency sample per operation. *)
type pass = { wall : float; work : float; lat_ms : float array }

(* The passes timing statistics are taken over. With [cycle = 1] every
   pass does the same work, and the faster half is kept. With a longer
   cycle the passes differ by design and only whole cycles together do
   the same work for every seed, so all passes are kept. *)
let kept ~cycle passes =
  let passes = Array.of_list passes in
  if cycle > 1 then passes
  else Array.map (fun i -> passes.(i)) (Stats.faster_half (Array.map (fun p -> p.wall) passes))

let kept_samples ~cycle passes =
  Array.fold_left (fun n p -> n + Array.length p.lat_ms) 0 (kept ~cycle passes)

(* Passes [f 0], [f 1], ... repeat in whole cycles, as many cycles as
   come closest to the budget, and more if the kept passes hold fewer
   than [min_samples] latency samples (at least two passes). *)
let repeat_passes ?(cycle = 1) ~budget ~min_samples f =
  let t0 = now () in
  let rec go acc =
    let n = List.length acc in
    let elapsed = now () -. t0 in
    let per_cycle = if n = 0 then 0.0 else elapsed *. float_of_int cycle /. float_of_int n in
    if n >= 2 && n mod cycle = 0 && kept_samples ~cycle acc >= min_samples
       && elapsed +. (per_cycle /. 2.0) >= budget
    then List.rev acc
    else
      let wall, work, lat_ms = f n in
      go ({ wall; work; lat_ms } :: acc)
  in
  go []

(* The end-to-end metrics of in-process passes: timings over the kept
   passes, memory as the process's peak so far. *)
let pass_metrics ~setup ~tail ~cycle passes =
  let kept = kept ~cycle passes in
  let lat = Array.concat (Array.to_list (Array.map (fun p -> p.lat_ms) kept)) in
  let sum f = Stats.sum (Array.map f kept) in
  [ ("setup_s", setup_s setup);
    ("peak_rss_mb", peak_rss_mb "self");
    ("latency_p50_ms", Stats.median lat);
    ("latency_tail_ms", Stats.percentile lat tail);
    ("throughput_per_s", Stats.ratio (sum (fun p -> p.work)) (sum (fun p -> p.wall))) ]

(* Latencies of the same operations repeated in the same order, one
   array per repetition: each operation's 10th percentile over the
   repetitions (its fastest, with fewer than ten). The machine's speed
   moves over seconds, so one operation meets it fast in some
   repetitions and slow in others; the low percentile is its time on the
   machine running fast. Work that every repetition does, its garbage
   collections included, stays in it. *)
let op_times reps =
  let reps = Array.of_list reps in
  Array.init (Array.length reps.(0)) (fun i ->
      Stats.percentile (Array.map (fun r -> r.(i)) reps) 10.0)

(* The end-to-end metrics of passes that repeat the same operations:
   latencies over the operations' [op_times], throughput as operations
   per second of those times. *)
let op_metrics ~setup ~tail passes =
  let ops = op_times (List.map (fun p -> p.lat_ms) passes) in
  [ ("setup_s", setup_s setup);
    ("peak_rss_mb", peak_rss_mb "self");
    ("latency_p50_ms", Stats.median ops);
    ("latency_tail_ms", Stats.percentile ops tail);
    ("throughput_per_s",
     Stats.ratio (float_of_int (Array.length ops)) (Stats.sum ops /. 1000.0)) ]
