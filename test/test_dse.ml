(* DSE tests: exploration coverage, selection, Pareto front, guided
   search, parallel/sequential equivalence, the evaluation cache, and
   the bound-based pruner (admissibility + exactness vs the exhaustive
   sweep). *)

open Tytra_dse
open Tytra_front

let prog () = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ()

let cfg = Dse.default_config
let explore_l ?(config = cfg) ~max_lanes ?(nki = 1) p =
  Dse.explore ~config:{ config with max_lanes; nki; prune = false } p

let test_explore_covers_variants () =
  let pts = explore_l ~max_lanes:8 (prog ()) in
  let names =
    List.map (fun p -> Transform.to_string p.Dse.dp_variant) pts
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " explored") true (List.mem v names))
    [ "seq"; "pipe"; "par2-pipe"; "par4-pipe"; "par8-pipe" ]

let test_best_is_valid_max () =
  let pts = explore_l ~max_lanes:8 ~nki:100 (prog ()) in
  match Dse.best pts with
  | None -> Alcotest.fail "expected a valid point"
  | Some b ->
      Alcotest.(check bool) "valid" true (Dse.valid b);
      List.iter
        (fun p ->
          if Dse.valid p then
            Alcotest.(check bool) "no better valid point" true
              (Dse.ekit p <= Dse.ekit b +. 1e-9))
        pts

let test_pipe_beats_seq () =
  let pts = explore_l ~max_lanes:4 (prog ()) in
  let find v = List.find (fun p -> p.Dse.dp_variant = v) pts in
  Alcotest.(check bool) "pipeline >> sequential" true
    (Dse.ekit (find Transform.Pipe) > 3.0 *. Dse.ekit (find Transform.Seq))

let test_pareto_front_property () =
  let pts = explore_l ~max_lanes:16 ~nki:100 (prog ()) in
  let front = Dse.pareto pts in
  Alcotest.(check bool) "front non-empty" true (front <> []);
  (* no point of the front is dominated by any valid point *)
  List.iter
    (fun f ->
      List.iter
        (fun q ->
          if Dse.valid q && q != f then
            Alcotest.(check bool) "not dominated" false
              (Dse.ekit q > Dse.ekit f && Dse.area q < Dse.area f))
        pts)
    front

let test_guided_trace () =
  let trace =
    Dse.guided ~config:{ cfg with nki = 100; max_lanes = 16 } (prog ())
  in
  Alcotest.(check bool) "trace starts at pipe" true
    ((List.hd trace).Dse.dp_variant = Transform.Pipe);
  (* lanes double along the trace *)
  let lanes =
    List.map (fun p -> Transform.lanes p.Dse.dp_variant) trace
  in
  let rec doubling = function
    | a :: (b :: _ as tl) -> b = 2 * a && doubling tl
    | _ -> true
  in
  Alcotest.(check bool) "doubling lanes" true (doubling lanes);
  (* the trace stops for a reason: wall hit, lanes exhausted, or oversize *)
  let last = List.nth trace (List.length trace - 1) in
  let stopped_reasonably =
    Transform.lanes last.Dse.dp_variant >= 16
    || last.Dse.dp_report.Tytra_cost.Report.rp_breakdown
         .Tytra_cost.Throughput.bd_limiter
       <> Tytra_cost.Throughput.Compute
    || not (Dse.valid last)
  in
  Alcotest.(check bool) "stop condition" true stopped_reasonably

let test_explore_respects_divisibility () =
  (* 10 points: lanes 3 not applicable, enumerate must skip it *)
  let p =
    { Tytra_front.Expr.p_kernel = (Tytra_kernels.Sor.program ~im:10 ~jm:1 ~km:1 ()).Tytra_front.Expr.p_kernel;
      p_shape = [ 10 ] }
  in
  let pts = explore_l ~max_lanes:8 p in
  List.iter
    (fun pt ->
      Alcotest.(check bool) "applicable" true
        (Transform.applicable p pt.Dse.dp_variant))
    pts

(* ---- parallel evaluation and the memoization cache ---- *)

(* CI exercises both pool widths: TYTRA_JOBS=1 and TYTRA_JOBS=4. *)
let test_jobs =
  match int_of_string_opt (try Sys.getenv "TYTRA_JOBS" with Not_found -> "") with
  | Some j when j >= 1 -> j
  | _ -> 4

let same_points (a : Dse.point list) (b : Dse.point list) =
  List.length a = List.length b
  && List.for_all2
       (fun p q ->
         p.Dse.dp_variant = q.Dse.dp_variant
         && p.Dse.dp_report = q.Dse.dp_report)
       a b

let test_parallel_equals_sequential () =
  let p = prog () in
  (* fresh cache so hits cannot mask an ordering bug in the pool; prune
     off because the raw survivor set is jobs-sensitive by design *)
  Dse.clear_cache ();
  let seq =
    Dse.explore
      ~config:{ cfg with nki = 100; jobs = 1; use_cache = false; prune = false }
      p
  in
  List.iter
    (fun jobs ->
      Dse.clear_cache ();
      let par =
        Dse.explore
          ~config:{ cfg with nki = 100; jobs; use_cache = false; prune = false }
          p
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d == sequential" jobs)
        true (same_points seq par))
    [ 1; test_jobs ]

let test_cached_sweep_equals_uncached () =
  let p = prog () in
  Dse.clear_cache ();
  let cold = Dse.explore ~config:{ cfg with nki = 100 } p in
  let warm = Dse.explore ~config:{ cfg with nki = 100 } p in
  Alcotest.(check bool) "warm == cold" true (same_points cold warm)

let test_repeat_sweep_hits_cache () =
  let p = prog () in
  Dse.clear_cache ();
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  Tytra_telemetry.Metrics.reset ();
  let config = { cfg with nki = 100; jobs = test_jobs } in
  let pts = Dse.explore ~config p in
  let s1 = Dse.cache_stats () in
  let _ = Dse.explore ~config p in
  let s2 = Dse.cache_stats () in
  let new_hits = s2.Tytra_exec.Cache.st_hits - s1.Tytra_exec.Cache.st_hits in
  let n = List.length pts in
  Alcotest.(check bool) "second sweep >90% cached" true
    (float_of_int new_hits > 0.9 *. float_of_int n);
  (* and the counters are published through the telemetry registry *)
  match Tytra_telemetry.Metrics.counter_value "dse.cache.hits" with
  | Some h -> Alcotest.(check bool) "telemetry hits counter" true (h > 0.0)
  | None -> Alcotest.fail "dse.cache.hits not registered"

let test_cache_key_sensitivity () =
  (* a different form / nki / device must not serve a stale report *)
  let p = prog () in
  Dse.clear_cache ();
  let ek config = List.map Dse.ekit (Dse.explore ~config p) in
  let base = ek { cfg with nki = 100 } in
  let other_nki = ek { cfg with nki = 1 } in
  let other_form = ek { cfg with nki = 100; form = Tytra_cost.Throughput.FormA } in
  Alcotest.(check bool) "nki changes the evaluation" true (base <> other_nki);
  Alcotest.(check bool) "form changes the evaluation" true (base <> other_form);
  (* identical parameters do hit *)
  let s1 = Dse.cache_stats () in
  let again = ek { cfg with nki = 100 } in
  let s2 = Dse.cache_stats () in
  Alcotest.(check bool) "same-config sweep cached" true
    (s2.Tytra_exec.Cache.st_hits > s1.Tytra_exec.Cache.st_hits);
  Alcotest.(check bool) "cached results identical" true (base = again)

(* ---- bound-based pruning ---- *)

(* The four Rodinia-style kernels at small sizes; lavamd's box count
   gives the richest divisor set. *)
let kernels =
  [
    ("sor", fun () -> Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ());
    ("hotspot", fun () -> Tytra_kernels.Hotspot.program ~rows:32 ~cols:32 ());
    ("lavamd", fun () -> Tytra_kernels.Lavamd.program ~boxes:16 ());
    ("srad", fun () -> Tytra_kernels.Srad.program ~rows:32 ~cols:32 ());
  ]

let same_opt_point a b =
  match (a, b) with
  | None, None -> true
  | Some p, Some q ->
      p.Dse.dp_variant = q.Dse.dp_variant && p.Dse.dp_report = q.Dse.dp_report
  | _ -> false

(* Pruned and exhaustive sweeps must agree on best and pareto — the
   pruning-exactness contract — across every kernel × form × device,
   and must do strictly less full evaluation whenever the space holds a
   resource wall (an invalid point proves the wall exists). *)
let test_pruning_equivalence () =
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      List.iter
        (fun form ->
          List.iter
            (fun device ->
              let config =
                { cfg with device; form; nki = 100; max_lanes = 16 }
              in
              let exhaustive =
                Dse.explore_sweep ~config:{ config with prune = false } p
              in
              let pruned = Dse.explore_sweep ~config p in
              let label what =
                Printf.sprintf "%s/form %s/%s: %s" name
                  (Tytra_cost.Throughput.form_to_string form)
                  device.Tytra_device.Device.dev_name what
              in
              Alcotest.(check bool)
                (label "best agrees") true
                (same_opt_point
                   (Dse.best exhaustive.Dse.sw_points)
                   (Dse.best pruned.Dse.sw_points));
              let front_sig pts =
                List.map
                  (fun q -> (q.Dse.dp_variant, q.Dse.dp_report))
                  (Dse.pareto pts)
              in
              Alcotest.(check bool)
                (label "pareto agrees") true
                (front_sig exhaustive.Dse.sw_points
                = front_sig pruned.Dse.sw_points);
              (* accounting adds up *)
              let s = pruned.Dse.sw_stats in
              Alcotest.(check int) (label "accounting")
                s.Dse.ss_space
                (s.Dse.ss_evaluated + s.Dse.ss_pruned_resource
               + s.Dse.ss_pruned_incumbent);
              (* a resource wall guarantees at least the overflow prunes *)
              let has_invalid =
                List.exists
                  (fun q -> not (Dse.valid q))
                  exhaustive.Dse.sw_points
              in
              if has_invalid then
                Alcotest.(check bool)
                  (label "strictly fewer evaluations") true
                  (s.Dse.ss_evaluated < s.Dse.ss_space))
            Tytra_device.Device.all)
        [ Tytra_cost.Throughput.FormA; Tytra_cost.Throughput.FormB;
          Tytra_cost.Throughput.FormC ])
    kernels

(* A variant that ties the incumbent's EKIT must survive pruning: its
   bound, summed along another floating-point path than its EKIT, could
   land a few ULPs below it. The fronts must agree as ordered variant
   lists, equal-(area, EKIT) duplicates included, over the largest
   spaces the benchmark sweeps. At sor side 16 (ui18) on the Virtex-7 in
   form C, par64-vec4-pipe ties par32-vec8-pipe. *)
let test_pruned_front_keeps_ties () =
  let p = prog () in
  List.iter
    (fun device ->
      List.iter
        (fun form ->
          let config =
            { cfg with device; form; nki = 100; max_lanes = 64; max_vec = 8 }
          in
          let front prune =
            List.map
              (fun q -> Transform.to_string q.Dse.dp_variant)
              (Dse.pareto
                 (Dse.explore_sweep ~config:{ config with prune } p).Dse.sw_points)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "sor/16/%s/%s front"
               device.Tytra_device.Device.dev_name
               (Tytra_cost.Throughput.form_to_string form))
            (front false) (front true))
        [ Tytra_cost.Throughput.FormA; Tytra_cost.Throughput.FormB;
          Tytra_cost.Throughput.FormC ])
    Tytra_device.Device.all

(* best/pareto of a pruned sweep must not depend on the pool width,
   even though the survivor set may. *)
let test_pruned_selection_jobs_invariant () =
  let p = prog () in
  let sweep jobs =
    Dse.clear_cache ();
    Dse.explore_sweep
      ~config:{ cfg with nki = 100; max_lanes = 16; jobs; use_cache = false }
      p
  in
  let s1 = sweep 1 and sj = sweep test_jobs in
  Alcotest.(check bool) "best invariant" true
    (same_opt_point (Dse.best s1.Dse.sw_points) (Dse.best sj.Dse.sw_points));
  Alcotest.(check bool) "pareto invariant" true
    (List.map
       (fun q -> (q.Dse.dp_variant, q.Dse.dp_report))
       (Dse.pareto s1.Dse.sw_points)
    = List.map
        (fun q -> (q.Dse.dp_variant, q.Dse.dp_report))
        (Dse.pareto sj.Dse.sw_points))

(* Bounds admissibility on real evaluations: the resource lower bound
   never exceeds the variant's actual usage (componentwise), the clock
   upper bound its actual clock, nor the EKIT upper bound its actual
   EKIT. *)
let test_bounds_admissible () =
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      let config = { cfg with nki = 100; max_lanes = 8 } in
      let pts = Dse.explore ~config:{ config with prune = false } p in
      let baseline =
        List.find (fun q -> q.Dse.dp_variant = Transform.Pipe) pts
      in
      List.iter
        (fun q ->
          let pes = Transform.pes q.Dse.dp_variant in
          if pes >= 2 then begin
            let b =
              Tytra_cost.Bounds.of_baseline ~device:config.Dse.device
                ~form:config.Dse.form ~pes baseline.Dse.dp_report
            in
            let est =
              q.Dse.dp_report.Tytra_cost.Report.rp_estimate
            in
            let u = est.Tytra_cost.Resource_model.est_usage in
            let lb = b.Tytra_cost.Bounds.b_usage_lb in
            let open Tytra_device.Resources in
            let label what =
              Printf.sprintf "%s %s pes=%d" name what pes
            in
            Alcotest.(check bool) (label "usage lb") true
              (lb.aluts <= u.aluts && lb.regs <= u.regs
              && lb.bram_bits <= u.bram_bits
              && lb.bram_blocks <= u.bram_blocks && lb.dsps <= u.dsps);
            Alcotest.(check bool) (label "fmax ub") true
              (b.Tytra_cost.Bounds.b_fmax_ub_mhz
               >= est.Tytra_cost.Resource_model.est_fmax_mhz -. 1e-9);
            Alcotest.(check bool) (label "ekit ub") true
              (b.Tytra_cost.Bounds.b_ekit_ub >= Dse.ekit q -. 1e-9);
            Alcotest.(check bool) (label "fits bound") true
              ((not (Dse.valid q)) || b.Tytra_cost.Bounds.b_fits)
          end)
        pts)
    kernels

(* ---- O(n log n) pareto vs the reference-by-definition filter ---- *)

let reference_pareto (points : Dse.point list) =
  let valid_pts = List.filter Dse.valid points in
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q ->
             q != p
             && Dse.ekit q >= Dse.ekit p
             && Dse.area q <= Dse.area p
             && (Dse.ekit q > Dse.ekit p || Dse.area q < Dse.area p))
           valid_pts))
    valid_pts

let test_pareto_matches_reference () =
  (* synthesize a randomized point cloud by perturbing one real report;
     deliberately include duplicates, area ties and invalid points *)
  let template =
    List.hd (explore_l ~max_lanes:2 ~nki:100 (prog ()))
  in
  let mk ~ekit ~aluts ~valid =
    let r = template.Dse.dp_report in
    let est = r.Tytra_cost.Report.rp_estimate in
    {
      template with
      Dse.dp_report =
        {
          r with
          Tytra_cost.Report.rp_valid = valid;
          rp_breakdown =
            { r.Tytra_cost.Report.rp_breakdown with
              Tytra_cost.Throughput.bd_ekit = ekit };
          rp_estimate =
            {
              est with
              Tytra_cost.Resource_model.est_usage =
                { est.Tytra_cost.Resource_model.est_usage with
                  Tytra_device.Resources.aluts = aluts };
            };
        };
    }
  in
  let seed = ref 0x2545F49 in
  let rand m =
    (* xorshift-ish deterministic pseudo-random stream *)
    seed := (!seed * 1103515245) + 12345;
    abs (!seed / 65536) mod m
  in
  for trial = 1 to 20 do
    let n = 1 + rand 60 in
    let pts =
      List.init n (fun _ ->
          mk
            ~ekit:(float_of_int (rand 8) *. 10.0)
            ~aluts:(rand 6 * 1000)
            ~valid:(rand 10 <> 0))
    in
    let fast = Dse.pareto pts in
    let slow = reference_pareto pts in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: fronts identical (n=%d)" trial n)
      true
      (List.length fast = List.length slow
      && List.for_all2 (fun a b -> a == b) fast slow)
  done

let suite =
  [
    Alcotest.test_case "explore covers variants" `Quick
      test_explore_covers_variants;
    Alcotest.test_case "best is valid max" `Quick test_best_is_valid_max;
    Alcotest.test_case "pipe beats seq" `Quick test_pipe_beats_seq;
    Alcotest.test_case "pareto front" `Quick test_pareto_front_property;
    Alcotest.test_case "guided trace" `Quick test_guided_trace;
    Alcotest.test_case "divisibility respected" `Quick
      test_explore_respects_divisibility;
    Alcotest.test_case "parallel == sequential" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "cached sweep == uncached" `Quick
      test_cached_sweep_equals_uncached;
    Alcotest.test_case "repeat sweep hits cache" `Quick
      test_repeat_sweep_hits_cache;
    Alcotest.test_case "cache key sensitivity" `Quick
      test_cache_key_sensitivity;
    Alcotest.test_case "pruning == exhaustive" `Quick
      test_pruning_equivalence;
    Alcotest.test_case "pruned front keeps tied variants" `Quick
      test_pruned_front_keeps_ties;
    Alcotest.test_case "pruned selection jobs-invariant" `Quick
      test_pruned_selection_jobs_invariant;
    Alcotest.test_case "bounds admissible" `Quick test_bounds_admissible;
    Alcotest.test_case "pareto matches reference" `Quick
      test_pareto_matches_reference;
  ]

let test_explore_devices () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let per_device, best =
    Dse.explore_devices
      ~config:{ cfg with nki = 100; max_lanes = 4; jobs = test_jobs } p
  in
  Alcotest.(check int) "all devices explored"
    (List.length Tytra_device.Device.all)
    (List.length per_device);
  List.iter
    (fun (_, pts) ->
      Alcotest.(check bool) "non-empty space" true (pts <> []))
    per_device;
  match best with
  | None -> Alcotest.fail "expected an overall best"
  | Some (dev, pt) ->
      (* the winner is at least as good as every per-device best *)
      List.iter
        (fun (_, pts) ->
          match Dse.best pts with
          | Some b ->
              Alcotest.(check bool) "global max" true
                (Dse.ekit pt >= Dse.ekit b)
          | None -> ())
        per_device;
      Alcotest.(check bool) "winner from the registry" true
        (List.memq dev Tytra_device.Device.all)

let suite =
  suite
  @ [ Alcotest.test_case "cross-device exploration" `Quick
        test_explore_devices ]
