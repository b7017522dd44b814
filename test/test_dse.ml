(* DSE tests: exploration coverage, selection, Pareto front, sweeps that
   keep no state between calls, and the bound-based pruner
   (admissibility, exactness vs the exhaustive sweep, and its pinned
   decisions on the E8 spaces). *)

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

(* ---- sweeps keep no state ---- *)

let same_points (a : Dse.point list) (b : Dse.point list) =
  List.length a = List.length b
  && List.for_all2
       (fun p q ->
         p.Dse.dp_variant = q.Dse.dp_variant
         && p.Dse.dp_report = q.Dse.dp_report
         && Tytra_ir.Pprint.design_to_string p.Dse.dp_design
            = Tytra_ir.Pprint.design_to_string q.Dse.dp_design)
       a b

let counter name =
  Option.value ~default:0.0 (Tytra_telemetry.Metrics.counter_value name)

(* Two identical sweeps in one process print the same points and do the
   same work: nothing the first leaves behind serves the second. *)
let test_sweep_keeps_no_state () =
  let p = prog () in
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  let sweep () =
    let d0 = counter "dse.points_derived"
    and e0 = counter "cost.evaluations" in
    let pts =
      Dse.explore ~config:{ cfg with nki = 100; prune = false } p
    in
    (pts, counter "dse.points_derived" -. d0, counter "cost.evaluations" -. e0)
  in
  let first, derived1, evals1 = sweep () in
  let second, derived2, evals2 = sweep () in
  let printed pts = List.map (Format.asprintf "%a" Dse.pp_point) pts in
  Alcotest.(check (list string)) "identical printed points" (printed first)
    (printed second);
  Alcotest.(check bool) "identical points" true (same_points first second);
  Alcotest.(check (float 0.0)) "every point derived"
    (float_of_int (List.length first)) derived1;
  Alcotest.(check (float 0.0)) "same dse.points_derived" derived1 derived2;
  Alcotest.(check (float 0.0)) "same cost.evaluations" evals1 evals2

(* A different form or nki changes what a sweep reports. *)
let test_nki_and_form_change_ekits () =
  let p = prog () in
  let ek config = List.map Dse.ekit (Dse.explore ~config p) in
  let base = ek { cfg with nki = 100 } in
  let other_nki = ek { cfg with nki = 1 } in
  let other_form = ek { cfg with nki = 100; form = Tytra_cost.Throughput.FormA } in
  Alcotest.(check bool) "nki changes the evaluation" true (base <> other_nki);
  Alcotest.(check bool) "form changes the evaluation" true (base <> other_form)

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

(* The pruner's decisions on the E8 spaces (bench/main.ml: 64 lanes x
   vec 8, nki 100, form B on the Stratix-V GSD8), pinned: how many
   points the exhaustive and the pruned sweep each evaluate, and how
   many candidates the pruned one skips as overflowing or dominated.
   The selection must be the exhaustive sweep's. *)
let test_e8_pruned_outcome () =
  List.iter
    (fun (name, p, (space, exhaustive_evaluated, evaluated, overflow,
                     dominated)) ->
      let config = { cfg with nki = 100; max_lanes = 64; max_vec = 8 } in
      let pruned = Dse.explore_sweep ~config p in
      let exhaustive =
        Dse.explore_sweep ~config:{ config with prune = false } p
      in
      let s = pruned.Dse.sw_stats in
      Alcotest.(check (list int))
        (name ^ ": space/exhaustive evaluated/evaluated/overflow/dominated")
        [ space; exhaustive_evaluated; evaluated; overflow; dominated ]
        [ s.Dse.ss_space; exhaustive.Dse.sw_stats.Dse.ss_evaluated;
          s.Dse.ss_evaluated; s.Dse.ss_pruned_resource;
          s.Dse.ss_pruned_incumbent ];
      Alcotest.(check bool) (name ^ ": best agrees") true
        (same_opt_point
           (Dse.best exhaustive.Dse.sw_points)
           (Dse.best pruned.Dse.sw_points));
      let front sw =
        List.map
          (fun q -> (q.Dse.dp_variant, q.Dse.dp_report))
          (Dse.pareto sw.Dse.sw_points)
      in
      Alcotest.(check bool) (name ^ ": pareto agrees") true
        (front exhaustive = front pruned))
    [ ("sor",
       Tytra_kernels.Sor.program ~ty:(Tytra_ir.Ty.Float 32) ~im:64 ~jm:64
         ~km:64 (),
       (26, 26, 12, 6, 8));
      ("hotspot", Tytra_kernels.Hotspot.program ~rows:64 ~cols:64 (),
       (26, 26, 3, 3, 20));
      ("lavamd", Tytra_kernels.Lavamd.program ~boxes:64 (), (59, 59, 3, 8, 48));
      ("srad", Tytra_kernels.Srad.program ~rows:64 ~cols:64 (),
       (26, 26, 5, 3, 18)) ]

(* Bounds admissibility against the full IR path: the resource lower
   bound never exceeds the variant's actual usage (componentwise), the
   clock upper bound its actual clock, nor the EKIT upper bound its
   actual EKIT. The DSE's own replicated reports come from the same
   closed form as the bounds, so "actual" is the oracle of
   test_replicate.ml: the derived design, costed in full. *)
let test_bounds_admissible () =
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      let config = { cfg with nki = 100; max_lanes = 8 } in
      let device = config.Dse.device and form = config.Dse.form in
      let tpl = Lower.template p in
      let full = Test_replicate.full_report ~device ~form ~nki:config.Dse.nki tpl in
      let baseline = full Transform.Pipe in
      List.iter
        (fun v ->
          let pes = Transform.pes v in
          if pes >= 2 then begin
            let actual = full v in
            let b = Tytra_cost.Bounds.of_baseline ~device ~form ~pes baseline in
            let est = actual.Tytra_cost.Report.rp_estimate in
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
              (b.Tytra_cost.Bounds.b_ekit_ub
               >= actual.Tytra_cost.Report.rp_breakdown
                    .Tytra_cost.Throughput.bd_ekit
                  -. 1e-9);
            Alcotest.(check bool) (label "fits bound") true
              ((not actual.Tytra_cost.Report.rp_valid)
              || b.Tytra_cost.Bounds.b_fits)
          end)
        (Transform.enumerate ~max_lanes:config.Dse.max_lanes
           ~max_vec:config.Dse.max_vec p))
    kernels

(* ---- the per-config Pipe baseline ---- *)

(* An exhaustive sweep costs Seq and Pipe in full, once each, and every
   replicated point in closed form from that one Pipe report. *)
let test_baseline_evaluated_once () =
  let p = prog () in
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  let e0 = counter "cost.evaluations"
  and r0 = counter "cost.replications"
  and n0 = counter "dse.points_evaluated" in
  let sw =
    Dse.explore_sweep
      ~config:
        { cfg with nki = 100; max_lanes = 64; max_vec = 8; prune = false }
      p
  in
  let space = sw.Dse.sw_stats.Dse.ss_space in
  Alcotest.(check (float 0.0)) "cost.evaluations = Seq + Pipe" 2.0
    (counter "cost.evaluations" -. e0);
  Alcotest.(check (float 0.0)) "cost.replications = space - 2"
    (float_of_int (space - 2))
    (counter "cost.replications" -. r0);
  Alcotest.(check (float 0.0))
    "evaluations + replications = points evaluated"
    (counter "dse.points_evaluated" -. n0)
    (float_of_int space)

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
    Alcotest.test_case "divisibility respected" `Quick
      test_explore_respects_divisibility;
    Alcotest.test_case "sweeps keep no state between calls" `Quick
      test_sweep_keeps_no_state;
    Alcotest.test_case "nki and form change sweep EKITs" `Quick
      test_nki_and_form_change_ekits;
    Alcotest.test_case "pruning == exhaustive" `Quick
      test_pruning_equivalence;
    Alcotest.test_case "pruned front keeps tied variants" `Quick
      test_pruned_front_keeps_ties;
    Alcotest.test_case "E8 pruned outcome pinned" `Quick
      test_e8_pruned_outcome;
    Alcotest.test_case "bounds admissible" `Quick test_bounds_admissible;
    Alcotest.test_case "Pipe baseline evaluated once per config" `Quick
      test_baseline_evaluated_once;
    Alcotest.test_case "pareto matches reference" `Quick
      test_pareto_matches_reference;
  ]

(* Inputs u and u1 give lane 10 of u and lane 0 of u1 one name, u10, so
   no variant of 11 or more PEs has a valid design. The exhaustive sweep
   must skip those lane counts, as the pruned one does, and select what
   it selects. *)
let test_lane_clash_sweep () =
  let p =
    Fortran.parse ~name:"uu1" ~sizes:[ ("im", 16); ("jm", 16) ]
      "do j = 1, jm\n  do i = 1, im\n    v(i,j) = u(i,j) + u1(i,j)\n  end do\nend do\n"
  in
  let config prune =
    { cfg with nki = 100; max_lanes = 64; max_vec = 8; prune }
  in
  let exhaustive = Dse.explore ~config:(config false) p in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Transform.to_string q.Dse.dp_variant ^ " has at most 10 PEs")
        true
        (Transform.pes q.Dse.dp_variant <= 10))
    exhaustive;
  let best pts =
    Option.map (fun b -> Transform.to_string b.Dse.dp_variant) (Dse.best pts)
  in
  Alcotest.(check (option string)) "pruned and exhaustive select alike"
    (best exhaustive)
    (best (Dse.explore ~config:(config true) p))

let suite =
  suite
  @ [ Alcotest.test_case "exhaustive sweep skips clashing lane names" `Quick
        test_lane_clash_sweep ]
