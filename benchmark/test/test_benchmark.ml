(* Tests of the benchmark harness itself: seeded inputs, the tail rule,
   open-loop timing and the BENCHMARK.json catalog. *)

open Tybench
module J = Tytra_telemetry.Jsenc

let sweep_keys l = List.map Gen.sweep_key l
let design_keys l = List.map Gen.design_key l
let bodies a = Array.to_list (Array.map (fun r -> r.Gen.rq_body) a)

let serve seed =
  Gen.serve ~seed ~pool:(Gen.cold_pool ~seed ~size:2000) ~phase:"r400" ~n:2000

(* ---- seeded generator ---- *)

let deterministic () =
  Alcotest.(check (list string)) "dse-exhaustive"
    (sweep_keys (Gen.dse_exhaustive ~pass:0 ~seed:7)) (sweep_keys (Gen.dse_exhaustive ~pass:0 ~seed:7));
  Alcotest.(check (list string)) "dse-pruned"
    (sweep_keys (Gen.dse_pruned ~pass:0 ~seed:7)) (sweep_keys (Gen.dse_pruned ~pass:0 ~seed:7));
  Alcotest.(check (list string)) "accuracy"
    (design_keys (Gen.accuracy ~seed:7 ~reps:10))
    (design_keys (Gen.accuracy ~seed:7 ~reps:10));
  Alcotest.(check (list string)) "serve" (bodies (serve 7)) (bodies (serve 7))

let seed_matters () =
  let differ what a b = Alcotest.(check bool) what true (a <> b) in
  differ "dse-exhaustive" (sweep_keys (Gen.dse_exhaustive ~pass:0 ~seed:1))
    (sweep_keys (Gen.dse_exhaustive ~pass:0 ~seed:2));
  differ "dse-pruned" (sweep_keys (Gen.dse_pruned ~pass:0 ~seed:1)) (sweep_keys (Gen.dse_pruned ~pass:0 ~seed:2));
  differ "dse-pruned pass" (sweep_keys (Gen.dse_pruned ~pass:0 ~seed:1))
    (sweep_keys (Gen.dse_pruned ~pass:1 ~seed:1));
  differ "accuracy" (design_keys (Gen.accuracy ~seed:1 ~reps:10))
    (design_keys (Gen.accuracy ~seed:2 ~reps:10));
  differ "serve" (bodies (serve 1)) (bodies (serve 2))

(* Seeds change the inputs, not the work: the cost-setting cells are the
   same for every seed. *)
let same_work () =
  let cells l = List.sort compare (List.map (fun s -> (s.Gen.sw_kernel, s.Gen.sw_size)) l) in
  Alcotest.(check bool) "exhaustive cells" true
    (cells (Gen.dse_exhaustive ~pass:0 ~seed:1) = cells (Gen.dse_exhaustive ~pass:0 ~seed:99));
  let pruned l =
    List.sort compare (List.map (fun s -> (s.Gen.sw_kernel, s.Gen.sw_size, s.Gen.sw_form)) l)
  in
  Alcotest.(check bool) "pruned cells" true
    (pruned (Gen.dse_pruned ~pass:0 ~seed:1) = pruned (Gen.dse_pruned ~pass:0 ~seed:99));
  let corpus l = List.sort compare (List.map (fun d -> (d.Gen.ds_kernel, d.Gen.ds_lanes)) l) in
  Alcotest.(check bool) "accuracy cells" true
    (corpus (Gen.accuracy ~seed:1 ~reps:10) = corpus (Gen.accuracy ~seed:99 ~reps:10))

let no_srad_fp32 () =
  let bad k ty = k = Tytra_engine.Engine.Srad && Tytra_ir.Ty.is_float ty in
  List.iter
    (fun s -> Alcotest.(check bool) (Gen.sweep_key s) false (bad s.Gen.sw_kernel s.Gen.sw_ty))
    (Gen.sweep_universe @ Gen.dse_exhaustive ~pass:0 ~seed:3 @ Gen.dse_pruned ~pass:0 ~seed:3);
  List.iter
    (fun d -> Alcotest.(check bool) (Gen.design_key d) false (bad d.Gen.ds_kernel d.Gen.ds_ty))
    Gen.design_universe

let serve_mix () =
  let reqs = serve 11 in
  let share k =
    float_of_int (Array.fold_left (fun n r -> if r.Gen.rq_kind = k then n + 1 else n) 0 reqs)
    /. float_of_int (Array.length reqs)
  in
  (* exact in every block of 200, but for the first request, which has
     no earlier one to repeat *)
  let near what want got =
    Alcotest.(check bool) (Printf.sprintf "%s share %.4f ~ %.4f" what got want) true
      (Float.abs (got -. want) < 0.001)
  in
  near "cold" 0.40 (share Gen.Cold);
  near "parse_hit" 0.30 (share Gen.Parse_hit);
  near "hot" 0.295 (share Gen.Hot);
  near "explore" 0.005 (share Gen.Explore);
  (* a never-sent text is never sent twice *)
  let colds =
    List.filter_map
      (fun r -> if r.Gen.rq_kind = Gen.Cold then Some r.Gen.rq_body else None)
      (Array.to_list reqs)
  in
  Alcotest.(check int) "cold texts distinct" (List.length colds)
    (List.length (List.sort_uniq compare colds))

(* The never-sent pool covers the longest phase at the longest budget a
   run may have (60 s): drawing it must not exhaust the pool. *)
let pool_covers_longest_phase () =
  let seconds = 60.0 in
  let n = Plan.longest seconds in
  let pool = Gen.cold_pool ~seed:5 ~size:n in
  Alcotest.(check bool) "capacity" true (Gen.pool_capacity pool >= n);
  let reqs = Gen.serve ~seed:5 ~pool ~phase:"longest" ~n in
  Alcotest.(check int) "requests" n (Array.length reqs)

(* ---- tail rule ---- *)

let tail_rule () =
  List.iter
    (fun w ->
      let p = Ledger.tail_pct w in
      let n = Stats.min_samples p in
      Alcotest.(check bool) (w ^ ": enough beyond") true (Stats.beyond n p >= Stats.min_beyond);
      Alcotest.(check bool) (w ^ ": minimal") true (Stats.beyond (n - 1) p < Stats.min_beyond))
    Ledger.workloads;
  Alcotest.(check int) "p90 of 100" 10 (Stats.beyond 100 90.0);
  Alcotest.(check int) "p99 of 1000" 10 (Stats.beyond 1000 99.0);
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.min_samples 99.0);
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p90 nearest rank" 90.0 (Stats.percentile a 90.0);
  Alcotest.(check (float 0.0)) "median" 50.0 (Stats.median a)

(* ---- open loop ---- *)

(* A synthetic clock: sleeping jumps to the due time, a request takes
   1 ms except request 3, which stalls for 100 ms. *)
let open_loop_counts_from_due () =
  let clock = ref 0.0 in
  let due = Array.init 10 (fun i -> 0.010 *. float_of_int i) in
  let send i =
    clock := !clock +. (if i = 3 then 0.100 else 0.001);
    true
  in
  let s =
    Openloop.run ~now:(fun () -> !clock)
      ~sleep_until:(fun t -> clock := Float.max !clock t)
      ~due ~send ()
  in
  let ms x = Float.round (x *. 1e6) /. 1e3 in
  Alcotest.(check (float 1e-9)) "before the stall" 1.0 (ms (Openloop.latency s.(2)));
  Alcotest.(check (float 1e-9)) "the stalled request" 100.0 (ms (Openloop.latency s.(3)));
  (* due at 40 ms, sent at 130 ms when the stall ends, answered at 131 *)
  Alcotest.(check (float 1e-9)) "queued behind it" 91.0 (ms (Openloop.latency s.(4)));
  Alcotest.(check (float 1e-9)) "generator lag" 90.0 (ms (Openloop.lag s.(4)));
  Alcotest.(check (float 1e-9)) "last" 46.0 (ms (Openloop.latency s.(9)));
  Alcotest.(check int) "backlog" 5 (Openloop.backlog_max s)

(* A closed loop is a schedule all due at once: requests go back to back
   and each waits for the ones before it. *)
let closed_loop () =
  let clock = ref 0.0 in
  let s =
    Openloop.run ~now:(fun () -> !clock) ~sleep_until:(fun _ -> ())
      ~due:(Array.make 50 0.0)
      ~send:(fun _ ->
        clock := !clock +. 0.001;
        true)
      ()
  in
  let ms x = Float.round (x *. 1e6) /. 1e3 in
  Alcotest.(check (float 1e-9)) "first" 1.0 (ms (Openloop.latency s.(0)));
  Alcotest.(check (float 1e-9)) "last" 50.0 (ms (Openloop.latency s.(49)));
  Alcotest.(check int) "backlog" 49 (Openloop.backlog_max s)

(* ---- BENCHMARK.json ---- *)

let bench =
  lazy
    (match J.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let list key =
  match J.member key (Lazy.force bench) with
  | Some (J.List l) -> l
  | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" key

let str key j =
  match J.str_member key j with Some s -> s | None -> Alcotest.failf "missing %s" key

let keys = function J.Obj f -> List.sort compare (List.map fst f) | _ -> []

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let well_formed () =
  Alcotest.(check (list string)) "top-level keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
    (keys (Lazy.force bench));
  let e2e = list "end_to_end" and layers = list "per_layer" in
  Alcotest.(check bool) "<= 16 end-to-end" true (List.length e2e <= 16);
  Alcotest.(check bool) "<= 128 per-layer" true (List.length layers <= 128);
  let names = List.map (str "name") (list "workloads" @ e2e @ layers) in
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (valid_name n)) names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "end-to-end keys" [ "better"; "bound"; "name"; "unit" ] (keys m);
      match J.num_member "bound" m with
      | Some b -> Alcotest.(check bool) "bound in (0, 0.25]" true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.fail "bound")
    e2e;
  let setup = List.find (fun m -> str "name" m = "setup_s") e2e in
  Alcotest.(check string) "setup_s unit" "s" (str "unit" setup);
  let bound m = Option.get (J.num_member "bound" m) in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun m -> bound m <= bound setup) e2e)

(* The catalog in Ledger and BENCHMARK.json agree, and every layer metric
   names end-to-end metrics and workloads that exist. *)
let matches_ledger () =
  let row m = (str "name" m, str "unit" m, str "better" m) in
  let cat (x : Ledger.metric) =
    (x.Ledger.name, x.Ledger.unit, if x.Ledger.higher_is_better then "higher" else "lower")
  in
  Alcotest.(check (list string)) "workloads" Ledger.workloads
    (List.map (str "name") (list "workloads"));
  Alcotest.(check (list (triple string string string))) "end-to-end"
    (List.map cat Ledger.end_to_end)
    (List.map row (list "end_to_end"));
  Alcotest.(check (list (triple string string string))) "per-layer"
    (List.map (fun (m, _) -> cat m) Ledger.per_layer)
    (List.map row (list "per_layer"));
  List.iter
    (fun (m, moves) ->
      List.iter
        (fun (e, w) ->
          let what = Printf.sprintf "%s -> %s on %s" m.Ledger.name e w in
          Alcotest.(check bool) what true
            (List.exists (fun x -> x.Ledger.name = e) Ledger.end_to_end
            && List.mem w Ledger.workloads))
        moves)
    Ledger.per_layer

let () =
  Alcotest.run "benchmark"
    [ ( "generator",
        [ Alcotest.test_case "deterministic" `Quick deterministic;
          Alcotest.test_case "seed matters" `Quick seed_matters;
          Alcotest.test_case "same work for every seed" `Quick same_work;
          Alcotest.test_case "srad fp32 excluded" `Quick no_srad_fp32;
          Alcotest.test_case "serve mix" `Quick serve_mix;
          Alcotest.test_case "pool covers the longest phase" `Quick pool_covers_longest_phase ] );
      ("stats", [ Alcotest.test_case "tail rule" `Quick tail_rule ]);
      ( "open loop",
        [ Alcotest.test_case "latency counts from the due time" `Quick
            open_loop_counts_from_due;
          Alcotest.test_case "closed loop runs back to back" `Quick closed_loop ] );
      ( "BENCHMARK.json",
        [ Alcotest.test_case "well formed" `Quick well_formed;
          Alcotest.test_case "matches the ledger" `Quick matches_ledger ] ) ]
