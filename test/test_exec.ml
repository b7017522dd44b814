(* Execution-engine tests: the Domain pool (ordering, exception
   propagation, sequential equivalence) and the LRU evaluation cache
   (hit/miss accounting, eviction, key construction), plus telemetry
   domain-safety under parallel mutation. *)

open Tytra_exec

(* ---- pool ---- *)

let test_pool_ordering () =
  (* deliberately uneven work per item: stragglers must not reorder *)
  let work i =
    let acc = ref i in
    for _ = 1 to (i mod 7) * 10_000 do
      acc := (!acc * 31) mod 1_000_003
    done;
    (i, !acc)
  in
  let xs = List.init 200 Fun.id in
  let expected = List.map work xs in
  List.iter
    (fun jobs ->
      let got = Pool.with_pool ~jobs (fun p -> Pool.map p work xs) in
      Alcotest.(check bool)
        (Printf.sprintf "ordered at jobs=%d" jobs)
        true (got = expected))
    [ 1; 2; 4; 8 ]

let test_pool_jobs1_is_sequential () =
  (* jobs=1 must evaluate on the calling domain, in order *)
  let seen = ref [] in
  let f i = seen := i :: !seen; i * i in
  let r = Pool.with_pool ~jobs:1 (fun p -> Pool.map p f [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list int)) "results" [ 1; 4; 9; 16 ] r;
  Alcotest.(check (list int)) "evaluation order" [ 4; 3; 2; 1 ] !seen

let test_pool_clamps_jobs () =
  Alcotest.(check int) "jobs 0 -> 1" 1 (Pool.jobs (Pool.create ~jobs:0 ()));
  Alcotest.(check int) "jobs -3 -> 1" 1 (Pool.jobs (Pool.create ~jobs:(-3) ()));
  Alcotest.(check bool) "default >= 1" true (Pool.default_jobs () >= 1)

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Pool.with_pool ~jobs (fun p ->
            Pool.map p
              (fun i -> if i = 37 then failwith "boom" else i)
              (List.init 100 Fun.id))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Failure" jobs
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d propagates" jobs)
            "boom" m)
    [ 1; 4 ]

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" []
    (Pool.with_pool ~jobs:4 (fun p -> Pool.map p (fun x -> x) []));
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.with_pool ~jobs:4 (fun p -> Pool.map p (fun x -> x + 1) [ 6 ]))

(* ---- cache ---- *)

let test_cache_hit_and_memoization () =
  let c = Cache.create ~capacity:8 () in
  let computed = ref 0 in
  let f () = incr computed; 42 in
  Alcotest.(check int) "miss computes" 42 (Cache.find_or_add c ~key:"k" f);
  Alcotest.(check int) "hit reuses" 42 (Cache.find_or_add c ~key:"k" f);
  Alcotest.(check int) "computed once" 1 !computed;
  let s = Cache.stats c in
  Alcotest.(check int) "one hit" 1 s.Cache.st_hits;
  Alcotest.(check int) "one miss" 1 s.Cache.st_misses;
  Alcotest.(check int) "size" 1 s.Cache.st_size

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~key:"a" 1;
  Cache.add c ~key:"b" 2;
  (* touch "a" so "b" is the least recently used *)
  ignore (Cache.find c ~key:"a");
  Cache.add c ~key:"c" 3;
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c ~key:"a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c ~key:"b");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c ~key:"c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.st_evictions;
  Alcotest.(check int) "bounded" 2 (Cache.stats c).Cache.st_size

let test_digest_key_boundaries () =
  (* component boundaries must not alias *)
  Alcotest.(check bool) "ab|c <> a|bc" true
    (Cache.digest_key [ "ab"; "c" ] <> Cache.digest_key [ "a"; "bc" ]);
  Alcotest.(check bool) "a|b <> ab" true
    (Cache.digest_key [ "a"; "b" ] <> Cache.digest_key [ "ab" ]);
  Alcotest.(check bool) "deterministic" true
    (Cache.digest_key [ "x"; "y" ] = Cache.digest_key [ "x"; "y" ])

let test_cache_concurrent_access () =
  let c = Cache.create ~capacity:64 () in
  let keys = List.init 32 string_of_int in
  let r =
    Pool.with_pool ~jobs:8 (fun p ->
        Pool.map p
          (fun i ->
            let key = List.nth keys (i mod 32) in
            Cache.find_or_add c ~key (fun () -> int_of_string key))
          (List.init 512 Fun.id))
  in
  Alcotest.(check bool) "values correct" true
    (List.for_all2 (fun i v -> v = i mod 32) (List.init 512 Fun.id) r);
  Alcotest.(check bool) "bounded" true ((Cache.stats c).Cache.st_size <= 64)

let test_cache_concurrent_stats_consistent () =
  (* hammer one cache from several domains over a key space wider than
     its capacity; the stats must balance exactly: every lookup is a hit
     or a miss, evictions never exceed insertions, size stays bounded *)
  let c = Cache.create ~capacity:64 () in
  let lookups = 4 * 600 in
  ignore
    (Pool.with_pool ~jobs:4 (fun p ->
         Pool.map p
           (fun i ->
             let key = string_of_int ((i * 37) mod 128) in
             Cache.find_or_add c ~key (fun () -> int_of_string key))
           (List.init lookups Fun.id)));
  let s = Cache.stats c in
  Alcotest.(check int) "hits + misses = lookups" lookups
    (s.Cache.st_hits + s.Cache.st_misses);
  Alcotest.(check bool) "evictions <= misses" true
    (s.Cache.st_evictions <= s.Cache.st_misses);
  Alcotest.(check bool) "misses cover the key space" true
    (s.Cache.st_misses >= 128);
  Alcotest.(check int) "size settles at capacity" 64 s.Cache.st_size

let test_cache_concurrent_no_torn_values () =
  (* values are structured; a torn read would surface as a tuple whose
     halves disagree with each other or with the key *)
  let c = Cache.create ~capacity:32 () in
  let rs =
    Pool.with_pool ~jobs:8 (fun p ->
        Pool.map p
          (fun i ->
            let k = (i * 13) mod 80 in
            let key = string_of_int k in
            (k, Cache.find_or_add c ~key (fun () -> (k, k * k, key))))
          (List.init 1600 Fun.id))
  in
  List.iter
    (fun (k, (k', sq, key)) ->
      Alcotest.(check int) "first field" k k';
      Alcotest.(check int) "derived field" (k * k) sq;
      Alcotest.(check string) "string field" (string_of_int k) key)
    rs

(* ---- telemetry domain-safety under the pool ---- *)

let test_metrics_parallel_increments () =
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  Tytra_telemetry.Metrics.reset ();
  ignore
    (Pool.with_pool ~jobs:8 (fun p ->
         Pool.map p
           (fun i ->
             Tytra_telemetry.Metrics.incr "exec.test.count";
             Tytra_telemetry.Metrics.observe "exec.test.obs" (float_of_int i))
           (List.init 1000 Fun.id)));
  Alcotest.(check (option (float 0.0))) "no lost increments" (Some 1000.0)
    (Tytra_telemetry.Metrics.counter_value "exec.test.count");
  match Tytra_telemetry.Metrics.histogram_stats "exec.test.obs" with
  | Some s ->
      Alcotest.(check int) "no lost observations" 1000
        s.Tytra_telemetry.Metrics.hs_count
  | None -> Alcotest.fail "histogram missing"

let test_spans_parallel_record () =
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  Tytra_telemetry.Span.reset ();
  Tytra_telemetry.Span.set_keep true;
  Fun.protect ~finally:(fun () -> Tytra_telemetry.Span.set_keep false)
  @@ fun () ->
  ignore
    (Pool.with_pool ~jobs:4 (fun p ->
         Pool.map p
           (fun i ->
             Tytra_telemetry.Span.with_ ~name:"exec.test.span" (fun () ->
                 Tytra_telemetry.Span.with_ ~name:"exec.test.inner" (fun () -> i)))
           (List.init 100 Fun.id)));
  let evs = Tytra_telemetry.Span.events () in
  Alcotest.(check int) "all spans recorded" 200 (List.length evs);
  (* inner spans carry depth 1 within their own domain's stack *)
  List.iter
    (fun (e : Tytra_telemetry.Span.event) ->
      if e.Tytra_telemetry.Span.ev_name = "exec.test.inner" then
        Alcotest.(check int) "nested depth" 1 e.Tytra_telemetry.Span.ev_depth)
    evs

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_ordering;
    Alcotest.test_case "pool jobs=1 sequential" `Quick
      test_pool_jobs1_is_sequential;
    Alcotest.test_case "pool clamps jobs" `Quick test_pool_clamps_jobs;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool edge inputs" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "cache memoizes" `Quick test_cache_hit_and_memoization;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "digest key boundaries" `Quick
      test_digest_key_boundaries;
    Alcotest.test_case "cache concurrent access" `Quick
      test_cache_concurrent_access;
    Alcotest.test_case "cache concurrent stats consistent" `Quick
      test_cache_concurrent_stats_consistent;
    Alcotest.test_case "cache concurrent no torn values" `Quick
      test_cache_concurrent_no_torn_values;
    Alcotest.test_case "metrics domain-safe" `Quick
      test_metrics_parallel_increments;
    Alcotest.test_case "spans domain-safe" `Quick test_spans_parallel_record;
  ]
