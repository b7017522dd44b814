(* Execution-layer tests: the LRU evaluation cache (hit/miss
   accounting, eviction, key construction) under one domain and under
   several, plus telemetry domain-safety under parallel mutation. *)

open Tytra_exec

(* [par_map ~domains f xs] — [List.map f xs], with the items dealt
   round-robin to [domains] domains so they race on shared state. *)
let par_map ~domains f xs =
  let input = Array.of_list xs in
  let out = Array.make (Array.length input) None in
  let worker d () =
    Array.iteri
      (fun i x -> if i mod domains = d then out.(i) <- Some (f x))
      input
  in
  List.init domains (fun d -> Domain.spawn (worker d)) |> List.iter Domain.join;
  Array.to_list (Array.map Option.get out)

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
    par_map ~domains:8
      (fun i ->
        let key = List.nth keys (i mod 32) in
        Cache.find_or_add c ~key (fun () -> int_of_string key))
      (List.init 512 Fun.id)
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
    (par_map ~domains:4
       (fun i ->
         let key = string_of_int ((i * 37) mod 128) in
         Cache.find_or_add c ~key (fun () -> int_of_string key))
       (List.init lookups Fun.id));
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
    par_map ~domains:8
      (fun i ->
        let k = (i * 13) mod 80 in
        let key = string_of_int k in
        (k, Cache.find_or_add c ~key (fun () -> (k, k * k, key))))
      (List.init 1600 Fun.id)
  in
  List.iter
    (fun (k, (k', sq, key)) ->
      Alcotest.(check int) "first field" k k';
      Alcotest.(check int) "derived field" (k * k) sq;
      Alcotest.(check string) "string field" (string_of_int k) key)
    rs

(* ---- telemetry domain-safety ---- *)

let test_metrics_parallel_increments () =
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  Tytra_telemetry.Metrics.reset ();
  ignore
    (par_map ~domains:8
       (fun i ->
         Tytra_telemetry.Metrics.incr "exec.test.count";
         Tytra_telemetry.Metrics.observe "exec.test.obs" (float_of_int i))
       (List.init 1000 Fun.id));
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
    (par_map ~domains:4
       (fun i ->
         Tytra_telemetry.Span.with_ ~name:"exec.test.span" (fun () ->
             Tytra_telemetry.Span.with_ ~name:"exec.test.inner" (fun () -> i)))
       (List.init 100 Fun.id));
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
