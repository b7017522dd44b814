(** The benchmark's metric catalog: every workload, every end-to-end
    metric and every per-layer metric, with the end-to-end metrics (on
    named workloads) each layer metric is expected to move.
    [BENCHMARK.json] at the repository root must list exactly these
    names and units; [test/test_benchmark.ml] checks it. *)

let workloads = [ "dse-exhaustive"; "dse-pruned"; "accuracy"; "serve-mixed" ]

type metric = { name : string; unit : string; higher_is_better : bool }

let m ?(higher = false) name unit = { name; unit; higher_is_better = higher }

(** Measured with tracing off, reported by every workload. The timed
    operation depends on the workload: a sweep (the two dse workloads), a
    cold estimate (accuracy) or a request at 200 req/s (serve-mixed). *)
let end_to_end =
  [ m "setup_s" "s";
    m "peak_rss_mb" "MB";
    m "latency_p50_ms" "ms";
    m "latency_tail_ms" "ms";
    m ~higher:true "throughput_per_s" "1/s" ]

let dse_ex = "dse-exhaustive"
let dse_pr = "dse-pruned"
let acc = "accuracy"
let srv = "serve-mixed"

(** Per-layer metrics (traced run), each with the (end-to-end metric,
    workload) pairs it should move. An empty list marks a metric of the
    reference path or of the benchmark itself, which moves no
    end-to-end metric. *)
let per_layer =
  let evaluator = [ ("throughput_per_s", dse_ex); ("latency_p50_ms", acc) ] in
  [ (m "front.lower.calls" "count", [ ("throughput_per_s", dse_ex) ]);
    (m "front.lower.ms_p50" "ms", [ ("throughput_per_s", dse_ex) ]);
    (m "front.lower.alloc_kb_p50" "kB", [ ("throughput_per_s", dse_ex) ]);
    (m "ir.parse.ms_p50" "ms", [ ("latency_p50_ms", acc); ("latency_p50_ms", srv) ]);
    (m ~higher:true "ir.parse.lines_per_s" "lines/s", [ ("latency_p50_ms", acc) ]);
    (m "ir.validate.ms_p50" "ms", evaluator);
    (m "ir.validate.alloc_kb_p50" "kB", evaluator);
    (m "ir.analysis.ms_p50" "ms", evaluator);
    (m "cost.evaluate.ms_p50" "ms", evaluator);
    (m "cost.evaluate.ms_p95" "ms", [ ("latency_tail_ms", acc) ]);
    (m "cost.evaluate.alloc_kb_p50" "kB", evaluator);
    (m "cost.resource_model.ms_p50" "ms", evaluator);
    (m "cost.throughput.ms_p50" "ms", evaluator);
    (m "cost.bounds.us_p50" "us", [ ("throughput_per_s", dse_pr) ]);
    (m ~higher:true "cost.stage_cache.resource.hit_ratio" "ratio", [ ("throughput_per_s", dse_ex) ]);
    (m ~higher:true "cost.stage_cache.inputs.hit_ratio" "ratio", [ ("throughput_per_s", dse_ex) ]);
    (m ~higher:true "cost.stage_cache.throughput.hit_ratio" "ratio", [ ("throughput_per_s", dse_ex) ]);
    (m "cost.err.alut_p95_pct" "%", []);
    (m "cost.err.reg_p95_pct" "%", []);
    (m "cost.err.bram_p95_pct" "%", []);
    (m "cost.err.dsp_p95_pct" "%", []);
    (m "cost.err.cpki_p95_pct" "%", []);
    (m "cost.err.p95_pct" "%", []);
    (m "dse.evaluated" "count", [ ("throughput_per_s", dse_pr) ]);
    (m ~higher:true "dse.pruned" "count", [ ("throughput_per_s", dse_pr) ]);
    (m ~higher:true "dse.prune_ratio" "ratio", [ ("throughput_per_s", dse_pr) ]);
    (m "dse.sweep.unattributed_pct" "%", [ ("throughput_per_s", dse_ex); ("throughput_per_s", dse_pr) ]);
    (m "dse.pareto.us_p50" "us", [ ("latency_tail_ms", srv) ]);
    (m ~higher:true "exec.pool.speedup" "ratio", []);
    (m "engine.submit.cold.ms_p50" "ms", [ ("latency_p50_ms", srv) ]);
    (m "engine.submit.parse_hit.ms_p50" "ms", [ ("latency_p50_ms", srv) ]);
    (m "engine.submit.hot.ms_p50" "ms", [ ("latency_p50_ms", srv) ]);
    (m "engine.submit.explore.ms_p50" "ms", [ ("latency_tail_ms", srv) ]);
    (m ~higher:true "engine.parse_cache.hit_ratio" "ratio", [ ("latency_p50_ms", srv) ]);
    (m ~higher:true "engine.response_cache.hit_ratio" "ratio", [ ("latency_p50_ms", srv) ]);
    (m ~higher:true "serve.response_cache.hot_hit_ratio" "ratio", [ ("latency_p50_ms", srv) ]);
    (m ~higher:true "serve.parse_cache.hit_ratio" "ratio", [ ("latency_p50_ms", srv) ]);
    (m "serve.wire_ms_p50" "ms", [ ("latency_tail_ms", srv); ("throughput_per_s", srv) ]);
    (m "serve.rejected_429" "count", [ ("throughput_per_s", srv) ]);
    (m "serve.gen_lag_p99_ms" "ms", [ ("latency_tail_ms", srv) ]);
    (m "serve.backlog_max" "count", [ ("latency_tail_ms", srv) ]);
    (m "serve.r200.p99_ms" "ms", [ ("latency_tail_ms", srv) ]);
    (m "serve.r400.p50_ms" "ms", [ ("latency_p50_ms", srv) ]);
    (m "serve.r400.p99_ms" "ms", [ ("latency_tail_ms", srv) ]);
    (m "serve.r800.p50_ms" "ms", [ ("latency_p50_ms", srv) ]);
    (m "serve.r800.p99_ms" "ms", [ ("latency_tail_ms", srv) ]);
    (m "sim.techmap.ms_p50" "ms", []);
    (m "sim.cyclesim.ms_p50" "ms", []);
    (m "trace.overhead_pct" "%", []);
    (m ~higher:true "bench.samples" "count", []);
    (m ~higher:true "bench.tail_pct" "%", []) ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) end_to_end with
  | Some x -> x.unit
  | None -> (
      match List.find_opt (fun (x, _) -> x.name = name) per_layer with
      | Some (x, _) -> x.unit
      | None -> invalid_arg ("Ledger.unit_of: unknown metric " ^ name))

(** The tail percentile each workload reports as [latency_tail_ms], with
    at least {!Stats.min_beyond} samples beyond it: the dse workloads
    collect [Stats.min_samples] sweeps before they stop; accuracy has
    200 designs and serve-mixed at least 200 measured requests
    ([Plan.window]). *)
let tail_pct = function
  | "dse-exhaustive" -> 85.0
  | "dse-pruned" | "accuracy" | "serve-mixed" -> 95.0
  | w -> invalid_arg ("Ledger.tail_pct: unknown workload " ^ w)
