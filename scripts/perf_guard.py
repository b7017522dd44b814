#!/usr/bin/env python3
"""Serving guard over a `bench e12 --json` report.

When E12's HTTP shard sweep ran (gauge bench.e12.http_measured is 1.0),
its responses must be byte-identical across the single-process, 2-shard
and 4-shard fronts, and the 4-shard front must clear a throughput floor
against the single-process one. The exact work counters and span names
are pinned by the tier-1 test `work` (test/test_work.ml), not here.

Usage: perf_guard.py REPORT.json
Exit code 0 when clean, 1 with a report on stderr otherwise.
"""

import json
import sys

# Throughput floor for the 4-shard front vs the single-process front,
# as a fraction of the machine's parallelism: the 3x target of the E12
# acceptance line is demanded in full on >=9-core machines and scaled
# down linearly below that (the bench drives 8 closed-loop clients, and
# on a 1-core container sharding cannot win at all — there the floor
# only catches a collapsed or deadlocked front, measured at 0.5-0.7x
# with margin kept for scheduler noise).
E12_THROUGHPUT_TARGET = 3.0
E12_THROUGHPUT_PER_CORE = 0.35


def check_e12_serving(gauges, failures):
    """E12 HTTP gates: identity across fronts + the throughput floor,
    enforced only when the shard sweep ran on this machine (the gauge
    bench.e12.http_measured is 0 when tybec.exe is not next to the bench
    binary or a server config failed to come up)."""
    if gauges.get("bench.e12.http_measured") != 1.0:
        return 0
    if gauges.get("bench.e12.shard_identical") != 1.0:
        failures.append(
            "gauge bench.e12.shard_identical: expected 1.0 (responses must "
            "be byte-identical across single-process, 2-shard and 4-shard "
            f"fronts), got {gauges.get('bench.e12.shard_identical')}"
        )
    single = gauges.get("bench.e12.shards1.req_s")
    sharded = gauges.get("bench.e12.shards4.req_s")
    cores = gauges.get("bench.e12.cores")
    if not single or not sharded or not cores:
        failures.append(
            "bench.e12.http_measured is 1.0 but the shards1/shards4 "
            "req_s or cores gauges are missing"
        )
        return 1
    floor = min(E12_THROUGHPUT_TARGET, E12_THROUGHPUT_PER_CORE * cores)
    ratio = sharded / single
    if ratio < floor:
        failures.append(
            f"E12 throughput: 4-shard front sustains {sharded:.0f} "
            f"req/s vs {single:.0f} req/s single-process ({ratio:.2f}x), "
            f"below the floor {floor:.2f}x for {cores:.0f} cores"
        )
    return 2


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        report = json.load(f)
    failures = []
    n = check_e12_serving(report.get("metrics", {}).get("gauges", {}), failures)
    if failures:
        print("perf guard FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print(f"perf guard OK: {n} E12 checks")


if __name__ == "__main__":
    main()
