"""Performance regression harness for the simulator's hot path.

Every figure and campaign funnels through the same per-access loop
(address map -> metadata cache -> counter/tree walk -> KeyedMac ->
WPQ/NVM); :mod:`repro.perf` measures that loop deterministically so
optimizations can be proven and regressions caught:

* :func:`run_benchmarks` — warmup + best-of-N-median microbenchmarks
  (the raw access loop, each scheme, and end-to-end fig10-quick), each
  reporting accesses/sec, wall seconds, and a sha256 digest of the
  simulation result so *any* behavioural drift is detected alongside
  timing drift, and — on the scheme and fig10-quick rows — the exact
  per-access cost columns of :func:`count_costs` (Python calls,
  ``blake2b`` digests, NVM reads and writes);
* :func:`save_report` / :func:`load_report` — the versioned
  ``BENCH_perf.json`` schema;
* :func:`compare_reports` — gate a fresh run against a committed
  baseline (fail on >10% throughput regression; a result-digest
  mismatch or a rising exact cost always fails, advisory mode or not).

``repro-sim perf`` / ``repro-sim perf compare`` are the CLI front ends
(docs/performance.md).
"""

from repro.perf.harness import (
    BENCH_NAMES,
    COST_COLUMNS,
    SCHEMA_VERSION,
    BenchResult,
    compare_reports,
    count_costs,
    load_report,
    report_rows,
    run_benchmarks,
    save_report,
)

__all__ = [
    "BENCH_NAMES",
    "COST_COLUMNS",
    "SCHEMA_VERSION",
    "BenchResult",
    "compare_reports",
    "count_costs",
    "load_report",
    "report_rows",
    "run_benchmarks",
    "save_report",
]
