"""Deterministic microbenchmarks over the simulator's per-access path.

Methodology
-----------
Every benchmark is *seed-deterministic*: the workload trace, the scheme
behaviour and therefore the simulation result are identical from run to
run, so each benchmark reports two independent things:

* **throughput** — wall-clock accesses/sec, measured as one untimed
  warmup run followed by ``repeats`` timed runs of which the *median*
  wall time counts (best-of-N medians absorb scheduler noise without
  rewarding a lucky outlier);
* **a result digest** — sha256 over the canonical JSON of the
  simulation result (via :func:`repro.bench.export.to_jsonable`, the
  same serialisation the figure exports use).  The digest must never
  change under a performance PR: byte-identical results are the
  contract that makes hot-path optimization safe.

The benchmark set:

* ``access_loop`` — the access loop: one SCUE system at fig10-quick
  scale driven by a pregenerated trace.  This is the number the
  ROADMAP's "runs as fast as the hardware allows" goal is tracked by.
* ``scheme:<name>`` — the same loop for every registered scheme, so a
  regression in one scheme's policy hook is attributed to that scheme.
* ``fig10_quick`` — end-to-end figure 10 at quick scale on a fixed
  workload subset: trace generation + campaign plumbing + the matrix of
  runs + ratio aggregation, i.e. what a user actually waits for.
* ``serve_cache_hit`` — the ``repro.serve`` fast path: repeated
  ``CampaignStore.get_raw`` fetches of one cached cell (one entry,
  hot after the first touch).  Throughput is fetches/sec; the row's
  ``extra`` field records p50/p99 per-fetch latency in nanoseconds —
  the "memcache speed" number docs/serving.md promises for cache hits.

The ``scheme:*`` and ``fig10_quick`` rows also carry **exact cost
columns** (:data:`COST_COLUMNS`): Python calls, ``blake2b`` digests and
NVM line reads/writes per access, counted in one extra run under
``sys.setprofile``.  Unlike wall time these are noise-free — the same
interpreter gives the same counts in every process — so
:func:`compare_reports` fails on any increase, advisory or not.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.bench.export import to_jsonable
from repro.bench.figures import fig10_execution_time
from repro.bench.harness import BenchScale
from repro.errors import ConfigError
from repro.sim.system import System
from repro.util.atomic import atomic_write_text
from repro.workloads import make_workload

SCHEMA_VERSION = 1

#: Schemes measured individually (every registered scheme, so policy-hook
#: regressions are attributed to the scheme that caused them).
PERF_SCHEMES = ("baseline", "lazy", "eager", "plp", "bmf-ideal", "scue")

#: Fixed workload subset for the end-to-end figure benchmark — small
#: enough to keep the harness interactive, mixed enough (dense array
#: updates + pointer-chasing queue churn) to exercise both cache-friendly
#: and cache-hostile branch walks.
FIG10_WORKLOADS = ("array", "queue")

#: Per-benchmark timed repeats (full / ``--quick``).  The warmup run is
#: always extra and untimed.
_REPEATS = {"access_loop": (5, 3), "scheme": (3, 1), "fig10_quick": (2, 1),
            "serve_cache_hit": (3, 1)}

#: Repeat classes whose rows carry the exact cost columns.
_COUNTED = ("scheme", "fig10_quick")

#: The exact per-access cost columns, in report order.
COST_COLUMNS = ("calls_per_access", "blake2b_per_access",
                "nvm_reads_per_access", "nvm_writes_per_access")


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome (one row of ``BENCH_perf.json``)."""

    name: str
    accesses: int
    wall_seconds: float
    accesses_per_sec: float
    digest: str
    repeats: int
    #: Optional benchmark-specific measurements (e.g. latency
    #: percentiles).  Informational: compare_reports never reads it.
    extra: dict[str, Any] | None = None
    #: The :data:`COST_COLUMNS` of a counted row (see :func:`count_costs`).
    costs: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        row = {
            "accesses": self.accesses,
            "wall_seconds": round(self.wall_seconds, 6),
            "accesses_per_sec": round(self.accesses_per_sec, 1),
            "digest": self.digest,
            "repeats": self.repeats,
        }
        if self.extra is not None:
            row["extra"] = self.extra
        if self.costs is not None:
            row.update(self.costs)
        return row


def result_digest(value: Any) -> str:
    """sha256 over the canonical JSON form of a simulation result."""
    payload = json.dumps(to_jsonable(value), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _clear_node_memos() -> None:
    """Empty the process-wide node parse/image memos, so a counted run's
    memo hits depend on its own benchmark only, not on what the process
    ran before it."""
    from repro.cme import counters
    from repro.tree import node
    for memo in (counters._PARSE_MEMO, counters._IMAGE_MEMO,
                 node._PARSE_MEMO, node._IMAGE_MEMO):
        memo.clear()


def count_costs(runner: Callable[[], tuple[int, Any]]) -> dict[str, float]:
    """The exact cost columns of ``runner``: one run after the node
    memos are emptied and re-warmed by a first run, counted under
    ``sys.setprofile``.

    Calls are Python ``call`` events (generator resumptions included);
    ``blake2b`` digests are ``digest()`` calls on ``hashlib.blake2b``
    objects, one per MAC and three per one-time pad; NVM reads and
    writes are calls of :meth:`NVMDevice.timed_read` and
    :meth:`NVMDevice.write_line`, the device's counted accesses.  Each
    is divided by the run's access count.
    """
    from repro.mem.nvm import NVMDevice
    read_code = NVMDevice.timed_read.__code__
    write_code = NVMDevice.write_line.__code__
    counts = dict.fromkeys(COST_COLUMNS, 0)

    def profile(frame, event, arg) -> None:
        if event == "call":
            counts["calls_per_access"] += 1
            code = frame.f_code
            if code is read_code:
                counts["nvm_reads_per_access"] += 1
            elif code is write_code:
                counts["nvm_writes_per_access"] += 1
        elif event == "c_call" and arg.__name__ == "digest" \
                and type(getattr(arg, "__self__", None)).__name__ \
                == "blake2b":
            counts["blake2b_per_access"] += 1

    _clear_node_memos()
    runner()
    sys.setprofile(profile)
    try:
        accesses, _ = runner()
    finally:
        sys.setprofile(None)
    return {column: round(count / accesses, 6)
            for column, count in counts.items()}


# ----------------------------------------------------------------------
# Benchmark bodies.  Each returns ``(accesses, digestable_result)``.
# ----------------------------------------------------------------------
def _run_scheme_once(scheme: str, scale: BenchScale,
                     trace: list) -> tuple[int, Any]:
    system = System(scale.config(scheme))
    system.run(iter(trace))
    return len(trace), system.result("perf")


def _scheme_bench(scheme: str) -> Callable[[], tuple[int, Any]]:
    scale = BenchScale.quick()
    workload = make_workload("array", scale.data_capacity,
                             scale.operations, seed=42)
    trace = list(workload.trace())

    def run() -> tuple[int, Any]:
        return _run_scheme_once(scheme, scale, trace)

    return run


def _fig10_bench() -> Callable[[], tuple[int, Any]]:
    scale = BenchScale.quick()
    accesses = len(FIG10_WORKLOADS) * len(PERF_SCHEMES) * scale.operations

    def run() -> tuple[int, Any]:
        figure = fig10_execution_time(scale, workloads=FIG10_WORKLOADS,
                                      seed=42)
        # Digest the full per-cell results, not just the ratio table:
        # a drift that cancels out in the ratios must still fail.
        return accesses, {"figure": figure,
                          "cells": figure.matrix.results}

    return run


def _serve_cache_hit_bench(fetches: int = 2000
                           ) -> Callable[[], tuple[int, Any]]:
    """Timed fetches of one cached cell through the service store.

    Setup is lazy (first call, i.e. the untimed warmup): compute one
    real quick-scale cell and put it in a throwaway
    :class:`~repro.serve.storage.CampaignStore`.  Timed runs then
    measure ``get_raw`` only — the exact call the HTTP layer makes for
    a cache hit.  Per-fetch latencies land in ``run.extra()`` as
    p50/p99 nanoseconds.
    """
    state: dict[str, Any] = {}

    def setup() -> None:
        import tempfile

        from repro.campaign.cache import cell_key
        from repro.campaign.executor import execute_cell
        from repro.campaign.spec import CampaignSpec
        from repro.serve.storage import CampaignStore

        scale = BenchScale.quick()
        spec = CampaignSpec.matrix(scale, ["array"], ("scue",),
                                   seed=42, name="serve-bench")
        cell = spec.cells[0]
        store = CampaignStore(
            tempfile.mkdtemp(prefix="repro-perf-serve-"))
        store.put(cell, execute_cell(cell), wall_time=0.0)
        state["store"] = store
        state["key"] = cell_key(cell)

    def run() -> tuple[int, Any]:
        if not state:
            setup()
        store, key = state["store"], state["key"]
        samples: list[int] = []
        data = b""
        for _ in range(fetches):
            start = time.perf_counter_ns()
            data = store.get_raw(key)
            samples.append(time.perf_counter_ns() - start)
        samples.sort()
        state["percentiles"] = {
            "fetch_p50_ns": samples[len(samples) // 2],
            "fetch_p99_ns": samples[min(len(samples) - 1,
                                        int(len(samples) * 0.99))],
        }
        # Digest the served entry: a fetch path that altered (or tore)
        # the payload must fail the determinism check.
        return fetches, json.loads(data)

    run.extra = lambda: dict(state.get("percentiles", {}))
    return run


def _benchmarks(names: tuple[str, ...] | None = None
                ) -> list[tuple[str, str, Callable[[], tuple[int, Any]]]]:
    """``(name, repeat_class, runner)`` for every selected benchmark."""
    table: list[tuple[str, str, Callable[[], tuple[int, Any]]]] = [
        ("access_loop", "access_loop", _scheme_bench("scue")),
    ]
    for scheme in PERF_SCHEMES:
        table.append((f"scheme:{scheme}", "scheme", _scheme_bench(scheme)))
    table.append(("fig10_quick", "fig10_quick", _fig10_bench()))
    table.append(("serve_cache_hit", "serve_cache_hit",
                  _serve_cache_hit_bench()))
    if names is not None:
        known = {name for name, _, _ in table}
        unknown = set(names) - known
        if unknown:
            raise ConfigError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"choose from {sorted(known)}")
        table = [row for row in table if row[0] in names]
    return table


BENCH_NAMES: tuple[str, ...] = tuple(name for name, _, _ in _benchmarks())


def run_benchmarks(quick: bool = False,
                   names: tuple[str, ...] | None = None,
                   echo: Callable[[str], None] | None = None
                   ) -> dict[str, Any]:
    """Run the benchmark set and return the ``BENCH_perf.json`` payload.

    ``quick`` lowers the repeat counts (CI smoke mode) without touching
    workload sizes, so digests stay comparable with full runs.
    """
    say = echo or (lambda line: None)
    results: dict[str, dict[str, Any]] = {}
    for name, repeat_class, runner in _benchmarks(names):
        repeats = _REPEATS[repeat_class][1 if quick else 0]
        accesses, result = runner()          # warmup, untimed
        digest = result_digest(result)
        walls: list[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            accesses, result = runner()
            walls.append(time.perf_counter() - start)
            repeat_digest = result_digest(result)
            if repeat_digest != digest:
                raise ConfigError(
                    f"benchmark {name!r} is non-deterministic: digest "
                    f"{repeat_digest[:12]} != {digest[:12]} across repeats")
        wall = statistics.median(walls)
        extra_fn = getattr(runner, "extra", None)
        costs = count_costs(runner) if repeat_class in _COUNTED else None
        bench = BenchResult(name, accesses, wall,
                            accesses / wall if wall else 0.0,
                            digest, repeats,
                            extra=extra_fn() if extra_fn else None,
                            costs=costs)
        results[name] = bench.to_dict()
        say(f"  {name:<18s} {bench.accesses_per_sec:>12,.0f} acc/s  "
            f"({wall:.3f}s median of {repeats}, digest "
            f"{digest[:12]})"
            + (f", {costs['calls_per_access']:,.1f} calls/acc"
               if costs else ""))
    return {
        "schema_version": SCHEMA_VERSION,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "benchmarks": results,
    }


# ----------------------------------------------------------------------
# Persistence + comparison
# ----------------------------------------------------------------------
def save_report(report: dict[str, Any], path: str | Path) -> None:
    atomic_write_text(Path(path),
                      json.dumps(report, indent=2, sort_keys=True)
                      + "\n")


def load_report(path: str | Path) -> dict[str, Any]:
    report = json.loads(Path(path).read_text())
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported perf schema version {version!r} "
            f"(expected {SCHEMA_VERSION})")
    if not isinstance(report.get("benchmarks"), dict):
        raise ConfigError(f"{path}: missing 'benchmarks' table")
    return report


def report_rows(label: str, report: dict[str, Any]
                ) -> list[dict[str, Any]]:
    """Tidy ``{snapshot, benchmark, accesses_per_sec, wall_seconds}``
    rows for one perf report — the trajectory feed of the report
    bundle (repro.viz) across committed ``BENCH_perf*.json`` baselines.
    """
    rows: list[dict[str, Any]] = []
    for name, bench in sorted(report["benchmarks"].items()):
        rows.append({
            "snapshot": label,
            "benchmark": name,
            "accesses_per_sec": bench.get("accesses_per_sec", 0.0),
            "wall_seconds": bench.get("wall_seconds", 0.0),
        })
    return rows


def _interpreter(report: dict[str, Any]) -> str:
    """``"CPython 3.11"``-style tag of the interpreter a report ran on
    (empty when the report does not say): call counts are comparable
    only between runs on the same implementation and minor version."""
    platform_info = report.get("platform", {})
    version = platform_info.get("python", "")
    return " ".join(filter(None, (
        platform_info.get("implementation", ""),
        ".".join(version.split(".")[:2]))))


def _compare_costs(name: str, base: dict[str, Any], cand: dict[str, Any],
                   lines: list[str]) -> bool:
    """Append one line per cost column of a counted baseline row; returns
    True when a column rose or is missing from the candidate."""
    failed = False
    for column in COST_COLUMNS:
        if column not in base:
            continue
        was, now = base[column], cand.get(column)
        if now is None:
            lines.append(f"MISSING   {name}: no {column} in candidate")
            failed = True
        elif now > was:
            lines.append(f"COST      {name}: {column} rose "
                         f"{was:g} -> {now:g}")
            failed = True
        else:
            lines.append(f"OK        {name}: {column} {now:g} "
                         f"(baseline {was:g})")
    return failed


def compare_reports(baseline: dict[str, Any], candidate: dict[str, Any],
                    threshold: float = 0.10,
                    advisory: bool = False,
                    exact_only: bool = False) -> tuple[int, list[str]]:
    """Compare a fresh perf report against a committed baseline.

    Returns ``(exit_code, report_lines)``.  A throughput drop larger
    than ``threshold`` fails (or warns under ``advisory`` — CI boxes are
    noisy); a **result-digest mismatch always fails**, advisory or not,
    because it means the optimization changed simulation behaviour, and
    so does **any rise in an exact cost column** (:data:`COST_COLUMNS`).
    Cost columns are compared only between reports from the same
    interpreter; ``exact_only`` skips the throughput rows and fails on an
    interpreter mismatch instead, so a gate built on it cannot pass
    without comparing a single count.
    """
    lines: list[str] = []
    failed = False
    base_benches = baseline["benchmarks"]
    cand_benches = candidate["benchmarks"]
    same_interpreter = _interpreter(baseline) == _interpreter(candidate)
    if not same_interpreter:
        lines.append(
            f"{'INTERP' if exact_only else 'SKIPPED':<9s} cost columns: "
            f"baseline ran on {_interpreter(baseline) or 'unknown'}, "
            f"candidate on {_interpreter(candidate) or 'unknown'}")
        failed = exact_only
    for name, base in sorted(base_benches.items()):
        cand = cand_benches.get(name)
        if cand is None:
            lines.append(f"MISSING   {name}: not in candidate report")
            failed = True
            continue
        if base["digest"] != cand["digest"]:
            lines.append(
                f"DIGEST    {name}: result digest changed "
                f"({base['digest'][:12]} -> {cand['digest'][:12]}) — "
                "simulation output is no longer byte-identical")
            failed = True
            continue
        if same_interpreter and _compare_costs(name, base, cand, lines):
            failed = True
        if exact_only:
            continue
        base_rate = base["accesses_per_sec"]
        cand_rate = cand["accesses_per_sec"]
        ratio = cand_rate / base_rate if base_rate else 0.0
        status = "OK"
        if ratio < 1.0 - threshold:
            status = "ADVISORY" if advisory else "REGRESSED"
            if not advisory:
                failed = True
        lines.append(
            f"{status:<9s} {name}: {cand_rate:,.0f} acc/s vs "
            f"{base_rate:,.0f} baseline ({ratio:.2f}x)")
    extra = sorted(set(cand_benches) - set(base_benches))
    for name in extra:
        lines.append(f"NEW       {name}: no baseline entry (ignored)")
    return (1 if failed else 0), lines
