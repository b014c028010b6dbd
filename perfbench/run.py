"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig10-persist --seed 42 \
        --seconds 30 --trace 0

Run from the repository root.  The simulator is imported from ``src/``.
With ``--trace 0`` the workload repeats for ``--seconds`` and the
end-to-end metrics are printed (medians over the repetitions); with
``--trace 1`` untraced and traced repetitions alternate and the per-layer
metrics are printed.  Every repetition is checked (see README.md); the
last line of standard output is one JSON object, and the exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: The seed whose per-cell digests are recorded in expected.json.
DEFAULT_SEED = 42
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: Timed repetitions per run at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Stop starting repetitions that could end after this many seconds of
#: the run, so a run always ends well within three minutes.
MAX_RUN_S = 150.0

#: Printed units of the end-to-end metrics.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "sim_acc_per_s": "1/s", "states_per_s": "1/s",
             "peak_rss_mb": "MiB", "failed_ratio": "ratio",
             "wall_ref_s": "s", "sim_acc_per_ref_s": "1/s",
             "host_loop_s": "s"}
#: End-to-end metrics in the JSON line (BENCHMARK.json ``end_to_end``).
#: The raw host timings are printed beside their rescaled ``*_ref_*``
#: forms, which are the ones gated (README.md, "Noise").
#: ``states_per_s`` exists only on explore-array and ``failed_ratio`` is 0
#: on a passing run; both are printed, and failures are also the JSON
#: line's ``attempted``/``failed``.
E2E_JSON = ("setup_s", "wall_ref_s", "sim_acc_per_ref_s", "peak_rss_mb")
#: Per-layer metric units (BENCHMARK.json ``per_layer``).
LAYER_UNITS = {
    "sim.run_self_s": "s", "sim.result_s": "s", "sim.init_s": "s",
    "sim.epoch_ratio": "ratio",
    "secure.read_calls": "count", "secure.write_calls": "count",
    "secure.self_s": "s",
    "mem.calls": "count", "mem.self_s": "s",
    "cme.calls": "count", "cme.self_s": "s",
    "util.crypto.mac_calls": "count", "util.crypto.self_s": "s",
    "util.crypto.mac_memo_hit_ratio": "ratio",
    "tree.hash_charges": "count",
    "crash.recover_calls": "count", "crash.recover_s": "s",
    "explorer.record_s": "s", "explorer.recordings": "count",
    "explorer.model_s": "s", "explorer.oracle_s": "s",
    "explorer.oracle_us_p50": "us", "explorer.oracle_us_p99": "us",
    "explorer.dup_ratio": "ratio",
    "workloads.gen_s": "s", "workloads.records": "count",
    "campaign.self_s": "s", "campaign.cells": "count",
    "model.cycles": "cycles", "model.meta_reads": "count",
    "model.meta_writes": "count", "model.hashes": "count",
    "model.persist_stall_cycles": "cycles",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig10-persist", "fig10-spec",
                                 "explore-array"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite this workload's entry in "
                             "expected.json from one run at the default "
                             "seed, after a change that is meant to "
                             "change simulated results")
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from interpreter start to the first cell, in fresh
    processes: imports plus scale/config construction."""
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            f"import cases; cases.CASES[{name!r}].setup({seed})")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


class Run:
    """Repetitions of one workload and the checks over their outputs."""

    def __init__(self, case, seed: int) -> None:
        self.case = case
        self.seed = seed
        self.params = case.setup(seed)
        self.outcomes = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        #: Each untraced repetition's wall time rescaled to the reference
        #: host, and the calibration loop's time around it.
        self.ref_walls: list[float] = []
        self.host_loops: list[float] = []
        self._host_now: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rep(self, call=None):
        """One timed repetition; ``call`` wraps the workload call (the
        traced run passes :func:`spans.traced_call`).  Returns the
        outcome, or ``None`` if the workload raised."""
        gc.collect()
        if self._host_now is None:
            self._host_now = calibrate.host_seconds()
        before = self._host_now
        wall0, cpu0 = time.perf_counter(), time.process_time()
        extra = None
        try:
            if call is None:
                raw = self.case.timed(self.params, self.seed)
            else:
                raw, extra = call(
                    lambda: self.case.timed(self.params, self.seed))
        except Exception:
            traceback.print_exc()
            cells = len(self.outcomes[0].digests) if self.outcomes else 1
            self.attempted += cells
            self.failed += cells
            self.problems.append("the workload raised")
            return None
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        outcome = self.case.summarize(self.params, self.seed, raw)
        # Calibrate once the workload's objects are garbage, so the loop's
        # few MiB never stack on top of them in ``peak_rss_mb``.
        del raw
        gc.collect()
        self._host_now = calibrate.host_seconds()
        host_loop = (before + self._host_now) / 2
        self.attempted += len(outcome.digests) + len(outcome.bad_cells)
        self.failed += len(outcome.bad_cells)
        self.outcomes.append(outcome)
        if call is None:
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.host_loops.append(host_loop)
            self.ref_walls.append(
                wall * calibrate.REFERENCE_S / host_loop)
        return outcome if extra is None else (outcome, extra)

    def verify(self) -> None:
        """Checks over every repetition: invariants that hold for any
        seed, the same digests in every repetition, the scalar-engine
        differential and, at the default seed, expected.json."""
        if not self.outcomes:
            return
        first = self.outcomes[0]
        self.problems += self.case.check(self.params, self.seed, first)
        for index, outcome in enumerate(self.outcomes[1:], start=2):
            changed = [cell for cell, digest in outcome.digests.items()
                       if first.digests.get(cell) != digest]
            if changed or outcome.digests.keys() != first.digests.keys():
                self.problems.append(f"repetition {index} differs from "
                                     f"repetition 1 in {changed}")
                self.failed += len(changed)
        self.problems += self.case.differential(self.params, self.seed,
                                                first)
        if self.seed != DEFAULT_SEED:
            print(f"digest check: skipped (expected.json holds seed "
                  f"{DEFAULT_SEED}, this run used {self.seed}); "
                  "invariants and the scalar differential checked")
            return
        expected = json.loads(EXPECTED.read_text())[self.case.name]
        wrong = sorted(cell for cell in expected["cells"].keys()
                       | first.digests.keys()
                       if expected["cells"].get(cell)
                       != first.digests.get(cell))
        for row, states in expected.get("unique_states", {}).items():
            got = first.rows.get(row, {}).get("unique_states")
            if got != states:
                self.problems.append(f"{row}: {got} unique states, "
                                     f"expected {states}")
        if wrong:
            self.problems.append(f"digest mismatch in {wrong}")
            self.failed += len(wrong) * len(self.outcomes)
        print(f"digest check: {len(expected['cells']) - len(wrong)}/"
              f"{len(expected['cells'])} cells match expected.json")

    @property
    def correct(self) -> bool:
        return bool(self.outcomes) and not self.problems \
            and self.failed == 0


def _budget_left(started: float, seconds: float, per_rep: float,
                 reps: int, minimum: int) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed + per_rep > MAX_RUN_S:
        return False
    return reps < minimum or elapsed + per_rep <= seconds


def end_to_end(args, run: Run) -> dict[str, float]:
    setup = statistics.median(measure_setup(args.workload, args.seed))
    wall = statistics.median(run.walls)
    ref_wall = statistics.median(run.ref_walls)
    first = run.outcomes[0]
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": statistics.median(run.cpus),
        "sim_acc_per_s": first.accesses / wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": run.failed / run.attempted,
        "host_loop_s": statistics.median(run.host_loops),
        "wall_ref_s": ref_wall,
        "sim_acc_per_ref_s": first.accesses / ref_wall,
    }
    if first.states:
        metrics["states_per_s"] = first.states / wall
    print(f"{args.workload}: seed {args.seed}, {len(run.walls)} "
          f"repetitions, {len(first.digests)} cells, {first.accesses} "
          "simulated accesses"
          + (f", {first.states} crash states" if first.states else ""))
    print("  wall_s per repetition: "
          + " ".join(f"{w:.3f}" for w in run.walls))
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {E2E_UNITS[name]}")
    print(f"  setup_s is the median of {SETUP_SAMPLES} fresh interpreters;"
          f" timings are medians of {len(run.walls)} repetitions; *_ref_*"
          f" rescale each repetition to a host where calibrate.py's loop"
          f" takes {calibrate.REFERENCE_S} s (it took host_loop_s here)")
    return metrics


def paper_comparison(args, run: Run) -> None:
    """Figure-10 geomeans beside the paper's averages, for information.
    The union of both fig10 workloads needs the other workload's ratios
    for this seed, which each fig10 run leaves in ``out/``."""
    from repro.bench.figures import PAPER_FIG10
    from repro.bench.harness import geomean
    ratios = run.outcomes[0].ratios
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-ratios.json").write_text(
        json.dumps(ratios, sort_keys=True))
    other = "fig10-spec" if args.workload == "fig10-persist" \
        else "fig10-persist"
    other_path = OUT / f"{other}-seed{args.seed}-ratios.json"
    union = dict(ratios)
    if other_path.exists():
        union.update(json.loads(other_path.read_text()))
    print("Figure 10 execution time over baseline (geomean; reduced "
          "BenchScale.quick() scale, information only):")
    print(f"  {'scheme':<10} {'this':>8} {'union':>8} {'paper':>8}")
    for scheme, paper in PAPER_FIG10.items():
        mine = geomean(row[scheme] for row in ratios.values())
        both = geomean(row[scheme] for row in union.values())
        print(f"  {scheme:<10} {mine:>8.3f} {both:>8.3f} {paper:>8.2f}")
    print(f"  'this' covers {len(ratios)} workloads; 'union' covers "
          f"{len(union)} of the paper's 13"
          + ("" if other_path.exists()
             else f" (run {other} with --seed {args.seed} to complete it)")
          + "; the paper's figure is an average over all 13")


def traced(args, run: Run) -> dict[str, float]:
    import spans
    started = time.perf_counter()
    per_layer, traced_walls, last = [], [], None
    while True:
        # Alternate which side goes first, so neither always runs on a
        # cold or a warm process.
        sides = [None, spans.traced_call]
        if len(traced_walls) % 2:
            sides.reverse()
        got = [run.rep(side) for side in sides]
        if None in got:
            return {}
        _, tracer = next(g for g in got if isinstance(g, tuple))
        traced_walls.append(tracer.spans[0][2] - tracer.spans[0][1])
        per_layer.append(spans.layer_metrics(tracer))
        last = tracer
        pair = run.walls[-1] + traced_walls[-1]
        if not _budget_left(started, args.seconds, pair, len(traced_walls),
                            1):
            break
    metrics = {name: statistics.median(values[name] for values in per_layer)
               for name in per_layer[0]}
    metrics.update(run.outcomes[-1].model)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) \
        - statistics.median(run.walls)
    # The trace must not change what ran: same engine per cell as the
    # gate picks with no wrappers installed, same digests as untraced.
    predicted = engines_untraced(run)
    observed = {cell: sorted(engines)
                for cell, engines in last.cell_engines.items()
                if cell != "-"}
    if observed != predicted:
        run.problems.append("traced engines differ from untraced: "
                            f"{observed} vs {predicted}")
    counts = {}
    for engines in observed.values():
        for engine in engines:
            counts[engine] = counts.get(engine, 0) + 1
    print(f"{args.workload}: seed {args.seed}, {len(traced_walls)} "
          f"untraced/traced pairs, {len(last.spans)} spans")
    print(f"  engines per cell: {counts}; reasons: "
          f"{dict(last.engine_reasons)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    last.write(path)
    print(f"  spans of the last traced repetition: {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {LAYER_UNITS[name]}")
    return metrics


def engines_untraced(run: Run) -> dict[str, list[str]]:
    """Per cell, the engine ``System.run`` picks for the cell's config
    with no wrappers installed (the explorer's recorder patches seams on
    its own systems, which makes them scalar as well)."""
    from repro.sim.system import System
    try:
        from repro.sim.epoch import ineligible_reason
    except ImportError:
        return {cell.cell_id: ["single"]
                for cell in run.case.cells(run.params, run.seed)}
    table = {}
    for cell in run.case.cells(run.params, run.seed):
        reason = ineligible_reason(System(cell.config))
        table[cell.cell_id] = ["scalar" if reason else "epoch"]
    return table


def record_expected(args, run: Run) -> None:
    outcome = run.outcomes[0]
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    entry = {"cells": dict(sorted(outcome.digests.items()))}
    if outcome.rows:
        entry["unique_states"] = {row: counts["unique_states"]
                                  for row, counts in outcome.rows.items()}
    data[args.workload] = entry
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.workload} to {EXPECTED.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import cases
    run = Run(cases.CASES[args.workload], args.seed)

    if args.record_expected:
        if args.seed != DEFAULT_SEED or run.rep() is None:
            return 1
        record_expected(args, run)
        return 0

    if args.trace:
        metrics = traced(args, run)
        names = list(LAYER_UNITS)
        run.verify()
    else:
        started = time.perf_counter()
        while run.rep() is not None and _budget_left(
                started, args.seconds, statistics.median(run.walls),
                len(run.walls), MIN_REPS):
            pass
        run.verify()
        metrics = end_to_end(args, run) if run.walls else {}
        names = list(E2E_JSON)
        if metrics and run.outcomes[0].ratios:
            paper_comparison(args, run)
    if not metrics:
        print("no repetition completed", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if any(not math.isfinite(metrics[name]) for name in names):
        print("non-finite metric", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": E2E_UNITS.get(name)
                           or LAYER_UNITS[name]}
                    for name in names},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
