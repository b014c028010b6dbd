"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, and
that tracing changes neither results nor the engine that runs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import cases  # noqa: E402
import spans  # noqa: E402
from repro.bench.harness import BenchScale  # noqa: E402
from repro.sim.system import System  # noqa: E402

try:
    from repro.sim.epoch import ineligible_reason
except ImportError:
    ineligible_reason = None

#: A fig10 matrix small enough for a unit test: one persistent and one
#: SPEC-like workload, both large enough to outlast the warm-up.
TINY = BenchScale(data_capacity=16 * 1024 * 1024, operations=30,
                  spec_accesses=400, warmup_accesses=50,
                  metadata_cache_size=16 * 1024, l3_size=256 * 1024)
TINY_PARAMS = (TINY, ("array", "mcf"))
FIG10 = cases.CASES["fig10-persist"]


def run_case(case, params, seed, traced=False):
    call = (lambda: case.timed(params, seed))
    if traced:
        raw, tracer = spans.traced_call(call)
    else:
        raw, tracer = call(), None
    return case.summarize(params, seed, raw), tracer


#: explore-array at about the CLI's default trace length.
SMALL_EXPLORE = cases.ExploreCase("explore-small", persists=5)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10) > a [1, 6) > b [2, 4); root > c [7, 9)
    tree = [["bench/workload", 0.0, 10.0, -1, "-"],
             ["secure/X.write_data", 1.0, 6.0, 0, "cell"],
             ["util.crypto/KeyedMac.mac", 2.0, 4.0, 1, "cell"],
             ["secure/X.write_data", 7.0, 9.0, 0, "cell"]]
    own, inclusive = spans.self_times(tree)
    assert own == {"bench/workload": 3.0, "secure/X.write_data": 5.0,
                   "util.crypto/KeyedMac.mac": 2.0}
    assert inclusive["secure/X.write_data"] == 7.0
    assert sum(own.values()) == 10.0


def test_entries_skip_calls_from_the_same_layer():
    tree = [["secure/Eager.write_data", 0.0, 5.0, -1, "-"],
            ["secure/Base.write_data", 1.0, 4.0, 0, "-"],
            ["util.crypto/KeyedMac.mac", 2.0, 3.0, 1, "-"],
            ["util.crypto/KeyedMac.mac_uncached", 2.1, 2.9, 2, "-"]]
    assert spans.entries(tree) == {"secure/Eager.write_data": 1,
                                   "util.crypto/KeyedMac.mac": 1}
    assert spans._sum_outer(tree, "secure") == 5.0


def test_generator_wrapper_spans_each_next():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    gen = tracer.wrap_generator(lambda: iter("ab"), "x/gen")
    assert list(gen()) == ["a", "b"]
    assert [s[0] for s in tracer.spans] == ["x/gen"] * 3
    assert not tracer.stack


def test_wrappers_are_removed_after_a_traced_run():
    probe = spans.Tracer()
    patches = spans.install(probe)
    originals = list(patches)
    spans.uninstall(patches)
    assert all(getattr(owner, attr) is original
               for owner, attr, original in originals)

    run_case(FIG10, TINY_PARAMS, 42, traced=True)
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, (owner, attr)

    from repro.analysis.sanitizer import attach_sanitizer
    from repro.workloads import make_workload
    system = System(TINY.config("scue"))
    if ineligible_reason is not None:
        assert ineligible_reason(system) is None
    sanitizer = attach_sanitizer(system.controller, collect=True)
    flush = sanitizer._originals["_flush_node"]
    assert flush.__func__ is type(system.controller).__dict__["_flush_node"]
    trace = make_workload("array", TINY.data_capacity, 20).record()
    system.run(iter(trace))
    system.crash()
    assert sanitizer.violations == []


def test_tracing_changes_neither_digests_nor_engines():
    plain, _ = run_case(FIG10, TINY_PARAMS, 42)
    traced, tracer = run_case(FIG10, TINY_PARAMS, 42, traced=True)
    assert traced.digests == plain.digests
    observed = {cell: sorted(engines)
                for cell, engines in tracer.cell_engines.items()}
    cells = FIG10.cells(TINY_PARAMS, 42)
    assert set(observed) == {cell.cell_id for cell in cells}
    if ineligible_reason is not None:
        for cell in cells:
            reason = ineligible_reason(System(cell.config))
            assert observed[cell.cell_id] == \
                ["scalar" if reason else "epoch"]
        assert spans.layer_metrics(tracer)["sim.epoch_ratio"] == 1.0


def test_tracing_an_exploration_keeps_its_shards():
    case = SMALL_EXPLORE
    params = case.setup(42)
    plain, _ = run_case(case, params, 42)
    traced, tracer = run_case(case, params, 42, traced=True)
    assert traced.digests == plain.digests
    assert traced.rows == plain.rows
    assert case.check(params, 42, plain) == []
    metrics = spans.layer_metrics(tracer)
    assert metrics["campaign.cells"] == len(plain.digests)
    assert metrics["explorer.recordings"] == len(plain.digests) + 2
    assert metrics["sim.epoch_ratio"] == 0.0
    assert metrics["crash.recover_calls"] >= plain.states


@pytest.mark.parametrize("case, params", [
    (FIG10, TINY_PARAMS), (SMALL_EXPLORE, None)])
def test_same_seed_same_digests(case, params):
    params = params if params is not None else case.setup(5)
    first, _ = run_case(case, params, 5)
    second, _ = run_case(case, params, 5)
    assert first.digests == second.digests
    assert first.accesses == second.accesses


def test_access_count_is_the_records_fed_to_system_run():
    outcome, tracer = run_case(FIG10, TINY_PARAMS, 42, traced=True)
    # Each cell records its trace once and feeds all of it to run().
    assert outcome.accesses == tracer.counts["workloads.records"]


def test_hash_charges_equal_simulated_hashes_on_the_scalar_path():
    from repro.sim.driver import run_workload
    from repro.workloads import make_workload
    trace = make_workload("array", TINY.data_capacity, 30).record()
    result, tracer = spans.traced_call(lambda: run_workload(
        TINY.config("scue"), trace, engine="scalar"))
    assert tracer.counts["tree.hash_charges"] == result.hashes > 0


def test_expected_digests_cover_every_workload():
    import json
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(cases.CASES)
    assert expected["explore-array"]["unique_states"] == {
        "scue": 81, "eager": 6561}


def test_scalar_differential_passes():
    plain, _ = run_case(FIG10, TINY_PARAMS, 3)
    assert FIG10.differential(TINY_PARAMS, 3, plain) == []


def test_missing_sources_exit_nonzero(tmp_path):
    import shutil
    import subprocess
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.*"):
        shutil.copy(path, bench / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10-persist",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no simulator sources" in proc.stderr
