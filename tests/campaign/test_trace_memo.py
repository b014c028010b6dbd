"""A serial campaign generates each workload's trace once and hands it
to every scheme's cell; the results stay those of per-cell regeneration,
and no trace outlives the campaign."""

import dataclasses
import gc
import weakref

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign import executor
from repro.campaign.executor import execute_cell
from repro.mem.trace import AccessType, MemoryAccess
from repro.perf.harness import result_digest
from repro.workloads import PERSISTENT_WORKLOADS

from tests.campaign._fakes import TinyScale

SCHEMES = ("baseline", "plp", "lazy", "bmf-ideal", "scue")


class _Trace(list):
    """A list that can be weakly referenced."""


@pytest.fixture
def spec():
    return CampaignSpec.matrix(TinyScale(operations=25),
                               PERSISTENT_WORKLOADS, SCHEMES, seed=5)


@pytest.fixture
def generated(monkeypatch):
    """Count ``make_workload`` calls per workload and keep a weak
    reference to every trace built through the executor."""
    calls: dict[str, int] = {}
    traces: list[weakref.ref] = []
    real = executor.make_workload

    class Recorded:
        def __init__(self, workload):
            self._workload = workload

        def record(self):
            trace = _Trace(self._workload.record())
            traces.append(weakref.ref(trace))
            return trace

    def counting(name, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return Recorded(real(name, *args, **kwargs))

    monkeypatch.setattr(executor, "make_workload", counting)
    return calls, traces


class TestTraceMemo:
    def test_one_generation_per_workload(self, spec, generated):
        calls, _ = generated
        outcome = run_campaign(spec, jobs=1)
        assert outcome.ok
        assert calls == dict.fromkeys(PERSISTENT_WORKLOADS, 1)

    def test_digests_equal_per_cell_regeneration(self, spec):
        shared = run_campaign(spec, jobs=1)
        for index, cell in enumerate(spec.cells):
            assert result_digest(shared.results[index]) \
                == result_digest(execute_cell(cell)), cell.cell_id

    def test_no_trace_outlives_the_campaign(self, spec, generated):
        _, traces = generated
        outcome = run_campaign(spec, jobs=1)
        assert outcome.ok
        assert len(traces) == len(PERSISTENT_WORKLOADS)
        gc.collect()
        assert all(ref() is None for ref in traces)

    def test_direct_cells_regenerate(self, spec, generated):
        calls, _ = generated
        execute_cell(spec.cells[0])
        execute_cell(spec.cells[0])
        assert calls == {spec.cells[0].workload: 2}

    def test_a_custom_cell_function_runs_as_given(self, spec, generated):
        calls, _ = generated

        def cell_fn(cell):
            return execute_cell(cell)

        assert run_campaign(spec, jobs=1, cell_fn=cell_fn).ok
        assert calls == dict.fromkeys(PERSISTENT_WORKLOADS,
                                      len(SCHEMES))


class TestSharedRecords:
    def test_trace_records_are_frozen(self):
        access = MemoryAccess(AccessType.PERSIST, 64, data=b"\x01" * 64)
        for field in ("kind", "addr", "gap", "data"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(access, field, None)
