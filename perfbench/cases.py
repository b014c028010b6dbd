"""The benchmark's workloads: what each one runs and how its output is checked.

Every workload goes through a public entry point of the simulator only
(``repro.bench.figures.fig10_execution_time`` or
``repro.analysis.explorer.run_exploration``), in one process with
``jobs=1``, with the seed passed in.  A workload is split into four steps
so that only the simulator's own work sits inside the timed region:

* ``setup(seed)`` imports the entry point and builds the scale or
  config and the seed's input sizes;
* ``timed(params, seed)`` is the one call that is timed;
* ``summarize(params, seed, raw)`` turns its return value into an
  :class:`Outcome` (per-cell digests, access and state counts);
* ``check(params, seed, outcome)`` returns the invariant failures that
  hold for any seed.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

#: Schemes of the Figure-10 matrix (baseline is the denominator).
FIG10_SCHEMES = ("baseline", "plp", "lazy", "bmf-ideal", "scue")

#: The explore workload: the ``repro-sim explore run`` default geometry
#: (64 KiB data region, a 2-level 8-ary tree, shadow data checks), fixed
#: here so that a change of CLI defaults cannot change the benchmark.
EXPLORE_WORKLOAD = "array"
#: Persisted updates in the explored trace.  The explorer's work grows
#: with the persist count (eager's states with its square), and 20% of
#: array operations are read-only, so a fixed operation count would make
#: the work vary by about 10% from seed to seed; the trace is instead the
#: shortest one with this many persists (101 operations at seed 42).
EXPLORE_PERSISTS = 80
EXPLORE_ROWS = ("scue", "eager")
EXPLORE_GEOMETRY = dict(data_capacity=64 * 1024, tree_levels=2,
                        tree_arity=8, metadata_cache_size=64 * 1024,
                        check_data=True)


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    #: ``cell id -> sha256`` of the cell's canonical result JSON.
    digests: dict[str, str]
    #: Trace records fed to ``System.run``.
    accesses: int
    #: Unique crash states verified (explore only).
    states: int = 0
    #: Cells whose result is wrong on its own terms (oracle violations).
    bad_cells: list[str] = field(default_factory=list)
    #: Per-row exploration counts (explore only).
    rows: dict[str, dict[str, int]] = field(default_factory=dict)
    #: ``{workload: {scheme: execution-time ratio}}`` (fig10 only).
    ratios: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Modelled-design counts summed over every ``RunResult``.
    model: dict[str, int] = field(default_factory=dict)


def result_digest(value: Any) -> str:
    from repro.perf.harness import result_digest as digest
    return digest(value)


class Fig10Case:
    """Figure 10 at ``BenchScale.quick()`` over one workload family."""

    def __init__(self, name: str, family: str) -> None:
        self.name = name
        self.family = family

    def setup(self, seed: int) -> tuple[Any, tuple[str, ...]]:
        from repro.bench.figures import fig10_execution_time  # noqa: F401
        from repro.bench.harness import BenchScale
        import repro.workloads as workloads
        _import_epoch()
        return BenchScale.quick(), tuple(getattr(workloads, self.family))

    def cells(self, params, seed: int) -> list[Any]:
        from repro.campaign.spec import CampaignSpec
        scale, names = params
        return list(CampaignSpec.matrix(scale, names, FIG10_SCHEMES,
                                        seed=seed).cells)

    def timed(self, params, seed: int) -> Any:
        from repro.bench.figures import fig10_execution_time
        scale, names = params
        return fig10_execution_time(scale, names, seed=seed, jobs=1)

    def summarize(self, params, seed: int, figure) -> Outcome:
        scale, _ = params
        digests: dict[str, str] = {}
        accesses = 0
        model = dict.fromkeys(MODEL_FIELDS, 0)
        for workload, row in figure.matrix.results.items():
            for scheme, result in row.items():
                digests[f"{workload}/{scheme}"] = result_digest(result)
                # Every record is one load, store or persist; the warm-up
                # prefix runs before the statistics reset.
                accesses += (scale.warmup_accesses + result.loads
                             + result.stores + result.persists)
                for key, attr in MODEL_FIELDS.items():
                    model[key] += getattr(result, attr)
        ratios = {w: dict(r) for w, r in figure.table.items()
                  if w != "geomean"}
        return Outcome(digests=digests, accesses=accesses, ratios=ratios,
                       model=model)

    def check(self, params, seed: int, outcome: Outcome) -> list[str]:
        _, names = params
        problems = []
        expected = len(names) * len(FIG10_SCHEMES)
        if len(outcome.digests) != expected:
            problems.append(f"{len(outcome.digests)} cells, "
                            f"expected {expected}")
        for workload, row in outcome.ratios.items():
            for scheme, ratio in row.items():
                if not (math.isfinite(ratio) and ratio > 0):
                    problems.append(f"{workload}/{scheme}: ratio {ratio}")
        return problems

    def differential(self, params, seed: int,
                     outcome: Outcome) -> list[str]:
        """Re-run one cell (picked by the seed) on the scalar reference
        loop; its digest must equal the one ``engine="auto"`` produced."""
        from repro.sim.driver import run_workload
        from repro.workloads import make_workload
        cells = self.cells(params, seed)
        cell = cells[seed % len(cells)]
        workload = make_workload(cell.workload, cell.config.data_capacity,
                                 cell.operations, seed=cell.seed)
        trace = workload.record() if hasattr(workload, "record") \
            else list(workload.trace())
        result = run_workload(cell.config, trace,
                              workload_name=cell.workload,
                              warmup_accesses=cell.warmup_accesses,
                              engine="scalar")
        if result_digest(result) != outcome.digests.get(cell.cell_id):
            return [f"{cell.cell_id}: scalar digest differs from auto"]
        return []


class ExploreCase:
    """Crash-state exploration of ``array`` with the scue and eager rows."""

    def __init__(self, name: str, persists: int) -> None:
        self.name = name
        self.persists = persists

    def setup(self, seed: int) -> tuple[Any, int]:
        from repro.analysis.explorer import run_exploration  # noqa: F401
        from repro.mem.trace import AccessType
        from repro.sim.config import SystemConfig
        from repro.workloads import make_workload
        _import_epoch()
        config = SystemConfig(scheme="scue", **EXPLORE_GEOMETRY)
        operations = self.persists
        while sum(access.kind is AccessType.PERSIST for access in
                  make_workload(EXPLORE_WORKLOAD, config.data_capacity,
                                operations, seed=seed).record()) \
                < self.persists:
            operations += 1
        return config, operations

    def cells(self, params, seed: int) -> list[Any]:
        from repro.analysis.explorer.shards import build_exploration_cells
        config, operations = params
        cells, _ = build_exploration_cells(
            config, EXPLORE_WORKLOAD, operations, seed=seed,
            schemes=EXPLORE_ROWS)
        return cells

    def timed(self, params, seed: int) -> Any:
        from repro.analysis.explorer import run_exploration
        config, operations = params
        return run_exploration(config, EXPLORE_WORKLOAD, operations,
                               seed=seed, schemes=EXPLORE_ROWS, jobs=1)

    def summarize(self, params, seed: int, result) -> Outcome:
        from repro.workloads import make_workload
        config, operations = params
        campaign = result.campaign
        digests = {}
        bad = []
        for index, cell in enumerate(campaign.spec.cells):
            shard = campaign.results.get(index)
            if shard is None:
                bad.append(cell.cell_id)
                continue
            digests[cell.cell_id] = result_digest(shard)
            if shard.violations:
                bad.append(cell.cell_id)
        rows = {}
        for label in result.shards:
            merged = result.merged(label)
            rows[label] = {
                "unique_states": merged.unique_states,
                "cuts": merged.cuts,
                "pruned_duplicates": merged.pruned_duplicates,
                "recovered": merged.recovered,
                "recovery_failures": merged.recovery_failures,
                "violations": len(merged.violations)}
        # One recording per shard plus one sizing recording per row, each
        # feeding the whole trace to System.run.
        trace = make_workload(EXPLORE_WORKLOAD, config.data_capacity,
                              operations, seed=seed).record()
        recordings = len(campaign.spec.cells) + len(result.shards)
        return Outcome(digests=digests, accesses=recordings * len(trace),
                       states=sum(r["unique_states"] for r in rows.values()),
                       bad_cells=bad, rows=rows,
                       model=dict.fromkeys(MODEL_FIELDS, 0))

    def check(self, params, seed: int, outcome: Outcome) -> list[str]:
        problems = []
        if set(outcome.rows) != set(EXPLORE_ROWS):
            problems.append(f"rows {sorted(outcome.rows)}")
        for label, row in outcome.rows.items():
            if row["violations"]:
                problems.append(f"{label}: {row['violations']} violations")
            if row["unique_states"] == 0:
                problems.append(f"{label}: no crash states explored")
            if row["recovered"] + row["recovery_failures"] \
                    != row["unique_states"]:
                problems.append(f"{label}: verdicts do not cover states")
        # SCUE's claim: its root is recoverable at every crash cut.
        if outcome.rows.get("scue", {}).get("recovery_failures"):
            problems.append("scue: recovery failed on some crash state")
        return problems

    def differential(self, params, seed: int,
                     outcome: Outcome) -> list[str]:
        return []


#: ``model.*`` per-layer metric -> ``RunResult`` field.
MODEL_FIELDS = {"model.cycles": "cycles",
                "model.meta_reads": "nvm_meta_reads",
                "model.meta_writes": "nvm_meta_writes",
                "model.hashes": "hashes",
                "model.persist_stall_cycles": "persist_stall_cycles"}

CASES = {case.name: case for case in (
    Fig10Case("fig10-persist", "PERSISTENT_WORKLOADS"),
    Fig10Case("fig10-spec", "SPEC_WORKLOADS"),
    ExploreCase("explore-array", persists=EXPLORE_PERSISTS),
)}


def _import_epoch() -> None:
    # The engine module is imported lazily by the first System.run; load
    # it during set-up so the first timed repetition does not pay for it.
    # The guard keeps the benchmark working once the module is gone.
    try:
        import repro.sim.epoch  # noqa: F401
    except ImportError:
        pass
