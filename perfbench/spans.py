"""Outside-in tracing of the simulator's layers, from the benchmark's files.

:func:`install` replaces the public functions of each ``repro.*`` layer
with wrappers that record one span per call: name, start, end, parent
span and the campaign cell it ran in.  Spans are kept in memory and
written out when the benchmark ends; :func:`layer_metrics` derives the
per-layer metrics from them.

Two rules keep the trace measuring the same program as the untraced run:

* Wrappers go on classes and modules, never on instances.  The epoch
  engine's eligibility gate (``repro.sim.epoch.ineligible_reason``)
  treats any instance-level seam override as a patch and falls back to
  the scalar loop, so an instance wrapper would silently change the
  engine being measured.
* A wrapper replaces the binding the caller looks up: each subclass
  override, and a function imported by name into a caller's module is
  patched in that module.  A campaign's cell function is a default
  argument bound when ``run_campaign`` was defined, so the
  ``run_campaign`` wrapper passes a wrapped ``cell_fn`` explicitly.

:func:`install` returns a list of patches; :func:`uninstall` puts every
original object back.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
import weakref
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

#: Name of the span that wraps one whole workload call.
ROOT_SPAN = "bench/workload"


class Tracer:
    """Span store plus the counters measured at the same boundaries.

    A span is ``[name, start, end, parent_index, cell]``; names are
    ``"<layer>/<function>"``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.cell = "-"
        self.counts: Counter[str] = Counter()
        #: Per cell: engines its systems ran (``epoch``/``scalar``).
        self.cell_engines: dict[str, set[str]] = defaultdict(set)
        self.engine_reasons: Counter[str] = Counter()
        self._seen_systems: weakref.WeakSet = weakref.WeakSet()
        self.shards: list[Any] = []

    def open(self, name: str) -> list[Any]:
        span = [name, 0.0, 0.0,
                self.stack[-1] if self.stack else -1, self.cell]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def close(self, span: list[Any]) -> None:
        span[2] = self.clock()
        self.stack.pop()

    def wrap(self, fn: Callable, name: str,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """A wrapper that records one ``name`` span per call of ``fn``.
        ``before(args, kwargs)`` runs ahead of the span, ``after(result)``
        once the span is closed, both outside the measured interval."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if after is not None:
                after(result)
            return result
        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap` for a generator function: one span per
        ``next``, since the work happens while the caller iterates."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                span = open_(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(span)
                yield item
        return wrapper

    def note_system(self, system: Any, engine: str, reason: str) -> None:
        self.cell_engines[self.cell].add(engine)
        if system in self._seen_systems:
            return
        self._seen_systems.add(system)
        self.counts[f"systems.{engine}"] += 1
        self.engine_reasons[reason] += 1

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, start, end, parent, cell) in \
                    enumerate(self.spans):
                out.write(json.dumps(
                    {"id": index, "name": name, "start": start,
                     "end": end, "parent": parent, "cell": cell},
                    separators=(",", ":")) + "\n")


def self_times(spans: Iterable[list[Any]]) -> tuple[dict[str, float],
                                                    dict[str, float]]:
    """``(self, inclusive)`` seconds per span name.  A span's self time
    is its duration minus the durations of its direct children (children
    nest inside their parent, so they never overlap)."""
    spans = list(spans)
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - children[index]
        inclusive[name] += end - start
    return dict(own), dict(inclusive)


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


def entries(spans: list[list[Any]]) -> Counter[str]:
    """Calls into each span name from outside its layer: a call whose
    parent is in the same layer (a ``super()`` chain, ``mac`` delegating
    to ``mac_uncached``) is the same piece of work and is not counted."""
    counts: Counter[str] = Counter()
    for name, _, _, parent, _ in spans:
        if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
            counts[name] += 1
    return counts


# ======================================================================
# Installation
# ======================================================================
def _owners(classes: Iterable[type], attr: str) -> list[type]:
    """Every class that defines ``attr`` itself, among ``classes``, their
    bases and their subclasses, so each override gets its own wrapper."""
    found: dict[type, None] = {}
    pending = list(classes)
    while pending:
        cls = pending.pop()
        for klass in cls.__mro__:
            if not klass.__module__.startswith("repro."):
                continue
            fn = klass.__dict__.get(attr)
            if fn is not None and callable(fn) and \
                    not getattr(fn, "__isabstractmethod__", False):
                found[klass] = None
        pending.extend(cls.__subclasses__())
    return list(found)


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every traced function; return ``(owner, attr, original)``."""
    import repro.analysis.explorer.shards as shards
    import repro.bench.harness as harness
    import repro.campaign.executor as executor
    import repro.cme.encryption as encryption
    from repro.analysis.explorer.model import CrashStateModel
    from repro.cme.encryption import CMEEngine
    from repro.mem.hierarchy import CacheHierarchy
    from repro.secure import SCHEMES
    from repro.sim.system import System
    from repro.tree.hmac_engine import HashEngine
    from repro.util.crypto import KeyedMac
    from repro.workloads.base import RecordedWorkload
    from repro.workloads.spec import SpecWorkload

    try:
        from repro.sim import epoch
    except ImportError:
        epoch = None

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrapper: Callable) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_all(layer: str, classes: Iterable[type], attrs: Iterable[str],
                 **hooks: Any) -> None:
        for attr in attrs:
            for owner in _owners(classes, attr):
                patch(owner, attr, tracer.wrap(
                    owner.__dict__[attr], f"{layer}/{owner.__name__}.{attr}",
                    **hooks))

    # sim: the engine a system ran is whether System.run entered
    # EpochEngine.run (counted, not spanned: the interpreter's time is
    # System.run self time); the reason is what the gate the simulator
    # consults says before the call.
    wrap_all("sim", [System], ["__init__", "result"])
    if epoch is not None:
        engine_run = epoch.EpochEngine.__dict__["run"]

        @functools.wraps(engine_run)
        def count_epoch_run(*args, **kwargs):
            tracer.counts["epoch.runs"] += 1
            return engine_run(*args, **kwargs)
        patch(epoch.EpochEngine, "run", count_epoch_run)

    run_span = tracer.wrap(System.__dict__["run"], "sim/System.run")

    @functools.wraps(System.__dict__["run"])
    def system_run(system, trace):
        if system.engine == "scalar":
            reason = "engine=scalar"
        elif epoch is None:
            reason = "one engine"
        else:
            reason = epoch.ineligible_reason(system) or "eligible"
        epoch_runs = tracer.counts["epoch.runs"]
        try:
            return run_span(system, trace)
        finally:
            if epoch is None:
                engine = "single"
            else:
                engine = "epoch" if tracer.counts["epoch.runs"] > epoch_runs \
                    else "scalar"
            tracer.note_system(system, engine, reason)
    patch(System, "run", system_run)

    schemes = list(SCHEMES.values())
    wrap_all("secure", schemes, ["read_data", "write_data", "tick"])
    wrap_all("crash", schemes, ["recover"])
    wrap_all("mem", [CacheHierarchy], ["load", "store", "persist"])
    wrap_all("cme", [CMEEngine], ["encrypt", "decrypt"])

    def before_mac(args, kwargs) -> None:
        tracer.counts["mac.probes"] += 1
        if args[1:] in args[0].memo:
            tracer.counts["mac.hits"] += 1

    wrap_all("util.crypto", [KeyedMac], ["mac"], before=before_mac)
    wrap_all("util.crypto", [KeyedMac], ["mac_uncached"])
    patch(encryption, "make_otp",
          tracer.wrap(encryption.make_otp, "util.crypto/make_otp"))

    def before_charge(args, kwargs) -> None:
        count = args[1] if len(args) > 1 else kwargs.get("count", 1)
        if count > 0:
            tracer.counts["tree.hash_charges"] += count

    wrap_all("tree", [HashEngine], ["charge"], before=before_charge)

    def after_records(records) -> None:
        tracer.counts["workloads.records"] += len(records)

    wrap_all("workloads", [RecordedWorkload], ["record"],
             after=after_records)
    # SpecWorkload.trace is a generator; its callers materialise it with
    # list(), so the wrapper generates the records inside the span.
    spec_trace = SpecWorkload.__dict__["trace"]
    generate = tracer.wrap(lambda self: list(spec_trace(self)),
                           "workloads/SpecWorkload.trace",
                           after=after_records)
    patch(SpecWorkload, "trace", functools.wraps(spec_trace)(
        lambda self: iter(generate(self))))
    for module in (executor, shards):
        patch(module, "make_workload",
              tracer.wrap(module.make_workload, "workloads/make_workload"))

    # campaign: run_campaign as imported by each figure/explorer module,
    # and the cell function it is given (or its default).
    default_cell_fn = executor.run_campaign.__kwdefaults__["cell_fn"]

    def cell_wrapper(cell_fn: Callable) -> Callable:
        traced = tracer.wrap(cell_fn, "campaign/cell")

        def run_cell(cell):
            outer, tracer.cell = tracer.cell, cell.cell_id
            try:
                result = traced(cell)
            finally:
                tracer.cell = outer
            if hasattr(result, "pruned_duplicates"):
                tracer.shards.append(result)
            return result
        return run_cell

    for module in (harness, shards):
        original = module.run_campaign
        traced = tracer.wrap(original, "campaign/run_campaign")

        def run_campaign(spec, *args, _traced=traced, **kwargs):
            kwargs["cell_fn"] = cell_wrapper(
                kwargs.get("cell_fn", default_cell_fn))
            return _traced(spec, *args, **kwargs)
        patch(module, "run_campaign", functools.wraps(original)(run_campaign))

    # analysis.explorer
    patch(shards, "record_cell",
          tracer.wrap(shards.record_cell, "analysis.explorer/record_cell"))
    patch(shards, "evaluate_state",
          tracer.wrap(shards.evaluate_state,
                      "analysis.explorer/evaluate_state"))
    wrap_all("analysis.explorer", [CrashStateModel], ["__init__", "state_of"])
    patch(CrashStateModel, "iter_cuts", tracer.wrap_generator(
        CrashStateModel.__dict__["iter_cuts"],
        "analysis.explorer/CrashStateModel.iter_cuts"))
    return patches


def uninstall(patches: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def traced_call(fn: Callable[[], Any]) -> tuple[Any, Tracer]:
    """Run ``fn`` under a fresh tracer whose first span covers the whole
    call; the wrappers are removed again whether or not it raises."""
    tracer = Tracer()
    patches = install(tracer)
    try:
        root = tracer.open(ROOT_SPAN)
        try:
            result = fn()
        finally:
            tracer.close(root)
    finally:
        uninstall(patches)
    return result, tracer


# ======================================================================
# Per-layer metrics
# ======================================================================
def _sum(table: dict[str, float], prefix: str,
         names: Iterable[str] | None = None) -> float:
    if names is not None:
        return sum(table.get(f"{prefix}/{name}", 0.0) for name in names)
    return sum(value for name, value in table.items()
               if layer_of(name) == prefix)


def _sum_suffix(table: dict[str, float], layer: str, suffix: str) -> float:
    return sum(value for name, value in table.items()
               if layer_of(name) == layer and name.endswith(suffix))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (README.md lists
    what each one should move, on which workload)."""
    spans = tracer.spans
    own, inclusive = self_times(spans)
    calls = entries(spans)
    counts = tracer.counts
    systems = counts["systems.epoch"] + counts["systems.scalar"] \
        + counts["systems.single"]
    oracle_us = sorted(
        (end - start) * 1e6 for name, start, end, _, _ in spans
        if name == "analysis.explorer/evaluate_state")
    cuts = sum(shard.cuts for shard in tracer.shards)
    pruned = sum(shard.pruned_duplicates for shard in tracer.shards)
    explorer_model = [f"CrashStateModel.{name}" for name in
                      ("__init__", "state_of", "iter_cuts")]
    return {
        "sim.run_self_s": own.get("sim/System.run", 0.0),
        "sim.result_s": own.get("sim/System.result", 0.0),
        "sim.init_s": own.get("sim/System.__init__", 0.0),
        "sim.epoch_ratio": counts["systems.epoch"] / systems
        if systems else 0.0,
        "secure.read_calls": _sum_suffix(calls, "secure", ".read_data"),
        "secure.write_calls": _sum_suffix(calls, "secure", ".write_data"),
        "secure.self_s": _sum(own, "secure"),
        "mem.calls": _sum(calls, "mem"),
        "mem.self_s": _sum(own, "mem"),
        "cme.calls": _sum(calls, "cme"),
        "cme.self_s": _sum(own, "cme"),
        "util.crypto.mac_calls": _sum(calls, "util.crypto",
                                      ["KeyedMac.mac",
                                       "KeyedMac.mac_uncached"]),
        "util.crypto.self_s": _sum(own, "util.crypto"),
        "util.crypto.mac_memo_hit_ratio":
            counts["mac.hits"] / counts["mac.probes"]
            if counts["mac.probes"] else 0.0,
        "tree.hash_charges": counts["tree.hash_charges"],
        "crash.recover_calls": _sum(calls, "crash"),
        "crash.recover_s": _sum_outer(spans, "crash"),
        "explorer.record_s": inclusive.get(
            "analysis.explorer/record_cell", 0.0),
        "explorer.recordings": calls.get("analysis.explorer/record_cell", 0),
        "explorer.model_s": _sum(own, "analysis.explorer", explorer_model),
        "explorer.oracle_s": sum(oracle_us) / 1e6,
        "explorer.oracle_us_p50": _percentile(oracle_us, 50),
        "explorer.oracle_us_p99": _percentile(oracle_us, 99),
        "explorer.dup_ratio": pruned / cuts if cuts else 0.0,
        "workloads.gen_s": _sum(own, "workloads"),
        "workloads.records": counts["workloads.records"],
        "campaign.self_s": _sum(own, "campaign"),
        "campaign.cells": sum(1 for span in spans
                              if span[0] == "campaign/cell"),
        "trace.spans": len(spans),
    }


def _sum_outer(spans: list[list[Any]], layer: str) -> float:
    """Inclusive seconds of the calls into ``layer`` (nested calls from
    the same layer are inside their parent and not added twice)."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if layer_of(name) == layer and (
                parent < 0 or layer_of(spans[parent][0]) != layer):
            total += end - start
    return total


def _percentile(sorted_values: list[float], pct: int) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100,
                                method="inclusive")[pct - 1] \
        if pct < 100 else sorted_values[-1]
