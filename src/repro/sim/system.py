"""The full simulated system: in-order CPU + cache hierarchy + secure
memory controller + NVM (paper Table II).

The CPU model is deliberately simple — the schemes being compared differ
only in memory-controller behaviour, so a one-instruction-per-cycle core
with blocking loads and persist fences captures every first-order effect
the paper measures:

* non-memory instructions retire at 1 IPC (the ``gap`` field of each
  trace record);
* loads that miss L1/L2/L3 stall the core for the controller's read
  latency (array read overlapped with the counter-fetch chain);
* plain stores never stall (store buffer) — their cost surfaces later as
  LLC writebacks processed off the critical path;
* persists (store + clwb + sfence) stall for the write's critical path —
  the quantity the schemes fight over — plus any WPQ back-pressure.

A :meth:`crash` power-fails the machine: CPU caches vanish (their dirty
lines flushed first under eADR), the controller handles the ADR/eADR
metadata semantics, and :meth:`recover` asks the scheme to re-establish
integrity.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import AddressError, ConfigError
from repro.mem.address import CACHE_LINE_SIZE
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.trace import AccessType, MemoryAccess
from repro.obs import events as ev
from repro.obs.attribution import AttributionLedger, check_attribution
from repro.obs.recorder import NULL_RECORDER
from repro.secure import make_controller
from repro.secure.base import RecoveryReport, SecureMemoryController
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult
from repro.util.stats import StatGroup

#: ``addr & _LINE_MASK`` line-aligns a byte address.
_LINE_MASK = -CACHE_LINE_SIZE
#: Access kinds bound once: an enum member lookup through its class
#: costs about ten plain global loads, twice per access.
_READ = AccessType.READ
_WRITE = AccessType.WRITE


class System:
    """One simulated machine running one workload.

    ``recorder`` is an optional :class:`repro.obs.TraceRecorder`; it is
    threaded through the controller into the WPQ/NVM/hash engine rather
    than stored in :class:`SystemConfig`, which stays a pure, hashable
    experiment description (campaign cache keys depend on it).

    There is one access loop: each record retires through the
    controller stack (:meth:`run`, :meth:`execute`), whose persists reach the WPQ, the media and the root registers
    only through the seams the persist-order sanitizer and the crash-state
    explorer instrument — so the code they verify is the code that
    produces every figure.  ``engine`` is kept for callers written when a
    second, batched loop existed: ``"auto"`` and ``"scalar"`` both name
    the one loop, anything else raises :class:`ConfigError`.
    """

    def __init__(self, config: SystemConfig, recorder=None,
                 engine: str = "auto") -> None:
        if engine not in ("auto", "scalar"):
            raise ConfigError(
                f"unknown engine {engine!r}; choose auto or scalar")
        self.engine = engine
        self.config = config
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.controller = make_controller(config, recorder=self.obs)
        self.stats = StatGroup("system")
        self.hierarchy = CacheHierarchy(config.hierarchy,
                                        self.stats.child("cpu_caches"),
                                        recorder=self.obs)
        self.cycle = 0
        self._cycle_at_reset = 0
        #: Where every simulated cycle went; checked against ``cycles``
        #: when a result is built (the sum must be exact).
        self.attribution = AttributionLedger()
        self._instructions = self.stats.counter("instructions")
        self._loads = self.stats.counter("loads")
        self._stores = self.stats.counter("stores")
        self._persists = self.stats.counter("persists")
        self._load_stalls = self.stats.counter("load_stall_cycles")
        self._persist_stalls = self.stats.counter("persist_stall_cycles")
        self._data_capacity = config.data_capacity

    # ------------------------------------------------------------------
    def execute(self, access: MemoryAccess) -> None:
        """Retire one trace record (gap instructions + the memory op) and
        advance the controller's clock to the record's end."""
        self.controller.tick(self._retire(access))

    def _retire(self, access: MemoryAccess) -> int:
        """:meth:`execute` without the closing clock advance; returns the
        cycle the record retired at."""
        attr = self.attribution.cycles
        retired = access.gap + 1
        cycle = self.cycle + retired
        self.cycle = cycle
        attr["cpu"] += retired
        self._instructions.value += retired
        line = access.addr & _LINE_MASK
        if line >= self._data_capacity:
            raise AddressError(
                f"trace address {access.addr:#x} beyond the data region")
        controller = self.controller
        kind = access.kind
        if kind is _READ:
            self._loads.value += 1
            result = self.hierarchy.load(line)
            if result.miss_to_memory:
                # An IntegrityError here is a detected attack: the run
                # aborts, so the charged-but-unemitted cpu cycles never
                # reach a report.
                outcome = controller.read_data(  # reprolint: disable=exception-unsafe-attribution
                    line, cycle)
                latency = outcome.latency
                self.cycle = cycle + latency
                self._load_stalls.value += latency
                # latency == max(array, verify-chain) + flush: the
                # overlapped max goes to whichever side dominated.
                attr["read_flush"] += outcome.flush_cycles
                overlapped = latency - outcome.flush_cycles
                if outcome.counter_fetch_latency > outcome.array_latency:
                    attr["read_verify"] += overlapped
                else:
                    attr["read_media"] += overlapped
                if self.obs.enabled and latency:
                    self.obs.span(ev.EV_READ, ev.TRACK_CPU, cycle,
                                  latency, addr=line)
        elif kind is _WRITE:
            self._stores.value += 1
            result = self.hierarchy.store(line)
            if access.data is not None:
                # Remember the payload so the eventual writeback carries it.
                controller._plaintexts[line] = \
                    controller._payload_for(line, access.data)
        else:
            self._persists.value += 1
            result = self.hierarchy.persist(line)
            # Same modelling intent as the read path: a raise aborts
            # the simulation, no report is rendered from the ledger.
            outcome = controller.write_data(  # reprolint: disable=exception-unsafe-attribution
                line, access.data, cycle, persist=True)
            stall = outcome.cpu_stall
            self.cycle = cycle + stall
            self._persist_stalls.value += stall
            # cpu_stall == fetch + overflow + scheme + flush + wpq_stall.
            attr["write_fetch"] += outcome.fetch_latency
            attr["write_overflow"] += outcome.overflow_cycles
            attr["write_scheme"] += outcome.scheme_cycles
            attr["write_flush"] += outcome.flush_cycles
            attr["write_wpq"] += outcome.wpq_stall
            if self.obs.enabled and stall:
                self.obs.span(ev.EV_PERSIST, ev.TRACK_CPU, cycle,
                              stall, addr=line)
        for writeback in result.writebacks:
            if writeback < self._data_capacity:
                controller.write_data(writeback, None, self.cycle,
                                      persist=False)
        return self.cycle

    def run(self, trace: Iterable[MemoryAccess]) -> None:
        """Execute every record of ``trace``.

        The base controller's clock advance only drains the WPQ, and
        draining up to one cycle and then up to a later one leaves the
        queue exactly as one drain up to the later cycle does.  Every
        enqueue drains up to its own cycle first, so unless the scheme
        does time-driven work on the clock (eager's in-flight root
        updates) or a recorder timestamps the drains, one catch-up when
        the run ends — or stops on an exception — stands in for the
        per-record advances: the WPQ, its counters and what a crash
        flushes are the same as after :meth:`execute` per record.
        """
        retire = self._retire
        tick = self.controller.tick
        if self.obs.enabled or getattr(tick, "__func__", None) \
                is not SecureMemoryController.tick:
            for access in trace:
                tick(retire(access))
            return
        retired = self.cycle
        try:
            for access in trace:
                retired = retire(access)
        finally:
            tick(retired)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure.  Under eADR the CPU caches' dirty data lines are
        flushed through the normal write path first (eADR moves bytes; the
        encryption pads were already generated at store time); without it
        they are simply lost.  Metadata semantics live in the controller."""
        self.controller.prepare_crash()
        dirty = self.hierarchy.drop_all()
        if self.config.eadr:
            for line in dirty:
                if line < self.config.data_capacity:
                    self.controller.write_data(line, None, self.cycle,
                                               persist=False)
        self.controller.crash()

    def recover(self) -> RecoveryReport:
        report = self.controller.recover()
        if self.obs.enabled:
            # Recovery runs outside the measured cycle stream; its span is
            # sized from the report's wall-clock estimate at the 2 GHz
            # clock of Table II.
            dur = max(1, int(report.recovery_seconds * 2e9))
            self.obs.span(ev.EV_RECOVERY, ev.TRACK_RECOVERY, self.cycle,
                          dur, scheme=report.scheme, success=report.success,
                          metadata_reads=report.metadata_reads)
        return report

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all statistics (warm-up boundary); state is untouched."""
        self.stats.reset()
        self.controller.stats.reset()
        self.attribution.reset()
        self._cycle_at_reset = self.cycle

    def result(self, workload: str = "") -> RunResult:
        ctl = self.controller
        cycles = self.cycle - self._cycle_at_reset
        attribution = self.attribution.to_dict()
        check_attribution(attribution, cycles,
                          context=f"{ctl.name}/{workload or 'workload'}")
        histograms = {name: hist.to_dict() for name, hist
                      in ctl.stats.histograms().items()}
        return RunResult(
            workload=workload,
            scheme=ctl.name,
            cycles=cycles,
            instructions=self._instructions.value,
            loads=self._loads.value,
            stores=self._stores.value,
            persists=self._persists.value,
            load_stall_cycles=self._load_stalls.value,
            persist_stall_cycles=self._persist_stalls.value,
            avg_write_latency=ctl.stats.histogram("write_latency").mean,
            avg_read_latency=ctl.stats.histogram("read_latency").mean,
            nvm_data_reads=ctl.stats.counter("data_reads").value,
            nvm_data_writes=ctl.stats.counter("data_writes").value,
            nvm_meta_reads=ctl.stats.counter("meta_reads").value,
            nvm_meta_writes=ctl.stats.counter("meta_writes").value,
            hashes=ctl.hash_engine.stats.counter("hashes").value,
            stats={**self.stats.as_dict(), **ctl.stats_dict()},
            attribution=attribution,
            histograms=histograms,
        )
