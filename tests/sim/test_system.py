"""The full system: CPU timing, access dispatch, crash semantics."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.mem.trace import AccessType, MemoryAccess
from repro.sim.system import System

from tests.conftest import persist_trace, random_trace, small_config


class TestExecution:
    def test_instructions_counted(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.READ, 0, gap=4)])
        assert system.result().instructions == 5  # gap + the access

    def test_access_kinds_counted(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.READ, 0),
                    MemoryAccess(AccessType.WRITE, 64),
                    MemoryAccess(AccessType.PERSIST, 128)])
        result = system.result()
        assert (result.loads, result.stores, result.persists) == (1, 1, 1)

    def test_load_miss_stalls(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.READ, 0, gap=0)])
        assert system.result().load_stall_cycles > 0

    def test_cached_load_does_not_stall(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.READ, 0, gap=0)] * 2)
        first = system.result().load_stall_cycles
        system.run([MemoryAccess(AccessType.READ, 0, gap=0)])
        assert system.result().load_stall_cycles == first

    def test_persist_stalls(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.PERSIST, 0, gap=0)])
        assert system.result().persist_stall_cycles > 0

    def test_plain_store_does_not_stall(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.WRITE, 0, gap=0)])
        result = system.result()
        assert result.persist_stall_cycles == 0

    def test_store_data_flows_to_writeback(self):
        """A stored payload must survive eviction + writeback + re-read."""
        system = System(small_config())
        payload = b"\x3C" * 64
        system.run([MemoryAccess(AccessType.WRITE, 0, data=payload)])
        # Force line 0 out of the (tiny) hierarchy with conflicting loads.
        system.run([MemoryAccess(AccessType.READ, i * 4096)
                    for i in range(1, 40)])
        system.run([MemoryAccess(AccessType.READ, 0)])
        assert system.controller._plaintexts[0] == payload

    def test_address_beyond_data_region_rejected(self):
        system = System(small_config())
        with pytest.raises(AddressError):
            system.run([MemoryAccess(
                AccessType.READ, system.config.data_capacity)])

    def test_cycles_monotone(self):
        system = System(small_config())
        trace = random_trace(50)
        checkpoints = []
        for access in trace:
            system.execute(access)
            checkpoints.append(system.cycle)
        assert checkpoints == sorted(checkpoints)

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_engine_spellings_name_the_one_loop(self, engine):
        system = System(small_config(), engine=engine)
        assert system.engine == engine

    @pytest.mark.parametrize("engine", ["epoch", "vector", ""])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ConfigError, match="unknown engine"):
            System(small_config(), engine=engine)


class TestWarmupReset:
    def test_reset_stats_zeroes_measurements(self):
        system = System(small_config())
        system.run(random_trace(30))
        system.reset_stats()
        result = system.result()
        assert result.instructions == 0
        assert result.cycles == 0
        assert result.nvm_data_writes == 0

    def test_state_survives_reset(self):
        system = System(small_config())
        system.run([MemoryAccess(AccessType.PERSIST, 0,
                                 data=b"\x77" * 64)])
        system.reset_stats()
        system.run([MemoryAccess(AccessType.READ, 0)])
        assert system.controller._plaintexts[0] == b"\x77" * 64


class TestCrash:
    def test_crash_drops_cpu_caches(self):
        system = System(small_config())
        system.run(random_trace(20))
        system.crash()
        assert system.hierarchy.load(0).miss_to_memory

    def test_crash_then_recover_then_continue(self):
        system = System(small_config())
        system.run(persist_trace(25))
        system.crash()
        assert system.recover().success
        system.run(persist_trace(25, seed=9))  # must not raise

    def test_eadr_flushes_dirty_data(self):
        config = small_config(eadr=True)
        system = System(config)
        system.run([MemoryAccess(AccessType.WRITE, 0, data=b"\x66" * 64)])
        writes_before = system.controller.stats.counter("data_writes").value
        system.crash()
        assert system.controller.stats.counter("data_writes").value \
            > writes_before

    def test_no_eadr_loses_dirty_data(self):
        system = System(small_config(eadr=False))
        system.run([MemoryAccess(AccessType.WRITE, 0, data=b"\x66" * 64)])
        writes_before = system.controller.stats.counter("data_writes").value
        system.crash()
        assert system.controller.stats.counter("data_writes").value \
            == writes_before


def _flush_on_crash(system) -> list:
    """Crash ``system`` and return the WPQ entries the crash flushed."""
    flushed = []
    flush = system.controller.wpq.flush

    def capture():
        entries = flush()
        flushed.extend(entries)
        return entries

    system.controller.wpq.flush = capture
    system.crash()
    return flushed


class TestClockCatchUp:
    """``run`` advances the controller clock once at its end (or per
    record where the scheme does timed work there); the outcome must be
    what advancing it after every record gives."""

    SCHEMES = ("baseline", "lazy", "eager", "plp", "bmf-ideal", "scue",
               "bmt-eager")
    #: A tiny WPQ, so stalls and drains happen within a few records.
    TIGHT = dict(wpq_data_entries=4, wpq_metadata_entries=2)

    @staticmethod
    def _per_record(system, trace):
        for access in trace:
            system.execute(access)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_equals_per_record_advances(self, scheme):
        batched = System(small_config(scheme, **self.TIGHT))
        stepped = System(small_config(scheme, **self.TIGHT))
        warmup, measured = random_trace(40, seed=3), random_trace(120)
        batched.run(warmup)
        self._per_record(stepped, warmup)
        for system in (batched, stepped):
            system.reset_stats()
        batched.run(measured)
        self._per_record(stepped, measured)
        assert batched.result() == stepped.result()
        assert batched.controller.wpq.now == stepped.controller.wpq.now
        assert _flush_on_crash(batched) == _flush_on_crash(stepped)

    @pytest.mark.parametrize("scheme", ["scue", "plp"])
    def test_run_stopped_by_an_error_equals_per_record(self, scheme):
        trace = persist_trace(30) + [MemoryAccess(
            AccessType.PERSIST, small_config().data_capacity)]
        batched = System(small_config(scheme, **self.TIGHT))
        stepped = System(small_config(scheme, **self.TIGHT))
        with pytest.raises(AddressError):
            batched.run(trace)
        with pytest.raises(AddressError):
            self._per_record(stepped, trace)
        assert batched.controller.wpq.now == stepped.controller.wpq.now
        assert _flush_on_crash(batched) == _flush_on_crash(stepped)
