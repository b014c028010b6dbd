"""The simulated NVM device: persistent line-granularity storage plus the
PCM timing behaviour from :mod:`repro.mem.timing`.

Everything written here survives a simulated crash — the device *is* the
persistent domain.  Volatile structures (caches, WPQ contents under plain
ADR-less operation) live elsewhere and are dropped by crash injection.

Storage is a sparse ``{line_address: bytes}`` map so multi-gigabyte
configurations cost only what is actually touched.  Reads of never-written
lines return zero lines, matching freshly-initialised media.
"""

from __future__ import annotations

from repro.errors import AddressError
from repro.mem.address import CACHE_LINE_SIZE
from repro.mem.timing import TimingModel
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER
from repro.util.stats import StatGroup

ZERO_LINE = bytes(CACHE_LINE_SIZE)
#: Lines per PCM row buffer (a 4 KB row).
LINES_PER_ROW = 64
#: ``line_addr >> _ROW_SHIFT`` is the line's row id.
_ROW_SHIFT = (CACHE_LINE_SIZE * LINES_PER_ROW).bit_length() - 1
_LINE_OFFSET = CACHE_LINE_SIZE - 1


class NVMDevice:
    """Byte-addressable persistent memory with PCM read/write timing.

    The device exposes *functional* access (:meth:`read_line`,
    :meth:`write_line`) and *timing* queries (:meth:`read_latency`), plus a
    per-bank open-row model: consecutive reads to the same 4 KB row hit the
    row buffer and skip the activate.
    """

    def __init__(self, capacity: int, timing: TimingModel | None = None,
                 stats: StatGroup | None = None,
                 track_wear: bool = False,
                 recorder=None) -> None:
        if capacity <= 0 or capacity % CACHE_LINE_SIZE:
            raise AddressError(
                f"capacity must be a positive multiple of {CACHE_LINE_SIZE}")
        self.capacity = capacity
        self.timing = timing or TimingModel()
        # Optional per-line wear tracking (endurance analysis); counted
        # writes only — peek/poke are injection machinery, not traffic.
        from repro.mem.wear import WearTracker
        self.wear: "WearTracker | None" = \
            WearTracker("nvm") if track_wear else None
        self._lines: dict[int, bytes] = {}
        # Timing constants of the per-access path, derived once.
        self._banks = self.timing.banks
        #: Open row id per bank (-1: no row open yet).
        self._open_rows = [-1] * self._banks
        self._row_hit_read_cycles = self.timing.row_hit_read_cycles
        self._read_cycles = self.timing.read_cycles
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.stats = stats or StatGroup("nvm")
        self._reads = self.stats.counter("reads")
        self._writes = self.stats.counter("writes")
        self._row_hits = self.stats.counter("row_buffer_hits")
        self._row_misses = self.stats.counter("row_buffer_misses")

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def _check(self, line_addr: int) -> None:
        if line_addr % CACHE_LINE_SIZE:
            raise AddressError(f"{line_addr:#x} is not line-aligned")
        if not 0 <= line_addr < self.capacity:
            raise AddressError(
                f"{line_addr:#x} outside device capacity {self.capacity:#x}")

    def read_line(self, line_addr: int) -> bytes:
        """Read one 64 B line (functional; counts an array read)."""
        return self.timed_read(line_addr)[1]

    def timed_read(self, line_addr: int) -> tuple[int, bytes]:
        """Read one 64 B line and return ``(latency, data)``: the
        :meth:`read_latency` the access sees, then the counted
        :meth:`read_line`, with one row-buffer lookup for both."""
        if line_addr & _LINE_OFFSET or not 0 <= line_addr < self.capacity:
            self._check(line_addr)
        self._reads.value += 1
        row = line_addr >> _ROW_SHIFT
        bank = row % self._banks
        hit = self._open_rows[bank] == row
        if hit:
            self._row_hits.value += 1
            latency = self._row_hit_read_cycles
        else:
            self._open_rows[bank] = row
            self._row_misses.value += 1
            latency = self._read_cycles
        if self.obs.enabled:
            self.obs.instant(ev.EV_NVM_READ, ev.TRACK_NVM,
                             addr=line_addr, bank=bank, row_hit=hit)
        return latency, self._lines.get(line_addr, ZERO_LINE)

    def write_line(self, line_addr: int, data: bytes) -> None:
        """Persist one 64 B line."""
        if line_addr & _LINE_OFFSET or not 0 <= line_addr < self.capacity:
            self._check(line_addr)
        if len(data) != CACHE_LINE_SIZE:
            raise AddressError(
                f"line writes must be {CACHE_LINE_SIZE} bytes, "
                f"got {len(data)}")
        self._writes.value += 1
        row = line_addr >> _ROW_SHIFT
        bank = row % self._banks
        hit = self._open_rows[bank] == row
        if hit:
            self._row_hits.value += 1
        else:
            self._open_rows[bank] = row
            self._row_misses.value += 1
        if self.obs.enabled:
            self.obs.instant(ev.EV_NVM_WRITE, ev.TRACK_NVM,
                             addr=line_addr, bank=bank, row_hit=hit)
        if self.wear is not None:
            self.wear.record(line_addr)
        self._lines[line_addr] = bytes(data)

    def peek_line(self, line_addr: int) -> bytes:
        """Read without counting an access (for recovery-time inspection
        and attack injection, which are not part of measured traffic)."""
        self._check(line_addr)
        return self._lines.get(line_addr, ZERO_LINE)

    def poke_line(self, line_addr: int, data: bytes) -> None:
        """Write without counting an access (attack injection / test
        setup)."""
        self._check(line_addr)
        if len(data) != CACHE_LINE_SIZE:
            raise AddressError("poke_line needs a full line")
        self._lines[line_addr] = bytes(data)

    @property
    def lines_written(self) -> int:
        """Distinct lines ever stored (media footprint)."""
        return len(self._lines)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def read_latency(self, line_addr: int) -> int:
        """Cycles for a read issued now (consults the open-row state
        without modifying it — call before :meth:`read_line`)."""
        row = line_addr >> _ROW_SHIFT
        if self._open_rows[row % self._banks] == row:
            return self._row_hit_read_cycles
        return self._read_cycles

    @property
    def write_drain_cycles(self) -> int:
        """Steady-state cycles between WPQ drains (device write
        bandwidth)."""
        return self.timing.write_drain_cycles
