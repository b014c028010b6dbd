"""The CPU-side cache hierarchy (L1/L2/L3 of Table II).

The hierarchy is a *placement and filtering* model: it decides which memory
instructions reach the memory controller and which writebacks the
controller sees, without carrying data (user-data bytes travel through the
functional layer in the secure memory controller itself).

Table II: private L1 64 KB 2-way, private L2 512 KB 8-way, shared L3 4 MB
8-way, all 64 B lines with LRU.  We model a single-core view (the paper
runs one application per core; scheme-relative results are per-core
effects), so "private vs shared" collapses to three inclusive levels.

A load miss in all three levels produces a memory read.  A store is
write-allocate/write-back: it dirties the line in L1 and surfaces at the
controller only when a dirty line is evicted from L3.  A *persist*
(clwb+fence) writes through immediately and leaves the line clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.mem.address import LINE_SHIFT
from repro.mem.cache import CacheLine, SetAssociativeCache
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER
from repro.util.stats import StatGroup


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes/associativities for the three levels (Table II defaults)."""

    l1_size: int = 64 * 1024
    l1_ways: int = 2
    l2_size: int = 512 * 1024
    l2_ways: int = 8
    l3_size: int = 4 * 1024 * 1024
    l3_ways: int = 8

    def to_dict(self) -> dict[str, int]:
        """Stable field-order dict (campaign cache keys, worker IPC)."""
        return {"l1_size": self.l1_size, "l1_ways": self.l1_ways,
                "l2_size": self.l2_size, "l2_ways": self.l2_ways,
                "l3_size": self.l3_size, "l3_ways": self.l3_ways}

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "HierarchyConfig":
        return cls(**{k: int(v) for k, v in data.items()})


class HierarchyResult(NamedTuple):
    """Outcome of one access against the hierarchy.

    ``miss_to_memory``: the access needs a line from the controller.
    ``writebacks``: dirty line addresses evicted out of L3 by this access
    (the controller must treat them as NVM writes).
    ``hit_level``: 1/2/3, or 0 on full miss.
    """

    miss_to_memory: bool
    writebacks: tuple[int, ...]
    hit_level: int


#: Outcomes of the accesses that push no dirty line out of L3, by the
#: level that held the line (0: memory); they are immutable, so every
#: such access shares one instance.
_HITS = {level: HierarchyResult(False, (), level) for level in (1, 2, 3)}
_MISS = HierarchyResult(True, (), 0)
_NO_WRITEBACKS: tuple[int, ...] = ()


def _fill(cache: SetAssociativeCache, line_addr: int,
          dirty: bool) -> CacheLine | None:
    """``cache.insert(line_addr, dirty=dirty)`` for a tag-only CPU cache
    (bounded, 64 B lines, no payload): returns the evicted victim."""
    cache_set = cache._sets[(line_addr >> LINE_SHIFT) % cache.num_sets]
    existing = cache_set.get(line_addr)
    if existing is not None:
        if dirty:
            existing.dirty = True
        cache_set.move_to_end(line_addr)
        return None
    victim = None
    if len(cache_set) >= cache.ways:
        _, victim = cache_set.popitem(last=False)
        cache._evictions.value += 1
        if victim.dirty:
            cache._writebacks.value += 1
    cache_set[line_addr] = CacheLine(line_addr, dirty)
    return victim


class CacheHierarchy:
    """Three-level inclusive LRU cache hierarchy.

    The per-access methods probe the levels' sets directly (the caches
    are tag-only, so a probe is one dict lookup) and keep each level's
    hit/miss/eviction counters exactly as :class:`SetAssociativeCache`'s
    own ``lookup``/``insert`` would.
    """

    def __init__(self, config: HierarchyConfig | None = None,
                 stats: StatGroup | None = None, recorder=None) -> None:
        self.config = config or HierarchyConfig()
        self.obs = recorder if recorder is not None else NULL_RECORDER
        group = stats or StatGroup("cpu_caches")
        self.stats = group
        cfg = self.config
        self.l1 = SetAssociativeCache(cfg.l1_size, cfg.l1_ways, name="l1",
                                      stats=group.child("l1"))
        self.l2 = SetAssociativeCache(cfg.l2_size, cfg.l2_ways, name="l2",
                                      stats=group.child("l2"))
        self.l3 = SetAssociativeCache(cfg.l3_size, cfg.l3_ways, name="l3",
                                      stats=group.child("l3"))
        self._levels = (self.l1, self.l2, self.l3)
        self._numbered_levels = tuple(enumerate(self._levels, start=1))

    # ------------------------------------------------------------------
    @staticmethod
    def _spill(victim, outer: SetAssociativeCache) -> None:
        """Write-back spill: a dirty victim evicted from an inner level
        marks its (inclusive) copy in the next level dirty."""
        outer_line = outer.peek(victim.addr)
        if outer_line is not None:
            outer_line.dirty = True

    def _install(self, line_addr: int, dirty: bool) -> tuple[int, ...]:
        """Install a line in all levels (inclusive fill); return the dirty
        line that falls out of L3, if any.

        This is the miss path of every access, so each level's
        ``SetAssociativeCache.insert`` is unrolled here: the line is
        absent from L1, but may sit in L2/L3."""
        l1, l2, l3 = self._levels
        # Fill outer-in so inner victims can spill into a present copy.
        victim = _fill(l3, line_addr, False)
        victim2 = _fill(l2, line_addr, False)
        victim1 = _fill(l1, line_addr, dirty)
        if victim1 is not None and victim1.dirty:
            self._spill(victim1, l2)
        if victim2 is not None and victim2.dirty:
            self._spill(victim2, l3)
        if victim is None:
            return _NO_WRITEBACKS
        # Inclusive hierarchy: L3 eviction invalidates inner copies,
        # inheriting their dirtiness.
        addr = victim.addr
        dirty_out = victim.dirty
        for inner in (l1, l2):
            inner_set = inner._sets[(addr >> LINE_SHIFT) % inner.num_sets]
            dropped = inner_set.pop(addr, None)
            if dropped is not None and dropped.dirty:
                dirty_out = True
        if not dirty_out:
            return _NO_WRITEBACKS
        if self.obs.enabled:
            self.obs.instant(ev.EV_LLC_WRITEBACK, ev.TRACK_CPU, addr=addr)
        return (addr,)

    def load(self, line_addr: int) -> HierarchyResult:
        """A load instruction touching ``line_addr``."""
        l1, l2, l3 = self._levels
        cache_set = l1._sets[(line_addr >> LINE_SHIFT) % l1.num_sets]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            l1._hits.value += 1
            return _HITS[1]
        l1._misses.value += 1
        # Promote into inner levels (no memory traffic).
        cache_set = l2._sets[(line_addr >> LINE_SHIFT) % l2.num_sets]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            l2._hits.value += 1
            victim = _fill(l1, line_addr, False)
            if victim is not None and victim.dirty:
                self._spill(victim, l2)
            return _HITS[2]
        l2._misses.value += 1
        cache_set = l3._sets[(line_addr >> LINE_SHIFT) % l3.num_sets]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            l3._hits.value += 1
            victim = _fill(l2, line_addr, False)
            if victim is not None and victim.dirty:
                self._spill(victim, l3)
            victim = _fill(l1, line_addr, False)
            if victim is not None and victim.dirty:
                self._spill(victim, l2)
            return _HITS[3]
        l3._misses.value += 1
        writebacks = self._install(line_addr, False)
        if not writebacks:
            return _MISS
        return HierarchyResult(True, writebacks, 0)

    def store(self, line_addr: int) -> HierarchyResult:
        """A plain store: write-allocate, dirty in L1, surfaces at memory
        only via later eviction."""
        l1, l2, l3 = self._levels
        cache_set = l1._sets[(line_addr >> LINE_SHIFT) % l1.num_sets]
        line = cache_set.get(line_addr)
        if line is not None:
            cache_set.move_to_end(line_addr)
            l1._hits.value += 1
            line.dirty = True
            return _HITS[1]
        l1._misses.value += 1
        if l2.lookup(line_addr) is not None:
            hit_level = 2
        elif l3.lookup(line_addr) is not None:
            hit_level = 3
        else:
            hit_level = 0
        writebacks = self._install(line_addr, True)
        if not writebacks:
            return _HITS[hit_level] if hit_level else _MISS
        return HierarchyResult(hit_level == 0, writebacks, hit_level)

    def persist(self, line_addr: int) -> HierarchyResult:
        """A store + clwb + sfence: the line goes to the controller *now*
        and stays resident but clean."""
        hit_level = 0
        # Every level is probed (and counted); each resident copy is
        # cleaned.
        for level, cache in self._numbered_levels:
            cache_set = cache._sets[(line_addr >> LINE_SHIFT) % cache.num_sets]
            line = cache_set.get(line_addr)
            if line is None:
                cache._misses.value += 1
                continue
            cache_set.move_to_end(line_addr)
            cache._hits.value += 1
            line.dirty = False
            if hit_level == 0:
                hit_level = level
        if hit_level:
            return _HITS[hit_level]
        # Persists always reach memory; miss_to_memory reports whether the
        # *allocation* needed a fill (write-allocate on miss).
        writebacks = self._install(line_addr, False)
        if not writebacks:
            return _MISS
        return HierarchyResult(True, writebacks, 0)

    def drop_all(self) -> list[int]:
        """Crash: drop every level, returning dirty line addresses (what an
        eADR flush would persist)."""
        dirty: set[int] = set()
        for cache in self._levels:
            for line in cache.drop_all():
                if line.dirty:
                    dirty.add(line.addr)
        return sorted(dirty)
