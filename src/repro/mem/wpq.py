"""The memory controller's write pending queue (WPQ).

Table II: 64 entries with tags for user data, 10 entries without tags for
security metadata.  The WPQ sits inside the ADR persistence domain — on a
crash, entries already accepted into the WPQ are flushed to media (Intel
ADR semantics, §I) — so "accepted into the WPQ" is the simulator's
definition of *persisted* for user data and metadata alike.

Timing-wise the WPQ decouples CPU-visible write latency from the slow PCM
write: a write completes when it gets a free entry.  Back-pressure (a full
queue) is the mechanism by which schemes that generate extra metadata
traffic slow execution down, so drain modelling matters: the queue drains
one entry per ``drain_cycles`` of simulated time, driven by
:meth:`advance_to`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER
from repro.util.stats import StatGroup


@dataclass(slots=True)
class WPQEntry:
    """One queued write: target line and the cycle it entered the queue."""

    line_addr: int
    enqueued_at: int
    is_metadata: bool = False


class WritePendingQueue:
    """Fixed-capacity write queue with time-driven drain.

    The queue holds both user-data writes (``data_entries`` slots) and
    security-metadata writes (``metadata_entries`` slots), matching the
    split in Table II.  :meth:`enqueue` returns the number of *stall
    cycles* the producer must wait for a slot — zero when the queue has
    room.
    """

    def __init__(self, data_entries: int = 64, metadata_entries: int = 10,
                 drain_cycles: int = 39,
                 stats: StatGroup | None = None,
                 recorder=None) -> None:
        if data_entries <= 0 or metadata_entries <= 0:
            raise ConfigError("WPQ sizes must be positive")
        if drain_cycles <= 0:
            raise ConfigError("drain_cycles must be positive")
        self.data_capacity = data_entries
        self.metadata_capacity = metadata_entries
        self.drain_cycles = drain_cycles
        # Each partition queues ``(line_addr, enqueued_at)`` pairs;
        # :meth:`flush` hands them out as :class:`WPQEntry` records.
        self._data: deque[tuple[int, int]] = deque()
        self._metadata: deque[tuple[int, int]] = deque()
        self._next_drain_at = 0
        self._now = 0
        self.obs = recorder if recorder is not None else NULL_RECORDER
        group = stats or StatGroup("wpq")
        self.stats = group
        self._enqueued = group.counter("enqueued")
        self._meta_enqueued = group.counter("metadata_enqueued")
        self._drained = group.counter("drained")
        self._stall = group.counter("stall_cycles")
        self._full_events = group.counter("full_events")

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self._now

    def occupancy(self, metadata: bool = False) -> int:
        return len(self._metadata) if metadata else len(self._data)

    def advance_to(self, cycle: int) -> None:
        """Move simulated time forward, draining entries the device had
        bandwidth for.  Metadata and data share the drain port; metadata is
        drained preferentially (it is a small queue that must not clog)."""
        if cycle < self._now:
            return
        self._now = cycle
        if self._next_drain_at <= cycle:
            self._drain_due(cycle)

    def _drain_due(self, cycle: int) -> None:
        """Drain every entry whose slot on the drain port has come by
        ``cycle`` (the caller has set ``_now`` to it)."""
        data, metadata = self._data, self._metadata
        obs = self.obs if self.obs.enabled else None
        next_drain = self._next_drain_at
        drained = 0
        while next_drain <= cycle:
            queue = metadata or data
            if not queue:
                # Idle queue: next drain can start as soon as work arrives.
                next_drain = cycle
                break
            line_addr, enqueued_at = queue.popleft()
            drained += 1
            if obs is not None:
                obs.instant(ev.EV_WPQ_DRAIN, ev.TRACK_WPQ,
                            ts=max(next_drain, enqueued_at),
                            addr=line_addr, metadata=queue is metadata,
                            queued_cycles=cycle - enqueued_at)
            next_drain += self.drain_cycles
        self._next_drain_at = next_drain
        self._drained.value += drained

    def enqueue(self, line_addr: int, cycle: int,
                metadata: bool = False) -> int:
        """Accept a write at ``cycle``; returns producer stall cycles.

        If the relevant partition is full, time advances (draining) until a
        slot frees up, and the wait is returned as the stall.
        """
        now = self._now
        if cycle >= now:
            self._now = now = cycle
            if self._next_drain_at <= cycle:
                self._drain_due(cycle)
        if metadata:
            queue = self._metadata
            capacity = self.metadata_capacity
            accepted = self._meta_enqueued
        else:
            queue = self._data
            capacity = self.data_capacity
            accepted = self._enqueued
        stall = 0
        if len(queue) >= capacity:
            self._full_events.value += 1
            # Wait for enough drains to free a slot in this partition.
            while len(queue) >= capacity:
                wait_until = self._next_drain_at
                if wait_until <= now:
                    wait_until = now + 1
                stall += wait_until - now
                self._now = now = wait_until
                self._drain_due(wait_until)
            self._stall.value += stall
        if not self._data and not self._metadata:
            # Queue going busy: the first drain completes one service
            # time from now, not instantaneously.
            self._next_drain_at = now + self.drain_cycles
        queue.append((line_addr, now))
        accepted.value += 1
        if self.obs.enabled:
            self.obs.instant(ev.EV_WPQ_ENQUEUE, ev.TRACK_WPQ, ts=cycle,
                             addr=line_addr, metadata=metadata,
                             occupancy=len(queue), stall=stall)
            if stall:
                self.obs.instant(ev.EV_WPQ_STALL, ev.TRACK_WPQ, ts=cycle,
                                 addr=line_addr, metadata=metadata,
                                 stall=stall)
        return stall

    def flush(self) -> list[WPQEntry]:
        """Drain everything immediately (ADR flush-on-crash; also used at
        clean shutdown).  Returns the flushed entries in drain order."""
        flushed = [WPQEntry(line_addr, enqueued_at, True)
                   for line_addr, enqueued_at in self._metadata]
        flushed.extend(WPQEntry(line_addr, enqueued_at, False)
                       for line_addr, enqueued_at in self._data)
        self._metadata.clear()
        self._data.clear()
        return flushed

    def __len__(self) -> int:
        return len(self._data) + len(self._metadata)
