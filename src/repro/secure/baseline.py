"""Insecure baseline (paper §V-A): counter-mode encryption only.

Data are encrypted, but there is no integrity tree, no HMAC work, no
verification on fetch — the normalisation denominator for Figs 9-12.
Counter blocks are still cached and written back (CME needs them durable
eventually), so the baseline sees realistic counter traffic without any
of the tree overheads.
"""

from __future__ import annotations

from repro.cme.counters import CounterBlock
from repro.obs import events as ev
from repro.secure.base import RecoveryReport, SecureMemoryController
from repro.tree.store import TreeNode


class BaselineController(SecureMemoryController):
    """CME-only memory controller without integrity verification."""

    name = "baseline"
    crash_consistent_root = False

    # ------------------------------------------------------------------
    # No tree: fetches read the counter block directly, unverified.
    # ------------------------------------------------------------------
    def _fetch_miss(self, level: int, index: int,
                    line: int) -> tuple[TreeNode, int, int]:
        latency, raw = self.nvm.timed_read(line)
        node = self.store.decode(level, index, raw)
        self._meta_reads.add()
        self._install(line, node, dirty=False)
        # Zero nodes fetched *for verification*: no hash charge follows.
        return node, latency, 0

    # ------------------------------------------------------------------
    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        if self.config.leaf_write_through:
            # Keep counters durable with data (same persistence contract
            # as the secure schemes) but with zero integrity work.
            stall = self._persist_node(leaf, cycle)
            if self.obs.enabled:
                self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                                 scheme=self.name, leaf=leaf_index,
                                 cycles=stall)
            return stall
        # Otherwise the dirty cached block is flushed on eviction.
        return 0

    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        stall = self._persist_node(node, cycle)
        if self.obs.enabled:
            level, index = self.store.coords_of(node)
            self.obs.instant(ev.EV_META_FLUSH, ev.TRACK_CTL,
                             scheme=self.name, level=level, index=index,
                             cycles=stall)
        return stall

    def recover(self) -> RecoveryReport:
        """Nothing to verify: the baseline cannot detect anything, which is
        exactly why it is insecure."""
        return RecoveryReport(
            scheme=self.name, success=True, root_matched=True,
            detail="insecure baseline: no integrity verification performed")

    def onchip_overhead_bytes(self) -> int:
        return 0
