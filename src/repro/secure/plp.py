"""PLP — Persist-Level Parallelism (Freij et al., MICRO'20) adapted to SIT
(paper §V-A).

PLP natively streamlines *BMT* updates: branch updates flow through a
pipeline backed by a Pipelined Tree-update Table (PTT), and the root is
updated atomically with the leaf, giving root crash consistency.  Applied
to SIT — which is what the paper evaluates — the complicated inter-level
dependencies force PLP to **read, update and persist shadow copies of
every node in the branch** on each write: the whole branch travels through
the small metadata WPQ partition, and that traffic is exactly why the
paper measures PLP at ~2.7x baseline write latency and ~7x lazy metadata
traffic (§V-B, §V-E).

Because the branch persist is atomic (PTT-journalled), the root register
is updated immediately: PLP never suffers root crash inconsistency — it
just pays dearly for the privilege.
"""

from __future__ import annotations

from repro.cme.counters import CounterBlock
from repro.crash.recovery import counter_summing_reconstruction
from repro.mem.address import LINE_SHIFT
from repro.obs import events as ev
from repro.secure.base import RecoveryReport, SecureMemoryController
from repro.tree.store import TreeNode

#: On-chip structures from the PLP paper (§V-F): the PTT is 616 B and the
#: epoch tracking table (ETT) is 48 bits.
PTT_BYTES = 616
ETT_BITS = 48


class PLPController(SecureMemoryController):
    """Eager, atomic, whole-branch persistence (PLP-on-SIT)."""

    name = "plp"
    crash_consistent_root = True

    def __init__(self, config, recorder=None) -> None:
        super().__init__(config, recorder)
        self._shadow_writes = self.stats.counter("shadow_writes")

    # ------------------------------------------------------------------
    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        fetch_latency, branch, branch_media = self._climb_branch(
            leaf, leaf_index, dummy_delta)
        # Atomic root update: no crash window (the PTT journals the
        # branch, so either all of it lands or none of it does).
        slot = branch[-1].index % self._arity
        self.running_root.add(slot, dummy_delta)
        branch[-1].seal(self.mac, branch_media[-1],
                        self.running_root.counter(slot))
        hash_latency = self.hash_engine.charge(
            len(branch), parallel=self.parallel_hashing)
        # Persist the *entire* branch, plus a shadow copy of each
        # intermediate node (PTT journalling), through the 10-entry
        # metadata WPQ partition — the back-pressure source.
        wpq_stall = 0
        for depth, node in enumerate(branch):
            # `_persist_node` with the branch address precomputed:
            # enqueue, serialise, count, mark the cached copy clean
            # (PLP never carries a recovery tracker to notify).
            node_addr = branch_media[depth]
            wpq_stall += self.wpq.enqueue(node_addr, cycle, metadata=True)
            raw = node.to_bytes()
            self.nvm.write_line(node_addr, raw)
            self._meta_writes.value += 1
            cached = self._mc_sets[(node_addr >> LINE_SHIFT)
                                   % self._mc_nsets].get(node_addr)
            if cached is not None and cached.dirty:
                cached.dirty = False
            if depth:
                # PTT shadow copy: the same bytes, enqueued and written
                # again through the metadata partition.
                wpq_stall += self.wpq.enqueue(node_addr, cycle,
                                              metadata=True)
                self.nvm.write_line(node_addr, raw)
                self._meta_writes.value += 1
                self._shadow_writes.value += 1
        if self.obs.enabled:
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, leaf=leaf_index,
                             branch_nodes=len(branch),
                             cycles=fetch_latency + hash_latency + wpq_stall)
        return fetch_latency + hash_latency + wpq_stall

    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        # Branch nodes are persisted (and marked clean) at every write;
        # a dirty eviction can only be a straggler with a current HMAC.
        stall = self._persist_node(node, cycle)
        if self.obs.enabled:
            level, index = self.store.coords_of(node)
            self.obs.instant(ev.EV_META_FLUSH, ev.TRACK_CTL,
                             scheme=self.name, level=level, index=index,
                             cycles=stall)
        return stall

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        result = counter_summing_reconstruction(
            self.store, self.amap, self.mac, self.running_root,
            write_back=True)
        detail = ("PLP branch persistence kept the root consistent"
                  if result.clean else
                  "integrity violation detected during recovery")
        return RecoveryReport(
            scheme=self.name, success=result.clean,
            root_matched=result.root_matched,
            leaf_hmac_failures=result.leaf_hmac_failures,
            metadata_reads=result.metadata_reads,
            metadata_writes=result.metadata_writes,
            recovery_seconds=result.recovery_seconds,
            detail=detail)

    def onchip_overhead_bytes(self) -> int:
        return super().onchip_overhead_bytes() + PTT_BYTES + ETT_BITS // 8
