"""Counter-summing reconstruction of the SIT (paper §IV-B, Fig 8).

The insight that makes SIT recoverable bottom-up: under counter-summing
updates a parent counter equals the modular sum of all counters in its
child node (the child's *dummy counter*).  Recovery therefore:

1. reads every persisted counter block (the consistent leaf level),
2. verifies each leaf's HMAC against its own dummy counter — the value it
   was sealed with at persist time — which catches **roll-forward** and
   non-replay **roll-back** attacks (Table I, row 1),
3. rebuilds every intermediate level by grouping child dummies eight at a
   time, sealing each rebuilt node with its own dummy,
4. compares the rebuilt root counters with the on-chip Recovery_root,
   which catches **replay/roll-back** attacks (Table I, row 2), and
5. on success writes the rebuilt tree back to media so runtime
   verification resumes from a consistent image.

The same routine doubles as the "reconstruct and compare" recovery attempt
for the Lazy and Eager baselines — demonstrating the root crash
inconsistency problem: their stored root does not match the rebuilt one
even though no attack occurred (§III-B, Fig 5b).

Cost model (§V-D): recovery time is dominated by metadata reads at 100 ns
apiece.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cme.counters import CounterBlock
from repro.errors import MetadataTypeError
from repro.mem.address import AddressMap
from repro.secure.roots import RootRegister
from repro.tree.node import SITNode
from repro.tree.store import SITStore
from repro.util.bitfield import checked_sum
from repro.util.crypto import KeyedMac

METADATA_FETCH_NS = 100.0
COUNTER_BITS = 56


@dataclass
class ReconstructionResult:
    """Everything the counter-summing pass learned."""

    root_counters: list[int]
    root_matched: bool
    leaf_hmac_failures: list[int] = field(default_factory=list)
    metadata_reads: int = 0
    metadata_writes: int = 0
    rebuilt_levels: int = 0

    @property
    def clean(self) -> bool:
        """True when no integrity violation of any kind was detected."""
        return self.root_matched and not self.leaf_hmac_failures

    @property
    def recovery_seconds(self) -> float:
        return self.metadata_reads * METADATA_FETCH_NS * 1e-9


def _group_dummies(dummies: list[int], width: int,
                   arity: int) -> list[list[int]]:
    """Chunk child dummies into parent counter vectors of ``arity``,
    zero-padded (absent children have never been written)."""
    groups: list[list[int]] = []
    for parent in range(width):
        chunk = dummies[parent * arity:(parent + 1) * arity]
        chunk = chunk + [0] * (arity - len(chunk))
        groups.append(chunk)
    return groups


def counter_summing_reconstruction(
        store: SITStore, amap: AddressMap, mac: KeyedMac,
        recovery_root: RootRegister,
        write_back: bool = True) -> ReconstructionResult:
    """Rebuild the SIT bottom-up from persisted counter blocks and compare
    against the on-chip ``recovery_root`` (see module docstring).

    ``write_back=False`` performs a dry-run comparison without touching
    media (used when demonstrating recovery *failures*, where rewriting
    the tree would be wrong)."""
    result = ReconstructionResult(root_counters=[], root_matched=False)

    # -- Step 1+2: read and verify the leaf level --------------------
    bits = amap.counter_bits
    dummies: list[int] = []
    for index in range(amap.num_counter_blocks):
        leaf = store.load(0, index, counted=False)
        result.metadata_reads += 1
        if not isinstance(leaf, CounterBlock):
            raise MetadataTypeError(
                f"level-0 node {index} is {type(leaf).__name__}, "
                "expected CounterBlock")
        addr = amap.counter_block_addr(index)
        dummy = leaf.dummy_counter(bits)
        if not leaf.verify(mac, addr, dummy):
            result.leaf_hmac_failures.append(index)
        dummies.append(dummy)

    # -- Step 3: rebuild intermediate levels -------------------------
    rebuilt: list[list[SITNode]] = []
    for level in range(1, amap.tree_levels):
        width = amap.level_width(level)
        nodes = [SITNode(level, i, counters=group, arity=amap.arity)
                 for i, group in enumerate(
                     _group_dummies(dummies, width, amap.arity))]
        for node in nodes:
            node.seal(mac, store.node_addr(level, node.index),
                      node.dummy_counter())
        rebuilt.append(nodes)
        dummies = [node.dummy_counter() for node in nodes]
        result.rebuilt_levels += 1

    # -- Step 4: root comparison -------------------------------------
    root_counters = dummies + [0] * (amap.arity - len(dummies))
    result.root_counters = [checked_sum([c], bits) for c in root_counters]
    result.root_matched = recovery_root.matches(result.root_counters)

    # -- Step 5: write back on a clean recovery ----------------------
    if write_back and result.clean:
        for nodes in rebuilt:
            for node in nodes:
                store.save(node, counted=False)
                result.metadata_writes += 1
    return result
