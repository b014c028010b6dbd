"""Physical address map of the simulated secure NVM.

The NVM is carved into three regions, mirroring how secure-memory papers
(including SCUE) lay out media:

* ``DATA``     — user data lines (what the CPU reads/writes),
* ``COUNTER``  — CME counter blocks, one 64 B block per 64 data lines;
  these double as the *leaf nodes* of the SGX-style integrity tree,
* ``TREE``     — intermediate SIT/BMT nodes, level by level bottom-up.

All traffic is in 64-byte lines.  The :class:`AddressMap` owns the geometry
and every translation used elsewhere: data line -> covering counter block,
counter index within the block, tree (level, index) -> line address, and
back.  Centralising this removes a whole class of off-by-one bugs between
the schemes, recovery code and attack injection, all of which address the
same media image.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import AddressError, ConfigError

CACHE_LINE_SIZE = 64
#: ``addr >> LINE_SHIFT`` is the number of the line holding ``addr``.
LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1
#: Data lines covered by one CME counter block (64 minor counters).
LINES_PER_COUNTER_BLOCK = 64
#: Default fan-out of the SGX-style integrity tree (8 counters per node).
TREE_ARITY = 8
#: Tree-node counter widths that pack exactly into a 64 B line alongside
#: the 64-bit HMAC, per arity (VAULT-style wider nodes trade counter
#: width for fan-out: arity x bits + 64 == 512).
COUNTER_BITS_FOR_ARITY = {8: 56, 16: 28, 32: 14}


class Region(Enum):
    """Which media region a line address belongs to."""

    DATA = "data"
    COUNTER = "counter"
    TREE = "tree"


@dataclass(frozen=True)
class AddressMap:
    """Geometry of the simulated NVM and all address translations.

    Parameters
    ----------
    data_capacity:
        Bytes of user-data space.  Must be a multiple of
        ``CACHE_LINE_SIZE * LINES_PER_COUNTER_BLOCK`` so that every counter
        block is fully populated.
    tree_levels:
        Optional override of the integrity-tree height (number of levels
        *excluding* the on-chip root, counting the counter-block leaf level
        as level 0).  By default the minimum height that lets a single
        on-chip root node (``arity`` counters) cover all leaves is used.
        The paper's Table II uses a 9-level tree; pass ``tree_levels=9``
        with a matching capacity to replicate it.
    arity:
        Tree fan-out (counters per node).  8 is the paper's SIT; 16/32
        model VAULT/MorphCtr-style wide nodes (narrower counters, shorter
        trees — §VII).
    """

    data_capacity: int
    tree_levels: int | None = None
    arity: int = TREE_ARITY

    def __post_init__(self) -> None:
        if self.arity not in COUNTER_BITS_FOR_ARITY:
            raise ConfigError(
                f"unsupported tree arity {self.arity}; choose from "
                f"{sorted(COUNTER_BITS_FOR_ARITY)}")
        block_bytes = CACHE_LINE_SIZE * LINES_PER_COUNTER_BLOCK
        if self.data_capacity <= 0 or self.data_capacity % block_bytes:
            raise ConfigError(
                "data_capacity must be a positive multiple of "
                f"{block_bytes} bytes, got {self.data_capacity}")
        leaves = self.data_capacity // block_bytes
        needed = self._min_levels(leaves)
        if self.tree_levels is None:
            object.__setattr__(self, "tree_levels", needed)
        elif self.tree_levels < needed:
            raise ConfigError(
                f"tree_levels={self.tree_levels} too small: "
                f"{leaves} leaves need >= {needed} levels")
        self._precompute()

    def _precompute(self) -> None:
        """Derive and freeze the whole geometry once.

        Every translation below is on the simulator's per-access path;
        recomputing level widths and region bases per call dominated the
        address-translation profile, so the constructor computes them all
        and the hot methods reduce to table lookups and one multiply.
        The cached attributes are set via ``object.__setattr__`` (the
        dataclass is frozen) and are *not* dataclass fields, so equality
        and hashing still depend only on the declared geometry.
        """
        set_ = object.__setattr__
        blocks = self.data_capacity // (CACHE_LINE_SIZE
                                        * LINES_PER_COUNTER_BLOCK)
        widths = [blocks]
        for _ in range(1, self.tree_levels):
            widths.append(-(-widths[-1] // self.arity))
        widths.append(1)  # the on-chip root
        # Cumulative node counts below each in-memory tree level, so
        # tree_node_addr is O(1): offsets[level] == sum(widths[1:level]).
        offsets = [0, 0]
        for level in range(2, self.tree_levels):
            offsets.append(offsets[-1] + widths[level - 1])
        set_(self, "_widths", tuple(widths))
        set_(self, "_tree_offsets", tuple(offsets))
        set_(self, "_num_counter_blocks", blocks)
        set_(self, "_num_tree_nodes", sum(widths[1:self.tree_levels]))
        tree_base = self.data_capacity + blocks * CACHE_LINE_SIZE
        set_(self, "_tree_base", tree_base)
        set_(self, "_total_capacity",
             tree_base + sum(widths[1:self.tree_levels]) * CACHE_LINE_SIZE)
        # Interned branch chains, filled lazily per leaf (a fig10-quick
        # run walks the same few thousand branches millions of times).
        set_(self, "_branch_cache", {})
        set_(self, "_branch_addr_cache", {})

    @property
    def counter_bits(self) -> int:
        """Width of a tree-node counter for this arity (64 B layout)."""
        return COUNTER_BITS_FOR_ARITY[self.arity]

    def _min_levels(self, leaves: int) -> int:
        """Minimum levels (leaf level included) so the root's counters
        cover all leaves, i.e. arity**levels >= leaves."""
        levels = 1
        cover = self.arity
        while cover < leaves:
            cover *= self.arity
            levels += 1
        return levels

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def num_data_lines(self) -> int:
        return self.data_capacity // CACHE_LINE_SIZE

    @property
    def num_counter_blocks(self) -> int:
        return self._num_counter_blocks

    def level_width(self, level: int) -> int:
        """Number of nodes at tree ``level`` (level 0 = counter blocks).

        The root (level ``tree_levels``) is on-chip and has width 1; it is
        still addressable through this method for recovery arithmetic.
        """
        if level < 0 or level > self.tree_levels:
            raise AddressError(f"level {level} out of range "
                               f"[0, {self.tree_levels}]")
        return self._widths[level]

    @property
    def num_tree_nodes(self) -> int:
        """Total *in-memory* tree nodes: levels 1 .. tree_levels-1 (level 0
        is the counter region; the root never touches media)."""
        return self._num_tree_nodes

    # ------------------------------------------------------------------
    # Region base addresses (line-granularity, bytes)
    # ------------------------------------------------------------------
    @property
    def counter_base(self) -> int:
        return self.data_capacity

    @property
    def tree_base(self) -> int:
        return self._tree_base

    @property
    def total_capacity(self) -> int:
        return self._total_capacity

    # ------------------------------------------------------------------
    # Classification and translation
    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        """Line-align a byte address."""
        return addr & ~(CACHE_LINE_SIZE - 1)

    def region_of(self, addr: int) -> Region:
        """Classify a byte address into its media region."""
        if 0 <= addr < self.data_capacity:
            return Region.DATA
        if addr < self._tree_base:
            return Region.COUNTER
        if addr < self._total_capacity:
            return Region.TREE
        raise AddressError(f"address {addr:#x} beyond media "
                           f"({self._total_capacity:#x})")

    def data_line_index(self, addr: int) -> int:
        """Index of the data line containing byte address ``addr``."""
        if 0 <= addr < self.data_capacity:
            return addr // CACHE_LINE_SIZE
        self.region_of(addr)  # beyond-media addresses raise there
        raise AddressError(f"{addr:#x} is not a data address")

    def counter_block_of_data(self, addr: int) -> int:
        """Index of the counter block covering data byte address ``addr``."""
        return self.data_line_index(addr) // LINES_PER_COUNTER_BLOCK

    def minor_slot_of_data(self, addr: int) -> int:
        """Minor-counter slot (0..63) for data byte address ``addr``."""
        return self.data_line_index(addr) % LINES_PER_COUNTER_BLOCK

    def counter_block_addr(self, block_index: int) -> int:
        """Media line address of counter block ``block_index``."""
        if not 0 <= block_index < self._num_counter_blocks:
            raise AddressError(f"counter block {block_index} out of range")
        return self.data_capacity + block_index * CACHE_LINE_SIZE

    def counter_block_index(self, addr: int) -> int:
        """Inverse of :func:`counter_block_addr`."""
        if self.region_of(addr) is not Region.COUNTER:
            raise AddressError(f"{addr:#x} is not a counter-block address")
        return (addr - self.counter_base) // CACHE_LINE_SIZE

    def tree_node_addr(self, level: int, index: int) -> int:
        """Media line address of tree node ``(level, index)``.

        Level 0 maps into the counter region (leaves *are* counter blocks);
        the root has no media address and raises."""
        if level == 0:
            return self.counter_block_addr(index)
        if level < 0 or level >= self.tree_levels:
            raise AddressError("the root is on-chip and has no media address")
        if not 0 <= index < self._widths[level]:
            raise AddressError(
                f"node index {index} out of range at level {level}")
        return self._tree_base \
            + (self._tree_offsets[level] + index) * CACHE_LINE_SIZE

    def tree_node_coords(self, addr: int) -> tuple[int, int]:
        """Inverse of :func:`tree_node_addr` for counter/tree addresses."""
        region = self.region_of(addr)
        if region is Region.COUNTER:
            return 0, self.counter_block_index(addr)
        if region is not Region.TREE:
            raise AddressError(f"{addr:#x} is not a metadata address")
        slot = (addr - self.tree_base) // CACHE_LINE_SIZE
        for level in range(1, self.tree_levels):
            width = self.level_width(level)
            if slot < width:
                return level, slot
            slot -= width
        raise AddressError(f"{addr:#x} beyond tree region")

    def parent_coords(self, level: int, index: int) -> tuple[int, int]:
        """Coordinates of the parent of node ``(level, index)``; the parent
        of a level ``tree_levels - 1`` node is the on-chip root."""
        if level >= self.tree_levels:
            raise AddressError("the root has no parent")
        return level + 1, index // self.arity

    def parent_slot(self, index: int) -> int:
        """Which of the parent's ``arity`` counters covers child
        ``index``."""
        return index % self.arity

    def child_coords(self, level: int, index: int) -> list[tuple[int, int]]:
        """Coordinates of the (up to 8) children of node ``(level, index)``
        that actually exist given the leaf count."""
        if level <= 0:
            raise AddressError("counter blocks have no metadata children")
        lo = index * self.arity
        hi = min(lo + self.arity, self.level_width(level - 1))
        return [(level - 1, i) for i in range(lo, hi)]

    def branch_coords(self, block_index: int) -> tuple[tuple[int, int], ...]:
        """Coordinates of every in-memory node on the branch from counter
        block ``block_index`` up to (excluding) the root, leaf first.

        Chains are interned: the first request for a leaf computes its
        branch, later requests return the same immutable tuple (branch
        walks re-derive this on every access, so the memo removes a whole
        per-access allocation chain).
        """
        cached = self._branch_cache.get(block_index)
        if cached is not None:
            return cached
        coords = [(0, block_index)]
        level, index, arity = 0, block_index, self.arity
        while level + 1 < self.tree_levels:
            level, index = level + 1, index // arity
            coords.append((level, index))
        chain = tuple(coords)
        self._branch_cache[block_index] = chain
        return chain

    def branch_addrs(self, block_index: int) -> tuple[int, ...]:
        """Media line addresses of :func:`branch_coords`, leaf first.

        Interned like the coordinate chains: persist paths that walk a
        branch (the eager and PLP branch walks) hit one dict probe
        instead of re-deriving ``tree_node_addr`` per node per access.
        """
        cached = self._branch_addr_cache.get(block_index)
        if cached is not None:
            return cached
        addrs = tuple(self.tree_node_addr(level, index)
                      for level, index in self.branch_coords(block_index))
        self._branch_addr_cache[block_index] = addrs
        return addrs
