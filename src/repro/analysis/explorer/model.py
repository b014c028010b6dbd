"""The crash-state model: persist units, the ordering DAG, and crash
cuts.

A recorded event stream is grouped into **persist units** — the atomic
granules of the hardware model:

* every outermost ``_flush_node`` bracket is one unit (an eviction
  writes one node; its WPQ admission and line write are inseparable),
* within a ``write_data`` bracket, TREE-region line writes each get
  their *own* unit (an in-operation ancestor persist is a separate WPQ
  entry and is exactly the granule a top-down bug reorders),
* everything else inside the bracket — the counter-block and data-line
  writes plus root-register updates — forms the operation's unit
  (leaf-write-through persists data+counter together; splitting them
  would model a weaker queue than ADR provides),
* events outside any bracket (delayed root-update landings) are
  singleton units.

Units are ordered by a **conflict partial order** built from events:
unit A precedes B iff some non-enqueue event of A conflicts with a
later non-enqueue event of B.  Two events conflict when they touch the
same NVM line, the same ``(register, slot)``, or — only when the scheme
publishes a :class:`~repro.analysis.protocol.ProtocolSpec` — the same
tree branch (interned ``branch_coords`` ancestors).  The spec is what
*licenses* same-branch ordering: its ``Precedes`` obligations are the
scheme's hardware-enforced persist order, so branch-overlapping units
may not reorder.  Schemes without a spec get only the physical
(same-line/same-register) edges — strictly more interleavings, i.e.
the conservative direction.

The unit graph is SCC-condensed (mutually-ordered units are one atomic
granule) and topologically reindexed, after which a **crash cut** is
any downward-closed set of units: the persists that made it to media
before power failed.  :meth:`CrashStateModel.iter_cuts` enumerates cuts
shard-by-shard (by newest unit index) with an optional ``max_lag``
bound on how many older units may still be in flight;
:func:`brute_force_cuts` is the independent reference enumeration used
by the pruning-soundness tests.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.explorer.record import (
    KIND_ENQUEUE, KIND_LINE, KIND_REG_ADD, KIND_REG_SET,
    PersistEvent, Recording,
)
from repro.analysis.protocol import spec_for
from repro.errors import SimulationError
from repro.mem.address import Region

_MASK64 = (1 << 64) - 1


@dataclass
class PersistUnit:
    """An atomic group of persist events (see module docstring)."""

    index: int
    kind: str                       # "op" | "flush" | "ancestor" | "solo"
    events: list[PersistEvent]
    lines: frozenset[int] = frozenset()
    branches: frozenset[tuple[int, int]] = frozenset()
    registers: frozenset[tuple[str, int]] = frozenset()

    @property
    def first_seq(self) -> int:
        return self.events[0].seq


@dataclass
class CrashState:
    """A materialized post-crash image: NVM lines, root registers, and
    the data-MAC/plaintext shadows of the newest durable data writes."""

    cut: frozenset[int]
    lines: dict[int, bytes]
    roots: dict[str, list[int]]
    data_macs: dict[int, int]
    plaintexts: dict[int, bytes]
    canonical: str


class CrashStateModel:
    """Persist units + ordering DAG + cut enumeration for one run."""

    def __init__(self, recording: Recording,
                 max_lag: int | None = None) -> None:
        self.recording = recording
        self.max_lag = max_lag
        self.amap = recording.config.address_map()
        self.spec = spec_for(recording.scheme)
        self._branches: dict[int, frozenset[tuple[int, int]]] = {}
        self.units = self._build_units()
        self._link_units()
        self._down_cache: dict[int, frozenset[int]] = {}
        self._build_replay()
        #: Content-keyed MAC memo shared by every controller
        #: :func:`~repro.analysis.explorer.oracle.materialize` builds
        #: from this model.  One model has one config, hence one MAC key,
        #: so a memo hit is always the MAC the controller would compute.
        self.mac_memo: dict[tuple, int] = {}

    # -- unit formation -------------------------------------------------
    def _build_units(self) -> list[PersistUnit]:
        region_of = self.amap.region_of
        groups: dict[tuple, tuple[str, list[PersistEvent]]] = {}
        for event in self.recording.events:
            if event.flush >= 0:
                key, kind = ("flush", event.flush), "flush"
            elif event.op >= 0:
                if event.kind == KIND_LINE and \
                        region_of(event.addr) is Region.TREE:
                    key, kind = ("ancestor", event.seq), "ancestor"
                else:
                    key, kind = ("op", event.op), "op"
            else:
                key, kind = ("solo", event.seq), "solo"
            groups.setdefault(key, (kind, []))[1].append(event)
        raw = sorted(groups.values(), key=lambda entry: entry[1][0].seq)
        units = []
        for index, (kind, events) in enumerate(raw):
            lines, branches, registers = self._footprints(events)
            units.append(PersistUnit(index, kind, events, lines,
                                     branches, registers))
        return units

    def _footprints(self, events: list[PersistEvent]):
        lines: set[int] = set()
        branches: set[tuple[int, int]] = set()
        registers: set[tuple[str, int]] = set()
        for event in events:
            if event.kind == KIND_LINE:
                lines.add(event.addr)
                branches.update(self._branch_of(event))
            elif event.kind in (KIND_REG_ADD, KIND_REG_SET):
                registers.add((event.register, event.slot))
        return frozenset(lines), frozenset(branches), frozenset(registers)

    def _branch_of(self, event: PersistEvent) -> frozenset[tuple[int, int]]:
        """Interned branch coordinates (node + all tree ancestors) of a
        metadata line write; DATA lines have no branch footprint."""
        branches = self._branches.get(event.addr)
        if branches is None:
            branches = self._branches[event.addr] = \
                self._branch_coords(event.addr)
        return branches

    def _branch_coords(self, addr: int) -> frozenset[tuple[int, int]]:
        amap = self.amap
        region = amap.region_of(addr)
        if region is Region.COUNTER:
            coords = (0, amap.counter_block_index(addr))
        elif region is Region.TREE:
            coords = amap.tree_node_coords(addr)
        else:
            return frozenset()
        out = set()
        level, index = coords
        while True:
            out.add((level, index))
            if level + 1 >= amap.tree_levels:
                break
            level, index = amap.parent_coords(level, index)
        return frozenset(out)

    def _tokens_of(self, event: PersistEvent) -> list[tuple]:
        """Conflict tokens of one event (enqueues: none)."""
        if event.kind == KIND_ENQUEUE:
            return []
        if event.kind == KIND_LINE:
            tokens: list[tuple] = [("line", event.addr)]
            if self.spec is not None:
                tokens.extend(("branch", c) for c in self._branch_of(event))
            return tokens
        return [("reg", event.register, event.slot)]

    # -- ordering DAG ---------------------------------------------------
    def _link_units(self) -> None:
        """Order units through a per-token index: for every conflict
        token keep each unit's first and last event seq on it; unit a
        precedes unit b through that token iff ``first_a < last_b``
        (some event of a conflicts with a later event of b)."""
        spans: dict[tuple, dict[int, list[int]]] = {}
        for unit in self.units:
            for event in unit.events:
                for token in self._tokens_of(event):
                    per_unit = spans.setdefault(token, {})
                    span = per_unit.get(unit.index)
                    if span is None:
                        per_unit[unit.index] = [event.seq, event.seq]
                    else:
                        span[1] = event.seq     # unit events are seq-ordered
        succs: list[set[int]] = [set() for _ in self.units]
        for per_unit in spans.values():
            if len(per_unit) < 2:
                continue
            by_last = sorted(per_unit, key=lambda u: per_unit[u][1])
            lasts = [per_unit[u][1] for u in by_last]
            for a, (first, _) in per_unit.items():
                succs[a].update(by_last[bisect_right(lasts, first):])
        for a, out in enumerate(succs):
            out.discard(a)
        try:
            self._topo_reindex(succs)
        except SimulationError:
            # Mutually-ordered units (any cycle) condense into one.
            self._topo_reindex(self._condense(succs))

    def _condense(self, succs: list[set[int]]) -> list[set[int]]:
        """Kosaraju SCC condensation: mutually-ordered units merge into
        one atomic unit, guaranteeing the unit graph is a DAG."""
        n = len(self.units)
        order: list[int] = []
        visited = [False] * n
        for start in range(n):
            if visited[start]:
                continue
            visited[start] = True
            stack = [(start, iter(succs[start]))]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if not visited[nxt]:
                        visited[nxt] = True
                        stack.append((nxt, iter(succs[nxt])))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()
        preds: list[list[int]] = [[] for _ in range(n)]
        for i, out in enumerate(succs):
            for j in out:
                preds[j].append(i)
        comp = [-1] * n
        comp_count = 0
        for start in reversed(order):
            if comp[start] >= 0:
                continue
            comp[start] = comp_count
            stack2 = [start]
            while stack2:
                node = stack2.pop()
                for nxt in preds[node]:
                    if comp[nxt] < 0:
                        comp[nxt] = comp_count
                        stack2.append(nxt)
            comp_count += 1
        merged_events: list[list[PersistEvent]] = \
            [[] for _ in range(comp_count)]
        merged_kinds: list[set[str]] = [set() for _ in range(comp_count)]
        for i, unit in enumerate(self.units):
            merged_events[comp[i]].extend(unit.events)
            merged_kinds[comp[i]].add(unit.kind)
        units: list[PersistUnit] = []
        for c in range(comp_count):
            events = sorted(merged_events[c], key=lambda e: e.seq)
            kinds = merged_kinds[c]
            kind = kinds.pop() if len(kinds) == 1 else "merged"
            lines, branches, registers = self._footprints(events)
            units.append(PersistUnit(len(units), kind, events,
                                     lines, branches, registers))
        units.sort(key=lambda u: u.first_seq)
        new_succs: list[set[int]] = [set() for _ in range(comp_count)]
        position = {u.first_seq: idx for idx, u in enumerate(units)}
        comp_pos = [0] * comp_count
        for c in range(comp_count):
            comp_pos[c] = position[
                sorted(merged_events[c], key=lambda e: e.seq)[0].seq]
        for i, out in enumerate(succs):
            for j in out:
                a, b = comp_pos[comp[i]], comp_pos[comp[j]]
                if a != b:
                    new_succs[a].add(b)
        self.units = units
        for idx, unit in enumerate(units):
            unit.index = idx
        return new_succs

    def _topo_reindex(self, succs: list[set[int]]) -> None:
        """Kahn topological sort (ties broken by first event seq) and
        unit reindex, so every edge points low -> high index and the
        per-shard cut math (newest-unit = max index) is valid."""
        n = len(self.units)
        indegree = [0] * n
        for out in succs:
            for j in out:
                indegree[j] += 1
        ready = sorted((i for i in range(n) if indegree[i] == 0),
                       key=lambda i: self.units[i].first_seq)
        topo: list[int] = []
        while ready:
            node = ready.pop(0)
            topo.append(node)
            freed = []
            for j in succs[node]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    freed.append(j)
            if freed:
                ready.extend(freed)
                ready.sort(key=lambda i: self.units[i].first_seq)
        if len(topo) != n:
            raise SimulationError(
                "persist-unit graph is cyclic after condensation")
        rank = {old: new for new, old in enumerate(topo)}
        self.units = [self.units[old] for old in topo]
        for idx, unit in enumerate(self.units):
            unit.index = idx
        self.succs: list[frozenset[int]] = [frozenset()] * n
        self.preds: list[frozenset[int]] = [frozenset()] * n
        preds: list[set[int]] = [set() for _ in range(n)]
        for old_i, out in enumerate(succs):
            i = rank[old_i]
            mapped = frozenset(rank[j] for j in out)
            self.succs[i] = mapped
            for j in mapped:
                preds[j].add(i)
        self.preds = [frozenset(p) for p in preds]

    # -- cut enumeration ------------------------------------------------
    def down_set(self, index: int) -> frozenset[int]:
        """``index`` plus all transitive predecessors."""
        cached = self._down_cache.get(index)
        if cached is not None:
            return cached
        out = {index}
        stack = [index]
        while stack:
            node = stack.pop()
            for p in self.preds[node]:
                if p not in out:
                    out.add(p)
                    stack.append(p)
        result = frozenset(out)
        self._down_cache[index] = result
        return result

    def iter_cuts(self, lo: int = 0,
                  hi: int | None = None) -> Iterator[frozenset[int]]:
        """Yield every legal crash cut whose newest unit has (topo)
        index in ``[lo, hi)``; the empty cut is yielded when lo == 0.

        A cut with newest unit *m* is ``down(m)`` plus any subset of the
        older non-predecessors that excludes an *upward-closed* lag set
        R (if a persist is still in flight, everything ordered after it
        is too).  ``max_lag`` bounds |R| — the modelled WPQ depth.
        """
        n = len(self.units)
        hi = n if hi is None else min(hi, n)
        if lo == 0:
            yield frozenset()
        for m in range(max(lo, 0), hi):
            down = self.down_set(m)
            others = [i for i in range(m) if i not in down]
            others_fs = frozenset(others)
            succs_in = {i: self.succs[i] & others_fs for i in others}
            yield down | others_fs
            seen: set[frozenset[int]] = {frozenset()}
            frontier: list[frozenset[int]] = [frozenset()]
            while frontier:
                grown: list[frozenset[int]] = []
                for lag in frontier:
                    for i in others:
                        if i in lag:
                            continue
                        if not succs_in[i] <= lag:
                            continue
                        bigger = lag | {i}
                        if bigger in seen:
                            continue
                        seen.add(bigger)
                        if self.max_lag is not None and \
                                len(bigger) > self.max_lag:
                            continue
                        grown.append(bigger)
                        yield down | (others_fs - bigger)
                frontier = grown

    # -- state materialization ------------------------------------------
    def _build_replay(self) -> None:
        """Once per model: the state-carrying events (enqueues carry
        none) as seq-ordered ``(unit, ...)`` streams — lines, data MACs,
        plaintexts and registers are independent state, so each stream
        replays on its own — plus the sorted line-address order (with
        8-byte address prefixes) the canonical hash walks."""
        replay = sorted(((unit.index, event) for unit in self.units
                         for event in unit.events
                         if event.kind != KIND_ENQUEUE),
                        key=lambda item: item[1].seq)
        writes = [(index, event) for index, event in replay
                  if event.kind == KIND_LINE]
        self._line_writes = [(index, event.addr, event.payload)
                             for index, event in writes]
        self._mac_writes = [(index, event.addr, event.data_mac)
                            for index, event in writes
                            if event.data_mac is not None]
        self._text_writes = [(index, event.addr, event.plaintext)
                             for index, event in writes
                             if event.plaintext is not None]
        self._reg_writes = [(index, event.kind == KIND_REG_ADD,
                             event.register, event.slot, event.value)
                            for index, event in replay
                            if event.kind in (KIND_REG_ADD, KIND_REG_SET)]
        addrs = set(self.recording.baseline_lines)
        addrs.update(addr for _, addr, _ in self._line_writes)
        self._line_order = [(addr, addr.to_bytes(8, "little"))
                            for addr in sorted(addrs)]

    def state_of(self, cut: frozenset[int]) -> CrashState:
        """Replay the cut's events (in seq order) over the baseline
        image and produce the canonical post-crash state."""
        recording = self.recording
        lines = dict(recording.baseline_lines)
        # Comprehensions keep the newest write per address: seq order.
        lines.update({addr: payload for index, addr, payload
                      in self._line_writes if index in cut})
        data_macs = {addr: value for index, addr, value
                     in self._mac_writes if index in cut}
        plaintexts = {addr: text for index, addr, text
                      in self._text_writes if index in cut}
        roots = {name: list(values)
                 for name, values in recording.baseline_roots.items()}
        mask = (1 << recording.counter_bits) - 1
        for index, add, register, slot, value in self._reg_writes:
            if index in cut:
                counters = roots[register]
                if add:
                    value += counters[slot]
                counters[slot] = value & mask
        canonical = _canonical_hash(recording.scheme, lines, roots,
                                    data_macs, self._line_order)
        return CrashState(cut=cut, lines=lines, roots=roots,
                          data_macs=data_macs, plaintexts=plaintexts,
                          canonical=canonical)


def _canonical_hash(scheme: str, lines: dict[int, bytes],
                    roots: dict[str, list[int]],
                    data_macs: dict[int, int],
                    line_order: list[tuple[int, bytes]]) -> str:
    """sha256 over the post-crash metadata image.  Line payloads are the
    node-image packing (``to_bytes``) the store wrote, so two cuts that
    leave identical media and register state collapse to one hash.

    ``line_order`` is the model's sorted ``(addr, 8-byte prefix)`` list
    of every address ``lines`` and ``data_macs`` can hold; absent
    addresses are skipped."""
    chunks = [scheme.encode()]
    chunks += [prefix + lines[addr] for addr, prefix in line_order
               if addr in lines]
    for name in sorted(roots):
        chunks.append(name.encode())
        chunks += [value.to_bytes(8, "little") for value in roots[name]]
    chunks += [prefix + (data_macs[addr] & _MASK64).to_bytes(8, "little")
               for addr, prefix in line_order if addr in data_macs]
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def brute_force_cuts(model: CrashStateModel) -> set[frozenset[int]]:
    """Reference enumeration of *all* downward-closed unit sets by
    direct closure growth — a different algorithm from
    :meth:`CrashStateModel.iter_cuts`, used to prove the sharded
    enumeration sound and complete (ignores ``max_lag``)."""
    n = len(model.units)
    preds = model.preds
    results: set[frozenset[int]] = set()
    stack: list[frozenset[int]] = [frozenset()]
    while stack:
        included = stack.pop()
        if included in results:
            continue
        results.add(included)
        for i in range(n):
            if i not in included and preds[i] <= included:
                stack.append(included | {i})
    return results
