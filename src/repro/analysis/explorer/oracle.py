"""The two-sided crash oracle.

For every surviving crash state the explorer materializes the NVM
image into a fresh controller, runs the scheme's own recovery path, and
cross-examines the outcome from both sides:

**Missed detection** — recovery reported success on a state the model
knows is inconsistent, or on a state where a subsequent integrity
attack (counter roll-forward, stale-image replay, via
:mod:`repro.crash.attacks`) goes unreported.  The independent
consistency check is a *stream-order audit*: a durable level-1 tree
node must agree with the dummy counter of every child leaf whose last
durable write precedes it in the recorded stream (newer leaves make the
parent stale, which counter-summing recovery legitimately ignores).

**False abort** — recovery failed on a state the protocol spec proves
consistent.  Only schemes whose design claims root crash consistency
at every cut (``crash_consistent_root``) are held to this; the eager
family's recovery window (paper Fig. 5b) makes mid-window failures
expected rather than violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.explorer.model import CrashState, CrashStateModel
from repro.analysis.explorer.record import KIND_LINE, PersistEvent
from repro.cme.counters import CounterBlock
from repro.crash.attacks import roll_forward_leaf
from repro.errors import ReproError
from repro.mem.address import Region
from repro.tree.node import SITNode


@dataclass
class CrashVerdict:
    """Oracle outcome for one canonical crash state."""

    boundary: int                 # newest persist-unit index + 1 (0 = none)
    state_hash: str
    recovered: bool
    missed_detection: bool = False
    false_abort: bool = False
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"boundary": self.boundary, "state_hash": self.state_hash,
                "recovered": self.recovered,
                "missed_detection": self.missed_detection,
                "false_abort": self.false_abort, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CrashVerdict":
        return cls(**data)

    @property
    def violating(self) -> bool:
        return self.missed_detection or self.false_abort


def materialize(model: CrashStateModel, state: CrashState) -> Any:
    """Build a fresh controller whose NVM, root registers and data-MAC
    shadows hold exactly the crash state's image.

    Every controller built from one model shares the model's
    content-keyed MAC memo (one config, one key): a recomputed MAC over
    unchanged content is a dict hit, while a tampered or newer image
    forms a new memo key and is computed again."""
    controller = model.recording.factory()
    controller.mac.memo = model.mac_memo
    for addr, payload in state.lines.items():
        controller.nvm.poke_line(addr, payload)
    controller.running_root.restore(state.roots["running_root"])
    recovery = getattr(controller, "recovery_root", None)
    if recovery is not None and "recovery_root" in state.roots:
        recovery.restore(state.roots["recovery_root"])
    controller.data_macs.update(state.data_macs)
    controller._plaintexts.update(state.plaintexts)
    return controller


def evaluate_state(model: CrashStateModel, state: CrashState) -> CrashVerdict:
    """Run recovery plus the attack suite on one crash state and return
    the oracle verdict."""
    boundary = (max(state.cut) + 1) if state.cut else 0
    verdict = CrashVerdict(boundary=boundary, state_hash=state.canonical,
                           recovered=False)
    controller = materialize(model, state)
    try:
        report = controller.recover()
        recovered, detail = report.success, report.detail
    except ReproError as exc:
        recovered, detail = False, f"{type(exc).__name__}: {exc}"
    verdict.recovered = recovered
    if recovered:
        last = _durable_writes(model, state.cut)
        audit_ok, audit_detail = _audit_counter_sums(model, last)
        if not audit_ok:
            verdict.missed_detection = True
            verdict.detail = ("recovery succeeded on an inconsistent "
                              f"image: {audit_detail}")
            return verdict
        attack_detail = _attack_probes(model, state, last)
        if attack_detail is not None:
            verdict.missed_detection = True
            verdict.detail = attack_detail
        return verdict
    if getattr(controller, "crash_consistent_root", False):
        verdict.false_abort = True
        verdict.detail = ("recovery failed on a spec-consistent state "
                          f"of a root-crash-consistent scheme: {detail}")
    else:
        verdict.detail = detail
    return verdict


# ----------------------------------------------------------------------
def _durable_writes(model: CrashStateModel,
                    cut: frozenset[int]) -> dict[int, PersistEvent]:
    """addr -> newest durable line-write event within the cut."""
    last: dict[int, PersistEvent] = {}
    for index in cut:
        for event in model.units[index].events:
            if event.kind != KIND_LINE:
                continue
            prev = last.get(event.addr)
            if prev is None or event.seq > prev.seq:
                last[event.addr] = event
    return last


def _audit_counter_sums(model: CrashStateModel,
                        last: dict[int, PersistEvent]) -> tuple[bool, str]:
    """Stream-order audit of durable level-1 nodes against their leaves
    (see module docstring), given the cut's :func:`_durable_writes`.
    Purely structural — never runs the scheme's own code, so a broken
    scheme cannot vouch for itself."""
    amap = model.amap
    if amap.tree_levels < 2:
        return True, ""
    bits = amap.counter_bits
    for addr, event in last.items():
        if amap.region_of(addr) is not Region.TREE:
            continue
        level, index = amap.tree_node_coords(addr)
        if level != 1:
            continue
        node = SITNode.from_bytes(1, index, event.payload, arity=amap.arity)
        for slot in range(amap.arity):
            leaf_index = index * amap.arity + slot
            if leaf_index >= amap.num_counter_blocks:
                break
            leaf_addr = amap.counter_block_addr(leaf_index)
            leaf_event = last.get(leaf_addr)
            if leaf_event is not None and leaf_event.seq > event.seq:
                continue        # leaf newer than parent: parent is stale
            if leaf_event is not None:
                payload = leaf_event.payload
            else:
                payload = model.recording.baseline_lines.get(leaf_addr)
            expected = 0
            if payload is not None:
                expected = CounterBlock.from_bytes(
                    leaf_index, payload).dummy_counter(bits)
            if node.counter(slot) != expected:
                return False, (
                    f"durable tree node (1,{index}) slot {slot} holds "
                    f"{node.counter(slot)} but its durable leaf "
                    f"{leaf_index} sums to {expected}")
    return True, ""


def _attack_probes(model: CrashStateModel, state: CrashState,
                   last: dict[int, PersistEvent]) -> str | None:
    """Re-materialize the state, tamper, and demand recovery notices
    (``last`` is the cut's :func:`_durable_writes`).

    Returns a missed-detection description, or None when every probe
    was detected (or no durable leaf exists to tamper with).
    """
    amap = model.amap
    target = None
    for addr, event in sorted(last.items()):
        if amap.region_of(addr) is not Region.COUNTER:
            continue
        leaf_index = amap.counter_block_index(addr)
        if not CounterBlock.from_bytes(leaf_index, event.payload).is_blank:
            target = (addr, leaf_index, event)
            break
    if target is None:
        return None
    addr, leaf_index, event = target

    # Probe 1: counter roll-forward on the durable leaf.
    controller = materialize(model, state)
    roll_forward_leaf(controller.store, leaf_index)
    if _recovers(controller):
        return (f"roll-forward of durable leaf {leaf_index} survived "
                "recovery undetected")

    # Probe 2: replay an earlier sealed image of the same leaf, when the
    # cut persisted it more than once.
    earlier = None
    for index in sorted(state.cut):
        for ev in model.units[index].events:
            if ev.kind == KIND_LINE and ev.addr == addr \
                    and ev.seq < event.seq and ev.payload != event.payload:
                earlier = ev.payload
    if earlier is not None:
        controller = materialize(model, state)
        controller.nvm.poke_line(addr, earlier)
        if _recovers(controller):
            return (f"replay of a stale sealed image of leaf "
                    f"{leaf_index} survived recovery undetected")
    return None


def _recovers(controller: Any) -> bool:
    try:
        return bool(controller.recover().success)
    except ReproError:
        return False
