"""A fixed pure-Python loop that measures how fast the host is right now.

The benchmark's host shares its cores with other tenants, and its speed
moves in phases of seconds to minutes (README.md, "Noise").  The loop
below does the kind of work the simulator does — dictionary lookups and
inserts over a working set larger than a core's private cache, attribute
updates on small objects, tuple keys and an occasional ``blake2b`` — but
shares no code with it, so a change to the simulator cannot change the
loop's time.  Timing the loop between repetitions gives the host's speed
at that moment; ``run.py`` rescales each repetition's wall time by it.
"""

from __future__ import annotations

import hashlib
import time

#: Seconds the loop takes on the reference host that the ``*_ref_*``
#: metrics are expressed in: close to its time on a 2-vCPU Xeon
#: (Sapphire Rapids) KVM guest in a quiet phase, so that the rescaled
#: figures stay near real seconds there.
REFERENCE_S = 0.06
#: Distinct addresses the loop touches: about 2 MiB of dict and objects,
#: past a core's private cache but below the workloads' own footprint.
LINES = 1 << 14
STEPS = 200_000
PASSES = 3


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def _one_pass() -> float:
    start = time.perf_counter()
    table: dict[int, _Line] = {}
    memo: dict[tuple[int, int], bytes] = {}
    blake = hashlib.blake2b
    state = 12345
    for step in range(STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (state % LINES) * 64
        line = table.get(addr)
        if line is None:
            line = table[addr] = _Line(addr)
        line.dirty = not line.dirty
        if step & 15 == 0:
            key = (addr, step & 255)
            if key not in memo:
                memo[key] = blake(addr.to_bytes(8, "little"),
                                  digest_size=8).digest()
    return time.perf_counter() - start


def host_seconds() -> float:
    """The loop's time now: the fastest of a few passes, since a pass can
    only be slowed down, not sped up, by a neighbour."""
    return min(_one_pass() for _ in range(PASSES))
