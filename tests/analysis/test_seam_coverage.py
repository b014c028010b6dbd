"""The persist-order sanitizer sees every persist the figures produce.

The sanitizer observes a run through instance-attribute seams on the
controller (``wpq.enqueue``, ``nvm.write_line``, ``_flush_node``, the
root registers).  Those seams are only a proof about the production
path if no fast path reaches the WPQ or the media without going through
them.  For every registered scheme these tests check that:

* attaching the sanitizer does not change the result digest;
* the sanitizer's ``write`` events equal the NVM ``writes`` counter;
* its ``enqueue`` events equal the WPQ ``enqueued`` plus
  ``metadata_enqueued`` counters.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.sanitizer import SanitizerRule, attach_sanitizer
from repro.perf.harness import result_digest
from repro.secure import SCHEMES
from repro.sim.system import System

from tests.conftest import random_trace, small_config


class EventCounter(SanitizerRule):
    """Counts every recorded sanitizer event by kind."""

    name = "event-counter"

    def __init__(self, sanitizer) -> None:
        super().__init__(sanitizer)
        self.kinds: Counter[str] = Counter()

    def on_event(self, event) -> None:
        self.kinds[event.kind] += 1


def build(scheme: str) -> System:
    return System(small_config(scheme, check_data=False))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_persist_passes_through_a_seam(scheme):
    trace = random_trace(600, seed=17)
    plain = build(scheme)
    plain.run(iter(trace))

    system = build(scheme)
    ctl = system.controller
    sanitizer = attach_sanitizer(ctl)
    counter = EventCounter(sanitizer)
    sanitizer.rules.append(counter)
    wpq = ctl.stats.child("wpq")
    nvm = ctl.stats.child("nvm")
    before_writes = nvm.counter("writes").value
    before_enqueues = (wpq.counter("enqueued").value
                       + wpq.counter("metadata_enqueued").value)
    system.run(iter(trace))

    assert not sanitizer.violations
    assert result_digest(system.result("seams")) \
        == result_digest(plain.result("seams"))
    writes = nvm.counter("writes").value - before_writes
    enqueues = (wpq.counter("enqueued").value
                + wpq.counter("metadata_enqueued").value) - before_enqueues
    assert writes > 0 and enqueues > 0
    assert counter.kinds["write"] == writes
    assert counter.kinds["enqueue"] == enqueues
