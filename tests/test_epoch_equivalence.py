"""Golden result digests: the byte-identical oracle as literals.

These digests were recorded while the simulator still had two access
loops — the scalar controller stack and a separate epoch-batched
interpreter — and both loops produced exactly these values.  The
interpreter has since been folded into the controller stack, so the
oracle is no longer "two engines agree" but "the one engine still
produces the recorded bytes".  Both accepted ``engine=`` spellings run
the same loop and must hit the same literal.

Never re-record these values: a mismatch means a change moved a
counter, a histogram bucket, a cycle or a media byte somewhere in the
stack, which is exactly what this file exists to catch.

* every scheme, over three seeded mixed workloads on the small test
  geometry (small caches, so metadata-cache eviction cascades and LLC
  writebacks run, not just the happy path);
* a minor-counter overflow (>= 64 persists to one line) that
  re-encrypts the whole counter block.
"""

from __future__ import annotations

import pytest

from repro.cme.counters import MINOR_LIMIT
from repro.mem.trace import AccessType, MemoryAccess
from repro.perf.harness import result_digest
from repro.sim.system import System

from tests.conftest import random_trace, small_config

SCHEMES = ("baseline", "lazy", "eager", "plp", "bmf-ideal", "scue")
ENGINES = ("auto", "scalar")

#: ``(scheme, seed) -> sha256`` of ``result("golden")`` after
#: ``random_trace(500, seed)`` on ``small_config(check_data=False)``.
GOLDEN = {
    ("baseline", 3): "17b4afec085c8b813904c5ce41fef50d"
                     "7d5646aadbf24071b9d62b747caa5cf1",
    ("lazy", 3): "faf57ea81aac5e7ef7ad6521cfbe0150"
                 "f0e06b77c194a4fffee4be490d04ae73",
    ("eager", 3): "e78c97802e870d00d29bb229754a3458"
                  "6e5a52274d05eb1602188ccad898fb7c",
    ("plp", 3): "29bfc4efa9fe9d509cf78ac444e85a7f"
                "f632f5c267cdbbc7d861a7c503b40b26",
    ("bmf-ideal", 3): "715d0f25fcf292517d61e654a764d8b3"
                      "5787cba7b25b3bdbede8d1abda0e9916",
    ("scue", 3): "86e3aef2425bab7e5842a5902fac2990"
                 "7c42a60dc830267bcc3626ee6d752303",
    ("baseline", 11): "7f84a38539689d2897ffeb3745df12b2"
                      "5f251e42cb51dc72c8a1d9f4e2f0e558",
    ("lazy", 11): "82e3cbac6e5525e3fedb95fbc524b566"
                  "e15d05905c6b027a3c539eddc4207143",
    ("eager", 11): "c2d19fe1372f3afaa9aad585960d95f8"
                   "fe93fe97da98a4d791357100c120d196",
    ("plp", 11): "3133f530011773702f18406335721375"
                 "7f5a62c52ffc0cc9c9a244c95cd40c19",
    ("bmf-ideal", 11): "4e9b77464af62d015a87423aec9d72d8"
                       "5c67b025b63e935d9a09caca1c375719",
    ("scue", 11): "353f4d04f7a225ed0c0df3a8d5d5e2a2"
                  "204997727bcd9464c73f150ceb8aa2d9",
    ("baseline", 29): "19f06a28132f8d64311f945410b2e863"
                      "1460849b0c465589a29481717f5ebe8a",
    ("lazy", 29): "baede7a0a6196c4ebc93afa97614902a"
                  "f4d89f833d9954588fb8d80f57dbfac2",
    ("eager", 29): "27abcc31f2ed8600a40d5d4bf4c306cc"
                   "bc86fd7dc1ec0364cc5305cf0ebe55bf",
    ("plp", 29): "2d3521e97e466f54a030cae06d9cd7f5"
                 "c14fa554e849782c9de118f079085f08",
    ("bmf-ideal", 29): "4707e49293d04632c41b844e9d493604"
                       "01db5ccaf2d58e5aeb11b2b14e32709b",
    ("scue", 29): "ff59a4c52bc92e8adf8946bc50ac48a1"
                  "3b136b7636435a6365cbaf1fd442e3a9",
}

#: ``scheme -> sha256`` of ``result("overflow")`` after
#: ``hot_line_trace(MINOR_LIMIT + 8)``.
GOLDEN_OVERFLOW = {
    "baseline": "c19c9d3311c6f0ff9202534baeb9ab7d"
                "e25452467b0cc682a4e64209bc9f9654",
    "lazy": "30a2a3a44f7cfdfa1f182cf31d577209"
            "c97ba9c2ef0000b923d8bb29efc3e0ad",
    "eager": "2e60bc8e2f30265f8be495baa67d50ab"
             "b90bc1c2a42bf7eff970cf86e9b8ca73",
    "plp": "925ca01fc2e581c7d998c3bd05ff776c"
           "31278db981c5ea8c0826c7af5bb6df26",
    "bmf-ideal": "e59a856a26f6e587d57fefd988df3445"
                 "806a072f82bd37a2b184737cf2af4260",
    "scue": "89c4d7d1e8fe35e9e093a1f9b6727018"
            "8e3951bb09c5d33b1b4050dc579a750c",
}


def run_trace(scheme: str, trace, engine: str) -> System:
    system = System(small_config(scheme, check_data=False), engine=engine)
    system.run(iter(trace))
    return system


def hot_line_trace(persists: int) -> list[MemoryAccess]:
    """Hammer one data line with persists (plus a neighbour read per
    round so the branch stays warm the way real traffic keeps it)."""
    trace = []
    for i in range(persists):
        trace.append(MemoryAccess(AccessType.PERSIST, 0x40, gap=i % 3))
        if i % 8 == 0:
            trace.append(MemoryAccess(AccessType.READ, 0x80, gap=1))
    return trace


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", (3, 11, 29))
    def test_every_scheme_digests_identically(self, scheme, seed):
        trace = random_trace(500, seed=seed)
        for engine in ENGINES:
            result = run_trace(scheme, trace, engine).result("golden")
            assert result_digest(result) == GOLDEN[scheme, seed], engine

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_overflow_hot_line(self, scheme):
        trace = hot_line_trace(MINOR_LIMIT + 8)
        for engine in ENGINES:
            system = run_trace(scheme, trace, engine)
            assert system.controller.stats.counter(
                "counter_overflows").value >= 1
            assert result_digest(system.result("overflow")) \
                == GOLDEN_OVERFLOW[scheme], engine
