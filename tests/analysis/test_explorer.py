"""Crash-state explorer: pruning soundness against a brute-force
reference, the two-sided oracle on clean and seeded-bug schemes, and
the shard/report plumbing.

The pruning-soundness tests are the load-bearing ones: the sharded
``iter_cuts`` enumeration (antichain growth with lag sets) must produce
*exactly* the crash-state set that the naive downward-closed-set
enumeration produces — same cuts, same canonical state hashes — on both
a totally-ordered trace and a two-branch trace where commutativity
pruning actually fires.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explorer.model import CrashStateModel, brute_force_cuts
from repro.analysis.explorer.oracle import (
    _durable_writes,
    evaluate_state,
    materialize,
)
from repro.analysis.explorer.record import (
    KIND_ENQUEUE,
    KIND_LINE,
    KIND_REG_ADD,
    KIND_REG_SET,
    record_writes,
)
from repro.analysis.explorer.report import (
    REX_MISSED_DETECTION,
    exploration_sarif,
    single_row_result,
    text_matrix,
    violations_report,
)
from repro.analysis.explorer.shards import (
    SCHEME_VARIANTS,
    ShardResult,
    explore_range,
    parse_group,
    shard_group,
)
from repro.cme.counters import CounterBlock
from repro.crash.attacks import roll_forward_leaf
from repro.mem.address import Region
from repro.sim.config import SystemConfig

from tests.analysis.fixtures.broken_schemes import BrokenEagerScheme

LEAF_BYTES = 64 * 64  # one counter block covers 64 data lines


def tiny_config(scheme="scue", **overrides):
    base = dict(scheme=scheme, data_capacity=16 * 1024,
                tree_levels=2, metadata_cache_size=64 * 1024,
                check_data=True)
    base.update(overrides)
    return SystemConfig(**base)


def sharded_cuts(model, shard_units=2):
    cuts = set()
    for lo in range(0, max(len(model.units), 1), shard_units):
        hi = min(lo + shard_units, len(model.units))
        for cut in model.iter_cuts(lo, hi):
            assert cut not in cuts, "shards must partition the cut space"
            cuts.add(cut)
    return cuts


class TestPruningSoundness:
    """ISSUE acceptance: bounded exploration on the tiny reference
    config enumerates the exact same canonical crash-state set as the
    brute-force oracle."""

    def test_total_order_trace_matches_brute_force(self):
        recording = record_writes(
            tiny_config(),
            [leaf * LEAF_BYTES for leaf in (0, 1, 2, 3, 0, 1)])
        model = CrashStateModel(recording)
        smart = sharded_cuts(model)
        brute = brute_force_cuts(model)
        assert smart == brute
        assert {model.state_of(c).canonical for c in smart} == \
            {model.state_of(c).canonical for c in brute}

    def test_two_branch_commutativity_matches_brute_force(self):
        recording = record_writes(
            tiny_config(data_capacity=64 * 1024),
            [leaf * LEAF_BYTES for leaf in (0, 8, 1, 9, 0, 8)])
        model = CrashStateModel(recording)
        # Disjoint branches really are unordered here: some unit must
        # have more than one immediate predecessor-free alternative.
        assert any(len(p) == 0 for p in model.preds[1:]) or \
            any(len(model.preds[i]) < i for i in range(len(model.units)))
        smart = sharded_cuts(model)
        brute = brute_force_cuts(model)
        assert smart == brute
        assert {model.state_of(c).canonical for c in smart} == \
            {model.state_of(c).canonical for c in brute}

    def test_max_lag_yields_a_subset(self):
        recording = record_writes(
            tiny_config(data_capacity=64 * 1024),
            [leaf * LEAF_BYTES for leaf in (0, 8, 1, 9, 0, 8)])
        full = sharded_cuts(CrashStateModel(recording))
        lagged = sharded_cuts(CrashStateModel(recording, max_lag=1))
        assert lagged < full
        # The prefix cuts (lag 0) always survive the bound.
        assert frozenset() in lagged

    def test_eager_trace_matches_brute_force(self):
        recording = record_writes(
            tiny_config(scheme="eager"),
            [leaf * LEAF_BYTES for leaf in (0, 1, 2, 3, 0, 1)])
        model = CrashStateModel(recording)
        assert sharded_cuts(model) == brute_force_cuts(model)


class TestOracle:
    """ISSUE acceptance: a seeded BrokenEagerScheme run produces at
    least one missed-detection violation; clean SCUE and eager runs
    produce zero."""

    ADDRS = [leaf * LEAF_BYTES for leaf in (0, 1, 2, 3, 0, 1)]

    def explore(self, config, factory=None):
        recording = record_writes(config, self.ADDRS, factory)
        model = CrashStateModel(recording)
        return explore_range(model, 0, len(model.units),
                             workload="unit-test")

    def test_clean_scue_has_no_violations(self):
        shard = self.explore(tiny_config())
        assert shard.violations == []
        assert shard.recovery_failures == 0
        assert shard.cuts > 0

    def test_clean_eager_window_is_not_a_violation(self):
        shard = self.explore(tiny_config(scheme="eager"))
        # Crashes inside the crash window legitimately fail recovery
        # (Fig 5b) — the oracle must not flag an expected failure as a
        # false abort, because eager never claims root consistency.
        assert shard.recovery_failures > 0
        assert shard.violations == []

    def test_broken_eager_misses_a_detection(self):
        config = tiny_config(scheme="eager")
        shard = self.explore(config,
                             factory=lambda: BrokenEagerScheme(config))
        missed = [v for v in shard.violations if v["missed_detection"]]
        assert missed, "parent-before-leaf inversion must be caught"
        assert all(not v["false_abort"] for v in shard.violations)
        assert any("durable" in v["detail"] for v in missed)

    def test_shard_result_round_trips(self):
        shard = self.explore(tiny_config())
        clone = ShardResult.from_dict(shard.to_dict())
        assert clone.to_dict() == shard.to_dict()
        assert clone.state_hashes == shard.state_hashes


class TestReporting:
    def broken_shard(self):
        config = tiny_config(scheme="eager")
        recording = record_writes(
            config, TestOracle.ADDRS,
            factory=lambda: BrokenEagerScheme(config))
        model = CrashStateModel(recording)
        return explore_range(model, 0, len(model.units),
                             workload="unit-test")

    def test_sarif_carries_rex001(self):
        result = single_row_result("eager", "unit-test",
                                   self.broken_shard())
        sarif = exploration_sarif(result)
        (run,) = sarif["runs"]
        rules = {r["id"] for r in
                 run["tool"]["driver"]["rules"]}
        assert REX_MISSED_DETECTION.id in rules
        results = run["results"]
        assert any(r["ruleId"] == REX_MISSED_DETECTION.id
                   for r in results)
        uri = results[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri.startswith("explore://eager/")

    def test_text_matrix_flags_the_failure(self):
        result = single_row_result("eager", "unit-test",
                                   self.broken_shard())
        matrix = text_matrix(result)
        assert "eager" in matrix
        assert "FAIL" in matrix
        report = violations_report(result)
        assert all(v.rule.id.startswith("REX")
                   for v in report.violations)

    def test_clean_matrix_reports_ok(self):
        config = tiny_config()
        recording = record_writes(config, TestOracle.ADDRS)
        model = CrashStateModel(recording)
        shard = explore_range(model, 0, len(model.units),
                              workload="unit-test")
        matrix = text_matrix(
            single_row_result("scue", "unit-test", shard))
        assert "OK: no oracle violations" in matrix


class TestShardPlumbing:
    def test_group_round_trip(self):
        group = shard_group("scue+asit", 8, 16, 2)
        assert parse_group(group) == (8, 16, 2)
        assert group.startswith("scue+asit:")

    def test_group_without_lag(self):
        assert parse_group(shard_group("eager", 0, 8, None)) == \
            (0, 8, None)

    def test_labels_disambiguate_same_scheme_rows(self):
        # scue and scue+asit share config.scheme; the label prefix is
        # what keeps their campaign cell ids distinct.
        assert shard_group("scue", 0, 8, None) != \
            shard_group("scue+asit", 0, 8, None)


# ----------------------------------------------------------------------
# Model equivalence: token-indexed edges and sort-free replay against
# the straightforward all-pairs / seq-sorted references.
# ----------------------------------------------------------------------
class RepersistLeafScheme(BrokenEagerScheme):
    """Persists the leaf, then its parent, then the leaf again: the
    operation unit and the ancestor unit are ordered both ways on the
    shared branch, so the model must condense them into one unit."""

    def _persist_top_down(self, parent, leaf, cycle):
        stall = self._persist_node(leaf, cycle)
        stall += self._persist_node(parent, cycle)
        return stall + self._persist_node(leaf, cycle)


def reference_tokens(model, event):
    """Conflict tokens of one event, derived from the address map."""
    if event.kind == KIND_ENQUEUE:
        return set()
    if event.kind != KIND_LINE:
        return {("reg", event.register, event.slot)}
    tokens = {("line", event.addr)}
    amap = model.amap
    region = amap.region_of(event.addr)
    if model.spec is None or region is Region.DATA:
        return tokens
    if region is Region.COUNTER:
        level, index = 0, amap.counter_block_index(event.addr)
    else:
        level, index = amap.tree_node_coords(event.addr)
    while True:
        tokens.add(("branch", (level, index)))
        if level + 1 >= amap.tree_levels:
            return tokens
        level, index = amap.parent_coords(level, index)


def all_pairs_succs(model):
    """Every unit pair, every event pair: a -> b iff some event of a
    conflicts with a later event of b."""
    tokens = {event.seq: reference_tokens(model, event)
              for unit in model.units for event in unit.events}
    succs = [set() for _ in model.units]
    for a in model.units:
        for b in model.units:
            if a.index != b.index and any(
                    ea.seq < eb.seq and tokens[ea.seq] & tokens[eb.seq]
                    for ea in a.events for eb in b.events):
                succs[a.index].add(b.index)
    return [frozenset(out) for out in succs]


def reference_state(model, cut):
    """Seq-sorted replay of the cut plus a sorted() canonical hash."""
    recording = model.recording
    lines = dict(recording.baseline_lines)
    roots = {name: list(values)
             for name, values in recording.baseline_roots.items()}
    mask = (1 << recording.counter_bits) - 1
    data_macs, plaintexts = {}, {}
    events = sorted((event for index in cut
                     for event in model.units[index].events),
                    key=lambda e: e.seq)
    for event in events:
        if event.kind == KIND_LINE:
            lines[event.addr] = event.payload
            if event.data_mac is not None:
                data_macs[event.addr] = event.data_mac
            if event.plaintext is not None:
                plaintexts[event.addr] = event.plaintext
        elif event.kind == KIND_REG_ADD:
            counters = roots[event.register]
            counters[event.slot] = (counters[event.slot] + event.value) & mask
        elif event.kind == KIND_REG_SET:
            roots[event.register][event.slot] = event.value & mask
    digest = hashlib.sha256(recording.scheme.encode())
    for addr in sorted(lines):
        digest.update(addr.to_bytes(8, "little") + lines[addr])
    for name in sorted(roots):
        digest.update(name.encode())
        for value in roots[name]:
            digest.update(value.to_bytes(8, "little"))
    for addr in sorted(data_macs):
        digest.update(addr.to_bytes(8, "little"))
        digest.update((data_macs[addr] & ((1 << 64) - 1))
                      .to_bytes(8, "little"))
    return lines, roots, data_macs, plaintexts, digest.hexdigest()


def assert_model_matches_references(model, cuts):
    assert list(model.succs) == all_pairs_succs(model)
    for cut in cuts:
        state = model.state_of(cut)
        lines, roots, data_macs, plaintexts, canonical = \
            reference_state(model, cut)
        assert state.lines == lines
        assert state.roots == roots
        assert state.data_macs == data_macs
        assert state.plaintexts == plaintexts
        assert state.canonical == canonical


def condensing_model():
    config = tiny_config(scheme="eager")
    recording = record_writes(
        config, [leaf * LEAF_BYTES for leaf in (0, 1, 0)],
        factory=lambda: RepersistLeafScheme(config))
    return CrashStateModel(recording)


EQUIVALENCE = settings(max_examples=25, deadline=None, derandomize=True)


class TestModelEquivalence:
    @EQUIVALENCE
    @given(label=st.sampled_from(["scue", "eager", "scue+asit"]),
           lines=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63)),
                          min_size=1, max_size=5),
           data=st.data())
    def test_recorded_traces_match_references(self, label, lines, data):
        config = tiny_config(**SCHEME_VARIANTS[label])
        recording = record_writes(
            config, [leaf * LEAF_BYTES + line * 64 for leaf, line in lines])
        model = CrashStateModel(recording)
        n = len(model.units)
        picks = data.draw(st.lists(st.sets(st.integers(0, n - 1)),
                                   min_size=1, max_size=4))
        cuts = [frozenset().union(*(model.down_set(i) for i in pick))
                for pick in picks]
        assert_model_matches_references(model, cuts + [frozenset()])

    def test_condensed_trace_matches_references(self):
        model = condensing_model()
        assert any(unit.kind == "merged" for unit in model.units)
        assert_model_matches_references(model, brute_force_cuts(model))


class TestSharedMacMemo:
    """Controllers materialized from one model share its content-keyed
    MAC memo; a warm memo must never hide tampering."""

    def model_and_state(self):
        recording = record_writes(
            tiny_config(), [leaf * LEAF_BYTES for leaf in (0, 1, 0)])
        model = CrashStateModel(recording)
        return model, model.state_of(frozenset(range(len(model.units))))

    def test_warm_memo_still_detects_probes(self):
        model, state = self.model_and_state()
        verdict = evaluate_state(model, state)
        assert verdict.recovered and not verdict.violating
        assert model.mac_memo, "a clean evaluation must warm the memo"
        last = _durable_writes(model, state.cut)
        addr = model.amap.counter_block_addr(0)
        leaf_index = 0
        writes = [ev.payload for index in sorted(state.cut)
                  for ev in model.units[index].events
                  if ev.kind == KIND_LINE and ev.addr == addr]
        assert not CounterBlock.from_bytes(leaf_index,
                                           last[addr].payload).is_blank
        assert writes[0] != writes[-1]

        controller = materialize(model, state)
        roll_forward_leaf(controller.store, leaf_index)
        assert not controller.recover().success

        controller = materialize(model, state)
        controller.nvm.poke_line(addr, writes[0])
        assert not controller.recover().success

        # The untampered image still recovers from the warm memo.
        assert materialize(model, state).recover().success

    def test_models_never_share_a_memo(self):
        model, state = self.model_and_state()
        other = CrashStateModel(model.recording)
        mine = materialize(model, state).mac.memo
        theirs = materialize(other, state).mac.memo
        assert mine is model.mac_memo and theirs is other.mac_memo
        assert mine is not theirs

    def test_controllers_keep_their_own_media_and_roots(self):
        model, state = self.model_and_state()
        first = materialize(model, state)
        second = materialize(model, state)
        assert first.mac.memo is second.mac.memo
        assert first.nvm is not second.nvm
        assert first.running_root is not second.running_root
        assert first.recovery_root is not second.recovery_root
        addr = model.amap.counter_block_addr(0)
        before = second.nvm.peek_line(addr)
        roll_forward_leaf(first.store, 0)
        first.running_root.add(0, 1)
        assert second.nvm.peek_line(addr) == before
        assert second.running_root.snapshot() == state.roots["running_root"]
