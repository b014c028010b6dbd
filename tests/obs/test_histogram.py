"""LatencyHistogram math: bucket boundaries, percentile estimation on
skewed data, bucket-wise merging, and serialization round-trips."""

import json
import random

import pytest

from repro.obs.histogram import LatencyHistogram


class TestBuckets:
    def test_bucket_zero_holds_only_zero(self):
        assert LatencyHistogram.bucket_bounds(0) == (0, 0)

    @pytest.mark.parametrize("index", [1, 2, 3, 7, 10])
    def test_power_of_two_bounds(self, index):
        low, high = LatencyHistogram.bucket_bounds(index)
        assert low == 1 << (index - 1)
        assert high == (1 << index) - 1

    def test_samples_land_in_their_bucket(self):
        hist = LatencyHistogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
            hist.add(value)
        for idx, count in enumerate(hist.counts):
            if not count:
                continue
            low, high = LatencyHistogram.bucket_bounds(idx)
            matching = [v for v in (0, 1, 2, 3, 4, 7, 8, 1023, 1024)
                        if low <= v <= high]
            assert len(matching) == count

    def test_boundary_values_split_buckets(self):
        hist = LatencyHistogram()
        hist.add(7)    # bucket 3: [4, 7]
        hist.add(8)    # bucket 4: [8, 15]
        assert hist.counts[3] == 1
        assert hist.counts[4] == 1

    def test_huge_value_saturates_top_bucket(self):
        hist = LatencyHistogram()
        hist.add(1 << 100)
        assert sum(hist.counts) == 1
        assert hist.counts[-1] == 1
        assert hist.maximum == 1 << 100


class TestStatistics:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.p50 is None
        assert hist.p99 is None
        assert hist.minimum is None
        assert hist.maximum is None

    def test_mean_is_exact(self):
        hist = LatencyHistogram()
        for value in (10, 20, 30):
            hist.add(value)
        assert hist.mean == 20.0

    def test_weighted_add(self):
        hist = LatencyHistogram()
        hist.add(100, weight=5)
        assert hist.count == 5
        assert hist.total == 500

    def test_percentile_never_exceeds_max(self):
        hist = LatencyHistogram()
        for value in (3, 5, 9):
            hist.add(value)
        assert hist.p99 == 9  # bucket upper bound 15, clamped to max

    def test_p99_tracks_the_tail_on_skewed_data(self):
        """900 fast ops + 10 slow ones: the mean hides the tail, p99
        lands in the slow band — the whole point of the histogram."""
        hist = LatencyHistogram()
        for _ in range(900):
            hist.add(30)
        for _ in range(10):
            hist.add(4000)
        assert hist.mean < 100
        assert hist.p50 == 31        # bucket [16, 31]
        assert hist.p99 >= 4000
        assert hist.p99 <= hist.maximum

    def test_reads_between_adds_match_one_pass_accounting(self):
        """Samples are tallied and folded into the buckets lazily (also
        whenever the tally holds too many distinct values); reads at any
        point must see exactly what sample-by-sample accounting gives."""
        hist = LatencyHistogram()
        rng = random.Random(5)
        values = [rng.randrange(0, 1 << 20) for _ in range(10_000)]
        for i, value in enumerate(values, start=1):
            hist.add(value)
            if i % 2_500 == 0:
                seen = values[:i]
                assert hist.count == i
                assert hist.total == sum(seen)
                assert (hist.minimum, hist.maximum) == (min(seen),
                                                        max(seen))
        expected = [0] * len(hist.counts)
        for value in values:
            expected[value.bit_length()] += 1
        assert hist.counts == expected

    def test_p50_on_uniform_data(self):
        hist = LatencyHistogram()
        rng = random.Random(11)
        values = [rng.randrange(1, 1000) for _ in range(1000)]
        for value in values:
            hist.add(value)
        exact = sorted(values)[len(values) // 2]
        estimate = hist.percentile(50)
        low, high = LatencyHistogram.bucket_bounds(exact.bit_length())
        # The estimate is the upper bound of the true median's bucket
        # (clamped): within one power-of-two band of the exact median.
        assert estimate <= high
        assert estimate >= exact // 2


class TestMerge:
    def test_merge_equals_combined_stream(self):
        a, b, combined = (LatencyHistogram() for _ in range(3))
        rng = random.Random(3)
        for _ in range(200):
            value = rng.randrange(0, 5000)
            (a if rng.random() < 0.5 else b).add(value)
            combined.add(value)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.count == combined.count
        assert a.total == combined.total
        assert a.minimum == combined.minimum
        assert a.maximum == combined.maximum
        assert a.p99 == combined.p99

    def test_merge_empty_is_identity(self):
        hist = LatencyHistogram()
        hist.add(42)
        before = hist.to_dict()
        hist.merge(LatencyHistogram())
        assert hist.to_dict() == before

    def test_merge_into_empty(self):
        hist = LatencyHistogram()
        other = LatencyHistogram()
        other.add(7)
        hist.merge(other)
        assert hist.count == 1
        assert hist.minimum == 7


class TestSerialization:
    def test_round_trip(self):
        hist = LatencyHistogram("write")
        for value in (0, 1, 100, 10000):
            hist.add(value)
        data = json.loads(json.dumps(hist.to_dict()))
        restored = LatencyHistogram.from_dict(data, name="write")
        assert restored.counts == hist.counts
        assert restored.count == hist.count
        assert restored.total == hist.total
        assert restored.p99 == hist.p99

    def test_to_dict_is_json_clean_when_empty(self):
        data = LatencyHistogram().to_dict()
        # No inf/-inf sentinels anywhere: json must accept it untouched.
        encoded = json.dumps(data)
        assert "Infinity" not in encoded
        assert data["min"] is None
        assert data["max"] is None
        assert data["buckets"] == []

    def test_bucket_list_is_trimmed(self):
        hist = LatencyHistogram()
        hist.add(5)  # bucket 3
        assert len(hist.to_dict()["buckets"]) == 4

    def test_reset(self):
        hist = LatencyHistogram()
        hist.add(9)
        hist.reset()
        assert hist.count == 0
        assert hist.to_dict() == LatencyHistogram().to_dict()


class TestDegenerateSnapshots:
    """Edge cases that used to raise: zero-count percentiles and
    truncated ``from_dict`` snapshots the dashboard merge path sees."""

    def test_percentiles_on_empty_are_none(self):
        hist = LatencyHistogram()
        assert hist.percentile(50) is None
        assert hist.p50 is None and hist.p95 is None and hist.p99 is None
        assert hist.mean == 0.0

    def test_merge_two_empties_stays_empty(self):
        hist = LatencyHistogram()
        hist.merge(LatencyHistogram())
        assert hist.count == 0
        assert hist.p99 is None
        assert hist.minimum is None and hist.maximum is None

    def test_from_dict_without_max_does_not_raise(self):
        # A snapshot truncated to just buckets+count has no "max" to
        # clamp against; percentile returns the bucket bound instead of
        # raising TypeError on min(high, None).
        hist = LatencyHistogram.from_dict({"count": 3,
                                           "buckets": [0, 1, 2]})
        assert hist.maximum is None
        assert hist.percentile(99) == 3  # bucket 2 upper bound
        assert hist.p50 == 3

    def test_from_dict_without_count_infers_from_buckets(self):
        hist = LatencyHistogram.from_dict({"buckets": [1, 0, 4]})
        assert hist.count == 5
        assert hist.percentile(50) is not None

    def test_from_dict_empty_dict_is_empty_histogram(self):
        hist = LatencyHistogram.from_dict({})
        assert hist.count == 0
        assert hist.p99 is None
        hist.merge(LatencyHistogram())  # still inert
        assert hist.to_dict()["buckets"] == []

    def test_merge_truncated_snapshot_into_live_histogram(self):
        live = LatencyHistogram()
        live.add(10)
        live.merge(LatencyHistogram.from_dict({"buckets": [0, 0, 2]}))
        assert live.count == 3
        assert live.maximum == 10  # snapshot had no max to contribute
        assert live.p99 == 10
