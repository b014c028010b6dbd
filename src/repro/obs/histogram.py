"""Fixed-bucket latency histograms (p50/p95/p99/max).

Bare means hide exactly what the paper's figures argue about: tail write
latency.  :class:`LatencyHistogram` buckets samples by power of two —
bucket 0 holds value 0, bucket *b* holds ``[2**(b-1), 2**b - 1]``;
``add`` is one dict update, cheap enough for the per-access hot path
(see :class:`LatencyHistogram`).  Percentiles are estimated as the upper
bound of the bucket containing the target rank, clamped to the observed
maximum (so ``p100 == max`` exactly and estimates never exceed a real
sample).

Histograms merge bucket-wise, which is how campaign aggregation combines
per-cell histograms without re-running anything.
"""

from __future__ import annotations

from typing import Any

#: Enough buckets for latencies up to 2**62 cycles; saturating on top.
_BUCKETS = 64
#: Distinct unfolded sample values kept before they are folded into the
#: buckets (bounds the memory of a long run with spread-out latencies).
_SAMPLE_LIMIT = 4096


class LatencyHistogram:
    """Power-of-two-bucket histogram of non-negative integer samples.

    :meth:`add` is on the simulator's per-access path, and latencies take
    few distinct values, so it only tallies ``value -> weight``; the
    bucket, count, total and extremes arithmetic runs once per distinct
    value when a reader needs it (every sum and extreme is order-free, so
    the folded state equals sample-by-sample accounting).
    """

    __slots__ = ("name", "_counts", "_count", "_total", "_minimum",
                 "_maximum", "_samples")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counts = [0] * _BUCKETS
        self._count = 0
        self._total = 0
        self._minimum: int | None = None
        self._maximum: int | None = None
        self._samples: dict[int, int] = {}

    # ------------------------------------------------------------------
    def add(self, value: int, weight: int = 1) -> None:
        samples = self._samples
        tally = samples.get(value)
        if tally is not None:
            samples[value] = tally + weight
            return
        if len(samples) >= _SAMPLE_LIMIT:
            self._fold()
        samples[value] = weight

    def _fold(self) -> None:
        """Move the tallied samples into the buckets and aggregates."""
        samples = self._samples
        if not samples:
            return
        counts = self._counts
        for value, weight in samples.items():
            idx = value.bit_length() if value > 0 else 0
            if idx >= _BUCKETS:
                idx = _BUCKETS - 1
            counts[idx] += weight
            self._count += weight
            self._total += value * weight
        low = min(samples)
        high = max(samples)
        if self._minimum is None or low < self._minimum:
            self._minimum = low
        if self._maximum is None or high > self._maximum:
            self._maximum = high
        samples.clear()

    @property
    def counts(self) -> list[int]:
        """Samples per bucket."""
        self._fold()
        return self._counts

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> int:
        self._fold()
        return self._total

    @property
    def minimum(self) -> int | None:
        self._fold()
        return self._minimum

    @property
    def maximum(self) -> int | None:
        self._fold()
        return self._maximum

    @staticmethod
    def bucket_bounds(index: int) -> tuple[int, int]:
        """Inclusive ``(low, high)`` sample range of bucket ``index``."""
        if index == 0:
            return (0, 0)
        return (1 << (index - 1), (1 << index) - 1)

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> int | None:
        """Upper-bound estimate of the ``pct``-th percentile, or ``None``
        on an empty histogram.

        Tolerates a populated ``counts`` with ``count == 0`` or a
        missing ``maximum`` — both reachable through :meth:`from_dict`
        on truncated snapshots, which the dashboard merge path consumes
        — by returning ``None`` / the unclamped bucket bound instead of
        raising."""
        if not self.count:
            return None
        rank = max(1, -(-int(pct * self.count) // 100))  # ceil(pct% * n)
        seen = 0
        for idx, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                high = self.bucket_bounds(idx)[1]
                if self.maximum is None:
                    return high
                return min(high, self.maximum)
        return self.maximum  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> int | None:
        return self.percentile(50)

    @property
    def p95(self) -> int | None:
        return self.percentile(95)

    @property
    def p99(self) -> int | None:
        return self.percentile(99)

    # ------------------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (campaign aggregation).

        Merging an empty histogram — either side — is a no-op on the
        populated one, including when the empty side came from a
        snapshot with no min/max."""
        self._fold()
        for idx, bucket_count in enumerate(other.counts):
            self._counts[idx] += bucket_count
        self._count += other.count
        self._total += other.total
        if other.minimum is not None and (self._minimum is None
                                          or other.minimum < self._minimum):
            self._minimum = other.minimum
        if other.maximum is not None and (self._maximum is None
                                          or other.maximum > self._maximum):
            self._maximum = other.maximum

    def reset(self) -> None:
        self._counts = [0] * _BUCKETS
        self._count = 0
        self._total = 0
        self._minimum = None
        self._maximum = None
        self._samples.clear()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot; bucket list trimmed of trailing zeros."""
        last = 0
        for idx, bucket_count in enumerate(self.counts):
            if bucket_count:
                last = idx + 1
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": self.counts[:last],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any],
                  name: str = "") -> "LatencyHistogram":
        hist = cls(name)
        buckets = data.get("buckets", [])
        hist._counts[:len(buckets)] = buckets
        # Truncated snapshots (no "count") infer it from the buckets so
        # percentile/mean stay consistent with the data present.
        hist._count = data.get("count", sum(buckets))
        hist._total = data.get("total", 0)
        hist._minimum = data.get("min")
        hist._maximum = data.get("max")
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LatencyHistogram({self.name!r}, n={self.count}, "
                f"p50={self.p50}, p99={self.p99}, max={self.maximum})")
