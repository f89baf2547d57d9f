"""Hierarchical statistics registry used by every simulator component.

Components register named counters under dotted scopes (``"l2.0.miss"``,
``"nvm.bytes_written"``).  The registry also supports bucketed time series
(for the Fig. 17 bandwidth plots) and log2-bucketed histograms (operation
latency distributions — how persistence barriers stretch the tail).
Keeping all measurement in one place means the harness can diff two runs
without knowing which component produced which number.

Counters live in a ``defaultdict(int)``: a component bumps
``counters[name] += n`` on it directly and a first bump registers the
name.  Prefix queries (``counters(prefix)`` / ``total(prefix)``) go
through a lazily-built prefix index instead of scanning every key — the
report renderer calls them once per table cell.  The index holds key
lists only; values are always read fresh from the counter dict.  Names
are only ever added, so the index stays valid exactly while the number
of counters is unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple


class Stats:
    """A flat registry of counters, time series and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        # prefix -> list of counter names under it; rebuilt on demand,
        # valid while len(_counters) == _indexed_len.
        self._prefix_index: Dict[str, List[str]] = {}
        self._indexed_len = 0
        self._series: Dict[str, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._series_bucket: Dict[str, int] = {}
        # name -> log2-bucket index -> count.  Bucket k holds values in
        # [2^k, 2^(k+1)); bucket 0 holds 0 and 1.
        self._histograms: Dict[str, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # -- counters --------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount

    def set(self, name: str, value: int) -> None:
        self._counters[name] = value

    def get(self, name: str, default: int = 0) -> int:
        return self._counters.get(name, default)

    def _prefix_keys(self, prefix: str) -> List[str]:
        if len(self._counters) != self._indexed_len:
            self._prefix_index.clear()
            self._indexed_len = len(self._counters)
        keys = self._prefix_index.get(prefix)
        if keys is None:
            keys = [k for k in self._counters if k.startswith(prefix)]
            self._prefix_index[prefix] = keys
        return keys

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """All counters whose name starts with ``prefix``."""
        if not prefix:
            return dict(self._counters)
        counters = self._counters
        return {k: counters[k] for k in self._prefix_keys(prefix)}

    def total(self, prefix: str) -> int:
        """Sum of all counters under a prefix (e.g. per-slice totals)."""
        counters = self._counters
        return sum(counters[k] for k in self._prefix_keys(prefix))

    # -- time series -----------------------------------------------------
    def record_series(self, name: str, time: int, amount: int, bucket: int) -> None:
        """Accumulate ``amount`` into the bucket containing ``time``."""
        if bucket <= 0:
            raise ValueError("bucket width must be positive")
        self._series_bucket[name] = bucket
        self._series[name][time // bucket] += amount

    def series(self, name: str) -> List[Tuple[int, int]]:
        """The (bucket_start_time, total) pairs of a series, time-ordered."""
        bucket = self._series_bucket.get(name)
        if bucket is None:
            return []
        data = self._series[name]
        return [(idx * bucket, data[idx]) for idx in sorted(data)]

    def series_values(self, name: str) -> List[int]:
        return [v for _, v in self.series(name)]

    # -- histograms --------------------------------------------------------
    def observe(self, name: str, value: int) -> None:
        """Record one sample into a log2-bucketed histogram."""
        if value < 0:
            raise ValueError("histogram samples must be non-negative")
        self._histograms[name][max(value, 1).bit_length() - 1] += 1

    def histogram(self, name: str) -> List[Tuple[int, int]]:
        """(bucket_lower_bound, count) pairs, ascending."""
        data = self._histograms.get(name, {})
        return [(1 << idx if idx else 0, data[idx]) for idx in sorted(data)]

    def percentile(self, name: str, fraction: float) -> int:
        """Upper bound of the bucket containing the given percentile.

        Log2 buckets give a conservative (within-2x) estimate, which is
        plenty to compare schemes' tails.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        data = self._histograms.get(name, {})
        total = sum(data.values())
        if total == 0:
            return 0
        threshold = fraction * total
        seen = 0
        for idx in sorted(data):
            seen += data[idx]
            if seen >= threshold:
                return (1 << (idx + 1)) - 1
        return (1 << (max(data) + 1)) - 1  # pragma: no cover - unreachable

    # -- maintenance -----------------------------------------------------
    def merge(self, other: "Stats") -> None:
        for key, value in other._counters.items():
            self.inc(key, value)
        for name, data in other._series.items():
            self._series_bucket[name] = other._series_bucket[name]
            dest = self._series[name]
            for idx, value in data.items():
                dest[idx] += value
        for name, data in other._histograms.items():
            dest_hist = self._histograms[name]
            for idx, value in data.items():
                dest_hist[idx] += value

    def reset(self) -> None:
        self._counters.clear()
        self._prefix_index.clear()
        self._indexed_len = 0
        self._series.clear()
        self._series_bucket.clear()
        self._histograms.clear()

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counters)

    def format(self, prefix: str = "") -> str:
        lines = [
            f"{name:<48s} {value}"
            for name, value in sorted(self.counters(prefix).items())
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stats({len(self._counters)} counters)"
