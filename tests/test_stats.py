"""Tests for the statistics registry."""

import pytest

from repro.sim import Stats


class TestCounters:
    def test_inc_and_get(self):
        stats = Stats()
        stats.inc("a.b")
        stats.inc("a.b", 4)
        assert stats.get("a.b") == 5

    def test_get_default(self):
        assert Stats().get("missing") == 0
        assert Stats().get("missing", 7) == 7

    def test_set_overwrites(self):
        stats = Stats()
        stats.inc("x", 10)
        stats.set("x", 3)
        assert stats.get("x") == 3

    def test_prefix_filter(self):
        stats = Stats()
        stats.inc("l1.hits", 2)
        stats.inc("l1.misses", 3)
        stats.inc("l2.hits", 9)
        assert stats.counters("l1.") == {"l1.hits": 2, "l1.misses": 3}

    def test_total_sums_prefix(self):
        stats = Stats()
        stats.inc("llc.0.hits", 1)
        stats.inc("llc.1.hits", 2)
        stats.inc("dram.reads", 100)
        assert stats.total("llc.") == 3

    def test_prefix_index_sees_new_keys(self):
        # The prefix index is cached lazily; registering a new counter
        # after a query must invalidate it.
        stats = Stats()
        stats.inc("l1.hits", 2)
        assert stats.total("l1.") == 2
        stats.inc("l1.misses", 5)
        assert stats.total("l1.") == 7
        assert stats.counters("l1.") == {"l1.hits": 2, "l1.misses": 5}

    def test_prefix_index_reads_fresh_values(self):
        # Re-incrementing an existing key must be visible through a
        # previously-cached prefix query (the index holds names only).
        stats = Stats()
        stats.inc("nvm.bytes", 10)
        assert stats.total("nvm.") == 10
        stats.inc("nvm.bytes", 10)
        assert stats.total("nvm.") == 20

    def test_prefix_index_invalidated_by_set_and_reset(self):
        stats = Stats()
        stats.inc("a.x", 1)
        assert stats.counters("a.") == {"a.x": 1}
        stats.set("a.y", 4)
        assert stats.counters("a.") == {"a.x": 1, "a.y": 4}
        stats.reset()
        assert stats.counters("a.") == {}
        stats.inc("a.z", 9)
        assert stats.total("a.") == 9

    def test_prefix_index_sees_names_registered_on_the_raw_dict(self):
        # Components bump the counter dict directly; a first bump there
        # registers the name without going through inc().
        stats = Stats()
        counters = stats._counters
        counters["a.x"] += 1
        assert stats.counters("a.") == {"a.x": 1}
        counters["a.y"] += 4
        assert stats.counters("a.") == {"a.x": 1, "a.y": 4}
        assert stats.total("a.") == 5
        stats.reset()
        counters["a.z"] += 2
        assert stats.counters("a.") == {"a.z": 2}
        counters["a.w"] += 3
        assert stats.total("a.") == 5

    def test_prefix_index_after_merge(self):
        stats = Stats()
        stats.inc("a.x", 1)
        assert stats.total("a.") == 1
        other = Stats()
        other.inc("a.y", 2)
        stats.merge(other)
        assert stats.total("a.") == 3


class TestSeries:
    def test_bucketing(self):
        stats = Stats()
        stats.record_series("bw", 5, 10, bucket=100)
        stats.record_series("bw", 50, 10, bucket=100)
        stats.record_series("bw", 150, 7, bucket=100)
        assert stats.series("bw") == [(0, 20), (100, 7)]

    def test_series_values(self):
        stats = Stats()
        stats.record_series("bw", 0, 1, bucket=10)
        stats.record_series("bw", 25, 2, bucket=10)
        assert stats.series_values("bw") == [1, 2]

    def test_empty_series(self):
        assert Stats().series("nothing") == []

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            Stats().record_series("bw", 0, 1, bucket=0)


class TestHistograms:
    def test_log2_bucketing(self):
        stats = Stats()
        for value in (0, 1, 2, 3, 4, 7, 8, 1000):
            stats.observe("lat", value)
        histogram = dict(stats.histogram("lat"))
        assert histogram[0] == 2  # values 0 and 1
        assert histogram[2] == 2  # values 2 and 3
        assert histogram[4] == 2  # values 4 and 7
        assert histogram[8] == 1
        assert histogram[512] == 1  # value 1000

    def test_bucket_bounds(self):
        stats = Stats()
        stats.observe("lat", 4)
        stats.observe("lat", 7)
        assert stats.histogram("lat") == [(4, 2)]

    def test_percentile(self):
        stats = Stats()
        for _ in range(99):
            stats.observe("lat", 10)  # bucket [8,16)
        stats.observe("lat", 1000)  # bucket [512,1024)
        assert stats.percentile("lat", 0.5) == 15
        assert stats.percentile("lat", 1.0) == 1023

    def test_percentile_empty(self):
        assert Stats().percentile("lat", 0.99) == 0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            Stats().percentile("lat", 0.0)
        with pytest.raises(ValueError):
            Stats().observe("lat", -1)

    def test_merge_histograms(self):
        a, b = Stats(), Stats()
        a.observe("lat", 10)
        b.observe("lat", 10)
        a.merge(b)
        assert dict(a.histogram("lat")) == {8: 2}


class TestMaintenance:
    def test_merge_combines_counters_and_series(self):
        a, b = Stats(), Stats()
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 5)
        a.record_series("s", 0, 1, bucket=10)
        b.record_series("s", 5, 2, bucket=10)
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 5
        assert a.series("s") == [(0, 3)]

    def test_reset(self):
        stats = Stats()
        stats.inc("x")
        stats.record_series("s", 0, 1, bucket=10)
        stats.reset()
        assert stats.get("x") == 0
        assert stats.series("s") == []

    def test_snapshot_is_a_copy(self):
        stats = Stats()
        stats.inc("x")
        snap = stats.snapshot()
        stats.inc("x")
        assert snap["x"] == 1

    def test_format_contains_names(self):
        stats = Stats()
        stats.inc("alpha", 3)
        assert "alpha" in stats.format()
        assert "3" in stats.format()
