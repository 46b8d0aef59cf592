"""Streaming log-bucket histograms: grid, merging, determinism, registry."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import CounterRegistry, Histogram, bucket_exponent
from repro.obs.hist import MAX_EXP, MIN_EXP


class TestBucketExponent:
    def test_exact_powers_of_two_land_on_their_own_bound(self):
        for exp in (-10, -1, 0, 1, 5, 20):
            assert bucket_exponent(2.0**exp) == exp

    def test_values_just_above_a_bound_go_to_the_next_bucket(self):
        assert bucket_exponent(1.0000001) == 1
        assert bucket_exponent(2.0000001) == 2
        assert bucket_exponent(0.5000001) == 0

    def test_generic_values(self):
        assert bucket_exponent(3.0) == 2       # 2 < 3 <= 4
        assert bucket_exponent(0.3) == -1      # 0.25 < 0.3 <= 0.5
        assert bucket_exponent(1000.0) == 10   # 512 < 1000 <= 1024

    def test_zero_negative_and_tiny_clamp_to_min(self):
        assert bucket_exponent(0.0) == MIN_EXP
        assert bucket_exponent(-5.0) == MIN_EXP
        assert bucket_exponent(1e-300) == MIN_EXP

    def test_huge_values_clamp_to_max(self):
        assert bucket_exponent(1e300) == MAX_EXP
        assert bucket_exponent(2.0**MAX_EXP + 1) == MAX_EXP


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram("latency")
        for v in (0.5, 1.5, 3.0, 0.25):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(5.25)
        snap = h.snapshot()
        assert snap["min"] == 0.25
        assert snap["max"] == 3.0

    def test_buckets_quantise_on_the_grid(self):
        h = Histogram("x")
        h.observe(3.0)   # bucket exp 2
        h.observe(3.5)   # bucket exp 2
        h.observe(5.0)   # bucket exp 3
        assert h.snapshot()["buckets"] == {"4.0": 2, "8.0": 1}

    def test_merge_adds_counts_and_tracks_extrema(self):
        a = Histogram("x")
        b = Histogram("x")
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (0.1, 50.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.sum == pytest.approx(53.1)
        assert a.snapshot()["min"] == 0.1
        assert a.snapshot()["max"] == 50.0
        # Merging is count-exact: the merged buckets are the sums.
        assert sum(a.snapshot()["buckets"].values()) == 4

    def test_snapshot_is_order_independent(self):
        values = [0.001, 7.5, 2.0, 0.3, 1024.0, 0.3]
        a = Histogram("x")
        b = Histogram("x")
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.snapshot() == b.snapshot()

    def test_key_includes_sorted_labels(self):
        assert Histogram("h").key() == "h"
        assert (
            Histogram("h", {"stage": "h2d", "dir": "in"}).key()
            == "h{dir=in,stage=h2d}"
        )

    def test_concurrent_observes_lose_nothing(self):
        h = Histogram("x")

        def work():
            for _ in range(1000):
                h.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000
        assert h.snapshot()["buckets"] == {"1.0": 4000}


class TestRegistryIntegration:
    def test_histogram_get_or_create_is_stable(self):
        registry = CounterRegistry()
        a = registry.histogram("span_seconds", stage="compute")
        b = registry.histogram("span_seconds", stage="compute")
        c = registry.histogram("span_seconds", stage="h2d")
        assert a is b
        assert a is not c

    def test_to_json_omits_histograms_key_when_none(self):
        registry = CounterRegistry()
        registry.count("n", 2)
        payload = json.loads(registry.to_json())
        assert "histograms" not in payload
        registry.histogram("w").observe(1.0)
        payload = json.loads(registry.to_json())
        assert payload["histograms"]["w"]["count"] == 1

    def test_clear_drops_histograms(self):
        registry = CounterRegistry()
        registry.histogram("w").observe(1.0)
        registry.clear()
        assert registry.histograms() == []
