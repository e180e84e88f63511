"""Instrumentation: counters, timers, index-size model."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    DecompositionStats,
    IndexSizeModel,
    PhaseTimer,
    UpdateCounter,
)


class TestUpdateCounter:
    def test_plain_counting(self):
        c = UpdateCounter()
        c.record(3)
        c.record(5, count=4)
        assert c.total == 5
        assert c.bucket_totals() == []
        assert c.bucket_labels() == []

    def test_bucketed(self):
        c = UpdateCounter(
            original_supports=[2, 7, 12, 100], bucket_bounds=[5, 10]
        )
        c.record(0)        # support 2  -> bucket "0-5"
        c.record(1, 2)     # support 7  -> bucket "6-10"
        c.record(2)        # support 12 -> bucket ">10"
        c.record(3, 3)     # support 100 -> bucket ">10"
        assert c.total == 7
        assert c.bucket_totals() == [1, 2, 4]
        assert c.bucket_labels() == ["0-5", "6-10", ">10"]

    def test_bucket_boundaries_inclusive(self):
        c = UpdateCounter(original_supports=[5, 6], bucket_bounds=[5])
        c.record(0)
        c.record(1)
        assert c.bucket_totals() == [1, 1]

    @settings(max_examples=60, deadline=None)
    @given(
        supports=st.lists(st.integers(0, 50), min_size=1, max_size=30),
        bounds=st.lists(st.integers(0, 60), max_size=5, unique=True).map(sorted),
        data=st.data(),
    )
    def test_record_many_equals_repeated_record(self, supports, bounds, data):
        edges = data.draw(
            st.lists(st.integers(0, len(supports) - 1), max_size=40)
        )
        bucketed = bool(bounds) and data.draw(st.booleans())
        kwargs = (
            {"original_supports": supports, "bucket_bounds": bounds}
            if bucketed
            else {}
        )
        one_by_one = UpdateCounter(**kwargs)
        for edge in edges:
            one_by_one.record(edge)
        batched = UpdateCounter(**kwargs)
        batched.record_many(np.array(edges, dtype=np.int64))
        assert batched.total == one_by_one.total == len(edges)
        assert batched.bucket_totals() == one_by_one.bucket_totals()


class TestPhaseTimer:
    def test_accumulates(self):
        t = PhaseTimer()
        with t.time("a"):
            time.sleep(0.01)
        with t.time("a"):
            pass
        with t.time("b"):
            pass
        assert t.elapsed("a") >= 0.01
        assert t.phases() == ["a", "b"]
        assert t.total == pytest.approx(sum(t.as_dict().values()))

    def test_unknown_phase_zero(self):
        assert PhaseTimer().elapsed("nope") == 0.0

    def test_direct_add(self):
        t = PhaseTimer()
        t.add("x", 1.5)
        t.add("x", 0.5)
        assert t.elapsed("x") == 2.0


class TestIndexSizeModel:
    def test_peak_tracking(self):
        m = IndexSizeModel()
        m.observe(10, 20, 40)
        first_peak = m.peak_bytes
        m.observe(1, 1, 1)  # smaller: peak unchanged
        assert m.peak_bytes == first_peak
        m.observe(100, 200, 400)
        assert m.peak_bytes > first_peak

    def test_byte_model(self):
        m = IndexSizeModel(word_bytes=8)
        m.observe(1, 2, 3)
        # 2 words/bloom + 2 words/edge + 2 words/link
        assert m.peak_bytes == 8 * (2 * 1 + 2 * 2 + 2 * 3)
        assert m.peak_megabytes == pytest.approx(m.peak_bytes / 2**20)


class TestDecompositionStats:
    def test_summary_contains_fields(self):
        s = DecompositionStats(
            algorithm="X", updates=7, timings={"peeling": 0.5},
            index_peak_bytes=2048,
        )
        text = s.summary()
        assert "X" in text and "7 support updates" in text
        assert s.total_seconds == 0.5
