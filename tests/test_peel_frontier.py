"""Differential tests: the CSR engine's array frontier vs BucketQueue.

:class:`~repro.core.peeling_engine.PeelFrontier` replaces the dict-of-sets
:class:`~repro.utils.bucket_queue.BucketQueue` in the engine's peel.  Both
are driven with the same supports and the same floored decreases (the only
update the peel makes), and every pop must return the same batch and key.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import peeling_engine
from repro.core.peeling_engine import PeelFrontier
from repro.utils.bucket_queue import BucketQueue

#: ``None`` keeps the module's default window.
WINDOWS = [1, 3, None]


def _drive(supports, data, window):
    """Pop both queues to exhaustion, applying the same random floored
    decreases to the remaining items after every pop."""
    with pytest.MonkeyPatch.context() as mp:
        if window is not None:
            mp.setattr(peeling_engine, "FRONTIER_WINDOW", window)
        frontier = PeelFrontier(np.array(supports, dtype=np.int64))
        queue = BucketQueue.from_keys(supports)
        while not queue.is_empty():
            assert len(frontier) == len(queue)
            expected, key = queue.pop_min_batch()
            batch, mbs = frontier.pop()
            assert (sorted(batch.tolist()), mbs) == (sorted(expected), key)
            remaining = sorted(queue)
            if not remaining:
                break
            picked = data.draw(
                st.lists(st.sampled_from(remaining), unique=True, max_size=8)
            )
            amounts = data.draw(
                st.lists(
                    st.integers(0, 12), min_size=len(picked), max_size=len(picked)
                )
            )
            moved = []
            for edge, amount in zip(picked, amounts):
                new_key = max(key, queue.key(edge) - amount)
                if new_key != queue.key(edge):
                    queue.update(edge, new_key)
                    moved.append(edge)
            lowered = frontier.lower(
                np.array(picked, dtype=np.int64),
                np.array(amounts, dtype=np.int64),
                key,
            )
            assert sorted(lowered.tolist()) == sorted(moved)
        assert len(frontier) == 0
        with pytest.raises(IndexError):
            frontier.pop()


@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=60, deadline=None)
@given(
    supports=st.lists(st.integers(0, 40), max_size=40),
    data=st.data(),
)
def test_matches_bucket_queue(window, supports, data):
    _drive(supports, data, window)


@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=20, deadline=None)
@given(supports=st.sampled_from([[], [0] * 9, [7], [0]]), data=st.data())
def test_degenerate_supports(window, supports, data):
    _drive(supports, data, window)


def test_empty_frontier():
    frontier = PeelFrontier(np.empty(0, dtype=np.int64))
    assert not frontier
    with pytest.raises(IndexError):
        frontier.pop()


def test_all_zero_supports_pop_as_one_batch():
    frontier = PeelFrontier(np.zeros(5, dtype=np.int64))
    batch, key = frontier.pop()
    assert (sorted(batch.tolist()), key) == ([0, 1, 2, 3, 4], 0)
    assert not frontier


@pytest.mark.parametrize("window", WINDOWS)
def test_huge_keys_allocate_nothing_per_key_value(window, monkeypatch):
    if window is not None:
        monkeypatch.setattr(peeling_engine, "FRONTIER_WINDOW", window)
    support = np.array([10**9, 3, 10**9, 10**12], dtype=np.int64)
    frontier = PeelFrontier(support)
    tracemalloc.start()
    try:
        pops = [frontier.pop()]
        amounts = np.array([1, 10**12 - 10**9 + 5])
        frontier.lower(np.array([0, 3]), amounts, pops[0][1])
        while frontier:
            pops.append(frontier.pop())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(sorted(b.tolist()), k) for b, k in pops] == [
        ([1], 3),
        ([3], 10**9 - 5),
        ([0], 10**9 - 1),
        ([2], 10**9),
    ]
    assert peak < 64 * 1024
