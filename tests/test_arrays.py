"""``repro.utils.arrays`` and the rule that keeps bare ``np.unique`` out of src.

``np.unique`` with none of ``return_index``/``return_inverse``/
``return_counts`` takes a hash-based path in numpy 2.x that is tens of
times slower than a sort on large integer arrays; the package goes
through :func:`repro.utils.arrays.sorted_unique` instead.  The CSR build
sorts bounded vertex ids with :func:`repro.utils.arrays.stable_argsort`
(a radix sort) rather than a comparison sort, and finds duplicate edges
without ``np.unique`` at all.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import sorted_unique, stable_argsort

SRC = Path(__file__).resolve().parent.parent / "src"
RETURN_FLAGS = {"return_index", "return_inverse", "return_counts"}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), max_size=50))
def test_sorted_unique_matches_np_unique(values):
    arr = np.asarray(values, dtype=np.int64)
    got = sorted_unique(arr)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(arr))


def bare_unique_calls(tree):
    """Lines of ``np.unique(...)`` / ``numpy.unique(...)`` calls with no
    ``return_*`` keyword."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not RETURN_FLAGS & {kw.arg for kw in node.keywords}
        ):
            yield node.lineno


def test_detector_sees_multiline_calls():
    source = (
        "a = np.unique(\n    x\n)\n"
        "b, c = np.unique(\n    x, return_counts=True\n)\n"
        "d = numpy.unique(x, axis=0)\n"
    )
    assert list(bare_unique_calls(ast.parse(source))) == [1, 7]


def test_no_bare_np_unique_under_src():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in bare_unique_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, f"bare np.unique (use sorted_unique): {offenders}"


def _assert_stable_argsort(keys, bound):
    got = stable_argsort(keys, bound)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_stable_argsort_empty_and_single():
    for keys in (np.empty(0, dtype=np.int64), np.array([5], dtype=np.int64)):
        _assert_stable_argsort(keys, 10)


def test_stable_argsort_keeps_ties_in_input_order():
    _assert_stable_argsort(np.zeros(40, dtype=np.int64), 1)
    _assert_stable_argsort(np.array([2, 0, 2, 1, 0, 2, 1] * 5), 3)


@pytest.mark.parametrize("bound", [1, 2**8, 2**16, 2**16 + 1, 2**32 + 1])
def test_stable_argsort_at_digit_bounds(bound):
    rng = np.random.default_rng(bound % 997)
    keys = rng.integers(0, bound, 600, dtype=np.int64)
    # Both extremes, then every key again reversed: ties in every digit.
    keys[:2] = (0, bound - 1)
    keys = np.concatenate([keys, keys[::-1], keys[:50]])
    _assert_stable_argsort(keys, bound)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2**40).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.lists(st.integers(0, bound - 1), max_size=80),
        )
    )
)
def test_stable_argsort_matches_numpy(case):
    bound, values = case
    _assert_stable_argsort(np.asarray(values, dtype=np.int64), bound)


def test_csr_build_uses_no_np_unique():
    for name in ("graph/bipartite.py", "graph/io.py"):
        assert "np.unique(" not in (SRC / "repro" / name).read_text(), name
