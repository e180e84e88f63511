"""``repro.utils.arrays`` and the rule that keeps bare ``np.unique`` out of src.

``np.unique`` with none of ``return_index``/``return_inverse``/
``return_counts`` takes a hash-based path in numpy 2.x that is tens of
times slower than a sort on large integer arrays; the package goes
through :func:`repro.utils.arrays.sorted_unique` instead.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import sorted_unique

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
