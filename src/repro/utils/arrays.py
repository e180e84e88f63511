"""Array helpers shared across the package."""

from __future__ import annotations

import numpy as np


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of an integer array, like ``np.unique``.

    One sort plus a neighbour compare.  ``np.unique`` with no ``return_*``
    argument takes a hash-based path in numpy 2.x that is tens of times
    slower than this on large ``int64`` arrays.

    >>> sorted_unique([3, 1, 3, 2, 1]).tolist()
    [1, 2, 3]
    """
    flat = np.sort(np.asarray(values), axis=None)
    if len(flat) < 2:
        return flat
    keep = np.empty(len(flat), dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]
