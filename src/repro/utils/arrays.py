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


#: Bits per pass of :func:`stable_argsort` (numpy radix-sorts 16-bit keys).
_DIGIT_BITS = 16


def stable_argsort(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    An LSD radix sort over 16-bit digits: each pass is numpy's stable
    radix sort of one ``uint16`` digit, applied to the order of the pass
    before, so ``ceil(log2(bound) / 16)`` linear passes replace the
    comparison sort (timsort) numpy picks for wider integer keys.  The
    result is the same permutation, ties in input order.  Keys outside
    ``[0, bound)`` are not checked and give an unspecified order.

    >>> stable_argsort([3, 1, 3, 0, 1], 4).tolist()
    [3, 1, 4, 0, 2]
    """
    keys = np.asarray(keys)
    if bound <= 1 or len(keys) < 2:
        return np.arange(len(keys), dtype=np.intp)
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while (bound - 1) >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += _DIGIT_BITS
    return order
