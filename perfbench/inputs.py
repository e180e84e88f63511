"""Seeded workload inputs.

Each workload has a fixed graph *shape*: one Chung–Lu sample drawn with
``chung_lu_edge_chunks`` from the workload's own shape seed.  The run's
``--seed`` then relabels both vertex layers with random permutations and
shuffles the edge order, so every seed gives a different input (vertex
ids, edge ids, priority tie-breaks, memory layout) with the same degree
sequence and butterfly structure.

Why not a fresh Chung–Lu sample per seed: with power-law exponents of
2.1–2.5 the top hub weights differ wildly between samples.  Over seeds
1–5 the hub-heavy graph ranged from 1.9M to 8.4M butterflies and its peel
time by 3x, so the spread between seeds would be wider than any
regression bound the benchmark could hold.
"""

import numpy as np

#: Chung–Lu parameters per workload.  ``upper``/``lower`` are layer sizes.
SHAPES = {
    # Few butterflies: the per-vertex wedge traversal (BE-Index build)
    # dominates the decomposition.
    "decompose-sparse": dict(
        edges=40_000, upper=20_000, lower=20_000,
        exp_upper=2.5, exp_lower=2.5, shape_seed=7,
    ),
    # Hub-heavy (the paper's Fig. 7 regime): millions of butterflies and a
    # deep k hierarchy, so bottom-up peeling dominates.
    "decompose-skew": dict(
        edges=20_000, upper=500, lower=10_000,
        exp_upper=2.1, exp_lower=2.5, shape_seed=7,
    ),
    # The served, mutated graph.
    "serve-mutable": dict(
        edges=50_000, upper=25_000, lower=25_000,
        exp_upper=2.5, exp_lower=2.5, shape_seed=7,
    ),
}

CHUNK_EDGES = 1 << 16


def make_chunks(chung_lu_edge_chunks, shape, seed):
    """The workload's edge chunks for ``seed``, a list of ``(n, 2)``
    arrays, and its logical edges: the ``(upper, lower)`` labels, under
    this seed's relabelling, of the shape's edges in the shape's own
    order, so the same row names the same edge for every seed.

    ``chung_lu_edge_chunks`` is passed in so a traced run can time the
    program's generator through its wrapper.
    """
    edges = np.concatenate(
        list(
            chung_lu_edge_chunks(
                shape["upper"],
                shape["lower"],
                shape["edges"],
                exponent_upper=shape["exp_upper"],
                exponent_lower=shape["exp_lower"],
                seed=shape["shape_seed"],
            )
        )
    )
    rng = np.random.default_rng(seed)
    perm_upper = rng.permutation(shape["upper"])
    perm_lower = rng.permutation(shape["lower"])
    logical = np.stack((perm_upper[edges[:, 0]], perm_lower[edges[:, 1]]), axis=1)
    relabeled = logical[rng.permutation(len(edges))]
    chunks = [
        relabeled[start : start + CHUNK_EDGES]
        for start in range(0, len(relabeled), CHUNK_EDGES)
    ]
    return chunks, logical
