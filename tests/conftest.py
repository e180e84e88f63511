"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    erdos_renyi_bipartite,
    paper_figure1_graph,
    paper_figure4_graph,
)


@pytest.fixture
def figure1():
    """The paper's Figure 1 author-paper network."""
    return paper_figure1_graph()


@pytest.fixture
def figure4():
    """The paper's Figure 4(a) running example."""
    return paper_figure4_graph()


@pytest.fixture
def medium_random():
    """A medium random bipartite graph with plenty of butterflies."""
    return erdos_renyi_bipartite(30, 25, 220, seed=99)


@st.composite
def bipartite_graphs(
    draw,
    max_upper: int = 10,
    max_lower: int = 10,
    max_edges: int = 40,
):
    """Hypothesis strategy: a small random bipartite graph."""
    n_u = draw(st.integers(min_value=1, max_value=max_upper))
    n_l = draw(st.integers(min_value=1, max_value=max_lower))
    possible = n_u * n_l
    m = draw(st.integers(min_value=0, max_value=min(max_edges, possible)))
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=possible - 1),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    edges = [(f // n_l, f % n_l) for f in flat]
    return BipartiteGraph(n_u, n_l, edges)


@st.composite
def custom_priorities(draw, n):
    """A Definition 7 stand-in: permutations, floats, sparse ints, ties."""
    kind = draw(st.sampled_from(["permutation", "float", "spread", "ties"]))
    if kind == "ties":
        return np.asarray(
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        )
    prio = np.asarray(draw(st.permutations(range(1, n + 1))), dtype=np.int64)
    if kind == "float":
        return prio / 7.0 - 3.0
    if kind == "spread":
        return (prio - n // 2) * 10**15
    return prio


def assert_phi_equal(phi_a, phi_b, context: str = "") -> None:
    """Readable array comparison for bitruss numbers."""
    a = np.asarray(phi_a)
    b = np.asarray(phi_b)
    if not np.array_equal(a, b):
        diff = np.nonzero(a != b)[0][:10]
        raise AssertionError(
            f"bitruss numbers differ {context}: first diffs at edges "
            f"{diff.tolist()} ({a[diff].tolist()} vs {b[diff].tolist()})"
        )


def tree_paths(node: dict, prefix: tuple = ()) -> dict:
    """{name path: count} for every node under a phase-tree ``node``."""
    paths = {}
    for child in node["children"]:
        path = prefix + (child["name"],)
        paths[path] = child["count"]
        paths.update(tree_paths(child, path))
    return paths


@st.composite
def messy_edge_lists(draw, max_upper: int = 12, max_lower: int = 9):
    """Unsorted edge lists **with duplicates** plus their layer sizes."""
    n_u = draw(st.integers(min_value=1, max_value=max_upper))
    n_l = draw(st.integers(min_value=1, max_value=max_lower))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_u - 1),
                st.integers(min_value=0, max_value=n_l - 1),
            ),
            min_size=0,
            max_size=70,
        )
    )
    return n_u, n_l, edges
