"""The shared CSR build against a stable-argsort oracle.

``BipartiteGraph.__init__``, ``edges_to_csr_chunked`` and the ``.npz``
artifact loader all build their CSR blocks with
:func:`repro.graph.bipartite.csr_from_endpoints` (a radix argsort) and
find duplicate edges with :func:`repro.graph.bipartite.first_occurrences`.
The oracle below is the construction those replaced: ``np.unique`` with
``return_index`` for the duplicate rule, ``np.argsort(kind="stable")`` for
the slot order.  Every array must come out bitwise equal to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph, csr_from_endpoints
from repro.graph.io import edges_to_csr_chunked
from repro.service.artifacts import (
    DecompositionArtifact,
    load_artifact,
    save_artifact,
)
from tests.conftest import messy_edge_lists


def oracle_endpoints(n_l, edges, dedup):
    """Endpoint arrays under the first-occurrence rule, or the error."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edge_u, edge_v = arr[:, 0].copy(), arr[:, 1].copy()
    if not len(arr):
        return edge_u, edge_v
    _unique, first = np.unique(edge_u * n_l + edge_v, return_index=True)
    if len(first) != len(arr):
        if not dedup:
            mask = np.ones(len(arr), dtype=bool)
            mask[first] = False
            dup = int(np.argmax(mask))
            raise ValueError(
                f"duplicate edge ({int(edge_u[dup])}, {int(edge_v[dup])})"
            )
        keep = np.sort(first)
        edge_u, edge_v = edge_u[keep], edge_v[keep]
    return edge_u, edge_v


def oracle_csr(rows, cols, num_rows):
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr, cols[order], order


def oracle_arrays(n_u, n_l, edges, dedup):
    edge_u, edge_v = oracle_endpoints(n_l, edges, dedup)
    return (
        (edge_u, edge_v)
        + oracle_csr(edge_u, edge_v, n_u)
        + oracle_csr(edge_v, edge_u, n_l)
    )


def graph_arrays(graph):
    return (graph.edge_upper, graph.edge_lower) + graph.csr_upper() + graph.csr_lower()


def assert_bitwise(graph, want, context=""):
    got = graph_arrays(graph)
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.int64, (context, index)
        assert g.dtype == w.dtype and np.array_equal(g, w), (context, index)


@st.composite
def wide_edge_lists(draw):
    """Few edges over layers wider than one 16-bit radix digit."""
    n_u = draw(st.integers(min_value=1, max_value=300_000))
    n_l = draw(st.integers(min_value=1, max_value=300_000))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_u - 1) | st.sampled_from([0, n_u - 1]),
                st.integers(0, n_l - 1) | st.sampled_from([0, n_l - 1]),
            ),
            max_size=40,
        )
    )
    return n_u, n_l, edges


edge_cases = messy_edge_lists() | wide_edge_lists()


def _build_or_error(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=80, deadline=None)
@given(edge_cases, st.booleans())
def test_constructor_matches_oracle(params, dedup):
    n_u, n_l, edges = params
    want, want_error = _build_or_error(
        lambda: oracle_arrays(n_u, n_l, edges, dedup)
    )
    graph, error = _build_or_error(
        lambda: BipartiteGraph(n_u, n_l, edges, dedup=dedup)
    )
    # The duplicate error names the same (earliest repeated) edge.
    assert error == want_error
    if graph is not None:
        assert_bitwise(graph, want)


@settings(max_examples=60, deadline=None)
@given(edge_cases, st.booleans(), st.sampled_from([1, 7, 4096]))
def test_chunked_loader_matches_oracle(params, dedup, chunk_edges):
    n_u, n_l, edges = params
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    chunks = [arr[i : i + chunk_edges] for i in range(0, len(arr), chunk_edges)]
    want, want_error = _build_or_error(
        lambda: oracle_arrays(n_u, n_l, edges, dedup)
    )
    graph, error = _build_or_error(
        lambda: edges_to_csr_chunked(
            iter(chunks), num_upper=n_u, num_lower=n_l, dedup=dedup
        )
    )
    assert error == want_error
    if graph is not None:
        assert_bitwise(graph, want, f"chunk_edges={chunk_edges}")


@settings(max_examples=40, deadline=None)
@given(edge_cases, st.integers(0, 2**40))
def test_npz_round_trip_matches_oracle(tmp_path_factory, params, phi_max):
    n_u, n_l, edges = params
    graph = BipartiteGraph(n_u, n_l, edges, dedup=True)
    rng = np.random.default_rng(phi_max % 1000)
    phi = rng.integers(0, phi_max + 1, graph.num_edges, dtype=np.int64)
    artifact = DecompositionArtifact(graph=graph, phi=phi)
    path = tmp_path_factory.mktemp("npz") / "g.npz"
    save_artifact(artifact, path)
    reopened = load_artifact(path)
    assert_bitwise(reopened.graph, oracle_arrays(n_u, n_l, edges, True))
    assert reopened.phi.dtype == np.int64
    assert np.array_equal(reopened.phi, phi)
    assert reopened.graph_hash == artifact.graph_hash


def test_csr_from_endpoints_rejects_out_of_range_rows():
    cols = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError, match="out of range"):
        csr_from_endpoints(np.array([0, 3]), cols, 3)
    with pytest.raises(ValueError):
        csr_from_endpoints(np.array([0, -1]), cols, 3)
