"""Hypothesis property tests over random bipartite graphs."""

import numpy as np
from hypothesis import given, settings

from repro.butterfly.counting import count_per_edge
from repro.graph.bipartite import BipartiteGraph
from repro.graph.io import edges_to_csr_chunked
from repro.core import (
    bit_bs,
    bit_bu,
    bit_bu_plus,
    bit_bu_plus_plus,
    bit_pc,
    k_bitruss_direct,
    reference_decomposition,
)
from tests.conftest import assert_phi_equal, bipartite_graphs, messy_edge_lists


@settings(max_examples=50, deadline=None)
@given(bipartite_graphs())
def test_all_algorithms_agree(graph):
    """BS, BU, BU+, BU++ and PC return identical bitruss numbers."""
    expected = bit_bs(graph).phi
    for fn in (bit_bu, bit_bu_plus, bit_bu_plus_plus):
        assert_phi_equal(fn(graph).phi, expected, fn.__name__)
    for tau in (0.02, 0.5, 1.0):
        assert_phi_equal(bit_pc(graph, tau=tau).phi, expected, f"pc tau={tau}")


@settings(max_examples=25, deadline=None)
@given(bipartite_graphs(max_upper=7, max_lower=7, max_edges=30))
def test_matches_definition(graph):
    """The fast algorithms agree with the from-definition reference."""
    expected = reference_decomposition(graph)
    assert_phi_equal(bit_bu_plus_plus(graph).phi, expected, "bu++ vs definition")


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs())
def test_phi_bounded_by_support(graph):
    """phi(e) <= sup(e): an edge cannot outrank its butterfly support."""
    support = count_per_edge(graph)
    phi = bit_bu_plus_plus(graph).phi
    assert np.all(phi <= support)


@settings(max_examples=25, deadline=None)
@given(bipartite_graphs(max_upper=7, max_lower=7, max_edges=28))
def test_level_sets_match_direct_bitruss(graph):
    """For every occurring k, {e : phi(e) >= k} is exactly the k-bitruss."""
    phi = bit_bu_plus_plus(graph).phi
    for k in sorted(set(int(v) for v in phi))[:4]:
        direct = set(k_bitruss_direct(graph, k))
        from_phi = {int(e) for e in np.nonzero(phi >= k)[0]}
        assert direct == from_phi


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs())
def test_zero_phi_iff_no_surviving_butterflies(graph):
    """phi(e) = 0 exactly when e survives in no 1-bitruss."""
    phi = bit_bu_plus_plus(graph).phi
    one_bitruss = set(k_bitruss_direct(graph, 1))
    for eid in range(graph.num_edges):
        assert (phi[eid] >= 1) == (eid in one_bitruss)


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs())
def test_decomposition_is_permutation_invariant_of_algorithm_state(graph):
    """Running the same algorithm twice gives identical results."""
    first = bit_bu_plus_plus(graph).phi
    second = bit_bu_plus_plus(graph).phi
    assert_phi_equal(first, second, "repeatability")


@settings(max_examples=60, deadline=None)
@given(messy_edge_lists())
def test_chunked_csr_matches_constructor(params):
    """edges_to_csr_chunked == the dict-based constructor, bitwise.

    Duplicates and arbitrary input order included; every chunk size must
    yield the same arrays — same dedup survivors, same stable CSR order.
    """
    n_u, n_l, edges = params
    expected = BipartiteGraph(n_u, n_l, edges, dedup=True)
    arr = (
        np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges
        else np.empty((0, 2), dtype=np.int64)
    )
    for chunk_edges in (1, 7, 4096):
        chunks = [
            arr[i : i + chunk_edges] for i in range(0, len(arr), chunk_edges)
        ]
        streamed = edges_to_csr_chunked(
            iter(chunks), num_upper=n_u, num_lower=n_l
        )
        context = f"chunk_edges={chunk_edges}"
        assert streamed.num_upper == expected.num_upper, context
        assert streamed.num_lower == expected.num_lower, context
        assert np.array_equal(
            streamed.edge_upper, expected.edge_upper
        ), context
        assert np.array_equal(
            streamed.edge_lower, expected.edge_lower
        ), context
        for got, want in zip(
            streamed.csr_upper() + streamed.csr_lower(),
            expected.csr_upper() + expected.csr_lower(),
        ):
            assert got.dtype == want.dtype, context
            assert np.array_equal(got, want), context


@settings(max_examples=40, deadline=None)
@given(messy_edge_lists())
def test_chunked_csr_infers_layer_sizes(params):
    """Layer-size inference (max id + 1) matches explicit sizes."""
    n_u, n_l, edges = params
    if not edges:
        return
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    inferred = edges_to_csr_chunked(iter([arr]))
    assert inferred.num_upper == int(arr[:, 0].max()) + 1
    assert inferred.num_lower == int(arr[:, 1].max()) + 1
    explicit = edges_to_csr_chunked(
        iter([arr]),
        num_upper=inferred.num_upper,
        num_lower=inferred.num_lower,
    )
    assert np.array_equal(inferred.edge_upper, explicit.edge_upper)
    assert np.array_equal(inferred.edge_lower, explicit.edge_lower)
