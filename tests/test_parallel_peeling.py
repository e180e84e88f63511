"""BiT-BU-PAR parity: bitwise-identical phi at every worker count."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.api import bitruss_decomposition
from repro.core.bit_bu_batch import bit_bu_csr, bit_bu_plus_plus
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    affiliation_bipartite,
    chung_lu_bipartite,
    erdos_renyi_bipartite,
    nested_communities,
)
from repro.runtime import ParallelRuntime, bit_bu_par, is_available
from repro.runtime.parallel_peeling import parallel_peel

from tests.conftest import assert_phi_equal, bipartite_graphs

pytestmark = pytest.mark.skipif(
    not is_available(), reason="POSIX shared memory unavailable"
)

#: Random generator graphs for the parity sweep (name, builder).
GENERATOR_GRAPHS = [
    ("empty", lambda: BipartiteGraph(0, 0)),
    ("single-edge", lambda: BipartiteGraph(1, 1, [(0, 0)])),
    ("er-sparse", lambda: erdos_renyi_bipartite(25, 25, 120, seed=21)),
    ("er-dense", lambda: erdos_renyi_bipartite(18, 18, 200, seed=22)),
    (
        "chung-lu",
        lambda: chung_lu_bipartite(
            150, 40, 700, exponent_upper=2.3, exponent_lower=1.9, seed=23
        ),
    ),
    (
        "affiliation",
        lambda: affiliation_bipartite(
            80, 120, 40, community_upper=4, community_lower=6,
            p_in=0.5, noise_edges=100, seed=24,
        ),
    ),
]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "name,builder", GENERATOR_GRAPHS, ids=[n for n, _ in GENERATOR_GRAPHS]
)
def test_phi_matches_bu_plus_plus(name, builder, workers):
    graph = builder()
    reference = bit_bu_plus_plus(graph)
    # A tiny cutoff forces the sharded level path through the pool even on
    # these small graphs — otherwise the parent-only batch step would be the
    # only thing exercised.
    parallel = bit_bu_par(graph, workers=workers, shard_cutoff=16)
    assert_phi_equal(
        reference.phi, parallel.phi, f"({name}, workers={workers})"
    )


def test_phi_matches_csr_on_dense_workload():
    graph = nested_communities(
        [(40, 50, 0.5), (15, 20, 0.8), (8, 10, 1.0)], noise_edges=150, seed=25
    )
    reference = bit_bu_csr(graph)
    parallel = bit_bu_par(graph, workers=2, shard_cutoff=64)
    assert_phi_equal(reference.phi, parallel.phi, "(dense nested)")
    assert parallel.stats.algorithm == "BiT-BU-PAR"


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(graph=bipartite_graphs())
def test_phi_matches_on_random_graphs(graph):
    reference = bit_bu_plus_plus(graph)
    parallel = bit_bu_par(graph, workers=2, shard_cutoff=8)
    assert_phi_equal(reference.phi, parallel.phi, "(hypothesis graph)")


def test_runtime_reuse_across_build_and_peel():
    graph = erdos_renyi_bipartite(30, 30, 260, seed=26)
    reference = bit_bu_csr(graph)
    with ParallelRuntime(graph, workers=2) as runtime:
        engine = runtime.build_engine()
        phi = parallel_peel(engine, runtime, shard_cutoff=32)
        assert_phi_equal(reference.phi, phi, "(reused runtime)")
        # The runtime survives a full peel: counting still works after.
        assert runtime.count_per_edge().sum() >= 0


def test_api_registration_and_workers_validation():
    graph = erdos_renyi_bipartite(12, 12, 60, seed=27)
    via_api = bitruss_decomposition(graph, algorithm="bu-par", workers=2)
    assert_phi_equal(bit_bu_csr(graph).phi, via_api.phi, "(api route)")
    with pytest.raises(ValueError):
        bitruss_decomposition(graph, algorithm="bit-bu++", workers=2)
    with pytest.raises(ValueError):
        bitruss_decomposition(graph, algorithm="bu-par", workers=0)


def test_workers_one_takes_scalar_path():
    graph = erdos_renyi_bipartite(12, 12, 60, seed=28)
    result = bit_bu_par(graph, workers=1)
    assert result.stats.algorithm == "BiT-BU-CSR"  # documented delegation
    assert_phi_equal(bit_bu_csr(graph).phi, result.phi, "(workers=1)")
