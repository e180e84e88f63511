"""Scale-tiered correctness harness: streaming ingest and mmap artifacts.

Tier 1 (always on): the streaming CSR loader and the mmap artifact path
must be **bitwise identical** to their in-memory counterparts on the
bundled datasets — same endpoint arrays, same CSR blocks, same hashes,
same query answers.

Scale tier (opt-in, ``REPRO_SCALE_TESTS=1``): generate a ~million-edge
chung-lu workload (size via ``REPRO_SCALE_EDGES``), run the full
generate -> streaming ingest -> decompose -> artifact -> mmap -> query
pipeline end-to-end with φ spot-checks.  CI runs this at a reduced size
in the non-blocking ``scale-smoke`` job.
"""

import os

import numpy as np
import pytest

from repro.core.api import bitruss_decomposition
from repro.datasets import dataset_names, load_dataset
from repro.graph import (
    chung_lu_edge_chunks,
    load_edge_list,
    load_edge_list_streaming,
    save_edge_list,
    write_edge_chunks,
)
from repro.server.registry import ArtifactRegistry
from repro.service.artifacts import (
    ArtifactError,
    DecompositionArtifact,
    load_artifact,
    save_artifact,
)
from repro.service.engine import QueryEngine

ALGORITHM = "bit-bu-csr"


def assert_graphs_bitwise_equal(a, b, context=""):
    """Endpoint arrays and both CSR blocks must match exactly."""
    assert a.num_upper == b.num_upper, context
    assert a.num_lower == b.num_lower, context
    assert a.num_edges == b.num_edges, context
    assert np.array_equal(a.edge_upper, b.edge_upper), context
    assert np.array_equal(a.edge_lower, b.edge_lower), context
    for block_a, block_b in (
        (a.csr_upper(), b.csr_upper()),
        (a.csr_lower(), b.csr_lower()),
    ):
        for arr_a, arr_b in zip(block_a, block_b):
            assert arr_a.dtype == arr_b.dtype, context
            assert np.array_equal(arr_a, arr_b), context


# --------------------------------------------------------------- tier 1


@pytest.mark.parametrize("name", dataset_names())
def test_streaming_loader_matches_dict_loader_on_datasets(name, tmp_path):
    graph = load_dataset(name)
    path = tmp_path / f"{name}.txt"
    save_edge_list(graph, path)
    in_memory = load_edge_list(path)
    streamed = load_edge_list_streaming(path, chunk_edges=509)
    assert_graphs_bitwise_equal(in_memory, streamed, name)


@pytest.mark.parametrize("name", dataset_names())
def test_mmap_artifact_parity_on_all_datasets(name, tmp_path):
    """Array-level mmap-vs-eager parity on every bundled dataset.

    Uses a deterministic synthetic φ so the sweep does not pay 15
    decompositions; the engine-level check with a real decomposition
    runs in :func:`test_mmap_artifact_matches_eager_on_datasets`.
    """
    graph = load_dataset(name)
    phi = np.arange(graph.num_edges, dtype=np.int64) % 17
    artifact = DecompositionArtifact(graph=graph, phi=phi, algorithm=ALGORITHM)
    path = tmp_path / f"{name}_artifact"
    save_artifact(artifact, path, layout="dir")
    eager = load_artifact(path)
    mmapped = load_artifact(path, mmap_mode="r")
    assert_graphs_bitwise_equal(eager.graph, mmapped.graph, name)
    assert np.array_equal(eager.phi, mmapped.phi)
    assert np.array_equal(mmapped.phi, phi)
    assert eager.graph_hash == mmapped.graph_hash == artifact.graph_hash


@pytest.mark.parametrize("name", ("marvel", "github"))
def test_mmap_artifact_matches_eager_on_datasets(name, tmp_path):
    graph = load_dataset(name)
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    artifact = DecompositionArtifact(
        graph=graph, phi=result.phi, algorithm=ALGORITHM
    )
    path = tmp_path / f"{name}_artifact"
    save_artifact(artifact, path, layout="dir")

    eager = load_artifact(path)
    mmapped = load_artifact(path, mmap_mode="r")

    assert_graphs_bitwise_equal(eager.graph, mmapped.graph, name)
    assert np.array_equal(eager.phi, mmapped.phi)
    assert eager.graph_hash == mmapped.graph_hash == artifact.graph_hash

    # The mmap arrays really are disk-backed views, not eager copies.
    assert isinstance(
        mmapped.phi.base, np.memmap
    ) or isinstance(mmapped.phi, np.memmap)
    assert not mmapped.phi.flags.writeable

    # Same answers through the engine on a query mix.
    e_eng = QueryEngine(eager)
    m_eng = QueryEngine(mmapped)
    assert e_eng.max_phi == m_eng.max_phi
    assert e_eng.phi_histogram() == m_eng.phi_histogram()
    for k in (1, max(1, e_eng.max_phi // 2), e_eng.max_phi):
        assert e_eng.k_bitruss(k) == m_eng.k_bitruss(k)


def test_mmap_load_detects_corruption(tmp_path):
    graph = load_dataset("marvel")
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    artifact = DecompositionArtifact(
        graph=graph, phi=result.phi, algorithm=ALGORITHM
    )
    path = tmp_path / "artifact"
    save_artifact(artifact, path, layout="dir")

    phi_file = path / "phi.npy"
    phi = np.load(phi_file)
    phi[len(phi) // 2] += 1
    np.save(phi_file, phi)

    with pytest.raises(ArtifactError, match="stored hash"):
        load_artifact(path, mmap_mode="r")
    with pytest.raises(ArtifactError, match="stored hash"):
        load_artifact(path)
    # check=False lets forensics tooling open it anyway.
    assert load_artifact(path, mmap_mode="r", check=False) is not None


def test_npz_layout_rejects_mmap_mode(tmp_path):
    graph = load_dataset("marvel")
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    artifact = DecompositionArtifact(
        graph=graph, phi=result.phi, algorithm=ALGORITHM
    )
    path = tmp_path / "artifact.npz"
    save_artifact(artifact, path)
    with pytest.raises(ArtifactError, match="directory layout"):
        load_artifact(path, mmap_mode="r")


def test_registry_hosts_mmap_backed_artifact(tmp_path):
    graph = load_dataset("marvel")
    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    artifact = DecompositionArtifact(
        graph=graph, phi=result.phi, algorithm=ALGORITHM
    )
    path = tmp_path / "artifact"
    save_artifact(artifact, path, layout="dir")

    registry = ArtifactRegistry()
    entry = registry.register("marvel", load_artifact(path, mmap_mode="r"))
    with registry.acquire("marvel") as lease:
        assert lease.engine.max_phi == result.max_k
    assert entry.artifact.phi[0] == result.phi[0]
    registry.unregister("marvel")


# ----------------------------------------------------------- scale tier


SCALE_EDGES = int(os.environ.get("REPRO_SCALE_EDGES", "1000000"))


@pytest.mark.scale
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="scale tier is opt-in (REPRO_SCALE_TESTS=1)",
)
def test_scale_end_to_end(tmp_path):
    """Generate -> stream -> decompose -> artifact -> mmap -> query."""
    side = max(64, SCALE_EDGES // 2)
    edge_file = tmp_path / "scale.txt.gz"
    written = write_edge_chunks(
        edge_file,
        chung_lu_edge_chunks(
            side,
            side,
            SCALE_EDGES,
            exponent_upper=2.5,
            exponent_lower=2.5,
            seed=7,
        ),
    )
    assert written == SCALE_EDGES

    graph = load_edge_list_streaming(edge_file)
    assert graph.num_edges == SCALE_EDGES

    result = bitruss_decomposition(graph, algorithm=ALGORITHM)
    artifact = DecompositionArtifact(
        graph=graph, phi=result.phi, algorithm=ALGORITHM
    )
    path = tmp_path / "artifact"
    save_artifact(artifact, path, layout="dir")

    engine = QueryEngine.load(path, mmap_mode="r")
    assert engine.max_phi == result.max_k

    # φ spot-checks: the served point answers must match the in-memory
    # decomposition on a deterministic edge sample.
    rng = np.random.default_rng(7)
    for eid in rng.choice(graph.num_edges, size=64, replace=False):
        u = int(graph.edge_upper[eid])
        v = int(graph.edge_lower[eid])
        assert engine.phi_of(u, v) == int(result.phi[eid])

    hist = engine.phi_histogram()
    assert sum(hist.values()) == SCALE_EDGES
