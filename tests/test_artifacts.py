"""Artifact save → load round-trips and integrity checking."""

import json
import zipfile

import numpy as np
import pytest

from repro.core.api import bitruss_decomposition
from repro.datasets import dataset_names, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.service.artifacts import (
    ArtifactError,
    ArtifactIntegrityError,
    DecompositionArtifact,
    build_artifact,
    graph_sha256,
    load_artifact,
    phi_by_endpoints,
    save_artifact,
)


def _phi_by_endpoints_per_edge(graph, phi):
    """The per-edge reference form of :func:`phi_by_endpoints`."""
    return {
        graph.edge_endpoints(eid): int(phi[eid])
        for eid in range(graph.num_edges)
    }


@pytest.mark.parametrize("name", dataset_names())
def test_phi_by_endpoints_matches_per_edge_form(name):
    dataset = load_dataset(name)
    # The bundled graphs list edges sorted; the shuffled copy checks that
    # keys follow edge ids, not endpoint order.
    order = np.random.default_rng(0).permutation(dataset.num_edges)
    shuffled = BipartiteGraph(
        dataset.num_upper,
        dataset.num_lower,
        np.stack((dataset.edge_upper, dataset.edge_lower), axis=1)[order],
    )
    for graph in (dataset, shuffled):
        # Distinct per edge, so a misaligned key/value pairing cannot hide.
        phi = np.arange(graph.num_edges, dtype=np.int64)[::-1]
        got = phi_by_endpoints(graph, phi)
        assert list(got.items()) == list(
            _phi_by_endpoints_per_edge(graph, phi).items()
        )
        assert all(type(k) is int for edge in got for k in edge)
        assert all(type(v) is int for v in got.values())


def test_phi_by_endpoints_edgeless_graph():
    graph = BipartiteGraph(3, 2)
    assert phi_by_endpoints(graph, np.zeros(0, dtype=np.int64)) == {}


@pytest.fixture
def artifact(figure4):
    return build_artifact(figure4, algorithm="bu-csr")


def test_build_matches_decomposition(figure4):
    result = bitruss_decomposition(figure4, algorithm="bu-csr")
    artifact = DecompositionArtifact.from_decomposition(result)
    np.testing.assert_array_equal(artifact.phi, result.phi)
    assert artifact.algorithm == result.stats.algorithm
    assert artifact.max_k == result.max_k
    assert artifact.graph is result.graph


def test_round_trip_bitwise_phi(artifact, tmp_path):
    path = tmp_path / "figure4.npz"
    save_artifact(artifact, path)
    reopened = load_artifact(path)
    assert np.array_equal(reopened.phi, artifact.phi)
    assert reopened.phi.dtype == np.int64
    assert reopened.algorithm == artifact.algorithm
    assert reopened.graph_hash == artifact.graph_hash
    assert reopened.meta["updates"] == artifact.meta["updates"]


def test_round_trip_graph_structure(artifact, tmp_path):
    path = tmp_path / "figure4.npz"
    artifact.save(path)
    reopened = load_artifact(path)
    g, h = artifact.graph, reopened.graph
    assert (g.num_upper, g.num_lower, g.num_edges) == (
        h.num_upper,
        h.num_lower,
        h.num_edges,
    )
    assert g.to_edge_list() == h.to_edge_list()
    for ours, theirs in zip(g.csr_upper() + g.csr_lower(),
                            h.csr_upper() + h.csr_lower()):
        np.testing.assert_array_equal(ours, theirs)
    h.validate()


@pytest.mark.parametrize("name", ["github", "marvel", "condmat"])
def test_round_trip_on_datasets(name, tmp_path):
    artifact = build_artifact(load_dataset(name), algorithm="bu-csr")
    path = tmp_path / f"{name}.npz"
    save_artifact(artifact, path)
    reopened = load_artifact(path)
    assert np.array_equal(reopened.phi, artifact.phi)
    assert graph_sha256(reopened.graph) == artifact.graph_hash


def test_phi_length_mismatch_rejected(figure4):
    with pytest.raises(ArtifactError):
        DecompositionArtifact(graph=figure4, phi=np.zeros(3, dtype=np.int64))


def test_phi_is_frozen_copy(figure4):
    phi = np.ones(figure4.num_edges, dtype=np.int64)
    artifact = DecompositionArtifact(graph=figure4, phi=phi)
    assert not artifact.phi.flags.writeable
    phi[0] = 99  # the caller's array stays writable and detached
    assert artifact.phi[0] == 1


def test_not_an_artifact(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.arange(3))
    with pytest.raises(ArtifactError):
        load_artifact(path)
    text = tmp_path / "junk.txt"
    text.write_text("not even a zip")
    with pytest.raises(ArtifactError):
        load_artifact(text)


def _resave_with(path, out, **overrides):
    """Rewrite an artifact archive with some members replaced."""
    with np.load(path) as archive:
        members = {k: archive[k] for k in archive.files}
    members.update(overrides)
    with open(out, "wb") as handle:
        np.savez_compressed(handle, **members)


def test_tampered_phi_detected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    bad = tmp_path / "bad.npz"
    forged = np.array(artifact.phi)
    forged[0] += 1
    _resave_with(path, bad, phi=forged)
    with pytest.raises(ArtifactIntegrityError):
        load_artifact(bad)


def test_tampered_graph_detected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    bad = tmp_path / "bad.npz"
    with np.load(path) as archive:
        edge_upper = np.array(archive["edge_upper"])
        num_upper = len(archive["up_indptr"]) - 1
    # Move one endpoint to a different (in-range) vertex; the CSR blocks no
    # longer match the endpoint arrays, so either the structural validation
    # or the graph hash must catch it.
    edge_upper[0] = (edge_upper[0] + 1) % num_upper
    _resave_with(path, bad, edge_upper=edge_upper)
    with pytest.raises(ArtifactIntegrityError):
        load_artifact(bad)


#: Structural faults the checked load must catch before any hash: each
#: keeps every array's length and range, and the message names the check.
STRUCTURAL_FAULTS = {
    "duplicate-edge": "duplicate edges",
    "edge-ids-not-a-permutation": "upper CSR edge ids not a permutation",
}


def _structurally_corrupt(graph, fault):
    """Copies of ``graph``'s endpoint and CSR arrays with one fault."""
    arrays = {
        "edge_upper": np.array(graph.edge_upper),
        "edge_lower": np.array(graph.edge_lower),
        **dict(zip(("up_indptr", "up_indices", "up_edge_ids"),
                   map(np.array, graph.csr_upper()))),
        **dict(zip(("lo_indptr", "lo_indices", "lo_edge_ids"),
                   map(np.array, graph.csr_lower()))),
    }
    if fault == "duplicate-edge":  # edge 1 becomes a copy of edge 0
        arrays["edge_upper"][1] = arrays["edge_upper"][0]
        arrays["edge_lower"][1] = arrays["edge_lower"][0]
    else:  # one edge id repeated and another missing, same length m
        arrays["up_edge_ids"][1] = arrays["up_edge_ids"][0]
    return arrays


@pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
def test_from_csr_rejects_structural_faults(figure4, fault):
    a = _structurally_corrupt(figure4, fault)
    with pytest.raises(AssertionError, match=STRUCTURAL_FAULTS[fault]):
        BipartiteGraph.from_csr(
            figure4.num_upper,
            figure4.num_lower,
            a["edge_upper"],
            a["edge_lower"],
            (a["up_indptr"], a["up_indices"], a["up_edge_ids"]),
            (a["lo_indptr"], a["lo_indices"], a["lo_edge_ids"]),
        )


@pytest.mark.parametrize("mmap_mode", [None, "r"])
@pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
def test_dir_artifact_structural_faults_detected(
    artifact, tmp_path, fault, mmap_mode
):
    path = tmp_path / "bad"
    save_artifact(artifact, path, layout="dir")
    for key, array in _structurally_corrupt(artifact.graph, fault).items():
        np.save(path / f"{key}.npy", array)
    with pytest.raises(ArtifactIntegrityError, match=STRUCTURAL_FAULTS[fault]):
        load_artifact(path, mmap_mode=mmap_mode)


def test_corrupt_header_detected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    bad = tmp_path / "bad.npz"
    _resave_with(
        path,
        bad,
        header=np.frombuffer(b"\xff\xfe not json", dtype=np.uint8),
    )
    with pytest.raises(ArtifactError):
        load_artifact(bad)


def test_unsupported_version_rejected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"].tobytes()).decode())
    header["version"] = 999
    bad = tmp_path / "bad.npz"
    _resave_with(
        path,
        bad,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    )
    with pytest.raises(ArtifactError):
        load_artifact(bad)


def test_archive_is_a_single_npz(artifact, tmp_path):
    path = tmp_path / "one.npz"
    save_artifact(artifact, path)
    assert zipfile.is_zipfile(path)


def test_invalidate_sets_stale(artifact):
    assert not artifact.stale
    artifact.invalidate()
    assert artifact.stale


def test_to_decomposition_round_trip(artifact):
    result = artifact.to_decomposition()
    np.testing.assert_array_equal(result.phi, artifact.phi)
    assert result.stats.algorithm == artifact.algorithm
    assert result.max_k == artifact.max_k


def test_graph_hash_is_content_addressed(figure4):
    clone = figure4.copy()
    assert graph_sha256(figure4) == graph_sha256(clone)


@pytest.mark.parametrize("layout", ["npz", "dir"])
def test_artifact_of_removed_parallel_build_loads_and_refreshes(
    tmp_path, layout
):
    # Artifacts written by the removed process-parallel build store the
    # algorithm name "BiT-BU-PAR" and a "workers" meta entry.
    from repro.service.engine import QueryEngine

    graph = load_dataset("marvel")
    fresh = build_artifact(graph, algorithm="bit-bu-csr")
    legacy = DecompositionArtifact(
        graph=graph,
        phi=fresh.phi.copy(),
        algorithm="BiT-BU-PAR",
        meta={"workers": 2},
    )
    path = tmp_path / ("legacy.npz" if layout == "npz" else "legacy")
    save_artifact(legacy, path, layout=layout)

    engine = QueryEngine.load(path)
    assert engine.artifact.algorithm == "BiT-BU-PAR"
    assert engine.artifact.meta["workers"] == 2
    u, v = graph.edge_endpoints(int(np.argmax(fresh.phi)))
    assert engine.phi_of(u, v) == fresh.max_k
    assert engine.k_bitruss(fresh.max_k)

    engine.refresh()
    np.testing.assert_array_equal(engine.phi, fresh.phi)
    assert engine.phi_of(u, v) == fresh.max_k
