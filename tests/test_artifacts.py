"""Artifact save → load round-trips and integrity checking."""

import json
import zipfile
from pathlib import Path

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


def _archive_header(path):
    with np.load(path) as archive:
        return json.loads(bytes(archive["header"].tobytes()).decode())


def _resave_with(path, out, *, drop=(), **overrides):
    """Rewrite an artifact archive with some members replaced or dropped.

    Members come back at their stored dtype (a v2 archive narrows the
    endpoint and φ arrays), so an override may be any integer array.
    """
    with np.load(path) as archive:
        members = {k: archive[k] for k in archive.files if k not in drop}
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
        edge_upper = np.array(archive["edge_upper"], dtype=np.int64)
    num_upper = _archive_header(path)["num_upper"]
    # Move one endpoint to a different (in-range) vertex; the CSR blocks
    # derived on load follow it, so either the structural validation (a
    # duplicate) or the graph hash must catch it.
    edge_upper[0] = (edge_upper[0] + 1) % num_upper
    _resave_with(path, bad, edge_upper=edge_upper)
    with pytest.raises(ArtifactIntegrityError):
        load_artifact(bad)


def _absent_pair(graph):
    """An in-range ``(u, v)`` that is not an edge of ``graph``."""
    present = set(graph.edges())
    return next(
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
        if (u, v) not in present
    )


#: Faults planted in a version 2 archive, each with the message the
#: checked load's :class:`ArtifactIntegrityError` must carry.
V2_FAULTS = {
    "duplicate-edge": "duplicate edges",
    "endpoint-out-of-range": "out of range",
    "tampered-endpoint": "graph content does not match its stored hash",
    "tampered-phi": "phi does not match its stored hash",
    "missing-edge_upper": "missing",
    "missing-edge_lower": "missing",
    "missing-phi": "missing",
}


def _v2_overrides(graph, phi, fault):
    """``_resave_with`` keyword arguments that plant ``fault``."""
    if fault.startswith("missing-"):
        return {"drop": (fault[len("missing-"):],)}
    if fault == "tampered-phi":
        forged = np.array(phi, dtype=np.int64)
        forged[0] += 1
        return {"phi": forged}
    edge_upper = np.array(graph.edge_upper, dtype=np.int64)
    edge_lower = np.array(graph.edge_lower, dtype=np.int64)
    if fault == "duplicate-edge":  # edge 1 becomes a copy of edge 0
        edge_upper[1], edge_lower[1] = edge_upper[0], edge_lower[0]
    elif fault == "endpoint-out-of-range":
        edge_upper[0] = graph.num_upper
    else:  # edge 0 moves to a pair that is not an edge: only the hash sees it
        edge_upper[0], edge_lower[0] = _absent_pair(graph)
    return {"edge_upper": edge_upper, "edge_lower": edge_lower}


@pytest.mark.parametrize("fault", sorted(V2_FAULTS))
def test_v2_archive_faults_detected(artifact, tmp_path, fault):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    assert _archive_header(path)["version"] == 2
    bad = tmp_path / "bad.npz"
    _resave_with(path, bad, **_v2_overrides(artifact.graph, artifact.phi, fault))
    with pytest.raises(ArtifactIntegrityError, match=V2_FAULTS[fault]):
        load_artifact(bad)


def test_v2_archive_members(artifact, tmp_path):
    path = tmp_path / "figure4.npz"
    save_artifact(artifact, path)
    with np.load(path) as archive:
        members = {k: archive[k] for k in archive.files}
    for key in ("edge_upper", "edge_lower", "phi"):
        assert members.pop(key).dtype == np.uint8, key
    members.pop("header")
    # The v1 CSR member names stay, empty, so a v1 reader reaches its
    # version check instead of reporting missing members.
    assert sorted(members) == sorted(
        f"{side}_{name}"
        for side in ("up", "lo")
        for name in ("indptr", "indices", "edge_ids")
    )
    assert all(array.size == 0 for array in members.values())


def test_v2_archive_narrows_to_the_largest_value(tmp_path):
    graph = BipartiteGraph(300, 70_000, [(0, 0), (299, 69_999)])
    artifact = DecompositionArtifact(graph=graph, phi=[2**40, 0])
    path = tmp_path / "wide.npz"
    save_artifact(artifact, path)
    with np.load(path) as archive:
        dtypes = {k: archive[k].dtype for k in ("edge_upper", "edge_lower", "phi")}
    assert dtypes == {
        "edge_upper": np.uint16,
        "edge_lower": np.uint32,
        "phi": np.uint64,
    }
    reopened = load_artifact(path)
    assert reopened.phi.tolist() == [2**40, 0]
    assert reopened.graph.edge_lower.dtype == np.int64


#: Written by the version 1 writer (all nine ``int64`` arrays): the
#: ``bit-bu-csr`` decomposition of the paper's Figure 4 graph, with
#: ``meta`` holding only the run's ``updates`` and ``iterations``.
V1_FIXTURE = Path(__file__).parent / "data" / "figure4_v1.npz"


def test_v1_archive_loads_bitwise(figure4):
    header = _archive_header(V1_FIXTURE)
    assert header["version"] == 1
    with np.load(V1_FIXTURE) as archive:
        assert len(archive["up_indptr"]) == figure4.num_upper + 1
    loaded = load_artifact(V1_FIXTURE, check=True)
    fresh = bitruss_decomposition(figure4, algorithm="bit-bu-csr")
    got = (loaded.graph.edge_upper, loaded.graph.edge_lower)
    want = (fresh.graph.edge_upper, fresh.graph.edge_lower)
    got += loaded.graph.csr_upper() + loaded.graph.csr_lower()
    want += fresh.graph.csr_upper() + fresh.graph.csr_lower()
    for ours, theirs in zip(got, want):
        assert ours.dtype == theirs.dtype == np.int64
        assert np.array_equal(ours, theirs)
    assert np.array_equal(loaded.phi, fresh.phi)
    assert loaded.algorithm == fresh.stats.algorithm
    assert loaded.meta == {
        "updates": fresh.stats.updates,
        "iterations": fresh.stats.iterations,
    }


def test_v1_and_v2_archives_share_hashes(tmp_path):
    v1 = load_artifact(V1_FIXTURE)
    path = tmp_path / "figure4_v2.npz"
    save_artifact(v1, path)
    old, new = _archive_header(V1_FIXTURE), _archive_header(path)
    assert (old["version"], new["version"]) == (1, 2)
    assert new["graph_hash"] == old["graph_hash"]
    assert new["phi_hash"] == old["phi_hash"]
    v2 = load_artifact(path)
    assert np.array_equal(v2.phi, v1.phi)
    for ours, theirs in zip(
        v2.graph.csr_upper() + v2.graph.csr_lower(),
        v1.graph.csr_upper() + v1.graph.csr_lower(),
    ):
        assert np.array_equal(ours, theirs)


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


def test_corrupt_dir_header_detected(artifact, tmp_path):
    path = tmp_path / "bad"
    save_artifact(artifact, path, layout="dir")
    (path / "header.json").write_bytes(b"\xff\xfe not json")
    with pytest.raises(ArtifactError, match="corrupt artifact header"):
        load_artifact(path)


def test_header_without_layer_sizes_rejected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    header = _archive_header(path)
    del header["num_upper"]
    bad = tmp_path / "bad.npz"
    _resave_with(
        path,
        bad,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    )
    with pytest.raises(ArtifactError, match="corrupt artifact header"):
        load_artifact(bad)


def test_unsupported_version_rejected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"].tobytes()).decode())
    bad = tmp_path / "bad.npz"
    for version in (999, [2]):
        header["version"] = version
        _resave_with(
            path,
            bad,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        with pytest.raises(ArtifactError, match="unsupported artifact version"):
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
