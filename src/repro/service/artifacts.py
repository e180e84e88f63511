"""Decomposition artifacts: a frozen decomposition, saved once, served often.

A :class:`DecompositionArtifact` is the offline half of the service layer's
compute-once / query-many split: the decomposed graph, the per-edge
bitruss numbers φ, and provenance metadata (algorithm, graph hash, format
version).  Building one costs a full decomposition; reopening one costs a
file read, an ``O(m)`` CSR build and the integrity checks.

Integrity
---------
Two SHA-256 digests travel with the file: one over the graph structure
(layer sizes + endpoint arrays) and one over φ, both over ``int64``
values, so they do not depend on the dtype an array is stored at.
:func:`load_artifact` recomputes both and refuses files whose content no
longer matches — truncation, bit rot, or a hand-edited φ array all raise
:class:`ArtifactIntegrityError` instead of silently serving wrong answers.
The rehydrated graph additionally runs the CSR/endpoint consistency checks
of :meth:`~repro.graph.bipartite.BipartiteGraph.validate`.  Hashes are
streamed over bounded slices, so verifying a memory-mapped multi-GB array
never materializes an in-RAM copy of it.

Layouts
-------
Two on-disk layouts share one header and one loader:

* ``.npz`` (the default for paths ending in ``.npz``), format version 2 —
  one compressed archive holding the header plus ``edge_upper``,
  ``edge_lower`` and ``phi``, each at the narrowest unsigned dtype that
  holds its maximum.  Both CSR blocks are a function of the endpoints, so
  they are not stored: the loader widens the arrays to ``int64`` and
  derives the blocks with
  :func:`~repro.graph.bipartite.csr_from_endpoints`, the graph
  constructor's own builder.  The six CSR member names of version 1 are
  kept as empty arrays, so a version 1 reader stops at "unsupported
  artifact version" rather than at missing members.  The zip container
  cannot be memory-mapped, so reopening is O(size) in RAM.
* **directory** (any other path), format version 1 — ``header.json``
  plus one raw ``int64`` ``.npy`` file per array, both CSR blocks
  included.  ``load_artifact(path, mmap_mode="r")`` (or
  :meth:`DecompositionArtifact.load`) then opens every array as a numpy
  memmap: O(1) resident memory, pages faulted in on demand — the serving
  posture for artifacts larger than RAM.

Version 1 ``.npz`` archives (all nine ``int64`` arrays) still load.

Staleness
---------
An artifact can be registered with a
:class:`~repro.maintenance.dynamic.DynamicBipartiteGraph`; any edge update
then calls :meth:`DecompositionArtifact.invalidate`, and a
:class:`~repro.service.engine.QueryEngine` serving the artifact raises
:class:`StaleArtifactError` rather than answering from outdated φ.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.result import BitrussDecomposition
from repro.graph.bipartite import BipartiteGraph, csr_from_endpoints
from repro.utils.stats import DecompositionStats

#: On-disk format tag; bump a version on layout changes.
ARTIFACT_FORMAT = "repro-bitruss-artifact"
#: Version written to ``.npz`` archives: endpoints and φ, CSR derived.
ARTIFACT_VERSION = 2
#: Version written to the directory layout: every array, CSR included.
DIR_ARTIFACT_VERSION = 1

_CSR_KEYS = (
    "up_indptr",
    "up_indices",
    "up_edge_ids",
    "lo_indptr",
    "lo_indices",
    "lo_edge_ids",
)

#: Array members each loadable version must hold.
_MEMBERS = {
    1: ("edge_upper", "edge_lower") + _CSR_KEYS + ("phi",),
    2: ("edge_upper", "edge_lower", "phi"),
}


class ArtifactError(ValueError):
    """A file is not a readable decomposition artifact."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact's stored hashes no longer match its content."""


class StaleArtifactError(RuntimeError):
    """A query was attempted against an invalidated artifact."""


#: Bytes hashed per slice when digesting an array (bounds resident memory
#: when the array is memory-mapped).
_HASH_SLICE_BYTES = 1 << 22


def _update_digest(digest, array: np.ndarray) -> None:
    """Feed an int64 array into a digest in bounded slices (mmap-safe).

    Byte-identical to ``digest.update(array.tobytes())`` but never holds
    more than one slice's copy in memory, so hashing a memory-mapped
    multi-GB array stays O(1) resident.
    """
    flat = np.ascontiguousarray(array, dtype=np.int64).reshape(-1)
    step = max(1, _HASH_SLICE_BYTES // flat.itemsize)
    for start in range(0, flat.size, step):
        digest.update(flat[start : start + step].tobytes())


def graph_sha256(graph: BipartiteGraph) -> str:
    """Content hash of a graph: layer sizes plus endpoint arrays.

    Two graphs hash equal iff they have the same layer sizes and the same
    ``(u, v)`` pair at every edge id — exactly the identity under which a
    saved φ remains valid.
    """
    digest = hashlib.sha256()
    digest.update(f"{graph.num_upper},{graph.num_lower};".encode())
    _update_digest(digest, graph.edge_upper)
    _update_digest(digest, graph.edge_lower)
    return digest.hexdigest()


def _phi_sha256(phi: np.ndarray) -> str:
    digest = hashlib.sha256()
    _update_digest(digest, phi)
    return digest.hexdigest()


def phi_by_endpoints(graph: BipartiteGraph, phi: np.ndarray) -> Dict:
    """φ keyed by ``(u, v)`` endpoint pairs instead of edge ids.

    The id-stable form the incremental maintenance layer tracks: edge ids
    shift whenever a mutation lands in front of them, endpoints never do.
    :class:`~repro.maintenance.incremental.IncrementalBitruss` accepts it
    as a seed, though it reads an artifact's arrays directly in one pass.
    Keys come in edge-id order; values are plain ``int``.

    Examples
    --------
    >>> from repro.core.api import bitruss_decomposition
    >>> from repro.graph.generators import paper_figure4_graph
    >>> result = bitruss_decomposition(paper_figure4_graph())
    >>> phi = phi_by_endpoints(result.graph, result.phi)
    >>> len(phi), list(phi.items())[:3]
    (11, [((0, 0), 2), ((0, 1), 2), ((1, 0), 2)])
    """
    return dict(zip(graph.edges(), np.asarray(phi).tolist()))


@dataclass
class DecompositionArtifact:
    """A frozen decomposition: graph + φ + provenance, ready to serve.

    Attributes
    ----------
    graph:
        The decomposed graph (immutable, CSR-backed).
    phi:
        ``int64`` bitruss numbers indexed by edge id, read-only.
    algorithm:
        Canonical name of the algorithm that produced φ.
    graph_hash:
        SHA-256 over the graph structure (see :func:`graph_sha256`).
    meta:
        Free-form provenance carried through save/load (timings, update
        counts, parameters — JSON-serializable values only).
    stale:
        Set by :meth:`invalidate` when the source graph has changed since
        φ was computed; engines refuse stale artifacts.
    """

    graph: BipartiteGraph
    phi: np.ndarray
    algorithm: str = ""
    graph_hash: str = ""
    meta: Dict[str, object] = field(default_factory=dict)
    stale: bool = False

    def __post_init__(self) -> None:
        phi = self.phi
        if (
            isinstance(phi, np.ndarray)
            and phi.dtype == np.int64
            and not phi.flags.writeable
        ):
            # Already immutable (e.g. a read-only memmap): share it — a
            # copy would defeat the O(1)-resident mmap load path.
            self.phi = phi
        else:
            # Private copy: freezing a caller-owned writable array in place
            # would leak the artifact's immutability into the caller's
            # objects.
            self.phi = np.array(phi, dtype=np.int64, copy=True)
            self.phi.flags.writeable = False
        if len(self.phi) != self.graph.num_edges:
            raise ArtifactError("phi must have one entry per edge")
        if not self.graph_hash:
            self.graph_hash = graph_sha256(self.graph)

    @classmethod
    def from_decomposition(
        cls, result: BitrussDecomposition, **meta: object
    ) -> "DecompositionArtifact":
        """Wrap a finished :class:`BitrussDecomposition`."""
        provenance: Dict[str, object] = {
            "updates": result.stats.updates,
            "timings": dict(result.stats.timings),
            "iterations": result.stats.iterations,
        }
        provenance.update(meta)
        return cls(
            graph=result.graph,
            phi=result.phi,
            algorithm=result.stats.algorithm,
            meta=provenance,
        )

    def to_decomposition(self) -> BitrussDecomposition:
        """The artifact as a :class:`BitrussDecomposition` (stats restored)."""
        stats = DecompositionStats(
            algorithm=self.algorithm,
            updates=int(self.meta.get("updates", 0) or 0),
            timings=dict(self.meta.get("timings", {}) or {}),
            iterations=int(self.meta.get("iterations", 0) or 0),
        )
        return BitrussDecomposition(self.graph, self.phi.copy(), stats)

    # ---------------------------------------------------------- lifecycle

    def invalidate(self) -> None:
        """Mark the artifact stale (its source graph has changed)."""
        self.stale = True

    def patch(
        self,
        graph: BipartiteGraph,
        phi: np.ndarray,
        **_info: object,
    ) -> None:
        """Replace the served content in place and clear staleness.

        The incremental-maintenance path
        (:meth:`repro.maintenance.dynamic.DynamicBipartiteGraph.apply_batch`)
        calls this after a localized φ repair: the patched snapshot and φ
        array become the artifact's new content, the graph hash is
        recomputed, and the artifact is fresh again — no decomposition ran.
        Extra keyword arguments (``max_affected_k``, ``affected_gids``) are
        accepted for signature compatibility with
        :meth:`repro.service.engine.QueryEngine.patch` and ignored here.
        """
        phi = np.array(phi, dtype=np.int64, copy=True)
        if len(phi) != graph.num_edges:
            raise ArtifactError("phi must have one entry per edge")
        phi.flags.writeable = False
        self.graph = graph
        self.phi = phi
        self.graph_hash = graph_sha256(graph)
        self.meta["patches"] = int(self.meta.get("patches", 0) or 0) + 1
        self.stale = False

    def save(self, path, *, layout: str = "auto") -> None:
        """Write the artifact to ``path`` (see :func:`save_artifact`)."""
        save_artifact(self, path, layout=layout)

    @classmethod
    def load(
        cls,
        path,
        *,
        mmap_mode: Optional[str] = None,
        check: bool = True,
    ) -> "DecompositionArtifact":
        """Open a saved artifact (see :func:`load_artifact`).

        ``mmap_mode="r"`` memory-maps every array of a directory-layout
        artifact: the open cost is O(1) resident memory regardless of
        artifact size, with pages faulted in as queries touch them.
        """
        return load_artifact(path, mmap_mode=mmap_mode, check=check)

    def phi_by_endpoints(self) -> Dict:
        """This artifact's φ keyed by endpoints (see :func:`phi_by_endpoints`)."""
        return phi_by_endpoints(self.graph, self.phi)

    @property
    def max_k(self) -> int:
        """Largest bitruss number in the artifact (0 when edgeless)."""
        return int(self.phi.max()) if len(self.phi) else 0

    def __repr__(self) -> str:
        return (
            f"DecompositionArtifact(m={self.graph.num_edges}, "
            f"max_k={self.max_k}, algorithm={self.algorithm!r}, "
            f"stale={self.stale})"
        )


def build_artifact(
    graph: BipartiteGraph,
    algorithm: str = "bit-bu++",
    **kwargs: object,
) -> DecompositionArtifact:
    """Run a decomposition and freeze it into an artifact.

    Parameters
    ----------
    graph : BipartiteGraph
        The graph to decompose.
    algorithm : str, optional
        Any name accepted by :func:`repro.core.api.bitruss_decomposition`.
    **kwargs :
        Forwarded to the decomposition (``tau``, ``prefilter``, ...).

    Returns
    -------
    DecompositionArtifact
        Ready to save or to hand to a
        :class:`~repro.service.engine.QueryEngine`.
    """
    from repro.core.api import bitruss_decomposition

    result = bitruss_decomposition(graph, algorithm=algorithm, **kwargs)
    return DecompositionArtifact.from_decomposition(result)


def _build_header(
    artifact: DecompositionArtifact, version: int
) -> Dict[str, object]:
    graph = artifact.graph
    return {
        "format": ARTIFACT_FORMAT,
        "version": version,
        "algorithm": artifact.algorithm,
        "num_upper": graph.num_upper,
        "num_lower": graph.num_lower,
        "num_edges": graph.num_edges,
        "graph_hash": artifact.graph_hash,
        "phi_hash": _phi_sha256(artifact.phi),
        "meta": artifact.meta,
    }


def _narrowest(array: np.ndarray) -> np.ndarray:
    """``array`` at the narrowest integer dtype holding its values.

    Unsigned whenever nothing is negative (endpoints and φ never are), so
    the narrowest unsigned dtype that holds the maximum.
    """
    if not len(array):
        return np.asarray(array, dtype=np.uint8)
    dtype = np.result_type(
        np.min_scalar_type(int(array.min())),
        np.min_scalar_type(int(array.max())),
    )
    return np.asarray(array, dtype=dtype)


def save_artifact(
    artifact: DecompositionArtifact, path, *, layout: str = "auto"
) -> None:
    """Persist an artifact in one of two layouts.

    Parameters
    ----------
    artifact :
        The artifact to write.
    path :
        Target path.
    layout : str, optional
        ``"npz"`` — one compressed archive, format version 2: a JSON
        header (format tag, version, algorithm, layer sizes, both content
        hashes, the free-form ``meta`` dict) plus ``edge_upper``,
        ``edge_lower`` and ``phi``, each at the narrowest unsigned dtype
        that holds its maximum; the CSR blocks are not stored, the loader
        derives them;
        ``"dir"`` — format version 1: a directory of raw ``int64``
        ``.npy`` files (endpoints, both CSR blocks, φ) plus
        ``header.json``, reopenable with ``mmap_mode="r"`` in O(1)
        resident memory;
        ``"auto"`` (default) — ``"npz"`` when ``path`` ends in ``.npz``,
        ``"dir"`` otherwise.
    """
    if layout == "auto":
        layout = "npz" if str(path).endswith(".npz") else "dir"
    if layout not in ("npz", "dir"):
        raise ValueError(f"unknown artifact layout {layout!r}")
    graph = artifact.graph
    if layout == "npz":
        arrays = {
            "edge_upper": graph.edge_upper,
            "edge_lower": graph.edge_lower,
            "phi": artifact.phi,
        }
        header = json.dumps(_build_header(artifact, ARTIFACT_VERSION))
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                # Empty stand-ins for the v1 CSR members: a v1 reader
                # checks that every member exists before it reads the
                # version, and would otherwise report missing members
                # instead of an unsupported version.
                **{key: np.empty(0, dtype=np.uint8) for key in _CSR_KEYS},
                **{key: _narrowest(a) for key, a in arrays.items()},
            )
        return
    os.makedirs(path, exist_ok=True)
    header = _build_header(artifact, DIR_ARTIFACT_VERSION)
    with open(os.path.join(path, "header.json"), "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
    arrays = (
        (graph.edge_upper, graph.edge_lower)
        + graph.csr_upper()
        + graph.csr_lower()
        + (artifact.phi,)
    )
    for key, array in zip(_MEMBERS[DIR_ARTIFACT_VERSION], arrays):
        np.save(os.path.join(path, f"{key}.npy"), array)


def _parse_header(path, raw: bytes) -> Dict[str, object]:
    """Decode a header; refuse a foreign format or an unknown version."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: corrupt artifact header") from exc
    if not isinstance(header, dict) or header.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path}: not a decomposition artifact")
    sizes = (header.get("num_upper"), header.get("num_lower"))
    if not all(isinstance(size, int) for size in sizes):
        raise ArtifactError(f"{path}: corrupt artifact header (layer sizes)")
    if header.get("version") not in tuple(_MEMBERS):  # no hashing of junk
        raise ArtifactError(
            f"{path}: unsupported artifact version {header.get('version')!r}"
        )
    return header


def _missing(path, missing) -> ArtifactIntegrityError:
    return ArtifactIntegrityError(
        f"{path}: artifact is missing members {missing}"
    )


def _read_npz(path):
    try:
        with np.load(path) as archive:
            if "header" not in archive.files:
                raise ArtifactError(
                    f"{path}: not a decomposition artifact (missing ['header'])"
                )
            header = _parse_header(path, archive["header"].tobytes())
            keys = _MEMBERS[header["version"]]
            missing = [k for k in keys if k not in archive.files]
            if missing:
                raise _missing(path, missing)
            return header, {k: archive[k] for k in keys}
    except (OSError, ValueError) as exc:
        if isinstance(exc, ArtifactError):
            raise
        raise ArtifactError(f"{path}: cannot read artifact ({exc})") from exc


def _read_dir(path, mmap_mode: Optional[str]):
    header_path = os.path.join(path, "header.json")
    if not os.path.exists(header_path):
        raise ArtifactError(
            f"{path}: not a decomposition artifact (missing header.json)"
        )
    try:
        with open(header_path, "rb") as fh:
            header = _parse_header(path, fh.read())
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read artifact ({exc})") from exc
    data: Dict[str, np.ndarray] = {}
    for key in _MEMBERS[header["version"]]:
        member = os.path.join(path, f"{key}.npy")
        if not os.path.exists(member):
            raise _missing(path, [key])
        try:
            data[key] = np.load(member, mmap_mode=mmap_mode)
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"{path}: cannot read artifact ({exc})"
            ) from exc
    return header, data


def load_artifact(
    path, *, check: bool = True, mmap_mode: Optional[str] = None
) -> DecompositionArtifact:
    """Load an artifact written by :func:`save_artifact`, verifying it.

    A version 1 artifact (either layout) brings its CSR blocks; a
    version 2 ``.npz`` archive brings only endpoints and φ, which are
    widened to ``int64`` and the CSR blocks derived from the endpoints
    with :func:`~repro.graph.bipartite.csr_from_endpoints`.  Either way
    the graph is installed through
    :meth:`~repro.graph.bipartite.BipartiteGraph.from_csr`.

    Parameters
    ----------
    path :
        An ``.npz`` file or a directory-layout artifact.
    check : bool, optional
        When true (default) recompute both content hashes and run the
        graph's structural validation; pass ``False`` only for trusted
        files on hot restart paths.  Hashing streams over bounded slices,
        so checking a memory-mapped artifact never copies whole arrays.
    mmap_mode : str, optional
        ``"r"`` memory-maps every array of a directory-layout artifact —
        an O(1)-resident open regardless of artifact size.  Compressed
        ``.npz`` archives cannot be mapped; asking raises
        :class:`ArtifactError` pointing at the directory layout.

    Raises
    ------
    ArtifactError
        Not an artifact file, or an unsupported version.
    ArtifactIntegrityError
        A member is missing, the arrays are inconsistent (an endpoint out
        of range, a duplicate edge, CSR blocks that disagree with the
        endpoints), or the stored hashes disagree with the content.
    """
    if os.path.isdir(path):
        header, data = _read_dir(path, mmap_mode)
    elif mmap_mode is not None:
        raise ArtifactError(
            f"{path}: .npz archives cannot be memory-mapped; save the "
            "artifact in the directory layout (save_artifact(..., "
            "layout='dir')) to use mmap_mode"
        )
    else:
        header, data = _read_npz(path)

    num_upper, num_lower = header["num_upper"], header["num_lower"]
    try:
        if "up_indptr" in data:  # v1 stores the CSR blocks, v2 derives them
            edge_upper, edge_lower = data["edge_upper"], data["edge_lower"]
            upper_csr = tuple(data[k] for k in _CSR_KEYS[:3])
            lower_csr = tuple(data[k] for k in _CSR_KEYS[3:])
        else:
            edge_upper = np.asarray(data["edge_upper"], dtype=np.int64)
            edge_lower = np.asarray(data["edge_lower"], dtype=np.int64)
            upper_csr = csr_from_endpoints(edge_upper, edge_lower, num_upper)
            lower_csr = csr_from_endpoints(edge_lower, edge_upper, num_lower)
        graph = BipartiteGraph.from_csr(
            num_upper,
            num_lower,
            edge_upper,
            edge_lower,
            upper_csr,
            lower_csr,
            check=check,
        )
    except (AssertionError, ValueError, IndexError) as exc:
        raise ArtifactIntegrityError(
            f"{path}: stored arrays are internally inconsistent ({exc})"
        ) from exc
    phi = np.ascontiguousarray(data["phi"], dtype=np.int64)
    if len(phi) != graph.num_edges:
        raise ArtifactIntegrityError(
            f"{path}: phi length {len(phi)} != edge count {graph.num_edges}"
        )
    if check:
        if graph_sha256(graph) != header.get("graph_hash"):
            raise ArtifactIntegrityError(
                f"{path}: graph content does not match its stored hash"
            )
        if _phi_sha256(phi) != header.get("phi_hash"):
            raise ArtifactIntegrityError(
                f"{path}: phi does not match its stored hash"
            )
    return DecompositionArtifact(
        graph=graph,
        phi=phi,
        algorithm=header.get("algorithm", ""),
        graph_hash=header.get("graph_hash", ""),
        meta=dict(header.get("meta", {}) or {}),
    )
