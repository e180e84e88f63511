"""Edge-list IO in the KONECT style.

The paper's datasets all come from KONECT, whose bipartite network files are
whitespace-separated edge lists with optional ``%`` comment lines::

    % bip unweighted
    1 1
    1 2
    2 1

KONECT ids are 1-based per layer; this module accepts both 0- and 1-based
files via ``base`` and writes 0-based files by default.  Gzip-compressed
files are handled transparently by extension.

Two ingestion paths share the same parser:

* :func:`load_edge_list` — the in-memory path: the whole file becomes a
  Python list of pairs before the graph is built.  Simple, but the list of
  boxed tuples costs ~100 bytes per edge, two orders of magnitude short of
  million-edge files.
* :func:`load_edge_list_streaming` — the out-of-core path: the file is
  parsed into fixed-size ``int64`` numpy chunks
  (:func:`iter_edge_chunks`), deduplicated by sorted-array passes instead
  of dictionaries, and assembled directly into CSR form
  (:func:`edges_to_csr_chunked`).  The result is **bitwise identical** to
  the in-memory path on every input; only the peak memory differs.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.bipartite import (
    BipartiteGraph,
    csr_from_endpoints,
    first_occurrences,
)
from repro.obs import spans as obs_spans

PathLike = Union[str, Path]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Default parse-chunk size of the streaming loader (edges per chunk).
DEFAULT_CHUNK_EDGES = 1 << 18


def _open_text(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def _parse_edge_line(path: PathLike, line_no: int, stripped: str) -> Tuple[int, int]:
    """Parse and validate one non-comment edge line."""
    parts = stripped.split()
    if len(parts) < 2:
        raise ValueError(f"{path}:{line_no}: expected two columns, got {stripped!r}")
    try:
        u = int(parts[0])
        v = int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{path}:{line_no}: non-integer endpoint in {stripped!r}") from exc
    if u < 0 or v < 0:
        raise ValueError(
            f"{path}:{line_no}: negative vertex id in {stripped!r}"
        )
    if u > _INT64_MAX or v > _INT64_MAX:
        raise ValueError(
            f"{path}:{line_no}: vertex id too large for int64 in {stripped!r}"
        )
    return u, v


def iter_edge_lines(path: PathLike) -> Iterator[Tuple[int, int]]:
    """Yield raw ``(u, v)`` integer pairs, skipping comments and blanks.

    Malformed lines — fewer than two columns, non-integer, negative, or
    int64-overflowing ids — raise :class:`ValueError` naming the file and
    line number instead of surfacing later as a numpy cast error.
    """
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("%", "#")):
                continue
            yield _parse_edge_line(path, line_no, stripped)


def iter_edge_chunks(
    path: PathLike,
    *,
    base: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[np.ndarray]:
    """Parse an edge list into fixed-size ``(n, 2)`` ``int64`` chunks.

    The streaming half of :func:`load_edge_list_streaming`: at most
    ``chunk_edges`` edges are buffered as Python ints at any moment; each
    full buffer is converted to one numpy array (``base`` already
    subtracted) and yielded.  Validation matches :func:`iter_edge_lines`
    (file/line-numbered errors) plus the id-base check of
    :func:`load_edge_list`.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be a positive integer")

    def _flush(buf_u: List[int], buf_v: List[int]) -> np.ndarray:
        chunk = np.empty((len(buf_u), 2), dtype=np.int64)
        chunk[:, 0] = buf_u
        chunk[:, 1] = buf_v
        if base:
            chunk -= base
            if (chunk < 0).any():
                raise ValueError(
                    f"{path}: negative id after subtracting base={base}; "
                    "check the file's id base"
                )
        return chunk

    buf_u: List[int] = []
    buf_v: List[int] = []
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("%", "#")):
                continue
            u, v = _parse_edge_line(path, line_no, stripped)
            buf_u.append(u)
            buf_v.append(v)
            if len(buf_u) >= chunk_edges:
                yield _flush(buf_u, buf_v)
                buf_u, buf_v = [], []
    if buf_u:
        yield _flush(buf_u, buf_v)


def edges_to_csr_chunked(
    chunks: Iterable[np.ndarray],
    *,
    num_upper: Optional[int] = None,
    num_lower: Optional[int] = None,
    dedup: bool = True,
) -> BipartiteGraph:
    """Assemble edge chunks into a CSR graph without Python-object state.

    Chunks are gathered into one ``(m, 2)`` ``int64`` array and
    deduplicated by :func:`~repro.graph.bipartite.first_occurrences` (one
    ``np.sort`` of the linearized codes finds whether any pair repeats;
    only then does a radix argsort pick each pair's first occurrence, kept
    in original order — the rule of the :class:`BipartiteGraph`
    constructor).  Both CSR blocks come from
    :func:`~repro.graph.bipartite.csr_from_endpoints`, the constructor's
    builder, and are installed via :meth:`BipartiteGraph.from_csr`.  No
    per-edge Python tuple, list or dict is ever materialized, so peak
    memory stays a small constant factor of the final arrays.

    Parameters
    ----------
    chunks : iterable of numpy.ndarray
        ``(n, 2)`` arrays of ``(u, v)`` pairs, e.g. from
        :func:`iter_edge_chunks` or a streaming generator.
    num_upper, num_lower : int, optional
        Layer sizes; inferred as ``max + 1`` when omitted (matching
        :func:`load_edge_list`).
    dedup : bool, optional
        Drop repeated ``(u, v)`` pairs (default) instead of raising.

    Returns
    -------
    BipartiteGraph
        Bitwise identical — endpoint arrays and both CSR blocks — to
        ``BipartiteGraph(num_upper, num_lower, all_edges, dedup=dedup)``.
    """
    parts = [
        np.ascontiguousarray(chunk, dtype=np.int64).reshape(-1, 2)
        for chunk in chunks
    ]
    parts = [part for part in parts if part.size]
    if parts:
        pairs = parts[0] if len(parts) == 1 else np.concatenate(parts)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    del parts
    edge_u = np.ascontiguousarray(pairs[:, 0])
    edge_v = np.ascontiguousarray(pairs[:, 1])
    del pairs

    m = edge_u.shape[0]
    if m and (edge_u.min() < 0 or edge_v.min() < 0):
        raise ValueError("negative vertex id in edge chunks")
    n_u = int(num_upper) if num_upper is not None else (int(edge_u.max()) + 1 if m else 0)
    n_l = int(num_lower) if num_lower is not None else (int(edge_v.max()) + 1 if m else 0)
    if m:
        if int(edge_u.max()) >= n_u:
            raise ValueError(
                f"upper endpoint {int(edge_u.max())} out of range [0, {n_u})"
            )
        if int(edge_v.max()) >= n_l:
            raise ValueError(
                f"lower endpoint {int(edge_v.max())} out of range [0, {n_l})"
            )
        keep = first_occurrences(edge_u, edge_v, n_u, n_l, dedup=dedup)
        if keep is not None:
            edge_u = edge_u[keep]
            edge_v = edge_v[keep]

    return BipartiteGraph.from_csr(
        n_u,
        n_l,
        edge_u,
        edge_v,
        csr_from_endpoints(edge_u, edge_v, n_u),
        csr_from_endpoints(edge_v, edge_u, n_l),
        check=False,
    )


def load_edge_list_streaming(
    path: PathLike,
    *,
    base: int = 0,
    dedup: bool = True,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> BipartiteGraph:
    """Load a bipartite edge list out-of-core (chunked numpy ingestion).

    The drop-in scale variant of :func:`load_edge_list`: the file is
    parsed in ``chunk_edges``-sized numpy chunks and assembled straight
    into CSR form, never holding a Python list of pairs.  The returned
    graph is bitwise identical to the in-memory loader's on any input;
    peak resident memory is a fraction of it on large files.
    """
    with obs_spans.span("streaming ingest"):
        return edges_to_csr_chunked(
            iter_edge_chunks(path, base=base, chunk_edges=chunk_edges),
            dedup=dedup,
        )


def write_edge_chunks(
    path: PathLike,
    chunks: Iterable[np.ndarray],
    *,
    base: int = 0,
    header: str = "bip unweighted",
) -> int:
    """Stream ``(n, 2)`` edge chunks to a KONECT-style edge-list file.

    The writing half of the scale-workload pipeline: a chunk generator
    (e.g. :func:`repro.graph.generators.chung_lu_edge_chunks`) is drained
    chunk by chunk, so graphs far larger than memory can be materialized
    to text or ``.gz`` files.  Returns the number of edges written.
    """
    written = 0
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"% {header}\n")
        for chunk in chunks:
            arr = np.asarray(chunk, dtype=np.int64).reshape(-1, 2)
            if base:
                arr = arr + base
            np.savetxt(handle, arr, fmt="%d")
            written += arr.shape[0]
    return written


def load_edge_list(
    path: PathLike,
    *,
    base: int = 0,
    dedup: bool = True,
) -> BipartiteGraph:
    """Load a bipartite edge list.

    Parameters
    ----------
    path:
        Text or ``.gz`` file of ``u v`` pairs; ``%``/``#`` lines are comments.
    base:
        Id base of the file (KONECT uses 1).
    dedup:
        Drop repeated interactions instead of raising (KONECT interaction
        data often contains duplicates).
    """
    pairs = [pair for pair in iter_edge_lines(path)]
    if not pairs:
        return BipartiteGraph(0, 0, ())
    arr = np.asarray(pairs, dtype=np.int64) - base
    if (arr < 0).any():
        raise ValueError(
            f"{path}: negative id after subtracting base={base}; "
            "check the file's id base"
        )
    num_upper = int(arr[:, 0].max()) + 1
    num_lower = int(arr[:, 1].max()) + 1
    return BipartiteGraph(num_upper, num_lower, arr, dedup=dedup)


def save_edge_list(
    graph: BipartiteGraph,
    path: PathLike,
    *,
    base: int = 0,
    header: str = "bip unweighted",
) -> None:
    """Write ``graph`` as a KONECT-style edge list."""
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"% {header}\n")
        for u, v in graph.edges():
            handle.write(f"{u + base} {v + base}\n")


def load_phi(path: PathLike) -> List[int]:
    """Load bitruss numbers written by :func:`save_phi` (one int per line)."""
    values: List[int] = []
    with _open_text(path, "r") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith(("%", "#")):
                continue
            values.append(int(stripped))
    return values


def save_phi(phi, path: PathLike) -> None:
    """Write bitruss numbers, one per line, in edge-id order."""
    with _open_text(path, "w") as handle:
        handle.write("% bitruss number per edge id\n")
        for value in phi:
            handle.write(f"{int(value)}\n")


def load_matrix_market(path: PathLike, *, dedup: bool = True) -> BipartiteGraph:
    """Load a bipartite graph from a Matrix Market coordinate file.

    Accepts ``matrix coordinate (pattern|integer|real) general`` headers;
    any non-zero stored entry becomes an edge (rows = upper layer).  Ids in
    the body are 1-based per the format.
    """
    with _open_text(path, "r") as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: missing %%MatrixMarket header")
        fields = header.split()
        if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
            raise ValueError(f"{path}: only coordinate matrices are supported")
        value_type = fields[3]
        if value_type not in ("pattern", "integer", "real"):
            raise ValueError(f"{path}: unsupported value type {value_type!r}")
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        rows, cols, _nnz = (int(x) for x in line.split()[:3])
        pairs: List[Tuple[int, int]] = []
        for raw in handle:
            stripped = raw.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            u = int(parts[0]) - 1
            v = int(parts[1]) - 1
            if value_type != "pattern" and float(parts[2]) == 0.0:
                continue
            pairs.append((u, v))
    return BipartiteGraph(rows, cols, pairs, dedup=dedup)


def save_matrix_market(graph: BipartiteGraph, path: PathLike) -> None:
    """Write ``graph`` as a Matrix Market pattern matrix (rows = upper)."""
    with _open_text(path, "w") as handle:
        handle.write("%%MatrixMarket matrix coordinate pattern general\n")
        handle.write(
            f"{graph.num_upper} {graph.num_lower} {graph.num_edges}\n"
        )
        for u, v in graph.edges():
            handle.write(f"{u + 1} {v + 1}\n")
