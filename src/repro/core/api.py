"""The public entry point: :func:`bitruss_decomposition`."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.bit_bs import bit_bs
from repro.core.bit_bu import bit_bu
from repro.core.bit_bu_batch import bit_bu_csr, bit_bu_plus, bit_bu_plus_plus
from repro.core.bit_pc import bit_pc
from repro.core.result import BitrussDecomposition
from repro.graph.bipartite import BipartiteGraph
from repro.utils.stats import IndexSizeModel, PhaseTimer, UpdateCounter

#: Registry of algorithm names accepted by :func:`bitruss_decomposition`.
#: Aliases follow the paper's figures: BS, BU, BU+, BU++, PC — plus the
#: library's CSR batch-peeling engine (BU-CSR).
ALGORITHMS: Dict[str, str] = {
    "bit-bs": "bit-bs",
    "bs": "bit-bs",
    "bit-bu": "bit-bu",
    "bu": "bit-bu",
    "bit-bu+": "bit-bu+",
    "bu+": "bit-bu+",
    "bit-bu++": "bit-bu++",
    "bu++": "bit-bu++",
    "bit-bu-csr": "bit-bu-csr",
    "bu-csr": "bit-bu-csr",
    "csr": "bit-bu-csr",
    "bit-pc": "bit-pc",
    "pc": "bit-pc",
}


def bitruss_decomposition(
    graph: BipartiteGraph,
    algorithm: str = "bit-bu++",
    *,
    tau: float = 0.02,
    prefilter: str = "fixpoint",
    counter: Optional[UpdateCounter] = None,
    timer: Optional[PhaseTimer] = None,
    size_model: Optional[IndexSizeModel] = None,
) -> BitrussDecomposition:
    """Compute the bitruss number of every edge of ``graph``.

    Parameters
    ----------
    graph : BipartiteGraph
        The bipartite graph to decompose.
    algorithm : str, optional
        One of ``"bit-bs"``, ``"bit-bu"``, ``"bit-bu+"``, ``"bit-bu++"``
        (default; the paper's best bottom-up variant), ``"bit-bu-csr"``
        (the vectorized batch-peeling engine — fastest on dense graphs) or
        ``"bit-pc"`` (best on graphs with strong hub edges).  Short aliases
        ``bs``, ``bu``, ``bu+``, ``bu++``, ``bu-csr``, ``csr``, ``pc`` are
        accepted.
        All algorithms produce identical bitruss numbers.
    tau : float, optional
        BiT-PC's threshold-decay parameter (ignored by other algorithms);
        the paper recommends 0.05–0.2 and defaults to 0.02.
    prefilter : str, optional
        BiT-PC's candidate-filter mode, ``"fixpoint"`` (default) or the
        paper-literal ``"single-pass"``; see :func:`repro.core.bit_pc.bit_pc`.
    counter, timer, size_model : optional
        Optional instrumentation sinks (see :mod:`repro.utils.stats`);
        fresh ones are created when omitted and are always reachable via the
        returned ``result.stats``.

    Returns
    -------
    BitrussDecomposition
        Bitruss numbers plus run statistics.

    Raises
    ------
    ValueError
        If ``algorithm`` is not in :data:`ALGORITHMS`.

    Examples
    --------
    >>> from repro.graph.generators import paper_figure4_graph
    >>> result = bitruss_decomposition(paper_figure4_graph())
    >>> result.phi_of(0, 0)
    2
    """
    canonical = ALGORITHMS.get(algorithm.lower())
    if canonical is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose one of "
            f"{sorted(set(ALGORITHMS.values()))}"
        )
    if canonical == "bit-bs":
        return bit_bs(graph, counter=counter, timer=timer)
    if canonical == "bit-bu":
        return bit_bu(graph, counter=counter, timer=timer, size_model=size_model)
    if canonical == "bit-bu+":
        return bit_bu_plus(graph, counter=counter, timer=timer, size_model=size_model)
    if canonical == "bit-bu++":
        return bit_bu_plus_plus(
            graph, counter=counter, timer=timer, size_model=size_model
        )
    if canonical == "bit-bu-csr":
        return bit_bu_csr(
            graph, counter=counter, timer=timer, size_model=size_model
        )
    return bit_pc(
        graph,
        tau=tau,
        prefilter=prefilter,
        counter=counter,
        timer=timer,
        size_model=size_model,
    )
