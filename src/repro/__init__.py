"""repro — bitruss decomposition for large-scale bipartite graphs.

A faithful, production-quality Python reproduction of

    Kai Wang, Xuemin Lin, Lu Qin, Wenjie Zhang, Ying Zhang.
    "Efficient Bitruss Decomposition for Large-scale Bipartite Graphs."
    ICDE 2020 (arXiv:2001.06111).

Quickstart
----------
>>> from repro import BipartiteGraph, bitruss_decomposition
>>> g = BipartiteGraph(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
>>> result = bitruss_decomposition(g, algorithm="bit-pc")
>>> result.max_k
2

See :mod:`repro.core.api` for the algorithm registry, :mod:`repro.datasets`
for the bundled synthetic datasets and the ``examples/`` directory for
runnable scenarios.
"""

from repro.core.api import ALGORITHMS, bitruss_decomposition
from repro.core.result import (
    BitrussDecomposition,
    load_decomposition,
    save_decomposition,
)
from repro.core.tip import tip_decomposition
from repro.graph.bipartite import BipartiteGraph
from repro.index.be_index import BEIndex
from repro.service import (
    DecompositionArtifact,
    QueryEngine,
    build_artifact,
    load_artifact,
    save_artifact,
)

#: The paper's reference [5] names the edge-level hierarchy the *wing*
#: decomposition; bitruss is the same object, so expose the alias.
wing_decomposition = bitruss_decomposition

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BEIndex",
    "BipartiteGraph",
    "BitrussDecomposition",
    "DecompositionArtifact",
    "QueryEngine",
    "__version__",
    "bitruss_decomposition",
    "build_artifact",
    "load_artifact",
    "load_decomposition",
    "save_artifact",
    "save_decomposition",
    "tip_decomposition",
    "wing_decomposition",
]
