"""The seeded read mix shared by the in-process and HTTP readers.

The mix is a synthetic definition, not a model of any measured traffic.
A read picks an edge uniformly at random, so its endpoints are drawn in
proportion to their degree and hubs are read more often:

* 50% ``community`` of one endpoint at the deepest level any of its
  edges reaches (its tightest community; at low k a hub's community is
  most of the graph, and one such answer would outweigh hundreds of
  others);
* 15% ``max_k`` of one endpoint;
* 15% ``hierarchy_path`` of the edge;
* 20% a ``batch`` of four of the above.

The shares were chosen for a steady median, not taken from a source:
``max_k`` and ``hierarchy_path`` answers are an order of magnitude
cheaper than the other two, so they are kept under half of the mix, and
the median read then falls inside one mode of the latency distribution,
not on the edge between two.
"""

import numpy as np

MIX = (("community", 0.5), ("max_k", 0.15), ("hierarchy_path", 0.15), ("batch", 0.2))
BATCH_SIZE = 4


class Targets:
    """The served graph's edges and each vertex's deepest level."""

    def __init__(self, edge_upper, edge_lower, phi):
        self.edge_upper = edge_upper
        self.edge_lower = edge_lower
        self.top_upper = np.zeros(int(edge_upper.max()) + 1, dtype=np.int64)
        self.top_lower = np.zeros(int(edge_lower.max()) + 1, dtype=np.int64)
        np.maximum.at(self.top_upper, edge_upper, phi)
        np.maximum.at(self.top_lower, edge_lower, phi)

    def query(self, kind, rng, eid):
        u, v = int(self.edge_upper[eid]), int(self.edge_lower[eid])
        if kind == "hierarchy_path":
            return {"op": "hierarchy_path", "edge": [u, v]}
        if rng.random() < 0.5:
            side, k = {"upper": u}, self.top_upper[u]
        else:
            side, k = {"lower": v}, self.top_lower[v]
        if kind == "community":
            return {"op": "community", "k": max(1, int(k)), **side}
        return {"op": "max_k", **side}


def next_read(rng, targets, pick_edge):
    """One read: ``(kind, [query, ...])``.  ``pick_edge(rng)`` returns an
    edge id that is present while the read runs."""
    draw = rng.random()
    for kind, share in MIX:
        draw -= share
        if draw < 0:
            break
    if kind != "batch":
        return kind, [targets.query(kind, rng, pick_edge(rng))]
    kinds = [k for k, _share in MIX[:3]]
    return kind, [
        targets.query(kinds[int(rng.integers(3))], rng, pick_edge(rng))
        for _ in range(BATCH_SIZE)
    ]


def http_request(dataset, kind, queries):
    """``(method, path, body)`` for one read against the HTTP server."""
    if kind == "batch":
        return "POST", f"/{dataset}/batch", {"queries": queries}
    query = dict(queries[0])
    op = query.pop("op")
    if op == "hierarchy_path":
        u, v = query.pop("edge")
        query = {"u": u, "v": v}
    params = "&".join(f"{key}={value}" for key, value in query.items())
    return "GET", f"/{dataset}/{op}?{params}", None
