"""Hierarchy correctness against brute-force k-bitruss extraction."""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import bitruss_decomposition
from repro.core.bitruss import k_bitruss_direct
from repro.datasets import dataset_names, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import erdos_renyi_bipartite
from repro.service.hierarchy import build_hierarchy

from tests.conftest import bipartite_graphs


def brute_force_component(graph, edge_ids, gid):
    """Connected component of the edge subset touching ``gid`` (BFS)."""
    adj = {}
    for eid in edge_ids:
        u, v = graph.edge_endpoints(eid)
        gu, gv = graph.gid_of_upper(u), graph.gid_of_lower(v)
        adj.setdefault(gu, []).append((gv, eid))
        adj.setdefault(gv, []).append((gu, eid))
    if gid not in adj:
        return set()
    seen = {gid}
    stack = [gid]
    edges = set()
    while stack:
        node = stack.pop()
        for nbr, eid in adj[node]:
            edges.add(eid)
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return edges


def check_hierarchy(graph):
    result = bitruss_decomposition(graph, algorithm="bu-csr")
    hierarchy = build_hierarchy(graph, result.phi)
    hierarchy.validate()

    phi = result.phi
    levels = sorted({int(k) for k in phi} | {0, result.max_k + 1})
    for k in levels:
        expected = set(result.edges_with_phi_at_least(k))
        got = hierarchy.k_bitruss_edges(k)
        assert set(got.tolist()) == expected, f"H_{k} edge set differs"
        assert got.tolist() == sorted(got.tolist())

        # Every vertex's component must equal the BFS component of H_k.
        edge_ids = sorted(expected)
        for gid in range(graph.num_vertices):
            expected_comp = brute_force_component(graph, edge_ids, gid)
            got_comp = set(hierarchy.community_edges(gid, k).tolist())
            assert got_comp == expected_comp, (
                f"component of gid {gid} at k={k} differs"
            )
    return hierarchy


def test_figure4_hierarchy(figure4):
    hierarchy = check_hierarchy(figure4)
    assert hierarchy.max_k == 2


def test_figure1_hierarchy(figure1):
    check_hierarchy(figure1)


def test_random_graph_hierarchy():
    check_hierarchy(erdos_renyi_bipartite(12, 10, 50, seed=3))


@settings(max_examples=25, deadline=None)
@given(bipartite_graphs(max_upper=6, max_lower=6, max_edges=18))
def test_hierarchy_matches_brute_force(graph):
    check_hierarchy(graph)


@pytest.mark.parametrize("name", ["github", "marvel", "condmat", "d-label"])
def test_dataset_k_bitruss_matches_direct(name):
    graph = load_dataset(name)
    result = bitruss_decomposition(graph, algorithm="bu-csr")
    hierarchy = build_hierarchy(graph, result.phi)
    hierarchy.validate()
    for k in (1, 2, 3, result.max_k):
        assert hierarchy.k_bitruss_edges(k).tolist() == k_bitruss_direct(
            graph, k
        ), f"{name}: H_{k} differs from the iterated-filter reference"


@pytest.mark.parametrize("name", ["github", "marvel"])
def test_dataset_components_match_bfs(name):
    graph = load_dataset(name)
    result = bitruss_decomposition(graph, algorithm="bu-csr")
    hierarchy = build_hierarchy(graph, result.phi)
    rng = np.random.default_rng(11)
    for k in (2, max(3, result.max_k // 2), result.max_k):
        edge_ids = result.edges_with_phi_at_least(k)
        for u in rng.choice(graph.num_upper, size=6, replace=False):
            gid = graph.gid_of_upper(int(u))
            expected = brute_force_component(graph, edge_ids, gid)
            got = set(hierarchy.community_edges(gid, k).tolist())
            assert got == expected


def test_empty_graph():
    from repro.graph.bipartite import BipartiteGraph

    graph = BipartiteGraph(3, 3, [])
    hierarchy = build_hierarchy(graph, np.empty(0, dtype=np.int64))
    hierarchy.validate()
    assert hierarchy.num_nodes == 0
    assert hierarchy.k_bitruss_edges(0).tolist() == []
    assert hierarchy.community_edges(0, 1).tolist() == []
    assert hierarchy.max_k_of_vertex(0) == 0


def test_parent_levels_strictly_decrease(figure4):
    result = bitruss_decomposition(figure4)
    hierarchy = build_hierarchy(figure4, result.phi)
    for node in range(hierarchy.num_nodes):
        parent = int(hierarchy.node_parent[node])
        if parent >= 0:
            assert hierarchy.node_level[parent] < hierarchy.node_level[node]


def test_hierarchy_path_is_nested(figure4):
    result = bitruss_decomposition(figure4)
    hierarchy = build_hierarchy(figure4, result.phi)
    for eid in range(figure4.num_edges):
        path = hierarchy.hierarchy_path(eid)
        assert path[0][0] == result.phi[eid]
        levels = [level for level, _node in path]
        assert levels == sorted(levels, reverse=True)
        # Each enclosing component contains the previous one.
        previous = None
        for _level, node in path:
            edges = set(hierarchy.component_edges(node).tolist())
            assert eid in edges
            if previous is not None:
                assert previous <= edges
            previous = edges


def test_level_sizes_match_result_hierarchy(figure4):
    result = bitruss_decomposition(figure4)
    hierarchy = build_hierarchy(figure4, result.phi)
    assert hierarchy.level_sizes() == result.hierarchy()


# ---------------------------------------------------------------------------
# The per-edge union-find sweep, kept as the oracle of the array build.


class _UnionFind:
    """Array-based union-find with path halving and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def scalar_hierarchy_arrays(graph, phi) -> Dict[str, np.ndarray]:
    """The eight hierarchy arrays, built edge by edge in descending φ."""
    phi = np.array(phi, dtype=np.int64, copy=True)
    m = graph.num_edges
    n_l = graph.num_lower
    edge_gu = (graph.edge_upper + n_l).tolist()
    edge_gv = graph.edge_lower.tolist()

    uf = _UnionFind(graph.num_vertices)
    comp_node: Dict[int, int] = {}  # current UF root -> its newest node
    levels: List[int] = []
    parents: List[int] = []
    edge_node = np.full(m, -1, dtype=np.int64)

    order = np.argsort(phi, kind="stable")
    sorted_phi = phi[order]
    for k in np.unique(phi)[::-1].tolist():
        lo = int(np.searchsorted(sorted_phi, k, side="left"))
        hi = int(np.searchsorted(sorted_phi, k, side="right"))
        level_eids = order[lo:hi].tolist()
        pre_roots = set()
        for eid in level_eids:
            pre_roots.add(uf.find(edge_gu[eid]))
            pre_roots.add(uf.find(edge_gv[eid]))
        for eid in level_eids:
            uf.union(edge_gu[eid], edge_gv[eid])
        new_nodes: Dict[int, int] = {}
        for eid in level_eids:
            root = uf.find(edge_gu[eid])
            node = new_nodes.get(root)
            if node is None:
                node = len(levels)
                levels.append(k)
                parents.append(-1)
                new_nodes[root] = node
            edge_node[eid] = node
        for old_root in pre_roots:
            old_node = comp_node.pop(old_root, None)
            if old_node is not None:
                parents[old_node] = new_nodes[uf.find(old_root)]
        comp_node.update(new_nodes)

    n_nodes = len(levels)
    children: List[List[int]] = [[] for _ in range(n_nodes)]
    roots: List[int] = []
    for node, parent in enumerate(parents):
        (children[parent] if parent >= 0 else roots).append(node)
    new_id = np.empty(n_nodes, dtype=np.int64)
    dfs_level = np.empty(n_nodes, dtype=np.int64)
    dfs_parent = np.full(n_nodes, -1, dtype=np.int64)
    subtree_end = np.empty(n_nodes, dtype=np.int64)
    counter = 0
    for root in roots:
        stack: List[Tuple[int, int]] = [(root, 0)]
        new_id[root] = counter
        dfs_level[counter] = levels[root]
        counter += 1
        while stack:
            node, cursor = stack[-1]
            if cursor < len(children[node]):
                stack[-1] = (node, cursor + 1)
                child = children[node][cursor]
                new_id[child] = counter
                dfs_level[counter] = levels[child]
                dfs_parent[counter] = new_id[node]
                counter += 1
                stack.append((child, 0))
            else:
                stack.pop()
                subtree_end[new_id[node]] = counter
    if n_nodes:
        edge_node = new_id[edge_node]
    node_edges = np.argsort(edge_node, kind="stable").astype(np.int64)
    node_edge_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_node, minlength=n_nodes), out=node_edge_ptr[1:])
    vertex_best = np.full(graph.num_vertices, -1, dtype=np.int64)
    vertex_best[graph.edge_lower[order]] = order
    vertex_best[graph.edge_upper[order] + n_l] = order
    return {
        "node_level": dfs_level,
        "node_parent": dfs_parent,
        "subtree_end": subtree_end,
        "edge_node": edge_node,
        "_node_edge_ptr": node_edge_ptr,
        "_node_edges": node_edges,
        "_vertex_best_edge": vertex_best,
        "phi": phi,
    }


def assert_matches_oracle(graph, phi):
    hierarchy = build_hierarchy(graph, phi)
    for name, expected in scalar_hierarchy_arrays(graph, phi).items():
        got = getattr(hierarchy, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), f"{name} differs from the oracle"
    hierarchy.validate()
    return hierarchy


@pytest.mark.parametrize("name", dataset_names())
def test_dataset_matches_scalar_oracle(name):
    graph = load_dataset(name)
    phi = bitruss_decomposition(graph, algorithm="bit-bu-csr").phi
    assert_matches_oracle(graph, phi)


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs(max_upper=8, max_lower=8, max_edges=30))
def test_hypothesis_graph_matches_scalar_oracle(graph):
    assert_matches_oracle(graph, bitruss_decomposition(graph).phi)


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs(max_upper=8, max_lower=8, max_edges=30), st.data())
def test_arbitrary_levels_match_scalar_oracle(graph, data):
    """Any integer labelling nests; random ones give many small levels."""
    phi = data.draw(
        st.lists(
            st.integers(0, 6),
            min_size=graph.num_edges,
            max_size=graph.num_edges,
        )
    )
    assert_matches_oracle(graph, np.asarray(phi, dtype=np.int64))


@pytest.mark.parametrize(
    "graph, nodes",
    [
        (BipartiteGraph(0, 0, []), 0),
        (BipartiteGraph(3, 4, []), 0),
        # Isolated vertices on both layers around a butterfly (φ = 1) and a
        # two-edge star (φ = 0): one root each.
        (
            BipartiteGraph(
                9, 7, [(0, 0), (0, 1), (1, 0), (1, 1), (5, 4), (6, 4)]
            ),
            2,
        ),
        # A single hub star: every edge at φ = 0, one component.
        (BipartiteGraph(1, 25, [(0, v) for v in range(25)]), 1),
        # K_{5,5}: a single level at φ = 16.
        (BipartiteGraph(5, 5, [divmod(i, 5) for i in range(25)]), 1),
    ],
    ids=["empty", "edgeless", "isolated", "hub-star", "K55"],
)
def test_degenerate_graphs_match_scalar_oracle(graph, nodes):
    phi = bitruss_decomposition(graph).phi
    hierarchy = assert_matches_oracle(graph, phi)
    assert hierarchy.num_nodes == nodes
    assert len(hierarchy.roots()) == nodes


def test_single_level_with_every_edge_at_zero():
    graph = erdos_renyi_bipartite(15, 12, 60, seed=5)
    hierarchy = assert_matches_oracle(
        graph, np.zeros(graph.num_edges, dtype=np.int64)
    )
    assert set(hierarchy.node_level.tolist()) == {0}
    assert (hierarchy.node_parent == -1).all()


def test_nested_chain_with_deep_parent_chains():
    """A path that grows by one edge per level, each new lower vertex
    smaller than every earlier one, so every second level relinks the
    component's root; the lowest level then touches the path's first
    vertex, whose parent chain has grown the whole way."""
    n = 60
    path = [(n - 1, n - 1)]
    for i in range(n - 1, 0, -1):
        path.append((i - 1, i))  # new upper vertex
        path.append((i - 1, i - 1))  # new, smaller lower vertex
    rank = {edge: len(path) - pos for pos, edge in enumerate(path)}
    rank[(n - 1, n)] = 0  # the lowest level reaches back to the start
    graph = BipartiteGraph(n, n + 1, list(rank))
    phi = [rank[graph.edge_endpoints(eid)] for eid in range(graph.num_edges)]
    hierarchy = assert_matches_oracle(graph, np.array(phi, dtype=np.int64))
    assert hierarchy.num_nodes == len(rank)
    # One chain: every node but the root has exactly one child.
    assert len(hierarchy.roots()) == 1
    assert (hierarchy.subtree_end == len(rank)).all()


def test_one_level_merges_many_older_components():
    """Forty disjoint butterflies (φ = 1) joined by one hub at φ = 0."""
    blocks = 40
    edges = []
    for b in range(blocks):
        edges += [(2 * b, 2 * b), (2 * b, 2 * b + 1)]
        edges += [(2 * b + 1, 2 * b), (2 * b + 1, 2 * b + 1)]
    hub = 2 * blocks
    edges += [(hub, 2 * b) for b in range(blocks)]
    graph = BipartiteGraph(hub + 1, 2 * blocks, edges)
    phi = bitruss_decomposition(graph).phi
    assert sorted(set(phi.tolist())) == [0, 1]
    hierarchy = assert_matches_oracle(graph, phi)
    (root,) = hierarchy.roots().tolist()
    assert hierarchy.node_level[root] == 0
    assert np.count_nonzero(hierarchy.node_parent == root) == blocks
