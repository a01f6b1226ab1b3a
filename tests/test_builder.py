"""The n-squared embedding and its component accounting."""

from __future__ import annotations

import networkx as nx
import pytest

from xorkron import (
    Graph,
    GridShape,
    build_ppt_graph,
    is_spanning_cross_like,
    new_graph,
    ppt_test,
    standard_graph,
    verify_components,
)


def _nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _component_orders(g: Graph) -> list[int]:
    return sorted(len(c) for c in nx.connected_components(_nx(g)))


def test_single_edge_gives_the_four_vertex_matching():
    k2 = standard_graph("complete", 2)
    h, labeling = build_ppt_graph(k2)
    assert h.n == 4
    assert sorted(h.edges()) == [(0, 3), (1, 2)]
    assert labeling.shape == GridShape(2, 2)
    assert verify_components(h, k2)


def test_triangle_components():
    k3 = standard_graph("complete", 3)
    h, _ = build_ppt_graph(k3)
    assert h.n == 9 and h.edge_count == 6
    assert _component_orders(h) == [2, 2, 2, 3]
    assert verify_components(h, k3)


def test_short_path_components():
    p3 = standard_graph("path", 3)
    h, _ = build_ppt_graph(p3)
    assert _component_orders(h) == [1, 1, 2, 2, 3]
    assert verify_components(h, p3)


def test_edge_accounting_and_diagonal_copy():
    for g in (
        standard_graph("path", 4),
        standard_graph("cycle", 5),
        new_graph(4, [(0, 2), (1, 3), (0, 3)]),
    ):
        h, _ = build_ppt_graph(g)
        assert h.edge_count == 2 * g.edge_count
        diagonal = [i * g.n + i for i in range(g.n)]
        copy = nx.relabel_nodes(_nx(h).subgraph(diagonal), {v: v // g.n for v in diagonal})
        assert nx.utils.graphs_equal(copy, _nx(g))


def test_built_graphs_are_members_and_fixed_points():
    graphs = [
        standard_graph("complete", 2),
        standard_graph("path", 3),
        standard_graph("complete", 3),
        standard_graph("cycle", 5),
        standard_graph("path", 4),
        standard_graph("cycle", 6),
    ]
    for g in graphs:
        h, labeling = build_ppt_graph(g)
        assert is_spanning_cross_like(h, labeling.shape).verdict
        assert ppt_test(h, g.n)


def test_build_rejects_tiny_input():
    with pytest.raises(ValueError):
        build_ppt_graph(standard_graph("edgeless", 1))


def test_verify_components_rejects_mismatches():
    k3 = standard_graph("complete", 3)
    assert not verify_components(standard_graph("edgeless", 9), k3)
    h, _ = build_ppt_graph(k3)
    assert not verify_components(h, standard_graph("path", 3))
    # damage one matching edge: still 9 vertices, but the multiset changes
    damaged = new_graph(9, [e for e in h.edges()][:-1])
    assert not verify_components(damaged, k3)
    assert not verify_components(h, standard_graph("complete", 2))


def test_verify_components_on_disconnected_input():
    g = new_graph(5, [(0, 1), (1, 2), (3, 4)])  # P3 + K2
    h, _ = build_ppt_graph(g)
    assert verify_components(h, g)


@pytest.mark.parametrize("kind, n", [("cycle", 9), ("path", 10), ("complete", 12)])
def test_verify_components_has_no_order_cap(kind, n):
    g = standard_graph(kind, n)
    h, _ = build_ppt_graph(g)
    assert verify_components(h, g)


def test_verify_components_rejects_a_permuted_embedding():
    g = standard_graph("path", 4)
    h, _ = build_ppt_graph(g)
    rotated = h.relabel([(v + 1) % h.n for v in range(h.n)])
    assert rotated != h and rotated.edge_count == h.edge_count
    assert not verify_components(rotated, g)


def test_verify_components_rejects_a_moved_diagonal_edge():
    g = standard_graph("path", 4)
    h, _ = build_ppt_graph(g)
    n = g.n
    diagonal_edge = (0, n + 1)  # cells (0, 0) and (1, 1)
    off_diagonal = (2, 2 * n + 3)  # cells (0, 2) and (2, 3), joined by no edge of g
    assert h.has_edge(*diagonal_edge) and not h.has_edge(*off_diagonal)
    moved = new_graph(h.n, [e for e in h.edges() if e != diagonal_edge] + [off_diagonal])
    assert moved.edge_count == h.edge_count
    assert not verify_components(moved, g)
