"""Constructive embedding: any graph g yields a certified member on g.n^2 vertices.

For each edge {i, j} of g the built graph carries the cross pair
{(i,i),(j,j)} and {(i,j),(j,i)} on the n x n grid. The diagonal cells then
induce a copy of g, each edge contributes one off-diagonal K2, and everything
else stays isolated: g disjoint-union m K2 disjoint-union (n^2 - n - 2m) K1.
verify_components checks a graph against that definition cell by cell.
"""

from __future__ import annotations

from .graphs import Graph
from .membership import GridLabeling, GridShape, graph_from_quadruples


def build_ppt_graph(g: Graph) -> tuple[Graph, GridLabeling]:
    """Member of shape (n, n) whose grid diagonal carries a copy of g.

    Returns the graph together with the identity labeling certifying where
    the grid cells sit. Needs n >= 2 so the shape is a valid grid.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"construction needs at least 2 vertices, got {n}")
    shape = GridShape(n, n)
    quads = [(u, v, u, v) for u, v in g.edges()]
    return graph_from_quadruples(shape, quads), GridLabeling.identity(shape)


def verify_components(h: Graph, g: Graph) -> bool:
    """True iff h is exactly the embedding build_ppt_graph makes from g.

    Cell (i, j) is vertex i*n + j. h must have n^2 vertices, its diagonal
    cells (u, u) must induce g, cells (u, v) and (v, u) must be adjacent
    exactly when uv is an edge of g, and h must have 2|E(g)| edges, so no
    other pair is joined. O(n^2), with no cap on n; a vertex-permuted copy
    of the embedding is rejected.
    """
    n = g.n
    if h.n != n * n or h.edge_count != 2 * g.edge_count:
        return False
    for u in range(n):
        for v in range(u + 1, n):
            e = g.has_edge(u, v)
            if h.has_edge(u * n + u, v * n + v) != e or h.has_edge(u * n + v, v * n + u) != e:
                return False
    return True
