"""Tensor products of graphs and XOR combination of edge sets."""

from __future__ import annotations

from functools import reduce
from itertools import compress
from typing import NamedTuple, Sequence

from .graphs import Graph


class TensorSummand(NamedTuple):
    """A factor pair whose tensor product contributes one XOR summand."""

    left: Graph
    right: Graph


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (Kronecker) product: (i, j) ~ (i', j') iff i ~ i' and j ~ j'.

    Vertex (i, j) of the product is index i * h.n + j, so the adjacency
    matrix is the Kronecker product of the factor matrices.
    """
    p, q = g.n, h.n
    # Row (i, j) is spread(g.rows[i]) * h.rows[j], where spread moves bit i2 to
    # bit i2*q: the terms cannot carry, as h.rows[j] < 2**q.
    spreads = []
    for gi in g.rows:
        spread = 0
        while gi:
            low = gi & -gi
            gi ^= low
            spread |= 1 << (low.bit_length() - 1) * q
        spreads.append(spread)
    rows = [spread * hj for spread in spreads for hj in h.rows]
    return Graph._trusted(p * q, rows)


def two_sum(g: Graph, h: Graph) -> Graph:
    """XOR of edge sets on a shared vertex set (symmetric difference).

    Costs one C-level copy of g's rows plus one XOR per nonzero row of h, so
    pass the sparser operand as h: XOR-ing a cross into a graph is four XORs.
    """
    if g.n != h.n:
        raise ValueError(f"2-sum needs equal vertex counts, got {g.n} and {h.n}")
    rows = list(g.rows)
    for v in compress(range(h.n), h.rows):
        rows[v] ^= h.rows[v]
    return Graph._trusted(g.n, rows)


def tensor_elementary(p: int, q: int, i: int, i2: int, j: int, j2: int) -> Graph:
    """The two-edge graph on the p*q grid with edges {(i,j),(i2,j2)} and {(i,j2),(i2,j)}.

    Requires i < i2 and j < j2; equality in either coordinate would make the
    two grid points collinear and the cross degenerate. The cross's four row
    bits are set directly; the result equals the Kronecker product of the
    one-edge factors new_graph(p, [(i, i2)]) and new_graph(q, [(j, j2)]).
    """
    if not (0 <= i < i2 < p):
        raise ValueError(f"need 0 <= i < i2 < p, got i={i}, i2={i2}, p={p}")
    if not (0 <= j < j2 < q):
        raise ValueError(f"need 0 <= j < j2 < q, got j={j}, j2={j2}, q={q}")
    u, v, x, y = i * q + j, i2 * q + j2, i * q + j2, i2 * q + j
    rows = [0] * (p * q)
    rows[u] = 1 << v
    rows[v] = 1 << u
    rows[x] = 1 << y
    rows[y] = 1 << x
    return Graph._trusted(p * q, rows)


def tensor_2sum(summands: Sequence[TensorSummand]) -> Graph:
    """XOR together the tensor products of the given factor pairs.

    All left factors must share one vertex count and all right factors
    another, and every factor needs at least one edge.
    """
    if not summands:
        raise ValueError("need at least one summand")
    p = summands[0].left.n
    q = summands[0].right.n
    for k, (g, h) in enumerate(summands):
        if g.n != p or h.n != q:
            raise ValueError(
                f"summand {k} has factor sizes ({g.n}, {h.n}), expected ({p}, {q})"
            )
        if g.edge_count == 0 or h.edge_count == 0:
            raise ValueError(f"summand {k} has an edgeless factor")
    return reduce(two_sum, (tensor_product(g, h) for g, h in summands))
