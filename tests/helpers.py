"""Shared test oracles, written independently of the library internals."""

from __future__ import annotations

import random
from itertools import permutations

from xorkron import Graph, new_graph


def naive_cross_like(k: Graph, p: int, q: int) -> bool:
    """Reference membership check: plain loops over an edge set dictionary."""
    edges = {frozenset(e) for e in k.edges()}

    def adj(u: int, v: int) -> bool:
        return frozenset((u, v)) in edges

    for u in range(p * q):
        for v in range(u + 1, p * q):
            if not adj(u, v):
                continue
            i, j = divmod(u, q)
            i2, j2 = divmod(v, q)
            if i == i2 or j == j2:
                return False
            if not adj(i * q + j2, i2 * q + j):
                return False
    return True


def brute_valid_labelings(k: Graph, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
    """Every cell assignment (over all (pq)! bijections) that certifies k.

    Only usable for pq <= 6 or so; this is the ground truth the search and
    its canonical labeling are pinned against.
    """
    all_cells = [(i, j) for i in range(p) for j in range(q)]
    found = []
    for assignment in permutations(all_cells):
        if _assignment_valid(k, assignment, q):
            found.append(tuple(assignment))
    return found


def _assignment_valid(k: Graph, cells, q: int) -> bool:
    position = {cell: v for v, cell in enumerate(cells)}
    for u, v in k.edges():
        i, j = cells[u]
        i2, j2 = cells[v]
        if i == i2 or j == j2:
            return False
        if not k.has_edge(position[(i, j2)], position[(i2, j)]):
            return False
    return True


def naive_least_labeling(k: Graph, p: int, q: int) -> tuple[tuple[int, int], ...] | None:
    """Least valid labeling by plain least-first placement, or None.

    Vertices take cells in order 0, 1, ...; each tries rows and columns
    already used or the next unused one, least cell first, and is checked
    against every placed vertex only. No propagation, no twin rule: the
    first complete placement is the least valid labeling.
    """
    edges = {frozenset(e) for e in k.edges()}
    cells: list[tuple[int, int]] = []
    at: dict[tuple[int, int], int] = {}

    def fits(v: int, i: int, j: int) -> bool:
        for u, (i2, j2) in enumerate(cells):
            joined = frozenset((u, v)) in edges
            if i == i2 or j == j2:
                if joined:
                    return False
            elif (i, j2) in at and (i2, j) in at:
                if joined != (frozenset((at[(i, j2)], at[(i2, j)])) in edges):
                    return False
        return True

    def place(v: int, rows_used: int, cols_used: int) -> bool:
        if v == p * q:
            return True
        for i in range(min(rows_used + 1, p)):
            for j in range(min(cols_used + 1, q)):
                if (i, j) in at or not fits(v, i, j):
                    continue
                cells.append((i, j))
                at[(i, j)] = v
                if place(v + 1, max(rows_used, i + 1), max(cols_used, j + 1)):
                    return True
                cells.pop()
                del at[(i, j)]
        return False

    return tuple(cells) if place(0, 0, 0) else None


def is_canonical(cells) -> bool:
    """Rows and columns are numbered in order of first use along v = 0, 1, ..."""
    rows: list[int] = []
    cols: list[int] = []
    for i, j in cells:
        if i not in rows:
            if i != len(rows):
                return False
            rows.append(i)
        if j not in cols:
            if j != len(cols):
                return False
            cols.append(j)
    return True


def twins_in_order(k: Graph, cells) -> bool:
    """Vertices with equal neighbourhoods sit in increasing cells."""
    return all(
        cells[u] < cells[w]
        for u in range(k.n)
        for w in range(u + 1, k.n)
        if k.rows[u] == k.rows[w]
    )


def random_graph(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return new_graph(n, edges)


def random_nontrivial(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    """Random graph guaranteed to have at least one edge."""
    while True:
        g = random_graph(rng, n, density)
        if g.edge_count:
            return g


def dense_rows(g: Graph) -> list[list[int]]:
    return [[(row >> c) & 1 for c in range(g.n)] for row in g.rows]
