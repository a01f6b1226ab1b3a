"""Unlabeled recognition: search for a grid labeling that certifies membership.

A labeling is valid iff the grid rows and columns are independent sets and
every edge rectangle is closed (both diagonals present or both absent).
Labelings compare as tuples of cells indexed by vertex. Validity is unchanged
by renumbering rows or columns, so each renumbering orbit has one least,
canonical member: rows and columns numbered in order of first use along
v = 0, 1, .... The search places vertices in that order, least cell first,
and only on canonical positions, so its leaves come out canonical and in
increasing order, and the first one is the least valid labeling.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph
from .membership import (
    REASON_EDGE_BOUND,
    REASON_NO_PARTITION,
    REASON_ODD_EDGES,
    REASON_SEARCH_EXHAUSTED,
    Certificate,
    GridLabeling,
    GridShape,
    Witness,
    elementary_decomposition,
)


def has_independent_row_partition(k: Graph, shape: GridShape) -> bool:
    """True iff the vertex set splits into p independent sets of size q."""
    p, q = shape
    if k.n != p * q:
        return False
    adj = k.rows

    def fill(unused: int, need: int, cand: int) -> bool:
        """True iff the open block takes need more vertices from cand and unused then splits.

        Each block starts at the least unused vertex and takes its other
        members in ascending order, so each partition is tried once.
        """
        if need == 0:
            if not unused:
                return True
            low = unused & -unused
            rest = unused ^ low
            return fill(rest, q - 1, rest & ~adj[low.bit_length() - 1])
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if fill(unused ^ low, need - 1, cand & ~adj[low.bit_length() - 1]):
                return True
        return False

    return fill((1 << k.n) - 1, 0, 0)


def prefilter(k: Graph, shape: GridShape) -> Witness | None:
    """Cheap labeling-independent rejections; None means no verdict.

    Members have evenly many edges (summands toggle disjoint edge pairs), at
    most shape.edge_bound of them, and admit a partition into p independent
    q-sets. A wrong vertex count is reported as a partition failure rather
    than raised, so callers can prefilter arbitrary graphs.
    """
    p, q = shape
    if k.n != p * q:
        return Witness(REASON_NO_PARTITION)
    if k.edge_count % 2:
        return Witness(REASON_ODD_EDGES)
    if k.edge_count > shape.edge_bound:
        return Witness(REASON_EDGE_BOUND)
    if not has_independent_row_partition(k, shape):
        return Witness(REASON_NO_PARTITION)
    return None


def recognize(k: Graph, shape: GridShape, *, use_prefilter: bool = True) -> Certificate:
    """Decide membership for k under some labeling; exhaustive and exact.

    Member certificates carry the lexicographically least valid labeling
    (cells compared as a tuple indexed by vertex), which is the first one
    valid_labelings yields, and the summands of the relabeled graph. With
    use_prefilter=False a non-member is only rejected once the search is
    exhausted.
    """
    p, q = shape
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, recognition needs {p * q}")
    if use_prefilter:
        w = prefilter(k, shape)
        if w is not None:
            return Certificate(False, shape, k, witness=w)
    labeling = next(valid_labelings(k, shape), None)
    if labeling is None:
        return Certificate(False, shape, k, witness=Witness(REASON_SEARCH_EXHAUSTED))
    relabeled = k.relabel(labeling.permutation())
    quads = elementary_decomposition(relabeled, shape)
    return Certificate(
        True,
        shape,
        k,
        labeling=labeling,
        summands=quads,
        empty_decomposition=not quads,
    )


def valid_labelings(k: Graph, shape: GridShape) -> Iterator[GridLabeling]:
    """Valid labelings of k in strictly increasing order, the least one first.

    Yields exactly the canonical valid labelings (rows and columns numbered
    by first use) in which false twins, vertices with equal neighbourhoods,
    take increasing cells. That covers every orbit under renumbering rows,
    renumbering columns and swapping false twins, since each orbit's least
    member is among them; an orbit may also show up more than once. None of
    these moves changes validity or the relabeled graph's summand-count rank.

    Depth-first search over vertices 0, 1, ..., n-1. Vertex v tries cells in
    increasing order, but only rows and columns already in use or the next
    unused one, which yields exactly the canonical labelings. Two prunings
    keep the search small:

    - Propagation. Each empty cell keeps a mask of the vertices that may
      still go there. Placing v at (r, c) removes v's neighbours from the
      rest of row r and column c. In each rectangle through (r, c), v is
      adjacent to the opposite corner iff the other two corners are
      adjacent. With two of the other corners placed, the third cell is
      narrowed to match. With one placed, the two empty cells are narrowed
      as a pair: to vertices with a neighbour in the other cell when they
      must be adjacent, and each to one side of a neighbourhood once the
      other cell's candidates all fall on one side. A branch dies as soon as
      an empty cell has no candidate left, an unplaced vertex fits no empty
      cell, or the empty cells of v's row or column cannot take an
      independent set from their candidates.
    - False twins. If u < w have equal adjacency rows (so they are not
      adjacent), w goes only to a cell after u's: placing u drops its later
      twins from the cells before its own, and u must leave enough empty
      cells after its own for them. This keeps the least labeling L of each
      orbit: swapping u and w is an automorphism of k, so L with their
      cells swapped relabels k to the same graph and is valid. It agrees
      with L before u and puts u at w's cell, so if cell(w) < cell(u) it is
      smaller than L, and so is its canonical form, which lies in the same
      orbit. Hence cell(u) < cell(w) in L.
    """
    p, q = shape
    n = k.n
    if n != p * q:
        raise ValueError(f"graph has {n} vertices, labelings need {p * q}")
    adj = k.rows
    full = (1 << n) - 1
    lines, rectangles = _grid_geometry(p, q)
    later_twins = [0] * n  # mask of the later vertices with v's adjacency row
    with_row: dict[int, int] = {}
    for v in reversed(range(n)):
        later_twins[v] = with_row.get(adj[v], 0)
        with_row[adj[v]] = later_twins[v] | 1 << v
    holder = [-1] * n  # vertex at each cell, -1 while empty

    def tie(out: list[int], live: int, s1: int, m1: int, s2: int, m2: int) -> None:
        """Narrow two empty cells whose vertices lie in m1 and m2 together or not at all."""
        c2 = out[s2] & live
        if not c2 & ~m2:
            out[s1] &= m1
        elif not c2 & m2:
            out[s1] &= ~m1
        c1 = out[s1] & live
        if not c1 & ~m1:
            out[s2] &= m2
        elif not c1 & m1:
            out[s2] &= ~m2

    def adjacent_pair(out: list[int], live: int, s1: int, s2: int) -> None:
        """Keep in each of two empty cells the vertices with a neighbour in the other."""
        for s, other in ((s1, s2), (s2, s1)):
            mates = out[other] & live
            keep = 0
            m = out[s] & live
            while m:
                low = m & -m
                m ^= low
                if adj[low.bit_length() - 1] & mates:
                    keep |= low
            out[s] = keep

    def has_independent(mask: int, size: int) -> bool:
        """True iff mask holds size pairwise non-adjacent vertices."""
        while mask.bit_count() >= size > 0:
            low = mask & -mask
            mask ^= low
            if has_independent(mask & ~adj[low.bit_length() - 1], size - 1):
                return True
        return size <= 0

    def propagate(v: int, t: int, cand: list[int]) -> list[int] | None:
        """Candidate masks after placing v at cell t, or None on a dead end."""
        out = cand[:]
        out[t] = 0
        nb = adj[v]
        live = full & ~((2 << v) - 1)  # the unplaced vertices
        if later_twins[v]:
            for s in range(t):
                out[s] &= ~later_twins[v]
        for line in lines[t]:
            for s in line:
                out[s] &= ~nb
        # Each rectangle through t: v ~ (vertex at d) iff (vertex at a) ~ (vertex
        # at b). With a, b and d all placed, v in cand[t] already closes it:
        # cand[t] was narrowed when the last of them was placed.
        for d, a, b in rectangles[t]:
            x, ya, yb = holder[d], holder[a], holder[b]
            if x >= 0:
                joined = (nb >> x) & 1
                if ya >= 0:
                    if yb < 0:
                        out[b] &= adj[ya] if joined else ~adj[ya]
                elif yb >= 0:
                    out[a] &= adj[yb] if joined else ~adj[yb]
                elif joined:
                    adjacent_pair(out, live, a, b)
            elif ya >= 0:
                if yb >= 0:
                    out[d] &= nb if (adj[ya] >> yb) & 1 else ~nb
                else:
                    tie(out, live, d, nb, b, adj[ya])
            elif yb >= 0:
                tie(out, live, d, nb, a, adj[yb])
        cover = 0
        for s in range(n):
            if holder[s] < 0 and s != t:
                m = out[s] & live
                if not m:
                    return None
                cover |= m
        if cover != live:
            return None
        # The empty cells of v's row and of v's column take independent sets.
        for line in lines[t]:
            free = need = 0
            for s in line:
                if holder[s] < 0 and s != t:
                    free |= out[s]
                    need += 1
            if need > 1 and not has_independent(free & live, need):
                return None
        return out

    def place(v: int, cand: list[int], taken: int, rows_used: int, cols_used: int) -> Iterator[GridLabeling]:
        if v == n:
            cells = [(0, 0)] * n
            for t, u in enumerate(holder):
                cells[u] = (t // q, t % q)
            yield GridLabeling(shape, tuple(cells))
            return
        bit = 1 << v
        room = later_twins[v].bit_count()
        for r in range(min(rows_used + 1, p)):
            for c in range(min(cols_used + 1, q)):
                t = r * q + c
                if not cand[t] & bit:
                    continue
                # v's later twins need empty cells after t, and fewer are left as t grows.
                if n - 1 - t - (taken >> (t + 1)).bit_count() < room:
                    return
                after = propagate(v, t, cand)
                if after is None:
                    continue
                holder[t] = v
                yield from place(v + 1, after, taken | 1 << t, max(rows_used, r + 1), max(cols_used, c + 1))
                holder[t] = -1

    yield from place(0, [full] * n, 0, 0, 0)


@lru_cache(maxsize=None)
def _grid_geometry(p: int, q: int) -> tuple[tuple, tuple]:
    """Per cell t = r*q + c: (row r's cells, column c's cells) and the rectangles through t.

    Cell order is lexicographic (row, column). A rectangle is given as its
    (opposite corner, same-row corner, same-column corner).
    """
    cells = [(r, c) for r in range(p) for c in range(q)]
    lines = tuple(
        (tuple(r * q + c2 for c2 in range(q)), tuple(r2 * q + c for r2 in range(p)))
        for r, c in cells
    )
    rectangles = tuple(
        tuple(
            (r2 * q + c2, r * q + c2, r2 * q + c)
            for r2 in range(p)
            if r2 != r
            for c2 in range(q)
            if c2 != c
        )
        for r, c in cells
    )
    return lines, rectangles
