"""Unlabeled recognition: search for a grid labeling that certifies membership.

A labeling is valid iff the grid rows and columns are independent sets and
every edge rectangle is closed (both diagonals present or both absent).
Validity is unchanged by renumbering rows or renumbering columns, so the
search enumerates one representative per unordered row/column partition pair
and canonicalizes afterwards.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, _mask_to_list
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
    return next(_independent_partitions(k, p, q), None) is not None


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
    (cells compared as a tuple indexed by vertex) and the summands of the
    relabeled graph. With use_prefilter=False the search always runs to
    exhaustion, which is only sensible at small sizes.
    """
    p, q = shape
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, recognition needs {p * q}")
    if use_prefilter:
        w = prefilter(k, shape)
        if w is not None:
            return Certificate(False, shape, k, witness=w)
    best: tuple[tuple[int, int], ...] | None = None
    for lab in valid_labelings(k, shape):
        cand = _canonical_cells(lab.cells)
        if best is None or cand < best:
            best = cand
    if best is None:
        return Certificate(False, shape, k, witness=Witness(REASON_SEARCH_EXHAUSTED))
    labeling = GridLabeling(shape, best)
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
    """All valid labelings of k, one per unordered row/column partition pair.

    Every other valid labeling arises from a yielded one by renumbering rows
    and columns, which changes neither validity nor summand-count rank.
    """
    p, q = shape
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, labelings need {p * q}")
    for blocks in _independent_partitions(k, p, q):
        row_sets = [_mask_to_list(b) for b in blocks]
        yield from _column_assignments(k, row_sets, shape)


def _independent_partitions(k: Graph, p: int, q: int) -> Iterator[tuple[int, ...]]:
    """Unordered partitions of the vertex set into p independent q-sets.

    Each partition appears once, as bitmasks ordered by least element. The
    block containing the least unplaced vertex is built first, its members
    chosen in ascending order with adjacent vertices pruned as they go.
    """
    adj = k.rows
    blocks: list[int] = []

    def extend(unused: int, block: int, need: int, cand: int) -> Iterator[tuple[int, ...]]:
        if need == 0:
            blocks.append(block)
            yield from rec(unused & ~block)
            blocks.pop()
            return
        c = cand
        while c and c.bit_count() >= need:
            low = c & -c
            v = low.bit_length() - 1
            c &= c - 1
            yield from extend(unused, block | low, need - 1, c & ~adj[v])

    def rec(unused: int) -> Iterator[tuple[int, ...]]:
        if len(blocks) == p:
            yield tuple(blocks)
            return
        anchor_bit = unused & -unused
        anchor = anchor_bit.bit_length() - 1
        yield from extend(unused, anchor_bit, q - 1, unused & ~anchor_bit & ~adj[anchor])

    yield from rec((1 << k.n) - 1)


def _column_assignments(
    k: Graph, row_sets: list[list[int]], shape: GridShape
) -> Iterator[GridLabeling]:
    """Fill the grid row by row, left to right, under incremental checks.

    Row 0 is pinned to its sorted order, which fixes one column numbering per
    unordered column partition. Placing w at (s, c) checks independence
    against the partial column and closure of every rectangle whose other
    three corners are already placed.
    """
    p, q = shape
    adj = k.rows
    grid: list[tuple[int, ...]] = [tuple(row_sets[0])]
    col_masks = [1 << v for v in row_sets[0]]

    def fill_row(s: int) -> Iterator[GridLabeling]:
        if s == p:
            cells: list[tuple[int, int]] = [(-1, -1)] * k.n
            for i in range(p):
                for j in range(q):
                    cells[grid[i][j]] = (i, j)
            yield GridLabeling(shape, tuple(cells))
            return
        verts = row_sets[s]
        row: list[int] = [-1] * q

        def place(c: int, used: int) -> Iterator[GridLabeling]:
            if c == q:
                grid.append(tuple(row))
                yield from fill_row(s + 1)
                grid.pop()
                return
            for t, w in enumerate(verts):
                if (used >> t) & 1:
                    continue
                if adj[w] & col_masks[c]:
                    continue
                if any(
                    k.has_edge(w, grid[s2][c2]) != k.has_edge(row[c2], grid[s2][c])
                    for s2 in range(s)
                    for c2 in range(c)
                ):
                    continue
                row[c] = w
                col_masks[c] |= 1 << w
                yield from place(c + 1, used | (1 << t))
                col_masks[c] &= ~(1 << w)

        yield from place(0, 0)

    yield from fill_row(1)


def _canonical_cells(cells: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Least labeling in the row/column renumbering orbit of cells.

    Renumbering rows and columns by first occurrence along v = 0, 1, ... is
    lexicographically optimal at every position, so the result is the orbit
    minimum under tuple comparison.
    """
    row_map: dict[int, int] = {}
    col_map: dict[int, int] = {}
    out = []
    for i, j in cells:
        if i not in row_map:
            row_map[i] = len(row_map)
        if j not in col_map:
            col_map[j] = len(col_map)
        out.append((row_map[i], col_map[j]))
    return tuple(out)
