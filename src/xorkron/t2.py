"""Minimal summand counts via GF(2) rank of the pair matrix, with an oracle.

A product G (x) H toggles exactly the cross pairs (edge of G) x (edge of H),
which is a rank-one matrix over the row-pair/column-pair index sets. XOR of
graphs adds these matrices over GF(2), so the least number of products
composing a nonedgeless member equals the rank of its pair matrix. The
edgeless member needs two summands (one product is never edgeless).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import tensor_product
from .graphs import Graph
from .membership import GridShape, elementary_decomposition
from .recognition import valid_labelings


def pair_matrix(k: Graph, shape: GridShape) -> tuple[int, ...]:
    """Pair matrix of a labeled member as bit rows; raises when k is not one.

    Row r stands for the r-th grid-row pair (i, i2) and bit t of rows[r] for
    the t-th grid-column pair (j, j2), both in the lexicographic order of
    itertools.combinations. The bit is set iff the cross (i, i2, j, j2) is a
    summand of k.
    """
    p, q = shape
    row_index = {pair: t for t, pair in enumerate(combinations(range(p), 2))}
    col_index = {pair: t for t, pair in enumerate(combinations(range(q), 2))}
    rows = [0] * len(row_index)
    for i, i2, j, j2 in elementary_decomposition(k, shape):
        rows[row_index[(i, i2)]] |= 1 << col_index[(j, j2)]
    return tuple(rows)


def gf2_rank(rows: tuple[int, ...] | list[int]) -> int:
    """Rank over GF(2) of a matrix given as int-packed rows."""
    rank = 0
    pending = list(rows)
    while pending:
        pivot = pending.pop()
        if not pivot:
            continue
        rank += 1
        lsb = pivot & -pivot
        pending = [r ^ pivot if r & lsb else r for r in pending]
    return rank


def t2_exact(k: Graph, shape: GridShape) -> int:
    """Least number of product summands composing k under its given labeling."""
    rows = pair_matrix(k, shape)
    if not any(rows):
        return 2
    return gf2_rank(rows)


def t2_bruteforce_oracle(k: Graph, shape: GridShape, max_l: int = 4) -> int | None:
    """Exact minimum summand count by exhaustive XOR search, or None past max_l.

    Enumerates every nontrivial factor pair, packs each product graph into a
    single int, and deepens over multiset sizes l = 1..max_l with repeats
    allowed (two equal summands cancel, which the edgeless member needs).
    Independent of the rank reduction on purpose.
    """
    p, q = shape
    if comb(p, 2) + comb(q, 2) > 12:
        raise ValueError(f"oracle scale bound exceeded: C({p},2) + C({q},2) > 12")
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, shape ({p}, {q}) needs {p * q}")
    products = sorted({_packed_product(gm, hm, p, q) for gm in range(1, 1 << comb(p, 2))
                       for hm in range(1, 1 << comb(q, 2))})
    position = {v: t for t, v in enumerate(products)}
    target = _pack_rows(k.rows, k.n)

    def reach(value: int, l: int, start: int) -> bool:
        if l == 1:
            t = position.get(value)
            return t is not None and t >= start
        return any(reach(value ^ products[t], l - 1, t) for t in range(start, len(products)))

    for l in range(1, max_l + 1):
        if reach(target, l, 0):
            return l
    return None


def t2_min_over_labelings(k: Graph, shape: GridShape) -> int | None:
    """Least t2_exact over every valid labeling of k, or None for a non-member.

    Renumbering grid rows or columns permutes the pair matrix without
    changing its rank, and swapping false twins leaves the relabeled graph
    as it is, so the labelings valid_labelings yields, which cover every
    orbit under those moves, suffice.
    """
    best: int | None = None
    for lab in valid_labelings(k, shape):
        value = t2_exact(k.relabel(lab.permutation()), shape)
        if best is None or value < best:
            best = value
            if best == 1:
                break
    return best


def _edge_mask_rows(mask: int, n: int) -> list[int]:
    """Adjacency rows of the graph on n vertices whose edge set is mask.

    Bit t of mask selects the t-th pair of combinations(range(n), 2).
    """
    rows = [0] * n
    for t, (u, v) in enumerate(combinations(range(n), 2)):
        if (mask >> t) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def _packed_product(gm: int, hm: int, p: int, q: int) -> int:
    g = Graph(p, _edge_mask_rows(gm, p))
    h = Graph(q, _edge_mask_rows(hm, q))
    prod = tensor_product(g, h)
    return _pack_rows(prod.rows, prod.n)


def _pack_rows(rows: tuple[int, ...] | list[int], n: int) -> int:
    acc = 0
    for r, row in enumerate(rows):
        acc |= row << (r * n)
    return acc
