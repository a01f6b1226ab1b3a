"""Minimal summand counts via GF(2) rank of the pair matrix.

A product G (x) H toggles exactly the cross pairs (edge of G) x (edge of H),
which is a rank-one matrix over the row-pair/column-pair index sets. XOR of
graphs adds these matrices over GF(2), so the least number of products
composing a nonedgeless member equals the rank of its pair matrix. The
edgeless member needs two summands (one product is never edgeless).
"""

from __future__ import annotations

from math import comb

from .graphs import Graph
from .membership import GridShape, _member_pair_rows, valid_labelings


def pair_matrix(k: Graph, shape: GridShape) -> tuple[int, ...]:
    """Pair matrix of a labeled member as bit rows; raises when k is not one.

    Row r stands for the r-th grid-row pair (i, i2) and bit t of rows[r] for
    the t-th grid-column pair (j, j2), both in the lexicographic order of
    itertools.combinations. The bit is set iff the cross (i, i2, j, j2) is a
    summand of k. A census member hands over the matrix it carries for this
    shape; any other graph has its rows read off its adjacency rows, once per
    shape, by membership's block reader.
    """
    return _member_pair_rows(k, shape)


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


def t2_census_counts(shape: GridShape) -> dict[int, int]:
    """How many labeled members of this shape have each t2 value, in key order.

    Members are the subsets of crosses, so their pair matrices are all a x b
    matrices over GF(2) with a = C(p,2), b = C(q,2). Rank r >= 1 is taken by
    prod_{i<r} (2^a - 2^i)(2^b - 2^i) / (2^r - 2^i) of them (Landsberg 1893);
    rank 0 is the edgeless member, which t2_exact puts at 2.
    """
    a, b = comb(shape.p, 2), comb(shape.q, 2)
    counts: dict[int, int] = {}
    for r in range(1, min(a, b) + 1):
        num = den = 1
        for i in range(r):
            num *= ((1 << a) - (1 << i)) * ((1 << b) - (1 << i))
            den *= (1 << r) - (1 << i)
        counts[r] = num // den
    counts[2] = counts.get(2, 0) + 1  # appended after key 1 when min(a, b) = 1
    return counts


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
