"""Minimal summand counts via GF(2) rank of the pair matrix, with an oracle.

A product G (x) H toggles exactly the cross pairs (edge of G) x (edge of H),
which is a rank-one matrix over the row-pair/column-pair index sets. XOR of
graphs adds these matrices over GF(2), so the least number of products
composing a nonedgeless member equals the rank of its pair matrix. The
edgeless member needs two summands (one product is never edgeless).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .algebra import tensor_product
from .graphs import Graph, new_graph
from .membership import GridShape, _member_pair_rows, valid_labelings


def pair_matrix(k: Graph, shape: GridShape) -> tuple[int, ...]:
    """Pair matrix of a labeled member as bit rows; raises when k is not one.

    Row r stands for the r-th grid-row pair (i, i2) and bit t of rows[r] for
    the t-th grid-column pair (j, j2), both in the lexicographic order of
    itertools.combinations. The bit is set iff the cross (i, i2, j, j2) is a
    summand of k. The rows are read straight off k's adjacency rows.
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


def t2_bruteforce_oracle(k: Graph, shape: GridShape) -> int | None:
    """Exact minimum summand count by exhaustive XOR search, or None for a non-member.

    Enumerates every nontrivial factor pair, packs each product graph into a
    single int (once per shape), and deepens over multiset sizes l = 1..D with repeats
    allowed (two equal summands cancel, which the edgeless member needs).
    D = max(2, min(a, b)) with a = C(p,2), b = C(q,2) bounds every member's
    t2, so a search that ends empty-handed has met a non-member. Independent
    of the rank reduction on purpose. The N < 2^(a+b) products make the
    search visit under 2^((a+b)(D-1)) combinations, so it refuses shapes
    where that exponent passes 20.
    """
    p, q = shape
    a, b = comb(p, 2), comb(q, 2)
    depth = max(2, min(a, b))
    if (a + b) * (depth - 1) > 20:
        raise ValueError(f"oracle scale bound exceeded: (C({p},2) + C({q},2)) * ({depth} - 1) > 20")
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, shape ({p}, {q}) needs {p * q}")
    products, position = _oracle_products(p, q)
    target = _pack_rows(k.rows, k.n)

    def reach(value: int, l: int, start: int) -> bool:
        if l == 1:
            t = position.get(value)
            return t is not None and t >= start
        return any(reach(value ^ products[t], l - 1, t) for t in range(start, len(products)))

    for l in range(1, depth + 1):
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


@lru_cache(maxsize=None)
def _oracle_products(p: int, q: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Every distinct packed product of nontrivial factors on p and q vertices, sorted, and its position.

    Built on a shape's first oracle call and kept for the later ones.
    """
    a, b = comb(p, 2), comb(q, 2)
    products = tuple(sorted({_packed_product(gm, hm, p, q) for gm in range(1, 1 << a) for hm in range(1, 1 << b)}))
    return products, {v: t for t, v in enumerate(products)}


def _packed_product(gm: int, hm: int, p: int, q: int) -> int:
    """Packed rows of G (x) H; bit t of gm (hm) makes the t-th pair of combinations an edge of G (H)."""
    g = new_graph(p, (pair for t, pair in enumerate(combinations(range(p), 2)) if (gm >> t) & 1))
    h = new_graph(q, (pair for t, pair in enumerate(combinations(range(q), 2)) if (hm >> t) & 1))
    prod = tensor_product(g, h)
    return _pack_rows(prod.rows, prod.n)


def _pack_rows(rows: tuple[int, ...] | list[int], n: int) -> int:
    acc = 0
    for r, row in enumerate(rows):
        acc |= row << (r * n)
    return acc
