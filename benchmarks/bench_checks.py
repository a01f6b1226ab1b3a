"""Output checks for the benchmark, written independently of the library.

Nothing here imports xorkron. Graphs are read only through their public
data (`n` and the adjacency bit rows) and every verdict, rank, labeling and
histogram is recomputed from the definitions in the package README:
vertex v sits at grid cell (v // q, v % q); a labeled member has no edge
inside a grid row or column and every edge rectangle closed (both
diagonals present or both absent).
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

SAME_LINE = "same-row-or-column-edge"
MISSING_PARTNER = "missing-cross-partner"


def edge_list(n: int, rows) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, in lexicographic order, read from bit rows."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (rows[u] >> v) & 1]


def adjacency_sets(n: int, rows) -> list[set[int]]:
    return [{v for v in range(n) if (rows[u] >> v) & 1} for u in range(n)]


def xor_of_products(factors) -> list[int]:
    """Rows of the XOR of Kronecker products; factors are (p, g_rows, q, h_rows)."""
    p, _, q, _ = factors[0]
    rows = [0] * (p * q)
    for _, g_rows, _, h_rows in factors:
        for i, i2 in edge_list(p, g_rows):
            for j, j2 in edge_list(q, h_rows):
                for a, b in ((i * q + j, i2 * q + j2), (i * q + j2, i2 * q + j)):
                    rows[a] ^= 1 << b
                    rows[b] ^= 1 << a
    return rows


def labeled_violation(n: int, rows, p: int, q: int) -> tuple[str, tuple[int, int]] | None:
    """First broken cross condition under the identity labeling, or None.

    Same-line edges are reported before missing partners, each the first in
    sorted edge order, which is the witness policy the README documents.
    """
    adj = adjacency_sets(n, rows)
    edges = edge_list(n, rows)
    for u, v in edges:
        if u // q == v // q or u % q == v % q:
            return SAME_LINE, (u, v)
    for u, v in edges:
        (i, j), (i2, j2) = divmod(u, q), divmod(v, q)
        if (i2 * q + j) not in adj[i * q + j2]:
            return MISSING_PARTNER, (u, v)
    return None


def cross_quads(n: int, rows, q: int) -> set[tuple[int, int, int, int]]:
    """The (i, i2, j, j2) rectangles, i < i2 and j < j2, that carry edges."""
    out = set()
    for u, v in edge_list(n, rows):
        (i, j), (i2, j2) = divmod(u, q), divmod(v, q)
        out.add((min(i, i2), max(i, i2), min(j, j2), max(j, j2)))
    return out


def gf2_rank(matrix: list[list[int]]) -> int:
    """Rank over GF(2) by Gaussian elimination on 0/1 lists."""
    m = [row[:] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def t2_of_member(n: int, rows, p: int, q: int) -> int:
    """Least product count of a labeled member: rank of its pair matrix, 2 if edgeless."""
    row_pairs = list(combinations(range(p), 2))
    col_pairs = list(combinations(range(q), 2))
    quads = cross_quads(n, rows, q)
    if not quads:
        return 2
    matrix = [[int((i, i2, j, j2) in quads) for j, j2 in col_pairs] for i, i2 in row_pairs]
    return gf2_rank(matrix)


def is_ppt_fixed_point(n: int, rows, p: int) -> bool:
    """Adjacency equals its blockwise partial transpose on a p x p block grid."""
    q = n // p
    for s1 in range(p):
        for r1 in range(q):
            for s2 in range(p):
                for r2 in range(q):
                    a = (rows[s1 * q + r1] >> (s2 * q + r2)) & 1
                    b = (rows[s1 * q + r2] >> (s2 * q + r1)) & 1
                    if a != b:
                        return False
    return True


def labeling_is_valid(n: int, rows, p: int, q: int, cells) -> bool:
    """cells[v] = (row, col) is a bijection onto the grid making the graph cross-like."""
    cells = [tuple(c) for c in cells]
    if len(cells) != n or n != p * q or len(set(cells)) != n:
        return False
    if any(not (0 <= i < p and 0 <= j < q) for i, j in cells):
        return False
    at = {cell: v for v, cell in enumerate(cells)}
    adj = adjacency_sets(n, rows)
    for u, v in edge_list(n, rows):
        (i, j), (i2, j2) = cells[u], cells[v]
        if i == i2 or j == j2:
            return False
        if at[(i2, j)] not in adj[at[(i, j2)]]:
            return False
    return True


def placed_rows(n: int, rows, q: int, cells) -> list[int]:
    """Adjacency rows after moving vertex v to grid index cells[v] = (i, j) -> i*q + j."""
    at = [i * q + j for i, j in cells]
    out = [0] * n
    for u, v in edge_list(n, rows):
        out[at[u]] |= 1 << at[v]
        out[at[v]] |= 1 << at[u]
    return out


def least_labeling(n: int, rows, p: int, q: int) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically least valid labeling (cells indexed by vertex), or None.

    Vertices are placed in order 0, 1, ...; a vertex may open only the next
    unused row or column index, because renumbering rows or columns keeps a
    labeling valid and numbering by first use is the least in its orbit. The
    first complete placement is therefore the least valid labeling.
    """
    adj = adjacency_sets(n, rows)
    cells: list[tuple[int, int]] = []
    occupied: dict[tuple[int, int], int] = {}

    def fits(v: int, r: int, c: int) -> bool:
        for u, (ru, cu) in enumerate(cells):
            joined = u in adj[v]
            if ru == r or cu == c:
                if joined:
                    return False
                continue
            a, b = occupied.get((r, cu)), occupied.get((ru, c))
            if a is not None and b is not None and joined != (b in adj[a]):
                return False
        return True

    def place(v: int, rows_used: int, cols_used: int) -> bool:
        if v == n:
            return True
        for r in range(min(rows_used + 1, p)):
            for c in range(min(cols_used + 1, q)):
                if (r, c) in occupied or not fits(v, r, c):
                    continue
                cells.append((r, c))
                occupied[(r, c)] = v
                if place(v + 1, max(rows_used, r + 1), max(cols_used, c + 1)):
                    return True
                cells.pop()
                del occupied[(r, c)]
        return False

    return tuple(cells) if place(0, 0, 0) else None


def rank_count(a: int, b: int, r: int) -> int:
    """Number of a x b GF(2) matrices of rank r (Landsberg's closed form)."""
    num = den = 1
    for i in range(r):
        num *= (2**a - 2**i) * (2**b - 2**i)
        den *= 2**r - 2**i
    return num // den


def census_expectation(p: int, q: int) -> dict:
    """Closed-form census of shape (p, q): count, edge and t2 histograms.

    A member is a subset of the m = C(p,2) * C(q,2) crosses, so there are 2^m
    of them and C(m, k) have 2k edges. t2 is the GF(2) rank of the
    C(p,2) x C(q,2) pair matrix, with the rank-0 (edgeless) member at t2 = 2.
    """
    a, b = comb(p, 2), comb(q, 2)
    m = a * b
    t2 = {r: rank_count(a, b, r) for r in range(1, min(a, b) + 1)}
    t2[2] = t2.get(2, 0) + 1
    return {
        "count": 2**m,
        "edges": {2 * k: comb(m, k) for k in range(m + 1)},
        "t2": {r: c for r, c in t2.items() if c},
    }


def graph6_edge_count(text: str) -> int:
    """Edge count read from the bit field of a short-form graph6 string."""
    return sum((ord(ch) - 63).bit_count() for ch in text[1:])


def graph6_short(n: int, rows) -> str:
    """Short-form graph6 encoding (n <= 62) from the format's definition."""
    bits = [(rows[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(body)


def census_member_rows(p: int, q: int, index: int) -> list[int]:
    """Adjacency rows of census member number `index` (most significant bit first)."""
    quads = [(i, i2, j, j2) for i, i2 in combinations(range(p), 2) for j, j2 in combinations(range(q), 2)]
    m = len(quads)
    rows = [0] * (p * q)
    for t, (i, i2, j, j2) in enumerate(quads):
        if (index >> (m - 1 - t)) & 1:
            for a, b in ((i * q + j, i2 * q + j2), (i * q + j2, i2 * q + j)):
                rows[a] ^= 1 << b
                rows[b] ^= 1 << a
    return rows


def embedding_rows(n: int, g_rows) -> list[int]:
    """The n x n embedding of g: cross {(i,i),(j,j)} + {(i,j),(j,i)} per edge ij."""
    rows = [0] * (n * n)
    for i, j in edge_list(n, g_rows):
        for a, b in ((i * n + i, j * n + j), (i * n + j, j * n + i)):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def embedding_is_exact(g_n: int, g_rows, h_n: int, h_rows) -> bool:
    """h is the n x n embedding of g: diagonal induces g, (i,j)~(j,i) iff ij in g, nothing else."""
    return h_n == g_n * g_n and list(h_rows) == embedding_rows(g_n, g_rows)


def component_orders(n: int, rows) -> list[int]:
    """Orders of the connected components, by search over the bit rows."""
    seen: set[int] = set()
    orders = []
    for s in range(n):
        if s in seen:
            continue
        todo, comp = [s], {s}
        while todo:
            u = todo.pop()
            for v in range(n):
                if (rows[u] >> v) & 1 and v not in comp:
                    comp.add(v)
                    todo.append(v)
        seen |= comp
        orders.append(len(comp))
    return orders


def parse_json(text: str):
    """JSON document at the start of text, or None when it does not parse."""
    try:
        return json.JSONDecoder().raw_decode(text.lstrip())[0]
    except ValueError:
        return None
