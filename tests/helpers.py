"""Shared test oracles, written independently of the library internals."""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Callable

from xorkron import (
    Certificate,
    Graph,
    GridLabeling,
    GridShape,
    Witness,
    census,
    edge_bound_check,
    graph6_encode,
    graph_from_quadruples,
    has_independent_row_partition,
    is_spanning_cross_like,
    new_graph,
    t2_exact,
    tensor_product,
)
from xorkron import membership
from xorkron.graphs import GRAPH6_MAX_N
from xorkron.membership import (
    REASON_EDGE_BOUND,
    REASON_MISSING_PARTNER,
    REASON_NO_PARTITION,
    REASON_ODD_EDGES,
    REASON_SAME_LINE,
    REASON_SEARCH_EXHAUSTED,
)


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


def reference_violation(k: Graph, shape: GridShape) -> Witness | None:
    """The cross condition checked edge by edge in sorted order.

    The first same-row or same-column edge wins; failing that, the first edge
    whose partner diagonal is missing; None when every edge passes.
    """
    p, q = shape
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, grid needs {p * q}")
    missing = None
    for u, v in k.edges():
        i, j = divmod(u, q)
        i2, j2 = divmod(v, q)
        if i == i2 or j == j2:
            return Witness(REASON_SAME_LINE, (u, v))
        if missing is None and not k.has_edge(i * q + j2, i2 * q + j):
            missing = Witness(REASON_MISSING_PARTNER, (u, v))
    return missing


def reference_summands(k: Graph, shape: GridShape) -> tuple[tuple[int, int, int, int], ...]:
    """Cross quadruples of a labeled member by walking its edges, sorted; ValueError otherwise.

    Each cross has two edges u < v, and exactly one of them has u % q < v % q.
    """
    w = reference_violation(k, shape)
    if w is not None:
        raise ValueError(f"not a labeled member: {w.reason} at edge {w.edge}")
    q = shape.q
    return tuple(sorted((u // q, v // q, u % q, v % q) for u, v in k.edges() if u % q < v % q))


def reference_pair_matrix(k: Graph, shape: GridShape) -> tuple[int, ...]:
    """Pair matrix from reference_summands through row-pair and column-pair index dicts."""
    p, q = shape
    row_index = {pair: t for t, pair in enumerate(combinations(range(p), 2))}
    col_index = {pair: t for t, pair in enumerate(combinations(range(q), 2))}
    rows = [0] * len(row_index)
    for i, i2, j, j2 in reference_summands(k, shape):
        rows[row_index[(i, i2)]] |= 1 << col_index[(j, j2)]
    return tuple(rows)


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


def parse_matrix_text(text: str) -> tuple[int, tuple[int, ...]]:
    """Inverse of format_matrix_text; returns (n, rows). Rows must be square.

    Blank lines are skipped, so text of line breaks alone is the 0 x 0
    matrix, which format_matrix_text writes as one line break.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        if "\n" in text:
            return 0, ()
        raise ValueError("empty matrix text")
    n = len(lines)
    rows = []
    for r, ln in enumerate(lines):
        if len(ln) != n:
            raise ValueError(f"row {r} has {len(ln)} columns, expected {n}")
        if set(ln) - {"0", "1"}:
            raise ValueError(f"row {r} has characters other than 0/1")
        rows.append(sum((1 << c) for c, ch in enumerate(ln) if ch == "1"))
    return n, tuple(rows)


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


def canonical_valid_labelings(k: Graph, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
    """The valid labelings that are canonical and keep false twins in order, sorted.

    Filters the (pq)! / (p! q!) canonical cell assignments, one per orbit
    under renumbering rows and columns, so it reaches shapes such as (3, 3)
    where brute_valid_labelings would try 9! bijections.
    """
    return [c for c in _canonical_assignments(p, q) if _assignment_valid(k, c, q) and twins_in_order(k, c)]


@lru_cache(maxsize=None)
def _canonical_assignments(p: int, q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every cell assignment numbering rows and columns by first use along v = 0, 1, ..., sorted."""
    found = []
    cells: list[tuple[int, int]] = []

    def extend(rows_used: int, cols_used: int) -> None:
        if len(cells) == p * q:
            found.append(tuple(cells))
            return
        for i in range(min(rows_used + 1, p)):
            for j in range(min(cols_used + 1, q)):
                if (i, j) not in cells:
                    cells.append((i, j))
                    extend(max(rows_used, i + 1), max(cols_used, j + 1))
                    cells.pop()

    extend(0, 0)
    return tuple(found)


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


def brute_row_partition(k: Graph, p: int, q: int, odd: int = 0) -> bool:
    """Whether some split of the vertices into p sets of q has no edge inside a set
    and evenly many vertices of the mask odd in each set.

    Tries every such split and tests each of its sets; no pruning.
    """
    if k.n != p * q:
        return False
    edges = set(k.edges())
    return any(
        all(
            all(pair not in edges for pair in combinations(block, 2))
            and sum((odd >> v) & 1 for v in block) % 2 == 0
            for block in split
        )
        for split in _row_splits(p, q)
    )


def least_first_row_partition(k: Graph, p: int, q: int) -> bool:
    """Whether the vertices split into p independent q-sets, by a least-first search.

    Each block starts at the least unused vertex and takes its other members
    in ascending order, so each partition is tried once. No capacity cut:
    the reference for the library's search, which opens blocks elsewhere.
    """
    if k.n != p * q:
        return False
    adj = k.rows

    def fill(unused: int, need: int, cand: int) -> bool:
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


@lru_cache(maxsize=None)
def _row_splits(p: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every split of range(p * q) into p sorted q-sets, each listed once."""

    def splits(rest: tuple[int, ...]):
        if not rest:
            yield ()
            return
        for others in combinations(rest[1:], q - 1):
            block = (rest[0],) + others
            for tail in splits(tuple(v for v in rest if v not in block)):
                yield (block,) + tail

    return tuple(splits(tuple(range(p * q))))


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


def census_stats_by_enumeration(p: int, q: int) -> dict:
    """The `census --stats` object, by walking every member of the shape.

    Each member is built, its edges counted, its t2 computed by rank and its
    edge count compared with the bound; nothing is taken from a closed form.
    """
    shape = GridShape(p, q)
    edge_hist: Counter[int] = Counter()
    t2_hist: Counter[int] = Counter()
    attained = []
    count = 0
    for g in census(shape):
        count += 1
        edge_hist[g.edge_count] += 1
        t2_hist[t2_exact(g, shape)] += 1
        _, hit = edge_bound_check(g, shape)
        if hit:
            attained.append(graph6_encode(g))
    return {
        "shape": [p, q],
        "count": count,
        "edge_bound": shape.edge_bound,
        "edge_counts": {str(k): edge_hist[k] for k in sorted(edge_hist)},
        "t2_counts": {str(k): t2_hist[k] for k in sorted(t2_hist)},
        "bound_attained": attained,
    }


def every_graph(n: int):
    """Every labeled graph on n vertices, one per subset of vertex pairs."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield new_graph(n, [e for t, e in enumerate(pairs) if mask >> t & 1])


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


def reference_graph6_encode(g: Graph) -> str:
    """graph6 short form, one bit of the upper triangle per step: the codec's reference."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form handles n <= {GRAPH6_MAX_N}, got {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(acc + 63))
                acc = 0
                filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


def reference_graph6_decode(s: str) -> Graph:
    """Inverse of reference_graph6_encode, one bit per step; padding bits are ignored."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6 character {ch!r} outside printable range 63..126")
    if ord(s[0]) == 126:
        raise ValueError("long-form graph6 (n >= 63) is not supported")
    n = ord(s[0]) - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise ValueError(f"truncated graph6 bit field: need {need} characters, got {len(body)}")
    if len(body) > need:
        raise ValueError(f"trailing data after graph6 bit field ({len(body) - need} extra characters)")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            chunk = ord(body[pos // 6]) - 63
            if (chunk >> (5 - pos % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, rows)


def reference_verify_certificate(cert: Certificate) -> list[str]:
    """verify_certificate as it was before members took the XOR-back path: the decider reruns on every member."""
    problems: list[str] = []
    k = cert.graph
    shape = cert.shape
    if k.n != shape.order:
        return [f"graph has {k.n} vertices but shape ({shape.p}, {shape.q}) needs {shape.order}"]
    if cert.verdict:
        if cert.witness is not None:
            problems.append("member certificate carries a witness")
        if cert.labeling is None:
            problems.append("member certificate is missing its labeling")
            return problems
        if cert.labeling.shape != shape:
            problems.append("labeling shape disagrees with certificate shape")
            return problems
        if cert.labeling == GridLabeling.identity(shape):
            relabeled = k
        else:
            relabeled = k.relabel(cert.labeling.permutation())
        redo = is_spanning_cross_like(relabeled, shape)
        w = redo.witness
        if w is not None:
            problems.append(
                f"labeling does not make the graph cross-like: {w.reason} at edge {w.edge}"
            )
            return problems
        if cert.summands is None:
            problems.append("member certificate is missing its summand list")
        else:
            outside = []  # the summands of redo are all crosses of the grid
            if tuple(cert.summands) != redo.summands:
                problems.append("summand list does not match the relabeled graph")
                outside = [pb for pb in (membership._summand_problem(s, shape) for s in cert.summands) if pb]
                problems.extend(outside)
            if not outside and graph_from_quadruples(shape, cert.summands) != relabeled:
                problems.append("summands do not XOR back to the relabeled graph")
        if cert.empty_decomposition != redo.empty_decomposition:
            problems.append("empty_decomposition flag disagrees with the edge count")
    else:
        if cert.labeling is not None or cert.summands is not None or cert.empty_decomposition:
            problems.append("non-member certificate carries a labeling, summands or empty_decomposition")
        if cert.witness is None:
            problems.append("non-member certificate is missing its witness")
            return problems
        w = cert.witness
        takes_edge = w.reason in (REASON_SAME_LINE, REASON_MISSING_PARTNER)
        if w.edge is not None and not takes_edge:
            problems.append(f"{w.reason} witness carries an edge")
        if w.reason == REASON_ODD_EDGES:
            if k.edge_count % 2 == 0:
                problems.append("odd-edge-count witness but the edge count is even")
        elif w.reason == REASON_EDGE_BOUND:
            if k.edge_count <= shape.edge_bound:
                problems.append("edge-bound witness but the bound is not exceeded")
        elif takes_edge:
            if w.edge is None:
                problems.append(f"{w.reason} witness needs an edge")
            else:
                u, v = w.edge
                if not (0 <= u < k.n and 0 <= v < k.n) or not k.has_edge(u, v):
                    problems.append(f"witness edge ({u}, {v}) is not an edge of the graph")
                else:
                    defect = membership._edge_defect(k, shape.q, u, v)
                    if w.reason == REASON_SAME_LINE:
                        if defect != REASON_SAME_LINE:
                            problems.append(f"witness edge ({u}, {v}) joins distinct rows and columns")
                    elif defect == REASON_SAME_LINE:
                        problems.append(f"witness edge ({u}, {v}) is collinear, not a missing-partner case")
                    elif defect is None:
                        problems.append(f"cross partner of witness edge ({u}, {v}) is present")
        elif w.reason == REASON_NO_PARTITION:
            if has_independent_row_partition(k, shape):
                problems.append("no-partition witness but an independent row partition exists")
        elif w.reason == REASON_SEARCH_EXHAUSTED:
            if membership._labeling_search(k, shape)[1]():
                problems.append("search-exhausted witness but a full search finds a valid labeling")
    return problems


def search_calls(run: Callable[[], object]) -> Counter:
    """How often run() entered the labeling search's propagate and complete and the root split.

    The calls are counted by code name in xorkron.membership with
    sys.setprofile, so the library keeps no counter of its own; the profile
    function in place before is restored afterwards. A generator would count
    once per resume, and none of the three is one.
    """
    names = {"propagate", "complete", "_independent_split"}
    counts: Counter = Counter()

    def profile(frame, event, arg) -> None:
        code = frame.f_code
        if event == "call" and code.co_name in names and code.co_filename == membership.__file__:
            counts[code.co_name] += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(before)
    return counts
