"""Membership tests for XOR-of-tensor-product graphs, with certificates.

A graph on p*q vertices belongs to the class exactly when, under the grid
labeling v = i*q + j, every edge joins cells in distinct rows and distinct
columns and the opposite corners of its grid rectangle are also joined. Such
graphs decompose into two-edge "cross" summands, one per edge rectangle.

The decision reads the pair matrix straight off the adjacency rows: row
(i, i2) is the OR over columns j of ((rows[i*q+j] >> (i2*q+j+1)) & mask_j)
<< off_j, whose bit for column pair (j, j2) says whether (i, j) ~ (i2, j2).
That read and its swap (i and i2 exchanged) see each edge between distinct
rows and columns once, so k is a member iff row pairs read the same both ways
and the graph has twice as many edges as the pair matrix has bits. The
summands come off the same reads, and the only table is the q - 1 column
terms (j, mask_j, off_j), kept per q. One reader, _pair_rows, answers the
member test, pair_matrix, t2_exact, find_violation and ppt_test from one
record on the graph, Graph._block_read: a census member's carried matrix,
cut into rows at its own shape, or the first read at a shape, kept there,
so a graph's blocks are read at most once per shape. A rejected graph
names its witness from row slices, never edge by edge: first the least
edge within a grid row or column, then the least edge whose partner is
missing.

The module also holds the labeling search. verify_certificate checks a
search-exhausted witness by asking it whether any valid labeling exists. A
labeling is valid iff the grid rows and columns are independent sets and every
edge rectangle is closed (both diagonals present or both absent). Labelings
compare as tuples of cells indexed by vertex. Validity is unchanged by
renumbering rows or columns, so each renumbering orbit has one least,
canonical member: rows and columns numbered in order of first use along
v = 0, 1, .... valid_labelings places vertices in that order, least cell
first, and only on canonical positions, so its leaves come out canonical and
in increasing order, and the first one is the least valid labeling. Its root
splits and its completion check prune only searches and branches that hold
no leaf, so the sequence stays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, product
from operator import and_, countOf, lt
from struct import Struct
from typing import Callable, Iterator, Sequence

from .algebra import tensor_elementary, two_sum
from .graphs import Graph, _g6_bit, graph6_decode, graph6_encode

REASON_ODD_EDGES = "odd-edge-count"
REASON_SAME_LINE = "same-row-or-column-edge"
REASON_MISSING_PARTNER = "missing-cross-partner"
REASON_SEARCH_EXHAUSTED = "search-exhausted"
REASON_EDGE_BOUND = "edge-bound-exceeded"
REASON_NO_PARTITION = "no-independent-row-partition"

_ALL_REASONS = (
    REASON_ODD_EDGES,
    REASON_SAME_LINE,
    REASON_MISSING_PARTNER,
    REASON_SEARCH_EXHAUSTED,
    REASON_EDGE_BOUND,
    REASON_NO_PARTITION,
)


@dataclass(frozen=True)
class GridShape:
    """Factor sizes (p, q) of a p x q grid; both must be at least 2.

    order, the vertex count p*q, and edge_bound, the largest edge count any
    member of this shape can have, are worked out once, when the shape is made.
    """

    p: int
    q: int
    order: int = field(init=False, repr=False, compare=False)
    edge_bound: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p < 2 or q < 2:
            raise ValueError(f"grid shape needs p, q >= 2, got ({p}, {q})")
        object.__setattr__(self, "order", p * q)
        object.__setattr__(self, "edge_bound", 2 * (p * (p - 1) // 2) * (q * (q - 1) // 2))

    def __iter__(self) -> Iterator[int]:
        return iter((self.p, self.q))


@dataclass(frozen=True)
class GridLabeling:
    """Assignment of each vertex v to a grid cell cells[v] = (row, col)."""

    shape: GridShape
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        p, q = self.shape
        if len(self.cells) != p * q:
            raise ValueError(f"labeling covers {len(self.cells)} vertices, grid has {p * q}")
        if set(self.cells) == _grid_cells(p, q):  # one test for both checks below; they name the fault
            return
        if len(set(self.cells)) != p * q:
            raise ValueError("labeling repeats a grid cell")
        for v, (i, j) in enumerate(self.cells):
            if not (0 <= i < p and 0 <= j < q):
                raise ValueError(f"vertex {v} mapped to cell ({i}, {j}) outside the grid")

    def permutation(self) -> tuple[int, ...]:
        """perm[v] = grid index of v; relabeling by it puts v at its cell."""
        q = self.shape.q
        return tuple(i * q + j for i, j in self.cells)

    @staticmethod
    @lru_cache(maxsize=16)
    def identity(shape: GridShape) -> GridLabeling:
        """The labeling v -> (v div q, v mod q), built once per shape (it is frozen)."""
        p, q = shape
        return GridLabeling(shape, tuple((v // q, v % q) for v in range(p * q)))


@lru_cache(maxsize=16)  # asked for only once the cell count matched, so no larger than a labeling
def _grid_cells(p: int, q: int) -> frozenset[tuple[int, int]]:
    """The cells (i, j), 0 <= i < p and 0 <= j < q, of the p x q grid."""
    return frozenset(product(range(p), range(q)))


@dataclass(frozen=True)
class Witness:
    """Reason a graph was rejected, with the offending edge when one exists."""

    reason: str
    edge: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.reason not in _ALL_REASONS:
            raise ValueError(f"unknown witness reason {self.reason!r}")


class _Crosses(tuple):
    """A summand list known to hold exact-int 4-tuples in strictly increasing order.

    Only the decider (_summands) and Certificate.from_dict make one, each once
    it has checked that; to_json and verify_certificate then skip those tests.
    A slice, a concatenation or a hand-built list is a plain tuple or list and
    is tested in full. Whether the crosses fit a shape is not part of it.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Certificate:
    """Checkable record of one membership verdict.

    Member certificates carry a labeling and the full list of cross summands;
    non-member certificates carry a witness instead.
    """

    verdict: bool
    shape: GridShape
    graph: Graph
    labeling: GridLabeling | None = None
    summands: tuple[tuple[int, int, int, int], ...] | None = None
    witness: Witness | None = None
    empty_decomposition: bool = False

    def to_dict(self) -> dict:
        out = self._fields()
        if type(self.summands) is _Crosses:
            out["summands"] = list(map(list, self.summands))
        return out

    def _fields(self) -> dict:
        """to_dict, but with a checked summand list (_Crosses) left as its tuples."""
        out: dict = {
            "verdict": "member" if self.verdict else "non-member",
            "shape": [self.shape.p, self.shape.q],
            "graph6": graph6_encode(self.graph),
        }
        if self.labeling is not None:
            out["labeling"] = list(map(list, self.labeling.cells))
        if type(self.summands) is _Crosses:
            out["summands"] = self.summands
        elif self.summands is not None:
            out["summands"] = list(map(list, self.summands))
        if self.witness is not None:
            out["witness"] = {"reason": self.witness.reason}
            if self.witness.edge is not None:
                out["witness"]["edge"] = list(self.witness.edge)
        if self.empty_decomposition:
            out["empty_decomposition"] = True
        return out

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2); the shape, cells and summands, when ints, fill %d templates.

        A checked summand list (_Crosses) fills its template from its tuples as they are; any other list
        is copied to lists and tested first. The indent selects the pure-Python encoder, so only lists and
        dicts that miss the templates take it.
        """
        fields = []
        for key, value in self._fields().items():
            if key in ("labeling", "summands") and value and (
                type(value) is _Crosses or value[0] and _int_lists(value, len(value[0]))
            ):
                item = "    [\n" + ",\n".join(["      %d"] * len(value[0])) + "\n    ]"
                text = "[\n" + ",\n".join([item] * len(value)) % tuple(chain.from_iterable(value)) + "\n  ]"
            elif key == "shape" and _int_lists([value], 2):
                text = "[\n    %d,\n    %d\n  ]" % tuple(value)
            else:
                text = json.dumps(value, indent=2 if isinstance(value, (list, dict)) else None).replace("\n", "\n  ")
            fields.append(f'  "{key}": {text}')
        return "{\n" + ",\n".join(fields) + "\n}"

    @staticmethod
    def from_dict(data: dict) -> Certificate:
        """Rebuild a certificate; raises ValueError on a missing, mistyped or missized field."""
        if not isinstance(data, dict):
            raise ValueError("certificate must be a JSON object")
        verdict = _field(data, "verdict")
        if verdict not in ("member", "non-member"):
            raise ValueError(f"verdict must be 'member' or 'non-member', got {verdict!r}")
        shape = GridShape(*_int_tuple(_field(data, "shape"), 2, "shape"))
        if not isinstance(_field(data, "graph6"), str):
            raise ValueError("graph6 must be a string")
        graph = graph6_decode(data["graph6"])
        labeling = None
        if "labeling" in data:
            labeling = GridLabeling(shape, _int_tuples(_list_of(data["labeling"], "labeling"), 2, "labeling cell"))
        summands = None
        if "summands" in data:
            summands = _int_tuples(_list_of(data["summands"], "summands"), 4, "summand")
            if not _crosses(summands, shape):
                raise ValueError(next(filter(None, (_summand_problem(s, shape) for s in summands))))
            if all(map(lt, summands, summands[1:])):
                summands = _Crosses(summands)
        witness = None
        if "witness" in data:
            w = data["witness"]
            if not isinstance(w, dict):
                raise ValueError("witness must be an object")
            edge = _int_tuple(w["edge"], 2, "witness edge") if "edge" in w else None
            witness = Witness(_field(w, "reason", "witness"), edge)
        empty = data.get("empty_decomposition", False)
        if not isinstance(empty, bool):
            raise ValueError(f"empty_decomposition must be true or false, got {empty!r}")
        return Certificate(
            verdict == "member",
            shape,
            graph,
            labeling=labeling,
            summands=summands,
            witness=witness,
            empty_decomposition=empty,
        )

    @staticmethod
    def from_json(text: str) -> Certificate:
        return Certificate.from_dict(json.loads(text))


def _field(data: dict, key: str, where: str = "certificate") -> object:
    if key not in data:
        raise ValueError(f"{where} has no {key!r} field")
    return data[key]


def _int_lists(items: Sequence, length: int, kind: type = list) -> bool:
    """Whether each item is a kind, list by default, of exactly length ints (booleans excluded); one pass per test."""
    n = len(items)
    return (
        countOf(map(type, items), kind) == n
        and countOf(map(len, items), length) == n
        and countOf(map(type, chain.from_iterable(items)), int) == n * length
    )


def _int_tuples(items: list, length: int, what: str) -> tuple[tuple[int, ...], ...]:
    """items as tuples of length ints, tested set-wide; on failure _int_tuple names the first bad one."""
    if _int_lists(items, length):
        return tuple(map(tuple, items))
    return tuple(_int_tuple(x, length, what) for x in items)


def _list_of(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _int_tuple(value: object, length: int, what: str) -> tuple[int, ...]:
    """value as a tuple of exactly length ints (JSON booleans excluded)."""
    items = _list_of(value, what)
    if len(items) != length or not all(type(x) is int for x in items):
        raise ValueError(f"{what} must be {length} integers, got {value!r}")
    return tuple(items)


def _summand_problem(s: tuple[int, ...], shape: GridShape) -> str | None:
    """Why s names no cross of the grid, or None when 0 <= i < i2 < p and 0 <= j < j2 < q."""
    i, i2, j, j2 = s
    if 0 <= i < i2 < shape.p and 0 <= j < j2 < shape.q:
        return None
    return f"summand {list(s)} is not a cross of the {shape.p} x {shape.q} grid"


def _crosses(summands: Sequence[tuple[int, int, int, int]], shape: GridShape) -> bool:
    """Whether each summand, four ints, is a cross of the grid, as _summand_problem tests it, in one loop."""
    p, q = shape.p, shape.q
    for i, i2, j, j2 in summands:
        if not (0 <= i < i2 < p and 0 <= j < j2 < q):
            return False
    return True


def find_violation(k: Graph, shape: GridShape) -> Witness | None:
    """First edge (sorted order) breaking the cross condition, or None.

    Same-row and same-column edges are reported before missing cross partners
    so the witness names the most local defect available.
    """
    if isinstance(_pair_rows(k, shape.p, shape.q), tuple):
        return None
    return _first_defect(k, shape.q)


def _first_defect(k: Graph, q: int) -> Witness | None:
    """The witness of find_violation, from row slices; None only for a member.

    First the least same-line edge: row u is masked by the lines through its
    cell, its grid row and its grid column. A same-line bit below u would have
    been found at that lower vertex, so the least bit of the first nonzero
    meet is the least such edge. Failing that, the least edge missing its
    partner: for u = (i, j) and each grid row i2 > i, the neighbours (i2, j2)
    of u less the partners, the cells (i, j2) joined to (i2, j).
    """
    rows, n = k.rows, k.n
    block = (1 << q) - 1
    lane = ((1 << n) - 1) // block  # bit s*q for each grid row s: column 0
    lines = (block << u - u % q | lane << u % q for u in range(n))  # a generator: a list would hold n masks of n bits
    for u, m in enumerate(map(and_, rows, lines)):
        if m:
            return Witness(REASON_SAME_LINE, (u, (m & -m).bit_length() - 1))
    for u, row in enumerate(rows):
        base = u - u % q
        if row >> base + q:
            for x in range(u + q, n, q):  # x = (i2, j): its block at grid row i holds the partners
                m = row >> x - u + base & block & ~(rows[x] >> base)
                if m:
                    return Witness(REASON_MISSING_PARTNER, (u, x - u + base + (m & -m).bit_length() - 1))
    return None


def _edge_defect(k: Graph, q: int, u: int, v: int) -> str | None:
    """Which part of the cross condition edge uv breaks, or None when it meets it.

    The edge must join distinct rows and columns of the q-column grid, and
    the other diagonal of its rectangle must be an edge too.
    """
    i, j = u // q, u % q
    i2, j2 = v // q, v % q
    if i == i2 or j == j2:
        return REASON_SAME_LINE
    if not k.has_edge(i * q + j2, i2 * q + j):
        return REASON_MISSING_PARTNER
    return None


@lru_cache(maxsize=16)  # keyed by q alone: q - 1 terms, fewer than one adjacency row has bits
def _columns(q: int) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """The reads' terms (j, mask_j, off_j - base) for columns j < q - 1, as (base, terms) per run of 64.

    mask_j = (1 << (q-1-j)) - 1, off_j = j(q-1) - j(j-1)/2 indexes column pair
    (j, j+1) and base is off_j of the run's first column. Bit t of
    (rows[i*q + j] >> (i2*q + j + 1)) & mask_j says whether (i, j) ~ (i2, j + 1 + t).
    """
    offs = [j * (q - 1) - j * (j - 1) // 2 for j in range(q - 1)]
    return tuple(
        (offs[lo], tuple((j, (1 << (q - 1 - j)) - 1, offs[j] - offs[lo]) for j in range(lo, min(lo + 64, q - 1))))
        for lo in range(0, q - 1, 64)
    )


def _pair_rows(k: Graph, p: int, q: int) -> tuple[int, ...] | bool:
    """What k's blocks say on the p x q grid: _read_blocks' result, kept in k._block_read.

    A census member's entry, (p, q, pairs, shifts, mask), is cut into rows at
    its own p and q. Any other graph, or a member asked at another shape, has
    its blocks read once per shape: the first call stores (p, q, result) in
    the slot, and later calls at that shape answer from it.
    """
    read = k._block_read
    if read is None or read[0] != p or read[1] != q:
        if k.n != p * q:
            raise ValueError(f"graph has {k.n} vertices, grid needs {p * q}")
        result = _read_blocks(k, p, q)
        k._block_read = (p, q, result)
        return result
    if len(read) == 3:
        return read[2]
    _, _, pairs, shifts, mask = read
    return tuple([pairs >> s & mask for s in shifts])


def _holds_read(k: Graph, p: int, q: int) -> bool:
    """Whether _pair_rows would answer for k at (p, q) without reading its rows."""
    read = k._block_read
    return read is not None and read[0] == p and read[1] == q


def _read_blocks(k: Graph, p: int, q: int) -> tuple[int, ...] | bool:
    """The pair matrix of k when a labeled member; else True when every cross has its partner, False when one lacks it.

    The read-off and member test of the module docstring, by the column terms
    of _columns(q): row (i, i2) holds the edges (i, j) ~ (i2, j2), j < j2, and
    its swapped read the other diagonals; k is a member iff row pairs read the
    same both ways and k has twice as many edges as the pair matrix has bits,
    none left for a grid row or column.
    """
    rows, cols = k.rows, _columns(q)
    out = []
    for i, i2 in combinations(range(p), 2):
        x, sx, y, sy = i * q, i2 * q + 1, i2 * q, i * q + 1
        runs = []  # (base, bits) of each run of terms, joined pairwise: no OR copies a long row
        for base, terms in cols:
            here = 0
            for j, mask, off in terms:
                part = (rows[x + j] >> sx + j) & mask
                if part != (rows[y + j] >> sy + j) & mask:
                    return False
                here |= part << off
            runs.append((base, here))
        while len(runs) > 1:
            pairs = zip(runs[::2], runs[1::2])
            runs = [(b1, h1 | h2 << b2 - b1) for (b1, h1), (b2, h2) in pairs] + runs[len(runs) & ~1:]
        out.append(runs[0][1])
    if k.edge_count != 2 * sum(map(int.bit_count, out)):
        return True
    return tuple(out)


def _member_pair_rows(k: Graph, shape: GridShape) -> tuple[int, ...]:
    """The pair matrix of a labeled member, from _pair_rows; raises ValueError naming the witness otherwise."""
    pairs = _pair_rows(k, shape.p, shape.q)
    if not isinstance(pairs, tuple):
        w = _first_defect(k, shape.q)
        raise ValueError(f"not a labeled member: {w.reason} at edge {w.edge}")
    return pairs


def _summands(k: Graph, shape: GridShape) -> _Crosses:
    """The crosses (i, i2, j, j2) of a labeled member k, sorted, read off its rows by the reads of _pair_rows."""
    p, q = shape
    rows, cols = k.rows, _columns(q)
    out = []
    for i, i2 in combinations(range(p), 2):
        x, sx = i * q, i2 * q + 1
        for _, terms in cols:
            for j, mask, _ in terms:
                m = (rows[x + j] >> sx + j) & mask
                while m:
                    low = m & -m
                    out.append((i, i2, j, j + low.bit_length()))
                    m ^= low
    return _Crosses(out)


def is_spanning_cross_like(k: Graph, shape: GridShape) -> Certificate:
    """Decide labeled membership for k under the identity grid labeling."""
    if not isinstance(_pair_rows(k, shape.p, shape.q), tuple):
        return Certificate(False, shape, k, witness=_first_defect(k, shape.q))
    quads = _summands(k, shape)
    return Certificate(
        True,
        shape,
        k,
        labeling=GridLabeling.identity(shape),
        summands=quads,
        empty_decomposition=not quads,
    )


def elementary_decomposition(k: Graph, shape: GridShape) -> tuple[tuple[int, int, int, int], ...]:
    """Quadruples (i, i2, j, j2) of the cross summands composing k, sorted.

    Each edge rectangle contributes exactly one quadruple; distinct
    quadruples toggle disjoint edge pairs, so XOR of the corresponding
    two-edge graphs reproduces k exactly. Raises on a non-member.
    """
    _member_pair_rows(k, shape)
    return _summands(k, shape)


def edge_bound_check(k: Graph, shape: GridShape) -> tuple[int, bool]:
    """Return (bound, attained): the member edge-count ceiling and whether k meets it.

    The bound 2 * C(p,2) * C(q,2) counts two edges per cross pair; only the
    full tensor product of two complete graphs attains it.
    """
    if k.n != shape.order:
        raise ValueError(f"graph has {k.n} vertices, shape ({shape.p}, {shape.q}) needs {shape.order}")
    bound = shape.edge_bound
    return bound, k.edge_count == bound


def pair_quadruples(shape: GridShape) -> tuple[tuple[int, int, int, int], ...]:
    """All C(p,2)*C(q,2) cross quadruples (i, i2, j, j2), in sorted order."""
    return tuple(rp + cp for rp in combinations(range(shape.p), 2) for cp in combinations(range(shape.q), 2))


def graph_from_quadruples(
    shape: GridShape, quads: Sequence[tuple[int, int, int, int]]
) -> Graph:
    """XOR together the two-edge cross graphs named by quads."""
    p, q = shape
    g = Graph(p * q, [0] * (p * q))
    for i, i2, j, j2 in quads:
        g = two_sum(g, tensor_elementary(p, q, i, i2, j, j2))
    return g


def census(shape: GridShape) -> Iterator[Graph]:
    """Every labeled member of this shape, one per subset of cross quadruples.

    Subsets are enumerated as bit patterns c = 0 .. 2^m - 1 where m is the
    quadruple count; the most significant bit selects the first quadruple in
    sorted order. Member count is exactly 2^m.

    All n = p*q rows live in one int, row w at bit w*width, width a whole
    number of bytes. The step from c - 1 to c toggles the crosses of the bits
    that change, bits 0..b of c ^ (c - 1), so it is one XOR with delta[b],
    the XOR of those crosses' four row bits (both diagonals in both
    directions). One unpack of the int's bytes reads the rows back out, and
    each member is handed its edge count, two per cross of c.

    A second int holds the graph6 bit field in the encoder's spread layout
    (6-bit group k at byte k) and takes the same step with one XOR with
    field_delta[b], two field bits per cross. Each member is handed it, so
    graph6_encode writes a member without packing its rows.

    A third int holds the pair matrix in pair_matrix's layout, row r at bit
    r*C(q,2), so the bit of a cross is the index of its quadruple, and takes
    the same step with one XOR with pair_delta[b]. Each member is handed it
    as its block read, (p, q, pairs, shifts, mask), the row shifts and mask
    worked out once for the whole census. So pair_matrix, t2_exact,
    is_spanning_cross_like, find_violation and ppt_test at this shape cut the
    matrix into rows instead of reading the adjacency rows.
    """
    p, q = shape
    n = p * q
    if n <= 64:  # one struct call, each row in the least of B, H, I, Q that holds n bits
        width = max(8, 1 << (n - 1).bit_length())
        unpack = Struct(f"<{n}{'BHIQ'[(width // 8).bit_length() - 1]}").unpack
    else:  # one int per byte slice
        step = -(-n // 8)
        width, starts = 8 * step, range(0, n * step, step)

        def unpack(data: bytes) -> list[int]:
            return [int.from_bytes(data[a:a + step], "little") for a in starts]

    size = n * width // 8
    # delta[b] and field_delta[b] toggle the crosses of bits 0..b; the low bits take the last quadruples
    delta, field_delta, acc, field_acc = [], [], 0, 0
    for i, i2, j, j2 in reversed(pair_quadruples(shape)):
        u, v, x, y = i * q + j, i2 * q + j2, i * q + j2, i2 * q + j  # u < v and x < y
        acc ^= 1 << u * width + v ^ 1 << v * width + u ^ 1 << x * width + y ^ 1 << y * width + x
        field_acc ^= 1 << _g6_bit(u, v) ^ 1 << _g6_bit(x, y)
        delta.append(acc)
        field_delta.append(field_acc)
    m, row_bits = len(delta), q * (q - 1) // 2
    pair_delta = [((2 << b) - 1) << m - 1 - b for b in range(m)]  # bit b of c is quadruple m - 1 - b
    shifts, mask = tuple(range(0, m, row_bits)), (1 << row_bits) - 1
    state = field = pairs = 0
    yield Graph._trusted(n, [0] * n, 0, 0, (p, q, 0, shifts, mask))
    for c in range(1, 1 << m):
        b = (c & -c).bit_length() - 1
        state ^= delta[b]
        field ^= field_delta[b]
        pairs ^= pair_delta[b]
        rows = unpack(state.to_bytes(size, "little"))
        yield Graph._trusted(n, rows, 2 * c.bit_count(), field, (p, q, pairs, shifts, mask))


def has_independent_row_partition(k: Graph, shape: GridShape) -> bool:
    """True iff the vertex set splits into p independent sets of size q."""
    p, q = shape
    return k.n == p * q and _independent_split(k, q, 0)


def _independent_split(k: Graph, size: int, odd: int) -> bool:
    """True iff the vertex set splits into independent sets of size, each holding evenly many vertices of odd.

    Depth-first over a stack of (unused, need, cand, par): the open block still
    takes need vertices from cand, least first, and par says whether it holds
    oddly many vertices of odd, so its last vertex comes from the side of odd
    that makes the count even. Each block opens at the unused vertex with the
    fewest unused non-neighbours, itself included, and takes the rest from
    them. Any opener is complete: every split of unused puts it in a block of
    size of those vertices, so fewer admit none.
    """
    adj = k.rows
    stack = [((1 << k.n) - 1, 0, 0, False)]
    while stack:
        unused, need, cand, par = stack.pop()
        if need == 0:
            if not unused:
                return True
            room = k.n + 1
            m = unused
            while m:
                low = m & -m
                m ^= low
                r = (unused & ~adj[low.bit_length() - 1]).bit_count()
                if r < room:
                    room, opener = r, low
            if room >= size:
                rest = unused ^ opener
                stack.append((rest, size - 1, rest & ~adj[opener.bit_length() - 1], bool(opener & odd)))
            continue
        if need == 1:
            cand &= odd if par else ~odd
        if cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            stack.append((unused, need, cand, par))  # the later candidates, tried once low's subtree fails
            stack.append((unused ^ low, need - 1, cand & ~adj[low.bit_length() - 1], par ^ bool(low & odd)))
    return False


def valid_labelings(k: Graph, shape: GridShape) -> Iterator[GridLabeling]:
    """Valid labelings of k in strictly increasing order, the least one first.

    Yields exactly the canonical valid labelings (rows and columns numbered
    by first use) in which false twins, vertices with equal neighbourhoods,
    take increasing cells. That covers every orbit under renumbering rows,
    renumbering columns and swapping false twins, since each orbit's least
    member is among them; an orbit may also show up more than once. None of
    these moves changes validity or the relabeled graph's summand-count rank.

    Each cross adds two to the degree sum of each of its two grid rows and
    each of its two grid columns, so under a valid labeling every row and
    every column holds evenly many odd-degree vertices. So the search first
    splits the vertices into p independent q-sets and into q independent
    p-sets (one split when p == q), each holding evenly many odd-degree
    vertices, and yields nothing if either split fails. Each split is
    necessary, so a failed one skips only a search without a leaf.

    Depth-first search over vertices 0, 1, ..., n-1, on an explicit stack
    whose frames each own their placement. Vertex v tries cells in increasing
    order, but only rows and columns already in use or the next unused one,
    which yields exactly the canonical labelings. Three prunings keep it small:

    - Propagation. Each empty cell keeps a mask of the vertices that may
      still go there. Placing v at (r, c) removes v's neighbours from the
      rest of row r and column c. In each rectangle through (r, c), v is
      adjacent to the opposite corner iff the other two corners are
      adjacent. With two of the other corners placed, the third cell is
      narrowed to match. With one placed, the two empty cells are narrowed
      as a pair: to vertices with a neighbour in the other cell when they
      must be adjacent, and each to one side of a neighbourhood once the
      other cell's candidates all fall on one side. Each empty cell also
      counts the cells its vertex must be adjacent to, one per rectangle
      whose other diagonal is a placed edge. Those cells hold distinct
      vertices, so only vertices of at least that degree stay. Each cross
      adds two to the degree sum of every row and column it meets, so every
      line's sum is even, and the last empty cell of v's row or column keeps
      only vertices of the parity that makes it so. A branch dies as soon as a
      narrowing before the parity one leaves an empty cell with no candidate.
      Last, the empty cells take the unplaced vertices one to one, all
      different. A branch dies if an empty cell has no candidate left, an
      unplaced vertex fits no empty cell, two cells have the same single
      candidate, or one cell is the only place for two vertices. A cell's
      single candidate (a naked single) leaves every other cell, and a cell
      that is the only place for some vertex (a hidden single) keeps just that
      vertex.
    - False twins. If u < w have equal adjacency rows (so they are not
      adjacent), w goes only to a cell after u's: placing u drops its later
      twins from the cells before its own, and u must leave enough empty
      cells after its own for them. This keeps the least labeling L of each
      orbit: swapping u and w is an automorphism of k, so L with their
      cells swapped relabels k to the same graph and is valid. It agrees
      with L before u and puts u at w's cell, so if cell(w) < cell(u) it is
      smaller than L, and so is its canonical form, which lies in the same
      orbit. Hence cell(u) < cell(w) in L.
    - Completion check. Before the search descends from a placement, a
      plain depth-first search over the unplaced vertices confirms that
      some completion exists: a valid labeling that extends the placement
      and keeps every candidate mask. Each leaf below the placement is one,
      so a placement without a completion roots a subtree with no leaf, and
      skipping it leaves the yielded sequence unchanged. Each step expands
      like the main search, on cells in rows and columns already used or
      the next unused one, but places the unplaced vertex with the most
      placed neighbours (then the highest degree), taking only the least
      unplaced vertex of each twin class.
      A step dies on propagation. No restriction loses a completion:
      - propagation, the twin drop aside, removes only candidates no
        completion uses. For the all-different rules this is a count: the
        empty cells and the unplaced vertices are equally many, so a
        completion puts each unplaced vertex on exactly one empty cell and
        each empty cell gets exactly one of them, from its mask. The rules
        read only the masks, which every completion keeps, so they hold
        however the masks were narrowed, the twin drop included;
      - the rows not yet used were narrowed alike (the all-different rules
        treat cells with equal masks alike), so they have equal
        candidate masks cell by cell, and swapping two of them maps
        completions to completions; the same holds for columns;
      - the unplaced members of a twin class have equal adjacency and
        equal candidate masks, so swapping two of them also maps
        completions to completions. Sort them by cell: the least one takes
        the least cell of the class, as the twin drop assumes. If that cell
        lies in an unused row after the next one, swap the two rows: the
        next unused row holds no member of the class, as its cells all
        come before the least one, and the rest stay after it. Columns go
        alike.
      A completion found is renumbered by first use along v = 0, 1, ...,
      which leaves the placed prefix as it is, and handed down as a
      witness: a child that places v on the witness's cell skips the
      check. The check also starts only once more than n entered subtrees
      have come back without a leaf, so a search whose branches hold
      leaves, such as one that never backtracks, never pays for it. Both
      rules only skip checks, so they prune nothing.
    """
    yield from _labeling_search(k, shape)[0]()


def _labeling_search(k: Graph, shape: GridShape) -> tuple[Callable[[], Iterator[GridLabeling]], Callable[[], bool]]:
    """valid_labelings' search as (its labelings, whether some valid labeling exists).

    Past the root splits, the existence test is the completion check of the
    empty placement: it asks for any valid labeling, not the least one. Each
    placement owns its state and each entry point walks its own stack, so the
    two can interleave and no depth meets the recursion limit. step expands a
    node over the shape's table canon[rows_used][cols_used] of canonical cells.
    A faster node must keep the tree: the same placements in the same order and
    the same masks, so propagate, complete and the root splits run as often.
    """
    p, q = shape
    n = k.n
    if n != p * q:
        raise ValueError(f"graph has {n} vertices, labelings need {p * q}")
    adj = k.rows
    degree = [row.bit_count() for row in adj]
    odd_degree = sum(1 << v for v in range(n) if degree[v] & 1)
    if not (_independent_split(k, q, odd_degree) and (p == q or _independent_split(k, p, odd_degree))):
        return lambda: iter(()), lambda: False
    full = (1 << n) - 1
    lines, rectangles, canon = _grid_geometry(p, q)
    deg_at_least = [0] * (n + 1)  # mask of the vertices of degree at least d
    for v in range(n):
        for d in range(degree[v] + 1):
            deg_at_least[d] |= 1 << v
    with_row: dict[int, int] = {}  # mask of the vertices with each adjacency row
    for v in range(n):
        with_row[adj[v]] = with_row.get(adj[v], 0) | 1 << v
    later_twins = [with_row[adj[v]] >> v + 1 << v + 1 for v in range(n)]  # the later vertices with v's row
    earlier_twins = [with_row[adj[v]] & (1 << v) - 1 for v in range(n)]  # and the earlier ones

    def tie(out: list[int], live: int, s1: int, m1: int, s2: int, m2: int) -> int:
        """Narrow two empty cells whose vertices lie in m1 and m2 together or not at all; 0 if one empties."""
        c2 = out[s2] & live
        if not c2 & ~m2:
            out[s1] &= m1
        elif not c2 & m2:
            out[s1] &= ~m1
        c1 = out[s1] & live
        if not c1:
            return 0
        if not c1 & ~m1:
            out[s2] &= m2
        elif not c1 & m1:
            out[s2] &= ~m2
        return out[s2] & live

    def narrow(out: list[int], live: int, s: int, mask: int, joined: int) -> int:
        """Keep in empty cell s the vertices in mask if joined, else those outside it; return its live ones.

        A joined cell's vertex has one more neighbour to find, so its degree bound grows.
        """
        if joined:
            out[n + s] += 1
            out[s] &= mask & deg_at_least[out[n + s]]
        else:
            out[s] &= ~mask
        return out[s] & live

    def adjacent_pair(out: list[int], live: int, s1: int, s2: int) -> bool:
        """Keep in each of two empty cells the neighbours of the other's candidates; False if one empties."""
        if not (narrow(out, live, s1, full, 1) and narrow(out, live, s2, full, 1)):
            return False
        for s, other in ((s1, s2), (s2, s1)):
            reach = 0
            m = out[other] & live
            while m:
                low = m & -m
                m ^= low
                reach |= adj[low.bit_length() - 1]
            out[s] &= reach
            if not out[s] & live:
                return False
        return True

    def propagate(
        v: int, t: int, cand: list[int], holder: list[int], live: int, empty: list[int]
    ) -> list[int] | None:
        """Cell state after placing v at cell t, or None on a dead end; cand and holder stay as they are.

        cand[s] is the candidate mask of cell s and cand[n + s] the number of
        cells its vertex must be adjacent to; holder[s] is the vertex at cell s
        or -1, live masks the unplaced vertices and empty lists the empty cells.
        """
        out = cand[:]
        out[t] = 0
        nb = adj[v]
        if later_twins[v]:
            for s in range(t):
                out[s] &= ~later_twins[v]
        # Here and in the rectangles, an empty cell left with no live candidate
        # ends the branch at once: the all-different pass would end it anyway.
        # The degree sums of v's row and column are even: the last empty cell of
        # either keeps the parity that makes them so. That narrowing waits until
        # the rectangles are done, so they read the masks without it.
        parity = []
        for line in lines[t]:
            need, odd = 0, degree[v] & 1
            for s in line:
                if holder[s] < 0:
                    out[s] &= ~nb
                    if not out[s] & live:
                        return None
                    need += 1
                    last = s
                else:
                    odd ^= degree[holder[s]] & 1
            if need == 1:
                parity.append((last, odd))
        # Each rectangle through t: v ~ (vertex at d) iff (vertex at a) ~ (vertex
        # at b). With a, b and d all placed, v in cand[t] already closes it:
        # cand[t] was narrowed when the last of them was placed. A demand on an
        # empty cell is counted when the edge that makes it is placed.
        for d, a, b in rectangles[t]:
            x, ya, yb = holder[d], holder[a], holder[b]
            if x >= 0:
                joined = (nb >> x) & 1
                if ya >= 0:
                    if yb < 0 and not narrow(out, live, b, adj[ya], joined):
                        return None
                elif yb >= 0:
                    if not narrow(out, live, a, adj[yb], joined):
                        return None
                elif joined and not adjacent_pair(out, live, a, b):
                    return None
            elif ya >= 0:
                if yb >= 0:
                    out[d] &= nb if (adj[ya] >> yb) & 1 else ~nb
                    if not out[d] & live:
                        return None
                elif not tie(out, live, d, nb, b, adj[ya]):
                    return None
            elif yb >= 0 and not tie(out, live, d, nb, a, adj[yb]):
                return None
        for last, odd in parity:
            out[last] &= odd_degree if odd else ~odd_degree
        # All different: each empty cell other than t takes one live vertex and
        # each live vertex one such cell. once and twice mask the vertices that
        # fit at least one and at least two of them; singles the sole candidates.
        once = twice = singles = 0
        for s in empty:
            if s == t:
                continue
            m = out[s] & live
            if not m & (m - 1):
                if not m or m & singles:
                    return None
                singles |= m
            twice |= once & m
            once |= m
        if once != live:
            return None
        only = once & ~twice  # the vertices that fit one cell
        if only == singles:  # no hidden single, and no naked one fits another cell
            return out
        for s in empty:
            m = out[s] & live
            if m & (m - 1):
                hidden = m & only
                if hidden & (hidden - 1):
                    return None
                out[s] = hidden or m & ~singles
                if not out[s]:
                    return None
        return out

    def step(x: int, state: tuple, live: int) -> Iterator[tuple[int, tuple]]:
        """(t, child state) after each placement of x that propagation keeps, canonical cells t least first.

        A state is (cell masks and demands, vertex at each cell or -1, taken, rows_used, cols_used);
        each child owns its placement, copied once propagation keeps t. live masks the vertices unplaced after x.
        """
        cand, holder, taken, rows_used, cols_used = state
        bit = 1 << x
        room = later_twins[x].bit_count()
        empty = [s for s in range(n) if holder[s] < 0]
        for t, r1, c1 in canon[rows_used][cols_used]:
            if not cand[t] & bit:
                continue
            # x's later twins need empty cells after t, and fewer are left as t grows.
            if n - 1 - t - (taken >> (t + 1)).bit_count() < room:
                return
            after = propagate(x, t, cand, holder, live, empty)
            if after is None:
                continue
            placed = holder[:]
            placed[t] = x
            yield t, (after, placed, taken | 1 << t, max(rows_used, r1), max(cols_used, c1))

    def complete(state: tuple, live: int) -> list[int] | None:
        """The completion check: the cell of each vertex in some completion, or None.

        It walks a stack of (step iterator, vertices unplaced below it). The
        cells come renumbered by first use along v = 0, 1, ..., which leaves
        the canonical placed prefix as it is.
        """
        frames: list[tuple[Iterator[tuple[int, tuple]], int]] = []
        while live:
            x = best = -1
            m = live
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                if not earlier_twins[u] & live:  # u is the least unplaced vertex of its twin class
                    key = (adj[u] & ~live).bit_count() * n + degree[u]  # placed neighbours, then degree
                    if key > best:
                        x, best = u, key
            live ^= 1 << x
            frames.append((step(x, state, live), live))
            while (child := next(frames[-1][0], None)) is None:
                frames.pop()
                if not frames:
                    return None
            state, live = child[1], frames[-1][1]
        cell_of = sorted(range(n), key=state[1].__getitem__)
        row_no = {r: i for i, r in enumerate(dict.fromkeys(t // q for t in cell_of))}
        col_no = {c: j for j, c in enumerate(dict.fromkeys(t % q for t in cell_of))}
        return [row_no[t // q] * q + col_no[t % q] for t in cell_of]

    root = ([full] * n + [0] * n, [-1] * n, 0, 0, 0)

    def labelings() -> Iterator[GridLabeling]:
        """The least-first search over a stack of (step iterator, witness, leaves at entry); frame v places v."""
        leaves = dead = 0
        frames = [(step(0, root, full ^ 1), None, 0)]
        while frames:
            v = len(frames) - 1
            steps, witness, before = frames[-1]
            live = full & ~((2 << v) - 1)  # the vertices after v
            for t, after in steps:
                found = witness if witness is not None and witness[v] == t else None
                # descend unless the gate is open, no witness covers t and t has no completion
                if found is not None or dead <= n or (found := complete(after, live)) is not None:
                    break
            else:
                frames.pop()
                dead += leaves == before  # the frame's subtree held no leaf
                continue
            if v + 1 < n:
                frames.append((step(v + 1, after, live ^ 2 << v), found, leaves))
                continue
            leaves += 1
            yield GridLabeling(shape, tuple(divmod(t, q) for t in sorted(range(n), key=after[1].__getitem__)))

    return labelings, lambda: complete(root, full) is not None


@lru_cache(maxsize=8)  # a handful of shapes stay cached; a large table, about 90 MB at (2,520), is let go
def _grid_geometry(p: int, q: int) -> tuple[tuple, tuple, tuple]:
    """Per cell t = r*q + c: (row r's other cells, column c's other cells) and the rectangles through t;
    and canon[i][j], the (t, r + 1, c + 1) of the cells (r, c) with r <= i and c <= j, least first.

    Cell order is lexicographic (row, column). A rectangle is given as its
    (opposite corner, same-row corner, same-column corner).
    """
    cells = [(r, c) for r in range(p) for c in range(q)]
    entries = [(r * q + c, r + 1, c + 1) for r, c in cells]  # one per cell, shared by the canon lists
    canon = tuple(
        tuple(tuple(entries[r * q + c] for r in range(min(i + 1, p)) for c in range(min(j + 1, q))) for j in range(q + 1))
        for i in range(p + 1)
    )
    lines = tuple(
        (tuple(r * q + c2 for c2 in range(q) if c2 != c), tuple(r2 * q + c for r2 in range(p) if r2 != r))
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
    return lines, rectangles, canon


def verify_certificate(cert: Certificate) -> list[str]:
    """Independently recheck a certificate; return a list of problems found.

    An empty list means the certificate is internally consistent and its
    verdict matches a recomputation from the graph it embeds. A member's
    graph is relabeled by its labeling unless that labeling equals the
    identity; the identity skips only the relabel, never a check. A member
    passes when its summands, a tuple of int 4-tuples, are crosses of the
    grid in strictly increasing order, its empty_decomposition flag says
    whether there are none, and they XOR back to the relabeled graph; a list
    the decider or from_dict has checked (_Crosses) skips the int and order
    tests. Distinct crosses toggle disjoint edge pairs, so such a list is
    the relabeled graph's one decomposition, in the decider's order. Any other
    member reruns the decider, is_spanning_cross_like, only to word its
    problems, and the XOR-back is not repeated. A search-exhausted witness is
    checked by existence: the root splits of valid_labelings, then the
    completion check of the empty placement, which asks for any valid
    labeling rather than the least one.
    """
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
        quads = cert.summands
        xored = None
        ordered = type(quads) is _Crosses or (
            type(quads) is tuple and _int_lists(quads, 4, tuple) and all(map(lt, quads, quads[1:]))
        )
        if ordered and cert.empty_decomposition == (not quads) and _crosses(quads, shape):
            xored = graph_from_quadruples(shape, quads)
            if xored == relabeled:
                return problems
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
                outside = [pb for pb in (_summand_problem(s, shape) for s in cert.summands) if pb]
                problems.extend(outside)
            if xored is None and not outside:
                xored = graph_from_quadruples(shape, cert.summands)
            if xored is not None and xored != relabeled:
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
                    defect = _edge_defect(k, shape.q, u, v)
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
            if _labeling_search(k, shape)[1]():
                problems.append("search-exhausted witness but a full search finds a valid labeling")
    return problems
