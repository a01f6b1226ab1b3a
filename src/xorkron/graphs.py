"""Simple undirected graphs as bit-packed adjacency rows, plus text codecs."""

from __future__ import annotations

from functools import lru_cache
from operator import and_, lshift
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

GRAPH6_MAX_N = 62

STANDARD_KINDS = ("complete", "path", "cycle", "edgeless")

# The graph6 bit field lists the upper triangle column by column (bit (i, j) for
# i < j at j(j-1)/2 + i) and packs it six bits to a character, first bit highest.
# The codec holds it as one int with field bit k at int bit k, so column j is the
# low j bits of row j. With 6-bit group k moved to bit 8k, the int's little-endian
# bytes are the groups, and one bytes.translate turns each group into its
# character (bits reversed, plus 63) or back. A field carried by a Graph is
# already in that spread layout.
_G6_OUT = bytes(int(f"{v:06b}"[::-1], 2) + 63 for v in range(64)) * 4  # group -> character; only 0..63 occur
_G6_IN = bytes(63) + bytes(c - 63 for c in _G6_OUT[:64]) + bytes(129)  # character 63..126 -> group
_G6_DROP_PRINTABLE = str.maketrans("", "", "".join(map(chr, range(63, 127))))


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    Row u is an int whose bit v is set iff {u, v} is an edge. Graph(n, rows)
    validates raw rows: their count, range, symmetry and zero diagonal.
    Library operations (products, XOR, relabeling) build their results from
    valid graphs through _trusted without re-checking, since XOR, Kronecker
    products and relabeling keep a matrix symmetric with a zero diagonal;
    new_graph and graph6_decode check their own input instead. So equality,
    XOR and neighborhood tests on any Graph are word-wise integer operations.

    A builder that already knows one of a graph's encodings hands it to
    _trusted; census hands each member four. The edge count: edge_count counts
    the row bits on first use and keeps the result, so each graph is counted
    at most once, and a member is never counted. _graph6, the graph6 bit field
    in the encoder's layout (6-bit group k at byte k), which graph6_encode then
    writes as it is and never sets. _block_read, below. And the rows
    themselves, packed in one int in _row_layout's layout: the member is then
    a _PackedGraph, which unpacks them on the first read of rows and keeps
    the tuple, so a consumer that never reads them never unpacks them.

    _block_read is what is known of the graph's blocks at one grid shape.
    membership._pair_rows reads it and, past construction, is its one
    writer; membership._holds_read only asks whether it holds a shape. census hands each member (p, q, pairs, shifts, mask): its
    pair matrix on the p x q grid as one int, row r at bit shifts[r] under
    mask. The first read of any other graph, or of a member at another
    shape, stores (p, q, result): the pair matrix of a labeled member, True
    when every cross has its partner but an edge lies within a grid row or
    column, or False when a cross lacks its partner. A read at another shape
    replaces either, so a member asked at another shape and then at its own
    is read off its rows there. No private slot enters equality, hashing or
    repr.
    """

    __slots__ = ("n", "rows", "_edge_count", "_graph6", "_block_read")

    def __init__(self, n: int, rows: Sequence[int]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u, row in enumerate(rows):
            m = row
            while m:
                v = (m & -m).bit_length() - 1
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
                m &= m - 1
        self.n = n
        self.rows = rows
        self._edge_count = None
        self._graph6 = None
        self._block_read = None

    @classmethod
    def _trusted(
        cls,
        n: int,
        rows: Iterable[int],
        edge_count: int | None = None,
        graph6: int | None = None,
        block_read: tuple[int, int, int, tuple[int, ...], int] | None = None,
        packed: int | None = None,
    ) -> Graph:
        """Wrap n rows already known to be in range, symmetric and loop-free.

        edge_count, when given, must be the graph's edge count; it is kept
        instead of counted. graph6, when given, must be the graph's graph6 bit
        field with pair (i, j), i < j, at int bit _g6_bit(i, j); graph6_encode
        writes it instead of packing the rows. block_read, when given, must be
        (p, q, pairs, shifts, mask) for a labeled member of the p x q grid,
        pairs its pair matrix with row r at bit shifts[r] and mask covering
        one row; membership._pair_rows cuts it into rows at that grid instead
        of reading the adjacency rows. packed, when given, must be the rows
        packed in one int in _row_layout(n)'s layout; rows is then ignored, and
        the graph is a _PackedGraph that unpacks packed when rows is first read.
        """
        g = object.__new__(cls if packed is None else _PackedGraph)
        g.n = n
        if packed is None:
            g.rows = tuple(rows)
        else:
            g._packed = packed
        g._edge_count = edge_count
        g._graph6 = graph6
        g._block_read = block_read
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    @property
    def edge_count(self) -> int:
        count = self._edge_count
        if count is None:
            count = self._edge_count = sum(map(int.bit_count, self.rows)) >> 1
        return count

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            while m:
                yield (u, u + 1 + ((m & -m).bit_length() - 1))
                m &= m - 1

    def relabel(self, perm: Sequence[int]) -> Graph:
        """Return the graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        rows = [0] * self.n
        for u, v in self.edges():
            a, b = perm[u], perm[v]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return Graph._trusted(self.n, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


class _PackedGraph(Graph):
    """A graph from Graph._trusted(..., packed=...), its rows packed in one int until first read.

    _packed holds that int until rows is first read, and from then on the
    tuple that _row_layout unpacked it into, so later reads return that same
    tuple; Graph's own rows slot stays empty. Graph itself keeps rows a plain
    slot, so attribute loads on every other graph stay as cheap. The property
    can be set too, since copy and pickle restore every slot by name.
    """

    __slots__ = ("_packed",)

    @property
    def rows(self) -> tuple[int, ...]:
        rows = self._packed
        if type(rows) is int:
            rows = self._packed = _row_layout(self.n)[1](rows)
        return rows

    @rows.setter
    def rows(self, rows: tuple[int, ...]) -> None:
        self._packed = rows


def new_graph(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    rows = [0] * n
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop pair ({u}, {v}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._trusted(n, rows)


def standard_graph(kind: str, n: int) -> Graph:
    """Named graph on vertices 0..n-1 with consecutive labeling.

    kind is one of "complete", "path", "cycle", "edgeless"; cycles need n >= 3.
    """
    if kind not in STANDARD_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {STANDARD_KINDS}")
    if n < 1:
        raise ValueError(f"standard graphs need n >= 1, got {n}")
    if kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        edges = [(v, (v + 1) % n) for v in range(n)]
    else:
        edges = []
    return new_graph(n, edges)


def _spread_steps(segments: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Masked shifts that move each bit segment (mask, start, delta) up by delta.

    Step b moves the segments whose delta has bit b by 1 << b, highest b first.
    The deltas must not decrease along the segments, so no two bits ever meet.
    """
    top = max((delta for _, _, delta in segments), default=0)
    return [
        (sum(mask << start + (delta & -2 << b) for mask, start, delta in segments if delta >> b & 1), 1 << b)
        for b in reversed(range(top.bit_length()))
    ]


def _spread(bits: int, steps: list[tuple[int, int]]) -> int:
    """Apply the moves of _spread_steps to bits."""
    for mask, shift in steps:
        moved = bits & mask
        bits ^= moved ^ moved << shift
    return bits


def _gather(bits: int, steps: list[tuple[int, int]]) -> int:
    """Undo _spread(bits, steps)."""
    for mask, shift in reversed(steps):
        moved = bits & mask << shift
        bits ^= moved ^ moved >> shift
    return bits


@lru_cache(maxsize=64)
def _row_layout(n: int) -> tuple[int, Callable[[int], tuple[int, ...]]]:
    """(width, unpack) for n adjacency rows packed in one int, row w at bit w*width.

    Up to 64 vertices width is the least of 8, 16, 32 and 64 bits that holds
    n, and unpack reads the int's bytes with one struct call; past 64 it is a
    whole number of bytes, and unpack cuts one byte slice per row. Both
    return the rows as a tuple of ints.
    """
    if n <= 64:
        width = max(8, 1 << max(n - 1, 0).bit_length())
        size, words = n * width // 8, Struct(f"<{n}{'BHIQ'[(width // 8).bit_length() - 1]}").unpack

        def unpack(bits: int) -> tuple[int, ...]:
            return words(bits.to_bytes(size, "little"))
    else:
        step = -(-n // 8)
        width, size, starts = 8 * step, n * step, range(0, n * step, step)

        def unpack(bits: int) -> tuple[int, ...]:
            data = bits.to_bytes(size, "little")
            return tuple([int.from_bytes(data[a:a + step], "little") for a in starts])
    return width, unpack


@lru_cache(maxsize=64)  # every order the short form takes, 0..62
def _g6_layout(n: int) -> tuple:
    """Tables of the order-n graph6 codec.

    masks[j] and offs[j] cut column j of the field, the low j bits of row j, to
    offset j(j-1)/2; groups spreads 6-bit group k to bit 8k. The decoder holds
    the matrix as one int, entry (r, c) at bit r*width + c: columns spreads the
    field into its lower triangle, swaps transposes it by delta swaps, one per
    bit of an index, and rows, _row_layout's unpack, cuts it into rows.
    """
    masks = [(1 << j) - 1 for j in range(n)]
    offs = [j * (j - 1) // 2 for j in range(n)]
    ngroups = (n * (n - 1) // 2 + 5) // 6
    groups = _spread_steps([(63, 6 * k, 2 * k) for k in range(ngroups)])
    width, rows = _row_layout(n)
    columns = _spread_steps([(mask, off, j * width - off) for j, (mask, off) in enumerate(zip(masks, offs))])
    swaps = []
    for b in range(width.bit_length() - 1):
        lane = sum(1 << c for c in range(width) if c >> b & 1)
        swaps.append((sum(lane << r * width for r in range(width) if not r >> b & 1), (width - 1) << b))
    return masks, offs, ngroups, groups, columns, swaps, rows


def _g6_bit(i: int, j: int) -> int:
    """Int bit of pair (i, j), i < j, in the spread field: field bit b = j(j-1)/2 + i at 8(b // 6) + b % 6."""
    b = j * (j - 1) // 2 + i
    return 8 * (b // 6) + b % 6


def graph6_encode(g: Graph) -> str:
    """Encode in graph6 short form (n <= 62).

    Writes the field a census member carries as it is. Any other graph has its
    triangle packed in one C-level sum and its 6-bit groups spread to bytes in
    log2(groups) masked shifts. Every character comes out of one translate.
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form handles n <= {GRAPH6_MAX_N}, got {n}")
    field = g._graph6
    if field is None:
        masks, offs, _, groups, _, _, _ = _g6_layout(n)
        field = _spread(sum(map(lshift, map(and_, g.rows, masks), offs)), groups)
    return chr(n + 63) + field.to_bytes((n * (n - 1) // 2 + 5) // 6, "little").translate(_G6_OUT).decode()


def graph6_decode(s: str) -> Graph:
    """Decode a graph6 short-form string; optional '>>graph6<<' header allowed.

    Runs the encoder's tables backwards into the strictly lower triangle, ORs
    in its word-level transpose and unpacks the rows with one struct call.
    """
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise ValueError("empty graph6 string")
    bad = s.translate(_G6_DROP_PRINTABLE)
    if bad:
        raise ValueError(f"graph6 character {bad[0]!r} outside printable range 63..126")
    if ord(s[0]) == 126:
        raise ValueError("long-form graph6 (n >= 63) is not supported")
    n = ord(s[0]) - 63
    _, _, need, groups, columns, swaps, rows = _g6_layout(n)
    body = s[1:]
    if len(body) < need:
        raise ValueError(f"truncated graph6 bit field: need {need} characters, got {len(body)}")
    if len(body) > need:
        raise ValueError(f"trailing data after graph6 bit field ({len(body) - need} extra characters)")
    field = _gather(int.from_bytes(body.encode().translate(_G6_IN), "little"), groups)
    lower = matrix = _spread(field & ((1 << n * (n - 1) // 2) - 1), columns)  # padding bits dropped
    for mask, distance in swaps:
        moved = (matrix ^ matrix >> distance) & mask
        matrix ^= moved ^ moved << distance
    return Graph._trusted(n, rows(matrix | lower))


def format_edge_list(g: Graph) -> str:
    """Plain text format: first line n, then one '0'-indexed 'u v' line per edge."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"edge-list header must be a vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return new_graph(n, edges)
