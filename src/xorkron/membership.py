"""Labeled membership tests for XOR-of-tensor-product graphs, with certificates.

A graph on p*q vertices belongs to the class exactly when, under the grid
labeling v = i*q + j, every edge joins cells in distinct rows and distinct
columns and the opposite corners of its grid rectangle are also joined. Such
graphs decompose into two-edge "cross" summands, one per edge rectangle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .algebra import tensor_elementary, two_sum
from .graphs import Graph, graph6_decode, graph6_encode

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
    """Factor sizes (p, q) of a p x q grid; both must be at least 2."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 2 or self.q < 2:
            raise ValueError(f"grid shape needs p, q >= 2, got ({self.p}, {self.q})")

    def __iter__(self) -> Iterator[int]:
        yield self.p
        yield self.q

    @property
    def order(self) -> int:
        return self.p * self.q

    @property
    def edge_bound(self) -> int:
        """Largest edge count any member graph of this shape can have."""
        return 2 * (self.p * (self.p - 1) // 2) * (self.q * (self.q - 1) // 2)


@dataclass(frozen=True)
class GridLabeling:
    """Assignment of each vertex v to a grid cell cells[v] = (row, col)."""

    shape: GridShape
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        p, q = self.shape
        if len(self.cells) != p * q:
            raise ValueError(f"labeling covers {len(self.cells)} vertices, grid has {p * q}")
        if len(set(self.cells)) != p * q:
            raise ValueError("labeling repeats a grid cell")
        for v, (i, j) in enumerate(self.cells):
            if not (0 <= i < p and 0 <= j < q):
                raise ValueError(f"vertex {v} mapped to cell ({i}, {j}) outside the grid")

    def grid_index(self, v: int) -> int:
        i, j = self.cells[v]
        return i * self.shape.q + j

    def permutation(self) -> tuple[int, ...]:
        """perm[v] = grid index of v; relabeling by it puts v at its cell."""
        return tuple(self.grid_index(v) for v in range(len(self.cells)))

    @staticmethod
    def identity(shape: GridShape) -> GridLabeling:
        p, q = shape
        return GridLabeling(shape, tuple((v // q, v % q) for v in range(p * q)))


@dataclass(frozen=True)
class Witness:
    """Reason a graph was rejected, with the offending edge when one exists."""

    reason: str
    edge: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.reason not in _ALL_REASONS:
            raise ValueError(f"unknown witness reason {self.reason!r}")


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
        out: dict = {
            "verdict": "member" if self.verdict else "non-member",
            "shape": [self.shape.p, self.shape.q],
            "graph6": graph6_encode(self.graph),
        }
        if self.labeling is not None:
            out["labeling"] = [list(cell) for cell in self.labeling.cells]
        if self.summands is not None:
            out["summands"] = [list(s) for s in self.summands]
        if self.witness is not None:
            out["witness"] = {"reason": self.witness.reason}
            if self.witness.edge is not None:
                out["witness"]["edge"] = list(self.witness.edge)
        if self.empty_decomposition:
            out["empty_decomposition"] = True
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_dict(data: dict) -> Certificate:
        """Rebuild a certificate; raises ValueError on a mistyped or missized field."""
        verdict = data["verdict"]
        if verdict not in ("member", "non-member"):
            raise ValueError(f"verdict must be 'member' or 'non-member', got {verdict!r}")
        shape = GridShape(*_int_tuple(data["shape"], 2, "shape"))
        if not isinstance(data["graph6"], str):
            raise ValueError("graph6 must be a string")
        graph = graph6_decode(data["graph6"])
        labeling = None
        if "labeling" in data:
            cells = _list_of(data["labeling"], "labeling")
            labeling = GridLabeling(shape, tuple(_int_tuple(c, 2, "labeling cell") for c in cells))
        summands = None
        if "summands" in data:
            summands = tuple(_int_tuple(s, 4, "summand") for s in _list_of(data["summands"], "summands"))
            for s in summands:
                problem = _summand_problem(s, shape)
                if problem:
                    raise ValueError(problem)
        witness = None
        if "witness" in data:
            w = data["witness"]
            if not isinstance(w, dict):
                raise ValueError("witness must be an object")
            edge = _int_tuple(w["edge"], 2, "witness edge") if "edge" in w else None
            witness = Witness(w["reason"], edge)
        return Certificate(
            verdict == "member",
            shape,
            graph,
            labeling=labeling,
            summands=summands,
            witness=witness,
            empty_decomposition=bool(data.get("empty_decomposition", False)),
        )

    @staticmethod
    def from_json(text: str) -> Certificate:
        return Certificate.from_dict(json.loads(text))


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


def find_violation(k: Graph, shape: GridShape) -> Witness | None:
    """First edge (sorted order) breaking the cross condition, or None.

    Same-row and same-column edges are reported before missing cross partners
    so the witness names the most local defect available.
    """
    p, q = shape
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, grid needs {p * q}")
    for u, v in k.edges():
        if u // q == v // q or u % q == v % q:
            return Witness(REASON_SAME_LINE, (u, v))
    for u, v in k.edges():
        i, j = u // q, u % q
        i2, j2 = v // q, v % q
        if not k.has_edge(i * q + j2, i2 * q + j):
            return Witness(REASON_MISSING_PARTNER, (u, v))
    return None


def is_spanning_cross_like(k: Graph, shape: GridShape) -> Certificate:
    """Decide labeled membership for k under the identity grid labeling."""
    w = find_violation(k, shape)
    if w is not None:
        return Certificate(False, shape, k, witness=w)
    quads = elementary_decomposition(k, shape)
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
    p, q = shape
    w = find_violation(k, shape)
    if w is not None:
        raise ValueError(f"not a labeled member: {w.reason} at edge {w.edge}")
    quads = set()
    for u, v in k.edges():
        i, j = u // q, u % q
        i2, j2 = v // q, v % q
        if i > i2:
            i, j, i2, j2 = i2, j2, i, j
        if j > j2:
            j, j2 = j2, j
        quads.add((i, i2, j, j2))
    return tuple(sorted(quads))


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
    p, q = shape
    return tuple(
        (i, i2, j, j2)
        for i, i2 in combinations(range(p), 2)
        for j, j2 in combinations(range(q), 2)
    )


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
    """
    quads = pair_quadruples(shape)
    m = len(quads)
    for c in range(1 << m):
        chosen = [quads[t] for t in range(m) if (c >> (m - 1 - t)) & 1]
        yield graph_from_quadruples(shape, chosen)


def verify_certificate(cert: Certificate) -> list[str]:
    """Independently recheck a certificate; return a list of problems found.

    An empty list means the certificate is internally consistent and its
    verdict matches a recomputation from the graph it embeds.
    """
    problems: list[str] = []
    k = cert.graph
    shape = cert.shape
    if k.n != shape.order:
        return [f"graph has {k.n} vertices but shape ({shape.p}, {shape.q}) needs {shape.order}"]
    if cert.verdict:
        if cert.labeling is None:
            problems.append("member certificate is missing its labeling")
            return problems
        if cert.labeling.shape != shape:
            problems.append("labeling shape disagrees with certificate shape")
            return problems
        relabeled = k.relabel(cert.labeling.permutation())
        w = find_violation(relabeled, shape)
        if w is not None:
            problems.append(
                f"labeling does not make the graph cross-like: {w.reason} at edge {w.edge}"
            )
            return problems
        if cert.summands is None:
            problems.append("member certificate is missing its summand list")
        else:
            expect = elementary_decomposition(relabeled, shape)
            if tuple(cert.summands) != expect:
                problems.append("summand list does not match the relabeled graph")
            outside = [pb for pb in (_summand_problem(s, shape) for s in cert.summands) if pb]
            problems.extend(outside)
            if not outside and graph_from_quadruples(shape, cert.summands) != relabeled:
                problems.append("summands do not XOR back to the relabeled graph")
        if cert.empty_decomposition != (k.edge_count == 0):
            problems.append("empty_decomposition flag disagrees with the edge count")
    else:
        if cert.witness is None:
            problems.append("non-member certificate is missing its witness")
            return problems
        w = cert.witness
        if w.reason == REASON_ODD_EDGES:
            if k.edge_count % 2 == 0:
                problems.append("odd-edge-count witness but the edge count is even")
        elif w.reason == REASON_EDGE_BOUND:
            if k.edge_count <= shape.edge_bound:
                problems.append("edge-bound witness but the bound is not exceeded")
        elif w.reason in (REASON_SAME_LINE, REASON_MISSING_PARTNER):
            if w.edge is None:
                problems.append(f"{w.reason} witness needs an edge")
            else:
                u, v = w.edge
                if not (0 <= u < k.n and 0 <= v < k.n) or not k.has_edge(u, v):
                    problems.append(f"witness edge ({u}, {v}) is not an edge of the graph")
                else:
                    q = shape.q
                    if w.reason == REASON_SAME_LINE:
                        if u // q != v // q and u % q != v % q:
                            problems.append(
                                f"witness edge ({u}, {v}) joins distinct rows and columns"
                            )
                    else:
                        i, j = u // q, u % q
                        i2, j2 = v // q, v % q
                        if i == i2 or j == j2:
                            problems.append(
                                f"witness edge ({u}, {v}) is collinear, not a missing-partner case"
                            )
                        elif k.has_edge(i * q + j2, i2 * q + j):
                            problems.append(f"cross partner of witness edge ({u}, {v}) is present")
        elif w.reason == REASON_NO_PARTITION:
            from .recognition import has_independent_row_partition

            if k.n == shape.order and has_independent_row_partition(k, shape):
                problems.append("no-partition witness but an independent row partition exists")
        elif w.reason == REASON_SEARCH_EXHAUSTED:
            from .recognition import valid_labelings

            if next(valid_labelings(k, shape), None) is not None:
                problems.append("search-exhausted witness but a full search finds a valid labeling")
    return problems
