"""Labeled membership, decomposition, census, and certificate validation.

Core claims covered here:
    - verdicts agree with an independent loop-based reimplementation
    - the pair read-off gives the witnesses, certificates, summands and pair
      matrices of the per-edge walk in tests/helpers.py
    - decomposition and XOR recombination are mutually inverse
    - the labeled census at (2,2) is exactly the set passing the verdict,
      over all 64 labeled 4-vertex graphs
    - exactly one (3,3) census graph attains the edge bound, the full product
    - certificates round-trip through JSON and detect tampering
"""

from __future__ import annotations

import copy
import json
import pickle
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations, islice
from typing import Iterator

import pytest

from xorkron import (
    Certificate,
    Graph,
    GridLabeling,
    GridShape,
    Witness,
    census,
    edge_bound_check,
    elementary_decomposition,
    graph6_decode,
    graph6_encode,
    graph_from_quadruples,
    is_spanning_cross_like,
    new_graph,
    pair_matrix,
    pair_quadruples,
    ppt_test,
    recognize,
    standard_graph,
    t2_exact,
    tensor_product,
    two_sum,
    valid_labelings,
    verify_certificate,
)
from xorkron import graphs, membership
from xorkron.membership import (
    REASON_EDGE_BOUND,
    REASON_MISSING_PARTNER,
    REASON_NO_PARTITION,
    REASON_ODD_EDGES,
    REASON_SAME_LINE,
    REASON_SEARCH_EXHAUSTED,
    find_violation,
)
from xorkron.graphs import GRAPH6_MAX_N

from .helpers import (
    every_graph,
    naive_cross_like,
    random_graph,
    reference_pair_matrix,
    reference_summands,
    reference_verify_certificate,
    reference_violation,
)


def _complete_product(p: int, q: int):
    return tensor_product(standard_graph("complete", p), standard_graph("complete", q))


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridShape(1, 3)
    with pytest.raises(ValueError):
        GridShape(2, 1)
    shape = GridShape(3, 4)
    assert tuple(shape) == (3, 4)
    assert shape.order == 12
    assert shape.edge_bound == 2 * 3 * 6


def test_grid_labeling_validation():
    shape = GridShape(2, 2)
    identity = GridLabeling.identity(shape)
    assert identity.permutation() == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        GridLabeling(shape, ((0, 0), (0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        GridLabeling(shape, ((0, 0), (0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GridLabeling(shape, ((0, 0), (0, 1), (1, 0), (1, 2)))


def test_witness_rejects_unknown_reason():
    with pytest.raises(ValueError):
        Witness("bad-reason")


def test_complete_products_are_members():
    for p in (2, 3, 4):
        for q in (2, 3, 4):
            k = _complete_product(p, q)
            cert = is_spanning_cross_like(k, GridShape(p, q))
            assert cert.verdict
            assert naive_cross_like(k, p, q)


def test_path_in_listed_order_is_rejected_inside_a_row():
    # path visiting vertices 3, 0, 1, 2 in order
    k = new_graph(4, [(3, 0), (0, 1), (1, 2)])
    cert = is_spanning_cross_like(k, GridShape(2, 2))
    assert not cert.verdict
    assert cert.witness == Witness(REASON_SAME_LINE, (0, 1))


def test_missing_partner_witness():
    k = new_graph(4, [(0, 3)])
    w = find_violation(k, GridShape(2, 2))
    assert w == Witness(REASON_MISSING_PARTNER, (0, 3))


def test_same_line_witness_beats_an_earlier_missing_partner():
    # (0, 3) comes first and lacks its partner (1, 2); (2, 3) lies inside row 1
    k = new_graph(4, [(0, 3), (2, 3)])
    assert find_violation(k, GridShape(2, 2)) == Witness(REASON_SAME_LINE, (2, 3))


def test_wrong_vertex_count_raises():
    with pytest.raises(ValueError):
        is_spanning_cross_like(standard_graph("edgeless", 5), GridShape(2, 2))


def test_elementary_decomposition_examples():
    shape22 = GridShape(2, 2)
    assert elementary_decomposition(_complete_product(2, 2), shape22) == ((0, 1, 0, 1),)
    assert elementary_decomposition(standard_graph("edgeless", 4), shape22) == ()
    shape33 = GridShape(3, 3)
    quads = elementary_decomposition(_complete_product(3, 3), shape33)
    assert quads == tuple(
        (i, i2, j, j2) for i, i2 in combinations(range(3), 2) for j, j2 in combinations(range(3), 2)
    )
    assert len(quads) == 9


def test_decomposition_rejects_non_member():
    with pytest.raises(ValueError):
        elementary_decomposition(standard_graph("path", 4), GridShape(2, 2))


def test_decomposition_roundtrip_on_census():
    shape = GridShape(2, 3)
    for k in census(shape):
        quads = elementary_decomposition(k, shape)
        assert graph_from_quadruples(shape, quads) == k
        assert k.edge_count == 2 * len(quads)


def test_decomposition_roundtrip_on_random_big_shape():
    shape = GridShape(3, 4)
    all_quads = pair_quadruples(shape)
    rng = random.Random(53)
    for _ in range(40):
        chosen = [quad for quad in all_quads if rng.random() < 0.4]
        k = graph_from_quadruples(shape, chosen)
        assert elementary_decomposition(k, shape) == tuple(sorted(chosen))


def test_edge_bound_check():
    assert edge_bound_check(_complete_product(4, 3), GridShape(4, 3)) == (36, True)
    assert edge_bound_check(_complete_product(2, 2), GridShape(2, 2)) == (2, True)
    assert edge_bound_check(standard_graph("edgeless", 4), GridShape(2, 2)) == (2, False)
    with pytest.raises(ValueError):
        edge_bound_check(standard_graph("edgeless", 5), GridShape(2, 2))


def test_census_sizes():
    assert sum(1 for _ in census(GridShape(2, 2))) == 2
    assert sum(1 for _ in census(GridShape(2, 3))) == 8


def _census_member(shape: GridShape, c: int):
    """Census member number c by its definition: bit m-1-t of c selects quadruple t."""
    quads = pair_quadruples(shape)
    m = len(quads)
    return graph_from_quadruples(shape, [quads[t] for t in range(m) if c >> (m - 1 - t) & 1])


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
def test_census_equals_its_definition(p, q):
    shape = GridShape(p, q)
    m = len(pair_quadruples(shape))
    assert list(census(shape)) == [_census_member(shape, c) for c in range(2**m)]


@pytest.mark.parametrize("p, q", [(2, 6), (3, 4)])
def test_census_equals_its_definition_at_sampled_indices(p, q):
    shape = GridShape(p, q)
    m = len(pair_quadruples(shape))
    picks = set(random.Random(f"census {p}x{q}").sample(range(2**m), 300))
    count = 0
    for c, k in enumerate(census(shape)):
        if c in picks:
            assert k == _census_member(shape, c)
        count += 1
    assert count == 2**m


@pytest.mark.parametrize("p, q", [(2, 4), (3, 3)])
def test_census_members_are_independent_snapshots(p, q):
    shape = GridShape(p, q)
    m = len(pair_quadruples(shape))
    assert len(set(census(shape))) == 2**m
    members = census(shape)
    early = [next(members) for _ in range(6)]
    assert sum(1 for _ in members) == 2**m - 6
    assert early == [_census_member(shape, c) for c in range(6)]


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_census_members_carry_their_edge_count(p, q):
    # census hands each member its count, two edges per cross, instead of counting its rows.
    for k in census(GridShape(p, q)):
        assert k.edge_count == sum(map(int.bit_count, k.rows)) // 2


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 3), (2, 4), (2, 6)])
def test_census_members_carry_their_graph6_field(p, q):
    # graph6_encode writes the carried field; a copy without it is packed from its rows.
    for k in census(GridShape(p, q)):
        assert k._graph6 is not None
        assert graph6_encode(k) == graph6_encode(Graph(k.n, k.rows))


def test_census_members_carry_their_graph6_field_at_sampled_3_4_indices():
    shape = GridShape(3, 4)
    picks = set(random.Random("census graph6 3x4").sample(range(2**18), 2000))
    for c, k in enumerate(census(shape)):
        if c in picks:
            assert graph6_encode(k) == graph6_encode(Graph(k.n, k.rows))


def test_census_members_keep_their_graph6_field_after_the_generator_runs_on():
    shape = GridShape(2, 6)
    members = census(shape)
    early = [next(members) for _ in range(6)]
    assert sum(1 for _ in members) == 2**15 - 6
    assert [graph6_encode(k) for k in early] == [graph6_encode(_census_member(shape, c)) for c in range(6)]


def _answer(f, k: Graph, shape: GridShape):
    """f(k, shape), or the text of the ValueError it raises."""
    try:
        return f(k, shape)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _ppt_test_at(k: Graph, shape: GridShape) -> bool:
    return ppt_test(k, shape.p)


def _assert_carried_pair_matrix_is_read(k: Graph, shapes: list[GridShape]) -> None:
    """The block-reading deciders answer on k at each shape as on its slot-free copy."""
    copy = Graph(k.n, k.rows)
    assert len(k._block_read) == 5 and copy._block_read is None  # census hands over (p, q, pairs, shifts, mask)
    for shape in shapes:
        for f in (pair_matrix, t2_exact, is_spanning_cross_like, find_violation, _ppt_test_at):
            assert _answer(f, k, shape) == _answer(f, copy, shape), (f.__name__, shape, k)


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 3), (2, 4), (2, 6)])
def test_census_members_carry_their_pair_matrix(p, q):
    # _pair_rows cuts the carried matrix into rows; a copy without it has them read off its adjacency rows.
    shape = GridShape(p, q)
    for k in census(shape):
        _assert_carried_pair_matrix_is_read(k, [shape])


@pytest.mark.parametrize("p, q", [(3, 4), (4, 3)])
def test_census_members_carry_their_pair_matrix_for_their_own_shape_only(p, q):
    # asked at another shape, on the same 12 vertices or with the same p or q, a member is read off its rows;
    # that read replaces the carried matrix, so back at its own shape the member is read off its rows too
    shape = GridShape(p, q)
    others = [GridShape(a, b) for a, b in [(3, 4), (4, 3), (2, 6), (6, 2), (3, 3), (4, 4)] if (a, b) != (p, q)]
    picks = set(random.Random(f"census pair matrix {p}x{q}").sample(range(2**18), 2000))
    for c, k in enumerate(census(shape)):
        if c in picks:
            _assert_carried_pair_matrix_is_read(k, [shape, *others, shape])
            assert k._block_read[:2] == (p, q) and len(k._block_read) == 3


def test_census_members_answer_ppt_test_from_their_carried_matrix(monkeypatch):
    # (10, 2) is tall, where ppt_test transposes a graph it holds no read of; member 0 carries the int 0,
    # which must read as an all-zero matrix and never as False
    from xorkron import transpose

    def unread(*args):
        raise AssertionError("the blocks were read")

    runs = [(GridShape(p, q), census(GridShape(p, q))) for p, q in ((2, 2), (3, 3), (2, 6))]
    runs.append((GridShape(10, 2), islice(census(GridShape(10, 2)), 64)))
    counts = []
    with monkeypatch.context() as m:
        m.setattr(membership, "_columns", unread)
        m.setattr(transpose, "partial_transpose", unread)
        for shape, members in runs:
            counts.append(0)
            for c, k in enumerate(members):
                if c == 0:
                    assert k._block_read[2] == 0
                    assert pair_matrix(k, shape) == (0,) * (shape.p * (shape.p - 1) // 2)
                assert ppt_test(k, shape.p) is True, (shape, c)
                counts[-1] += 1
    assert counts == [2, 2**9, 2**15, 64]


def _edge_count_of(k: Graph, shape: GridShape) -> int:
    return k.edge_count


def _graph6_of(k: Graph, shape: GridShape) -> str:
    return graph6_encode(k)


def test_census_members_keep_their_rows_packed_until_read(monkeypatch):
    # a member carries its edge count, graph6 field and pair matrix, so these answer without unpacking its rows;
    # (2,33) has 66 vertices, past the struct widths, where graph6_encode refuses before it reads anything
    def unpacked(packed):
        raise AssertionError("the rows were unpacked")

    def layout(n):
        return row_layout(n)[0], unpacked

    row_layout = graphs._row_layout

    readers = (_graph6_of, t2_exact, pair_matrix, _edge_count_of, edge_bound_check, _ppt_test_at)
    runs = [(GridShape(p, q), census(GridShape(p, q))) for p, q in ((2, 2), (2, 3), (3, 3), (2, 6))]
    runs.append((GridShape(2, 33), islice(census(GridShape(2, 33)), 64)))
    members = []
    with monkeypatch.context() as m:
        m.setattr(graphs, "_row_layout", layout)
        m.setattr(membership, "_row_layout", layout)
        for shape, run in runs:
            for k in run:
                for f in readers:
                    _answer(f, k, shape)
                members.append((shape, k))
    assert len(members) == 2 + 2**3 + 2**9 + 2**15 + 64
    c = 0
    for at, (shape, k) in enumerate(members):
        c = 0 if at == 0 or shape != members[at - 1][0] else c + 1
        rows = k.rows
        assert type(rows) is tuple and all(type(row) is int for row in rows)
        assert rows == _census_member(shape, c).rows, (shape, c)
        assert k.rows is rows


def _pickled(k: Graph) -> Graph:
    return pickle.loads(pickle.dumps(k))


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("p, q, count", [(2, 3, 8), (3, 3, 64), (3, 4, 64), (2, 33, 16)])
def test_census_members_survive_copy_and_pickle(p, q, count, dup):
    # the first duplicate is made of a member whose rows were never read, the second of the same member after
    shape = GridShape(p, q)
    for c, k in enumerate(islice(census(shape), count)):
        for other in (dup(k), dup(k)):
            assert other == k and hash(other) == hash(k) and other.rows == k.rows
            assert other == _census_member(shape, c) and other.edge_count == k.edge_count


def test_graph6_encode_of_a_census_member_past_62_vertices_still_raises():
    members = census(GridShape(9, 8))
    next(members)
    with pytest.raises(ValueError, match=f"n <= {GRAPH6_MAX_N}, got 72"):
        graph6_encode(next(members))


@pytest.mark.parametrize("p, q", [(9, 8), (5, 13)])
def test_census_past_64_vertices_starts_with_its_definition(p, q):
    # Rows wider than 64 bits are cut from the packed state by byte slices, not by one struct unpack.
    shape = GridShape(p, q)
    members = census(shape)
    early = [next(members) for _ in range(16)]
    assert early == [_census_member(shape, c) for c in range(16)]
    assert [k.edge_count for k in early] == [2 * c.bit_count() for c in range(16)]


def test_census_at_2_2_is_exactly_the_member_set():
    member_set = set(census(GridShape(2, 2)))
    assert len(member_set) == 2
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        k = new_graph(4, [pairs[t] for t in range(6) if (mask >> t) & 1])
        verdict = is_spanning_cross_like(k, GridShape(2, 2)).verdict
        assert verdict == (k in member_set)
        assert verdict == naive_cross_like(k, 2, 2)


def test_census_parity_and_bound_at_3_3():
    shape = GridShape(3, 3)
    attained = []
    for k in census(shape):
        assert k.edge_count % 2 == 0
        assert k.edge_count <= 18
        if k.edge_count == 18:
            attained.append(k)
    assert attained == [_complete_product(3, 3)]


def test_naive_agreement_on_random_graphs():
    rng = random.Random(59)
    shape = GridShape(3, 3)
    for _ in range(200):
        k = random_graph(rng, 9, density=rng.choice([0.1, 0.3, 0.5]))
        assert is_spanning_cross_like(k, shape).verdict == naive_cross_like(k, 3, 3)


def test_certificate_json_roundtrip():
    shape = GridShape(2, 2)
    member = is_spanning_cross_like(_complete_product(2, 2), shape)
    again = Certificate.from_json(member.to_json())
    assert again == member
    data = json.loads(member.to_json())
    assert data["verdict"] == "member"
    assert set(data) >= {"verdict", "shape", "graph6", "labeling", "summands"}

    reject = is_spanning_cross_like(new_graph(4, [(0, 1), (2, 3)]), shape)
    again = Certificate.from_json(reject.to_json())
    assert again == reject
    assert json.loads(reject.to_json())["witness"]["reason"] == REASON_SAME_LINE


def test_certificate_from_dict_rejects_bad_verdict():
    with pytest.raises(ValueError):
        Certificate.from_dict({"verdict": "maybe", "shape": [2, 2], "graph6": "C`"})


@pytest.mark.parametrize(
    "field, value",
    [
        ("graph6", 7),
        ("shape", ["2", 2]),
        ("shape", [2, 2, 2]),
        ("shape", [2, True]),
        ("labeling", [[0, 0], [0, 1], [1, 0], [1]]),
        ("labeling", [[0, 0], [0, 1], [1, 0], "11"]),
        ("summands", [["0", 1, 0, 1]]),
        ("summands", [[0, 1, 0]]),
        ("summands", [[0, 1, 0, 1.0]]),
        ("summands", {"0": [0, 1, 0, 1]}),
        ("summands", [[0, 5, 0, 1]]),
        ("summands", [[1, 0, 0, 1]]),
        ("summands", [[0, 1, 1, 1]]),
        ("summands", [[-1, 1, 0, 1]]),
        ("empty_decomposition", None),
        ("empty_decomposition", "yes"),
        ("empty_decomposition", 2),
    ],
)
def test_certificate_from_dict_rejects_mistyped_member_fields(field, value):
    data = json.loads(is_spanning_cross_like(_complete_product(2, 2), GridShape(2, 2)).to_json())
    with pytest.raises(ValueError):
        Certificate.from_dict({**data, field: value})


@pytest.mark.parametrize("edge", [[0], [0, 1, 2], [0, "1"], "01"])
def test_certificate_from_dict_rejects_mistyped_witness_edge(edge):
    data = json.loads(is_spanning_cross_like(new_graph(4, [(0, 1), (2, 3)]), GridShape(2, 2)).to_json())
    with pytest.raises(ValueError):
        Certificate.from_dict({**data, "witness": {**data["witness"], "edge": edge}})


def test_empty_decomposition_flag():
    cert = is_spanning_cross_like(standard_graph("edgeless", 4), GridShape(2, 2))
    assert cert.verdict and cert.summands == () and cert.empty_decomposition
    data = json.loads(cert.to_json())
    assert data["summands"] == [] and data["empty_decomposition"] is True
    assert Certificate.from_json(cert.to_json()) == cert


def _within_budget(f, *args):
    """f(*args), asserting it took under 1 s and a tracemalloc peak under 50 MB."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = f(*args)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0, f"{f.__name__} took {elapsed:.2f} s"
    assert peak < 50 * 2**20, f"{f.__name__} peaked at {peak / 2**20:.0f} MB"
    return value


def test_grid_geometry_of_a_large_shape_is_let_go():
    # a (2,520) search builds about 90 MB of grid geometry; eight small searches push it out of the cache
    membership._grid_geometry.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        membership._labeling_search(standard_graph("edgeless", 1040), GridShape(2, 520))
        for p, q in [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (4, 4), (2, 6)]:
            assert next(valid_labelings(standard_graph("edgeless", p * q), GridShape(p, q)))
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 10 * 2**20, f"{grown / 2**20:.0f} MB kept"


def test_identity_and_grid_cells_of_a_large_shape_are_let_go():
    # the identity labeling of (2,5000) and its cell set hold about 2 MB; 16 small shapes push them out
    caches = (GridLabeling.identity, membership._grid_cells)
    for cache in caches:
        cache.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        GridLabeling.identity(GridShape(2, 5000))
        for p in range(2, 6):
            for q in range(2, 6):
                GridLabeling.identity(GridShape(p, q))
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 2**20, f"{grown / 2**20:.1f} MB kept"


def test_the_block_reader_keeps_nothing_that_grows_with_p():
    # a table of the C(p,2)*(q-1) reads took about 6 MB at (40,40); the pair matrix of 100 crosses takes 0.1 MB
    shape = GridShape(40, 40)
    rng = random.Random("reader:40x40")
    quads: set[tuple[int, int, int, int]] = set()
    while len(quads) < 100:
        quads.add((*sorted(rng.sample(range(40), 2)), *sorted(rng.sample(range(40), 2))))
    k = graph_from_quadruples(shape, sorted(quads))
    # each call gets its own copy: a graph keeps its first read, which would leave the later two nothing to read
    for f, args in ((is_spanning_cross_like, (shape,)), (t2_exact, (shape,)), (ppt_test, (40,))):
        args = (Graph(k.n, k.rows), *args)
        membership._columns.cache_clear()
        tracemalloc.start()
        try:
            value = f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value not in (False, None), f.__name__
        assert peak < 2**20, f"{f.__name__} peaked at {peak / 2**20:.1f} MB"
    # the column terms are keyed by q alone: member, ppt and t2 reads at three heights share one entry
    membership._columns.cache_clear()
    is_spanning_cross_like(standard_graph("edgeless", 15), GridShape(3, 5))
    ppt_test(standard_graph("edgeless", 35), 7)
    t2_exact(standard_graph("edgeless", 200), GridShape(40, 5))
    assert membership._columns.cache_info().currsize == 1


def _stored_read_corpus():
    """Seeded members, each with a one-edge toggle and two same-line edges, at square, wide and tall shapes."""
    for p, q in ((3, 4), (4, 4), (2, 6), (10, 2), (11, 3)):
        for k in _seeded_members_toggled(GridShape(p, q), 4):
            yield k, GridShape(p, q)


def _answers(k: Graph, shape: GridShape) -> list:
    """What ppt_test, pair_matrix, t2_exact and find_violation say of k at shape, ValueError text included.

    ppt_test comes first, so on a graph read at no shape its read is the one
    the others answer from (on a tall grid it transposes and keeps nothing).
    Its answers are checked against the plain transpose here and, on random
    graphs at every divisor, in tests/test_transpose.py.
    """
    return [
        ppt_test(k, shape.p),
        _value_or_error(pair_matrix, k, shape),
        _value_or_error(t2_exact, k, shape),
        find_violation(k, shape),
    ]


def test_a_graph_reads_its_blocks_once_per_shape(monkeypatch):
    # after the member test, t2, the pair matrix, the witness and the ppt test answer from its stored read
    from xorkron import transpose

    def unread(*args):
        raise AssertionError("the blocks were read again")

    seen = Counter()
    for k, shape in _stored_read_corpus():
        want = _answers(Graph(k.n, k.rows), shape)
        assert want[0] == (transpose.partial_transpose(k.rows, shape.p) == k.rows)
        cert = is_spanning_cross_like(k, shape)
        seen[cert.witness.reason if cert.witness else "member"] += 1
        seen["tall"] += (shape.p - 1) * (shape.q - 1) > 2 * shape.q**2  # ppt_test's transpose branch
        with monkeypatch.context() as m:
            m.setattr(membership, "_columns", unread)
            m.setattr(transpose, "partial_transpose", unread)
            assert _answers(k, shape) == want
    assert seen.keys() == {"member", REASON_SAME_LINE, REASON_MISSING_PARTNER, "tall"}


def test_a_graph_read_at_one_shape_answers_at_every_other_as_a_fresh_one():
    for k, shape in _stored_read_corpus():
        copy = Graph(k.n, k.rows)
        before = (k == copy, hash(k) == hash(copy), repr(k) == repr(copy))
        is_spanning_cross_like(k, shape)
        divisors = [p for p in range(2, k.n // 2 + 1) if k.n % p == 0]
        for p in [*divisors, shape.p]:  # and back at the first shape, whose read the others replaced
            other = GridShape(p, k.n // p)
            want = _answers(Graph(k.n, k.rows), other)
            assert is_spanning_cross_like(k, other) == is_spanning_cross_like(Graph(k.n, k.rows), other)
            assert _answers(k, other) == want, (k, other)
        assert before == (k == copy, hash(k) == hash(copy), repr(k) == repr(copy)) == (True, True, True)


def test_members_at_a_wide_shape_are_decided_within_budget():
    # nothing of C(p,2)*C(q,2) size may be built: a table of the 12.5M crosses here took
    # 13 s and 2 GB, for the edgeless member and for one whose last cross sets the last bit
    shape = GridShape(2, 5000)
    edgeless = standard_graph("edgeless", 10000)
    quads = ((0, 1, 0, 4999), (0, 1, 4998, 4999))
    for k, summands, t2 in ((edgeless, (), 2), (graph_from_quadruples(shape, quads), quads, 1)):
        cert = _within_budget(is_spanning_cross_like, k, shape)
        assert cert.verdict and cert.summands == summands
        assert cert.empty_decomposition == (not summands)
        assert _within_budget(t2_exact, k, shape) == t2
        assert _within_budget(verify_certificate, cert) == []
    # the 2500 crosses (0, 1, j, j + 1), j even: growing the pair row term by term took 3-4 s here
    quads = tuple((0, 1, j, j + 1) for j in range(0, 5000, 2))
    k = new_graph(10000, [e for _, _, j, j2 in quads for e in ((j, 5000 + j2), (j2, 5000 + j))])
    cert = _within_budget(is_spanning_cross_like, k, shape)
    assert cert.verdict and cert.summands == quads
    assert _within_budget(t2_exact, k, shape) == 1


def test_a_member_of_many_crosses_at_a_wide_shape_is_verified_within_budget():
    # the decider's pair rows grow with each cross of a row pair: rerun on this member it took 5.4 s
    shape = GridShape(2, 5000)
    quads = tuple((0, 1, j, j + 1) for j in range(0, 5000, 2))
    k = new_graph(10000, [e for _, _, j, j2 in quads for e in ((j, 5000 + j2), (j2, 5000 + j))])
    cert = Certificate(True, shape, k, labeling=GridLabeling.identity(shape), summands=quads)
    start = time.perf_counter()
    assert verify_certificate(cert) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"verify_certificate took {elapsed:.2f} s"


def _writer_corpus() -> list[Certificate]:
    """Certificates of every kind to_json writes, from 4 to 62 vertices."""
    shapes = [GridShape(2, 2), GridShape(2, 3), GridShape(3, 3)]
    certs = [is_spanning_cross_like(k, shape) for shape in shapes for k in census(shape)]
    shape = GridShape(2, 2)
    certs += [
        is_spanning_cross_like(standard_graph("edgeless", 4), shape),
        is_spanning_cross_like(ONE_DIAGONAL, shape),  # witness with an edge
        recognize(new_graph(4, [(0, 3)]), shape),  # odd-edge-count: witness without one
        recognize(K4, shape),
        is_spanning_cross_like(graph6_decode("C\\"), shape),
    ]
    rng = random.Random(61)
    for p, q in ((2, 3), (3, 3), (3, 4)):
        k = tensor_product(random_graph(rng, p, 0.7), random_graph(rng, q, 0.7))
        perm = list(range(p * q))
        rng.shuffle(perm)
        certs.append(recognize(k.relabel(perm), GridShape(p, q)))
    # the reader's checked list, the same crosses by hand, and an out-of-order list read from JSON
    member = is_spanning_cross_like(_complete_product(3, 3), GridShape(3, 3))
    data = json.loads(member.to_json())
    data["summands"].reverse()
    certs += [Certificate.from_json(member.to_json()), replace(member, summands=tuple(member.summands))]
    certs.append(Certificate.from_dict(data))
    certs.append(is_spanning_cross_like(_complete_product(2, 31), GridShape(2, 31)))
    return certs


def test_certificate_writer_matches_the_indenting_json_encoder():
    certs = _writer_corpus()
    for cert in certs:
        assert cert.to_json() == json.dumps(cert.to_dict(), indent=2)
    # checked lists (the decider's and the reader's) and plain ones, one of them out of order, all took the writer
    kinds = Counter(type(c.summands) for c in certs if c.summands)
    assert kinds[membership._Crosses] >= 2 and kinds[tuple] >= 2, kinds
    assert any(c.summands and c.summands != tuple(sorted(c.summands)) for c in certs)
    labelings = [c.labeling for c in certs if c.labeling is not None]
    assert sum(lab != GridLabeling.identity(lab.shape) for lab in labelings) >= 3
    assert {c.witness.edge is None for c in certs if c.witness} == {True, False}
    assert any("\\" in graph6_encode(c.graph) for c in certs) and certs[-1].graph.n == GRAPH6_MAX_N
    # past 62 vertices graph6 fails, and so does the writer, with its message
    big = is_spanning_cross_like(standard_graph("edgeless", 63), GridShape(7, 9))
    with pytest.raises(ValueError, match=r"^graph6 short form handles n <= 62, got 63$"):
        big.to_json()


def test_certificate_reader_inverts_the_writer():
    for cert in _writer_corpus():
        assert Certificate.from_json(cert.to_json()) == cert


FIVE_CELLS = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]]  # a 2 x 3 labeling without its last cell


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("summands", [[0, 1, 0, 1], [0, 1, 0, True]], "summand must be 4 integers, got [0, 1, 0, True]"),
        ("summands", [[0, 1, 0, 1], [0, 1.0, 0, 2]], "summand must be 4 integers, got [0, 1.0, 0, 2]"),
        ("summands", [[0, 1, 0, 1], [0, 1, 0]], "summand must be 4 integers, got [0, 1, 0]"),
        ("summands", [[0, 1, 0, 1], "0101"], "summand must be a list"),
        (
            "summands",
            [[0, 1, 0, 1], [0, 1, 0, 3], [1, 0, 0, 1]],
            "summand [0, 1, 0, 3] is not a cross of the 2 x 3 grid",
        ),
        ("summands", [[0, 1, 0, 3], [0, 1, 0, True]], "summand must be 4 integers, got [0, 1, 0, True]"),
        ("labeling", FIVE_CELLS + [[1, True]], "labeling cell must be 2 integers, got [1, True]"),
        ("labeling", [[0, 1.0]] + FIVE_CELLS[1:] + [[1, 2]], "labeling cell must be 2 integers, got [0, 1.0]"),
        ("labeling", FIVE_CELLS + [[1, 2, 0]], "labeling cell must be 2 integers, got [1, 2, 0]"),
        ("labeling", FIVE_CELLS[:2] + ["02"] + FIVE_CELLS[3:] + [[1, 2]], "labeling cell must be a list"),
        ("labeling", FIVE_CELLS[:4] + [[2, 1], [1, 5]], "vertex 4 mapped to cell (2, 1) outside the grid"),
        ("labeling", FIVE_CELLS + [[1, 1]], "labeling repeats a grid cell"),
    ],
)
def test_certificate_reader_names_the_first_bad_entry(field, value, message):
    data = json.loads(is_spanning_cross_like(_complete_product(2, 3), GridShape(2, 3)).to_json())
    with pytest.raises(ValueError) as err:
        Certificate.from_dict({**data, field: value})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "certificate must be a JSON object"),
        ("x", "certificate must be a JSON object"),
        ({"shape": [2, 2], "graph6": "C?"}, "certificate has no 'verdict' field"),
        ({"verdict": "member", "graph6": "C?"}, "certificate has no 'shape' field"),
        ({"verdict": "member", "shape": [2, 2]}, "certificate has no 'graph6' field"),
        (
            {"verdict": "non-member", "shape": [2, 2], "graph6": "C?", "witness": {"edge": [0, 1]}},
            "witness has no 'reason' field",
        ),
    ],
)
def test_certificate_reader_names_a_missing_field(data, message):
    with pytest.raises(ValueError) as err:
        Certificate.from_dict(data)
    assert str(err.value) == message


def test_certificate_writer_falls_back_on_lists_it_cannot_template():
    # Certificate does not check its summands, so the writer must not assume one length or int entries
    base = is_spanning_cross_like(_complete_product(2, 2), GridShape(2, 2))
    for summands in (((0, 1), (0, 1, 0, 1)), ((0, 1, 0, 1), (0, 1)), ((0, 1, 0, True),), (("0", 1, 0, 1),)):
        cert = replace(base, summands=summands)
        assert cert.to_json() == json.dumps(cert.to_dict(), indent=2)


def test_certificate_writer_falls_back_on_empty_entries_and_a_float_shape():
    base = is_spanning_cross_like(_complete_product(2, 2), GridShape(2, 2))
    for cert in [replace(base, summands=s) for s in ((), ((),), ((), ()))] + [replace(base, shape=GridShape(2.0, 2))]:
        assert cert.to_json() == json.dumps(cert.to_dict(), indent=2)


def test_certificate_reader_builds_nothing_from_a_shape_the_graph_does_not_fill():
    # the shape is read before it meets the graph, so nothing of its size may be built
    data = {"verdict": "member", "shape": [2, 2], "graph6": "A_"}
    with pytest.raises(ValueError, match=r"^summand \[0, 1, 0, 3\] is not a cross of the 2 x 2 grid$"):
        Certificate.from_dict({**data, "summands": [[0, 1, 0, 3]]})
    data = {**data, "shape": [100000, 100000], "graph6": "C?"}
    cert = Certificate.from_dict({**data, "summands": []})
    assert verify_certificate(cert) == ["graph has 4 vertices but shape (100000, 100000) needs 10000000000"]
    with pytest.raises(ValueError, match=r"^labeling covers 0 vertices, grid has 10000000000$"):
        Certificate.from_dict({**data, "labeling": []})


def test_verify_certificate_checks_summands_one_by_one_only_when_they_differ(monkeypatch):
    # matching summands are the relabeled graph's own, so each is a cross of the grid
    shape = GridShape(3, 3)
    honest = is_spanning_cross_like(_complete_product(3, 3), shape)
    calls = []
    monkeypatch.setattr(membership, "_summand_problem", lambda s, sh: calls.append(s))
    assert verify_certificate(honest) == [] and calls == []
    moved = replace(honest, summands=honest.summands[1:] + ((0, 1, 0, 1),))
    assert verify_certificate(moved) == ["summand list does not match the relabeled graph"]
    assert len(calls) == len(honest.summands)


def test_verify_certificate_reruns_the_decider_only_to_word_a_failure(monkeypatch):
    # an honest member is checked by its XOR-back alone; a failing one reruns the decider, not the XOR-back
    shape = GridShape(3, 3)
    quads = pair_quadruples(shape)
    honest = is_spanning_cross_like(graph_from_quadruples(shape, quads[:-1]), shape)
    calls = Counter()
    for name in ("is_spanning_cross_like", "graph_from_quadruples"):
        original = getattr(membership, name)
        monkeypatch.setattr(membership, name, lambda *a, f=original, n=name: calls.update([n]) or f(*a))
    assert verify_certificate(honest) == []
    assert calls == {"graph_from_quadruples": 1}
    calls.clear()
    moved = replace(honest, summands=honest.summands[1:] + honest.summands[:1])
    assert verify_certificate(moved) == ["summand list does not match the relabeled graph"]
    assert calls == {"is_spanning_cross_like": 1, "graph_from_quadruples": 1}
    calls.clear()
    extra = replace(honest, summands=honest.summands + quads[-1:])  # still increasing, so XOR-ed once
    assert verify_certificate(extra) == [
        "summand list does not match the relabeled graph",
        "summands do not XOR back to the relabeled graph",
    ]
    assert calls == {"is_spanning_cross_like": 1, "graph_from_quadruples": 1}


def _honest_members() -> list[Certificate]:
    """Member certificates: the (2,2), (2,3) and (3,3) censuses, seeded (4,5) and (7,8) members under the
    identity and under a shuffled labeling, and recognize's members of permuted tensor products."""
    shapes = [GridShape(2, 2), GridShape(2, 3), GridShape(3, 3)]
    certs = [is_spanning_cross_like(k, shape) for shape in shapes for k in census(shape)]
    rng = random.Random(29)
    for p, q in ((4, 5), (7, 8)):
        shape = GridShape(p, q)
        for count in (0, 1, 7, 60):
            honest = is_spanning_cross_like(graph_from_quadruples(shape, rng.sample(pair_quadruples(shape), count)), shape)
            perm = list(range(p * q))
            rng.shuffle(perm)
            inverse = sorted(range(p * q), key=perm.__getitem__)
            # the labeling puts v at cell perm[v], and relabeling by perm turns graph back into the member
            labeling = GridLabeling(shape, tuple(divmod(t, q) for t in perm))
            certs += [honest, replace(honest, graph=honest.graph.relabel(inverse), labeling=labeling)]
    for p, q in ((2, 3), (3, 3), (3, 4), (3, 4)):
        k = tensor_product(random_graph(rng, p, 0.7), random_graph(rng, q, 0.7))
        perm = list(range(p * q))
        rng.shuffle(perm)
        certs.append(recognize(k.relabel(perm), GridShape(p, q)))
    return certs


def _mutations(cert: Certificate) -> Iterator[Certificate]:
    """cert, then each tampering of its summands, flag, witness or labeling."""
    shape, s = cert.shape, cert.summands
    p, q = shape
    tampered = [s, list(s), tuple(map(list, s))]
    outside = [(p - 2, p, 0, 1), (-1, 0, 0, 1), (0, 1, q - 2, q), (0, 1, 1, 1), (1, 0, 0, 1)]
    absent = [quad for quad in pair_quadruples(shape) if quad not in s][-1:]
    for quad in outside + absent:  # at the end, and in order so that only the grid test can send it back
        tampered += [s + (quad,), tuple(sorted(s + (quad,)))]
    if s:
        first = s[0]
        tampered += [
            s[1:],
            s[:1] + s,
            s[-1:] + s[1:-1] + s[:1],
            (tuple(bool(x) if x in (0, 1) else x for x in first),) + s[1:],
            (tuple(map(float, first)),) + s[1:],
            (first[:3],) + s[1:],
        ]
    for summands in tampered:
        yield replace(cert, summands=summands)
    cells = cert.labeling.cells
    yield replace(cert, labeling=GridLabeling(shape, cells[-1:] + cells[1:-1] + cells[:1]))
    yield replace(cert, empty_decomposition=not cert.empty_decomposition)
    yield replace(cert, witness=Witness(REASON_ODD_EDGES))
    yield replace(cert, labeling=None)
    yield replace(cert, summands=None)


def _outcome(verify, cert: Certificate) -> list[str] | type:
    """The problems verify finds in cert, or the type of the exception it raises."""
    try:
        return verify(cert)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def test_verify_certificate_matches_the_decider_rerun_on_tampered_members():
    certs = _honest_members()
    assert all(c.verdict for c in certs)
    assert sum(c.labeling != GridLabeling.identity(c.shape) for c in certs) >= 10
    outcomes = Counter()
    for cert in certs:
        for tampered in _mutations(cert):
            want = _outcome(reference_verify_certificate, tampered)
            assert _outcome(verify_certificate, tampered) == want, tampered
            outcomes[want if isinstance(want, type) else len(want)] += 1
    # each kind of outcome occurs: passes, failures with one and with two problems, and raises
    assert {0, 1, 2, TypeError, ValueError} <= set(outcomes), outcomes


def test_only_an_unchanged_list_from_the_decider_or_the_reader_skips_the_checks():
    shape = GridShape(3, 4)
    cert = is_spanning_cross_like(graph_from_quadruples(shape, pair_quadruples(shape)[::5]), shape)
    s = cert.summands
    assert type(s) is membership._Crosses and len(s) == 4
    assert type(Certificate.from_json(cert.to_json()).summands) is membership._Crosses
    # a slice, a concatenation or a copy is a plain tuple, which verify_certificate tests in full
    assert {type(t) for t in (s[1:], s[:1] + s, s + (), tuple(s), s[::-1])} == {tuple}
    data = json.loads(cert.to_json())
    data["summands"] = data["summands"][::-1]
    backwards = Certificate.from_dict(data)
    assert type(backwards.summands) is tuple and backwards.summands == s[::-1]
    assert verify_certificate(backwards) == ["summand list does not match the relabeled graph"]
    assert verify_certificate(replace(cert, summands=s[:1] + s)) == [
        "summand list does not match the relabeled graph",
        "summands do not XOR back to the relabeled graph",
    ]
    # the checked list is still tested against the grid it comes with: the 4 x 3 grid has no column 3
    assert any(j2 == 3 for _, _, _, j2 in s)
    tall = GridShape(4, 3)
    moved = replace(cert, shape=tall, labeling=GridLabeling.identity(tall))
    assert verify_certificate(moved) == reference_verify_certificate(moved) != []


def test_a_repeated_summand_is_rejected_even_where_the_list_xors_back():
    # (a, a, b) XORs back to the single cross b, so only the strict order test tells it from b's own list
    shape = GridShape(3, 3)
    a, b = (0, 1, 0, 1), (1, 2, 1, 2)
    k = graph_from_quadruples(shape, [b])
    cert = Certificate(True, shape, k, labeling=GridLabeling.identity(shape), summands=(a, a, b))
    assert graph_from_quadruples(shape, cert.summands) == k
    assert verify_certificate(cert) == ["summand list does not match the relabeled graph"]


def test_verify_certificate_accepts_honest_certs():
    shape = GridShape(2, 3)
    for k in census(shape):
        assert verify_certificate(is_spanning_cross_like(k, shape)) == []
    bad = is_spanning_cross_like(new_graph(6, [(0, 1)]), shape)
    assert verify_certificate(bad) == []


def test_verify_certificate_catches_tampering():
    shape = GridShape(2, 2)
    k = _complete_product(2, 2)
    honest = is_spanning_cross_like(k, shape)

    no_summands = Certificate(True, shape, k, labeling=honest.labeling, summands=None)
    assert verify_certificate(no_summands) == ["member certificate is missing its summand list"]

    wrong_summands = Certificate(True, shape, k, labeling=honest.labeling, summands=())
    assert verify_certificate(wrong_summands) == [
        "summand list does not match the relabeled graph",
        "summands do not XOR back to the relabeled graph",
    ]

    outside = Certificate(True, shape, k, labeling=honest.labeling, summands=((0, 1, 0, 1), (0, 5, 0, 1)))
    assert verify_certificate(outside) == [
        "summand list does not match the relabeled graph",
        "summand [0, 5, 0, 1] is not a cross of the 2 x 2 grid",
    ]

    # this relabeling parks an edge inside a column
    twisted = GridLabeling(shape, ((0, 0), (0, 1), (1, 1), (1, 0)))
    wrong_labeling = Certificate(True, shape, k, labeling=twisted, summands=honest.summands)
    assert verify_certificate(wrong_labeling) == [
        "labeling does not make the graph cross-like: same-row-or-column-edge at edge (0, 2)"
    ]

    fake_edge = Certificate(False, shape, k, witness=Witness(REASON_SAME_LINE, (0, 3)))
    assert verify_certificate(fake_edge) == ["witness edge (0, 3) joins distinct rows and columns"]

    flag_lies = Certificate(
        True, shape, k, labeling=honest.labeling, summands=honest.summands, empty_decomposition=True
    )
    assert verify_certificate(flag_lies) == ["empty_decomposition flag disagrees with the edge count"]

    witnessed_member = Certificate(
        True, shape, k, labeling=honest.labeling, summands=honest.summands, witness=Witness(REASON_ODD_EDGES)
    )
    assert verify_certificate(witnessed_member) == ["member certificate carries a witness"]

    c4 = standard_graph("cycle", 4)
    rejection = is_spanning_cross_like(c4, shape)
    assert verify_certificate(rejection) == []
    carried = "non-member certificate carries a labeling, summands or empty_decomposition"
    for fields in (
        {"summands": ((0, 1, 0, 1),)},
        {"summands": ((0, 1, 0, 1),), "labeling": honest.labeling},
        {"summands": ((0, 1, 0, 1),), "empty_decomposition": True},
        {"labeling": honest.labeling},
        {"empty_decomposition": True},
        {"summands": ()},
    ):
        padded = Certificate(False, shape, c4, witness=rejection.witness, **fields)
        assert verify_certificate(padded) == [carried]


def test_verify_certificate_treats_an_identity_labeling_by_value(monkeypatch):
    shape = GridShape(3, 4)
    quads = pair_quadruples(shape)
    k = graph_from_quadruples(shape, [quads[0], quads[5], quads[11], quads[17]])
    honest = is_spanning_cross_like(k, shape)
    assert honest.summands == ((0, 1, 0, 1), (0, 1, 2, 3), (0, 2, 2, 3), (1, 2, 2, 3))
    u, v = next(k.edges())
    changed = ((0, 1, 0, 1), (0, 2, 0, 1)) + honest.summands[2:]
    tampered = {
        "honest": ({}, []),
        "dropped diagonal": (
            {"graph": two_sum(k, new_graph(k.n, [(u, v)]))},
            ["labeling does not make the graph cross-like: missing-cross-partner at edge (1, 4)"],
        ),
        "changed summand": (
            {"summands": changed},
            ["summand list does not match the relabeled graph", "summands do not XOR back to the relabeled graph"],
        ),
        "false empty_decomposition": (
            {"empty_decomposition": True},
            ["empty_decomposition flag disagrees with the edge count"],
        ),
    }
    fields = {"graph": k, "summands": honest.summands, "empty_decomposition": False}
    cells = tuple(divmod(t, shape.q) for t in range(shape.order))
    labelings = (
        GridLabeling.identity(shape),
        GridLabeling(shape, cells),
        Certificate.from_json(honest.to_json()).labeling,
    )
    assert labelings[1] is not labelings[0] and labelings[2] is not labelings[0]
    # an identity labeling, however it was built, checks the graph as given
    monkeypatch.setattr(Graph, "relabel", lambda *args: pytest.fail("identity labeling was relabeled"))
    for labeling in labelings:
        for change, problems in tampered.values():
            cert = Certificate(True, shape, labeling=labeling, **{**fields, **change})
            assert verify_certificate(cert) == problems
    monkeypatch.undo()

    rng = random.Random(53)
    perm = list(range(shape.order))
    rng.shuffle(perm)
    moved = recognize(k.relabel(perm), shape)
    assert moved.verdict and moved.labeling != GridLabeling.identity(shape)
    assert verify_certificate(moved) == []
    assert verify_certificate(Certificate.from_json(moved.to_json())) == []


CROSS = _complete_product(2, 2)  # edges (0, 3) and (1, 2)
ROWS = new_graph(4, [(0, 1), (2, 3)])  # one edge inside each row of the 2 x 2 grid
ONE_DIAGONAL = new_graph(4, [(0, 3)])  # a cross edge without its partner (1, 2)
K4 = standard_graph("complete", 4)  # too many edges for 2 x 2, no independent row pairs, no labeling


@pytest.mark.parametrize(
    "k, reason, edge, problems",
    [
        (ROWS, REASON_SAME_LINE, (0, 1), []),
        (ONE_DIAGONAL, REASON_MISSING_PARTNER, (0, 3), []),
        (ONE_DIAGONAL, REASON_MISSING_PARTNER, (3, 0), []),
        (CROSS, REASON_SAME_LINE, (1, 2), ["witness edge (1, 2) joins distinct rows and columns"]),
        (ROWS, REASON_MISSING_PARTNER, (0, 1), ["witness edge (0, 1) is collinear, not a missing-partner case"]),
        (CROSS, REASON_MISSING_PARTNER, (1, 2), ["cross partner of witness edge (1, 2) is present"]),
        (CROSS, REASON_SAME_LINE, (0, 1), ["witness edge (0, 1) is not an edge of the graph"]),
        (ROWS, REASON_MISSING_PARTNER, (0, 4), ["witness edge (0, 4) is not an edge of the graph"]),
        (ROWS, REASON_SAME_LINE, None, ["same-row-or-column-edge witness needs an edge"]),
        (ONE_DIAGONAL, REASON_MISSING_PARTNER, None, ["missing-cross-partner witness needs an edge"]),
        # each claim below holds for k, so the edge is the one problem
        (ONE_DIAGONAL, REASON_ODD_EDGES, (0, 3), ["odd-edge-count witness carries an edge"]),
        (K4, REASON_EDGE_BOUND, (0, 3), ["edge-bound-exceeded witness carries an edge"]),
        (K4, REASON_NO_PARTITION, (0, 3), ["no-independent-row-partition witness carries an edge"]),
        (K4, REASON_SEARCH_EXHAUSTED, (0, 3), ["search-exhausted witness carries an edge"]),
    ],
)
def test_verify_certificate_edge_witness_problems(k, reason, edge, problems):
    cert = Certificate(False, GridShape(2, 2), k, witness=Witness(reason, edge))
    assert verify_certificate(cert) == problems


HONEST_23 = is_spanning_cross_like(_complete_product(2, 3), GridShape(2, 3))


@pytest.mark.parametrize(
    "cert, problem",
    [
        (
            Certificate(True, GridShape(2, 2), new_graph(5, []), labeling=GridLabeling.identity(GridShape(2, 2))),
            "graph has 5 vertices but shape (2, 2) needs 4",
        ),
        (
            Certificate(True, GridShape(2, 3), HONEST_23.graph, summands=HONEST_23.summands),
            "member certificate is missing its labeling",
        ),
        (
            Certificate(
                True,
                GridShape(2, 3),
                HONEST_23.graph,
                labeling=GridLabeling.identity(GridShape(3, 2)),
                summands=HONEST_23.summands,
            ),
            "labeling shape disagrees with certificate shape",
        ),
        (Certificate(False, GridShape(2, 2), ROWS), "non-member certificate is missing its witness"),
        (
            Certificate(False, GridShape(2, 2), CROSS, witness=Witness(REASON_ODD_EDGES)),
            "odd-edge-count witness but the edge count is even",
        ),
        (
            Certificate(False, GridShape(2, 2), CROSS, witness=Witness(REASON_EDGE_BOUND)),
            "edge-bound witness but the bound is not exceeded",
        ),
        (
            Certificate(False, GridShape(2, 2), CROSS, witness=Witness(REASON_NO_PARTITION)),
            "no-partition witness but an independent row partition exists",
        ),
        (
            Certificate(False, GridShape(2, 2), CROSS, witness=Witness(REASON_SEARCH_EXHAUSTED)),
            "search-exhausted witness but a full search finds a valid labeling",
        ),
        # zero edges is an even count too, though a falsy one
        (
            Certificate(False, GridShape(2, 2), new_graph(4, []), witness=Witness(REASON_ODD_EDGES)),
            "odd-edge-count witness but the edge count is even",
        ),
    ],
)
def test_verify_certificate_names_each_false_claim(cert, problem):
    assert verify_certificate(cert) == [problem]


def _seeded_members_toggled(shape: GridShape, count: int):
    rng = random.Random(f"read-off:{shape.p}x{shape.q}")
    # the same-row and same-column edges leave every pair read as it was: only the edge count shows them
    lines = random.Random(f"read-off-lines:{shape.p}x{shape.q}")
    p, q = shape
    quads = pair_quadruples(shape)
    for _ in range(count):
        k = graph_from_quadruples(shape, [quad for quad in quads if rng.random() < rng.random()])
        yield k
        yield two_sum(k, new_graph(k.n, [rng.sample(range(k.n), 2)]))
        i, i2 = lines.sample(range(p), 2)
        j, j2 = lines.sample(range(q), 2)
        yield two_sum(k, new_graph(k.n, [(i * q + j, i * q + j2), (i * q + j, i2 * q + j)]))


def _read_off_corpus(name: str):
    if name == "every-graph":
        for n, shapes in ((4, [GridShape(2, 2)]), (6, [GridShape(2, 3), GridShape(3, 2)])):
            for k in every_graph(n):
                for shape in shapes:
                    yield k, shape
    elif name == "census-and-toggles":
        for shape in (GridShape(3, 3), GridShape(2, 4)):
            for k in census(shape):
                yield k, shape
                for u, v in combinations(range(k.n), 2):
                    yield two_sum(k, new_graph(k.n, [(u, v)])), shape
    else:
        for p, q in ((4, 5), (5, 5), (7, 8), (8, 8)):
            for k in _seeded_members_toggled(GridShape(p, q), 10):
                yield k, GridShape(p, q)


def _value_or_error(f, k: Graph, shape: GridShape):
    try:
        return f(k, shape)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("corpus", ["every-graph", "census-and-toggles", "seeded-toggles"])
def test_pair_read_off_agrees_with_the_edge_walk(corpus):
    # the word-parallel read-off gives the witnesses, certificates, summands and pair
    # matrices of the per-edge walk it replaced, byte for byte
    seen = Counter()
    for k, shape in _read_off_corpus(corpus):
        w = reference_violation(k, shape)
        seen[w.reason if w else "member"] += 1
        assert find_violation(k, shape) == w
        if w is None:
            quads = reference_summands(k, shape)
            want = Certificate(
                True, shape, k, labeling=GridLabeling.identity(shape), summands=quads, empty_decomposition=not quads
            )
        else:
            want = Certificate(False, shape, k, witness=w)
        cert = is_spanning_cross_like(k, shape)
        assert cert == want
        # to_json is json.dumps of to_dict; the two large corpora compare the dicts to stay quick
        if corpus != "seeded-toggles":
            assert cert.to_dict() == want.to_dict()
        elif k.n <= GRAPH6_MAX_N:
            assert cert.to_json() == want.to_json()
        assert _value_or_error(elementary_decomposition, k, shape) == _value_or_error(reference_summands, k, shape)
        assert _value_or_error(pair_matrix, k, shape) == _value_or_error(reference_pair_matrix, k, shape)
    assert set(seen) == {"member", REASON_SAME_LINE, REASON_MISSING_PARTNER}
