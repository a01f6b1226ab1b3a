"""Unlabeled recognition pinned against brute force over all bijections."""

from __future__ import annotations

import hashlib
import inspect
import random
from itertools import chain, combinations

import pytest

from xorkron import (
    Certificate,
    GridShape,
    Witness,
    census,
    graph6_decode,
    graph_from_quadruples,
    has_independent_row_partition,
    is_spanning_cross_like,
    new_graph,
    prefilter,
    recognize,
    standard_graph,
    t2_min_over_labelings,
    tensor_product,
    valid_labelings,
    verify_certificate,
)
from xorkron import membership
from xorkron.membership import (
    REASON_EDGE_BOUND,
    REASON_NO_PARTITION,
    REASON_ODD_EDGES,
    REASON_SEARCH_EXHAUSTED,
    GridLabeling,
    _independent_split,
    _labeling_search,
    find_violation,
    pair_quadruples,
)

from .helpers import (
    brute_row_partition,
    brute_valid_labelings,
    canonical_valid_labelings,
    every_graph,
    is_canonical,
    least_first_row_partition,
    naive_least_labeling,
    random_graph,
    search_calls,
    twins_in_order,
)


def _permuted(rng: random.Random, k):
    perm = list(range(k.n))
    rng.shuffle(perm)
    return k.relabel(perm)


def test_prefilter_verdicts():
    shape = GridShape(2, 2)
    assert prefilter(standard_graph("path", 4), shape).reason == REASON_ODD_EDGES
    assert prefilter(standard_graph("complete", 4), shape).reason == REASON_EDGE_BOUND
    assert prefilter(standard_graph("cycle", 4), shape).reason == REASON_EDGE_BOUND
    # 2K2 sits inside the class once relabeled, so no cheap rejection fires
    assert prefilter(new_graph(4, [(0, 1), (2, 3)]), shape) is None
    matching = tensor_product(standard_graph("complete", 2), standard_graph("complete", 2))
    assert prefilter(matching, shape) is None
    # wrong vertex count is reported, not raised
    assert prefilter(standard_graph("path", 3), shape).reason == REASON_NO_PARTITION


def test_prefilter_partition_failure():
    shape = GridShape(2, 3)
    # even edge count over the bound of 6
    dense = new_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)][1:])
    assert dense.edge_count == 14
    assert prefilter(dense, shape).reason == REASON_EDGE_BOUND
    # a triangle leaves at most one of its vertices per independent 3-set
    k = new_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    w = prefilter(k, shape)
    assert w is not None and w.reason == REASON_NO_PARTITION
    assert not has_independent_row_partition(k, shape)


def test_row_partition_matches_brute_force():
    cases = [(k, (2, 2)) for k in every_graph(4)]
    cases += [(k, shape) for k in every_graph(6) for shape in ((2, 3), (3, 2))]
    rng = random.Random(127)
    for p, q in ((3, 3), (2, 4), (3, 4)):
        cases += [(random_graph(rng, p * q, rng.choice((0.2, 0.35, 0.5))), (p, q)) for _ in range(200)]
    verdicts = set()
    for k, (p, q) in cases:
        expected = brute_row_partition(k, p, q)
        assert has_independent_row_partition(k, GridShape(p, q)) == expected
        verdicts.add((p, q, expected))
    assert len(verdicts) == 12  # every shape has graphs with and without a partition


def _odd_degree(k) -> int:
    return sum(1 << v for v in range(k.n) if k.rows[v].bit_count() & 1)


def test_parity_split_matches_brute_force():
    # valid_labelings' root splits: into grid rows (blocks of q) and grid columns (blocks of p), each
    # block holding evenly many odd-degree vertices; the seeded graphs also take a random mask of even
    # size (an odd one admits no split)
    rng = random.Random(149)
    cases = [(k, 2, 2, _odd_degree(k)) for k in every_graph(4)]
    cases += [(k, 2, 3, _odd_degree(k)) for k in every_graph(6)]
    for p, q, count in ((3, 3, 100), (2, 4, 100), (3, 4, 30)):
        for _ in range(count):
            k = random_graph(rng, p * q, rng.choice((0.2, 0.35, 0.5)))
            mask = rng.getrandbits(p * q)
            cases += [(k, p, q, _odd_degree(k)), (k, p, q, mask ^ mask.bit_count() % 2)]
    verdicts = set()
    for k, p, q, odd in cases:
        for blocks, size in ((p, q), (q, p)):
            expected = brute_row_partition(k, blocks, size, odd)
            assert _independent_split(k, size, odd) == expected
            verdicts.add((p, q, size, expected))
    assert len(verdicts) == 16  # every shape and block size has graphs with and without a split


def test_parity_split_refutes_graphs_with_a_plain_split():
    # the path 0-1-2-3 splits into independent pairs only as {0, 2}, {1, 3}, one odd end in each
    path = standard_graph("path", 4)
    assert has_independent_row_partition(path, GridShape(2, 2))
    assert brute_row_partition(path, 2, 2) and not brute_row_partition(path, 2, 2, _odd_degree(path))
    assert not _independent_split(path, 2, _odd_degree(path))
    # a permuted 3x4 near-member that passes the prefilter but splits into neither rows nor columns
    k = graph6_decode("KB?AGA_@KGC_")
    assert prefilter(k, GridShape(3, 4)) is None and brute_row_partition(k, 3, 4)
    for blocks, size in ((3, 4), (4, 3)):
        assert not brute_row_partition(k, blocks, size, _odd_degree(k))
        assert not _independent_split(k, size, _odd_degree(k))
    assert next(valid_labelings(k, GridShape(3, 4)), None) is None


def test_row_partition_matches_least_first_on_the_recognize_recipe():
    # permuted members split by construction; one-edge-moved near-members may not
    rng = random.Random(137)
    verdicts = set()
    for p, q in ((4, 4), (4, 5)):
        shape = GridShape(p, q)
        quads = list(pair_quadruples(shape))
        for share in (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0) * 4:
            k = graph_from_quadruples(shape, rng.sample(quads, round(share * len(quads))))
            g = _permuted(rng, k)
            assert has_independent_row_partition(g, shape)
            assert least_first_row_partition(g, p, q)
            g = _permuted(rng, _moved_edge(rng, k))
            expected = least_first_row_partition(g, p, q)
            assert has_independent_row_partition(g, shape) == expected
            verdicts.add((p, q, expected))
    # a moved edge rarely leaves a 4x4 member without a partition, but often at 4x5
    assert verdicts == {(4, 4, True), (4, 5, True), (4, 5, False)}


def test_row_partition_capacity_cut():
    # Rows are blocks of q consecutive vertices, and the base graph has edges
    # only across them. A vertex v adjacent to all but its q - 1 block mates
    # forces its block; one more edge leaves v no block. A vertex w of another
    # block, joined to one of its own mates and to every vertex outside v's
    # block, then has no block either, once v's block is taken.
    rng = random.Random(139)
    for p, q in ((2, 3), (3, 3), (3, 4), (4, 4)):
        shape = GridShape(p, q)
        n = p * q
        across = [(u, v) for u, v in combinations(range(n), 2) if u // q != v // q]
        for _ in range(10):
            edges = set(rng.sample(across, len(across) // 2))
            v = rng.randrange(n)
            w = rng.choice([u for u in range(n) if u // q != v // q])
            mates = [u for u in range(n) if u // q == v // q and u != v]
            edges |= {(min(u, v), max(u, v)) for u in range(n) if u // q != v // q}
            w_mate = next(u for u in range(n) if u // q == w // q and u != w)
            w_edges = {(min(u, w), max(u, w)) for u in range(n) if u // q not in (v // q, w // q) or u == w_mate}
            for extra, expected in (((), True), ({(min(v, mates[0]), max(v, mates[0]))}, False), (w_edges, False)):
                g = _permuted(rng, new_graph(n, edges | set(extra)))
                assert least_first_row_partition(g, p, q) == expected
                if n <= 12:
                    assert brute_row_partition(g, p, q) == expected
                assert has_independent_row_partition(g, shape) == expected


def test_recognize_raises_on_wrong_count():
    with pytest.raises(ValueError):
        recognize(standard_graph("path", 3), GridShape(2, 2))
    # the search reports the count its own way: no partition, and no labeling generator
    assert not has_independent_row_partition(standard_graph("edgeless", 5), GridShape(2, 2))
    with pytest.raises(ValueError, match="graph has 5 vertices, labelings need 4"):
        next(valid_labelings(standard_graph("edgeless", 5), GridShape(2, 2)))


def test_recognize_permuted_products():
    rng = random.Random(73)
    shape = GridShape(3, 3)
    k = tensor_product(standard_graph("complete", 3), standard_graph("complete", 3))
    for _ in range(10):
        g = _permuted(rng, k)
        cert = recognize(g, shape)
        assert cert.verdict
        assert verify_certificate(cert) == []
        relabeled = g.relabel(cert.labeling.permutation())
        assert graph_from_quadruples(shape, cert.summands) == relabeled


def test_recognize_odd_path():
    cert = recognize(standard_graph("path", 4), GridShape(2, 2))
    assert not cert.verdict and cert.witness.reason == REASON_ODD_EDGES


def test_recognize_cycle_without_prefilter_exhausts():
    # the search alone, which recognize runs after a passed prefilter, finds no labeling either
    c4 = standard_graph("cycle", 4)
    assert next(valid_labelings(c4, GridShape(2, 2)), None) is None
    assert brute_valid_labelings(c4, 2, 2) == []
    cert = recognize(c4, GridShape(2, 2))
    assert not cert.verdict and cert.witness.reason == REASON_EDGE_BOUND


def test_recognize_has_no_options():
    assert list(inspect.signature(recognize).parameters) == ["k", "shape"]


def test_recognize_matches_brute_force_at_2_2():
    pairs = list(combinations(range(4), 2))
    shape = GridShape(2, 2)
    for mask in range(1 << 6):
        k = new_graph(4, [pairs[t] for t in range(6) if (mask >> t) & 1])
        brute = brute_valid_labelings(k, 2, 2)
        first = next(valid_labelings(k, shape), None)
        cert = recognize(k, shape)
        assert cert.verdict == bool(brute) == (first is not None)
        if brute:
            assert cert.labeling.cells == first.cells == min(brute)
        else:
            w = prefilter(k, shape)
            assert cert.witness.reason == (REASON_SEARCH_EXHAUSTED if w is None else w.reason)


def test_recognize_lex_min_labeling_at_2_3():
    rng = random.Random(79)
    shape = GridShape(2, 3)
    for k in census(shape):
        g = _permuted(rng, k)
        brute = brute_valid_labelings(g, 2, 3)
        cert = recognize(g, shape)
        assert cert.verdict and brute
        assert cert.labeling.cells == min(brute)


def test_recognize_verdict_is_permutation_invariant():
    rng = random.Random(83)
    shape = GridShape(2, 3)
    graphs = list(census(shape)) + [random_graph(rng, 6) for _ in range(10)]
    for k in graphs:
        expected = recognize(k, shape).verdict
        for _ in range(3):
            assert recognize(_permuted(rng, k), shape).verdict == expected


def test_recognize_agrees_across_grid_transpose():
    rng = random.Random(89)
    shape_a, shape_b = GridShape(2, 3), GridShape(3, 2)
    graphs = list(census(shape_a)) + [random_graph(rng, 6) for _ in range(10)]
    for k in graphs:
        assert recognize(k, shape_a).verdict == recognize(k, shape_b).verdict


def test_valid_labelings_are_valid():
    shape = GridShape(3, 3)
    k = tensor_product(standard_graph("complete", 3), standard_graph("complete", 3))
    labelings = list(valid_labelings(k, shape))
    assert labelings
    for lab in labelings:
        assert find_violation(k.relabel(lab.permutation()), shape) is None


def test_matching_has_identity_as_least_labeling():
    matching = tensor_product(standard_graph("complete", 2), standard_graph("complete", 2))
    cert = recognize(matching, GridShape(2, 2))
    assert cert.labeling == GridLabeling.identity(GridShape(2, 2))


def test_every_census_member_recognized_after_permutation():
    rng = random.Random(97)
    for p, q in ((2, 2), (2, 3)):
        shape = GridShape(p, q)
        for k in census(shape):
            cert = recognize(_permuted(rng, k), shape)
            assert cert.verdict
            assert verify_certificate(cert) == []


def _small_cases(rng: random.Random):
    """Every graph at (2, 2); permuted census members and random graphs at (2, 3)."""
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        yield new_graph(4, [pairs[t] for t in range(6) if (mask >> t) & 1]), 2, 2
    for k in census(GridShape(2, 3)):
        yield _permuted(rng, k), 2, 3
    for density in (0.2, 0.4):
        for _ in range(15):
            yield random_graph(rng, 6, density), 2, 3


def test_naive_least_labeling_is_the_brute_force_minimum():
    for k, p, q in _small_cases(random.Random(101)):
        brute = brute_valid_labelings(k, p, q)
        assert naive_least_labeling(k, p, q) == (min(brute) if brute else None)


def test_valid_labelings_against_brute_force():
    for k, p, q in _small_cases(random.Random(103)):
        brute = brute_valid_labelings(k, p, q)
        got = [lab.cells for lab in valid_labelings(k, GridShape(p, q))]
        assert all(a < b for a, b in zip(got, got[1:]))
        assert got == sorted(c for c in brute if is_canonical(c) and twins_in_order(k, c))
        assert got == canonical_valid_labelings(k, p, q)
        assert got[:1] == sorted(brute)[:1]
    # the completion check seldom runs below (3, 3); there and at (2, 5) the 9! and 10! bijections
    # are too many, so the canonical assignments stand in for them and the naive search for the least labeling
    for g, p, q in _sparse_cases():
        got = [lab.cells for lab in valid_labelings(g, GridShape(p, q))]
        assert got == canonical_valid_labelings(g, p, q)
        least = naive_least_labeling(g, p, q)
        assert got[:1] == ([least] if least else [])


def _sparse_cases():
    """Permuted sparse members at (3, 3) and (2, 5), each followed by a one-edge-moved near-member."""
    rng = random.Random(127)
    cases = [(GridShape(3, 3), size) for size in (1, 2, 2, 3, 3, 4, 4, 5) * 2]
    # sparse members rich in isolated vertices, where naked and hidden singles narrow most
    cases += [(GridShape(2, 5), size) for size in (1, 1, 2, 2, 3, 3)] + [(GridShape(3, 3), 1)] * 4
    for shape, size in cases:
        k = graph_from_quadruples(shape, rng.sample(list(pair_quadruples(shape)), size))
        for g in (k, _moved_edge(rng, k)):
            yield _permuted(rng, g), *shape


def _refuted_by_verify(g, shape) -> bool:
    """Whether verify_certificate accepts the claim that no labeling makes g a member."""
    return verify_certificate(Certificate(False, shape, g, witness=Witness(REASON_SEARCH_EXHAUSTED))) == []


@pytest.mark.parametrize("root_splits", [True, False], ids=["root-splits", "no-root-splits"])
def test_existence_check_agrees_with_enumeration(monkeypatch, root_splits):
    # verify_certificate asks the completion check of the empty placement; with the root splits
    # patched to pass, that check alone has to agree too
    if not root_splits:
        monkeypatch.setattr(membership, "_independent_split", lambda k, size, odd: True)
    verdicts = set()
    for g, p, q in chain(_small_cases(random.Random(103)), _sparse_cases()):
        member = bool(canonical_valid_labelings(g, p, q))
        assert _refuted_by_verify(g, GridShape(p, q)) == (not member)
        verdicts.add(member)
    assert verdicts == {True, False}


def test_existence_check_agrees_with_the_least_first_search_on_4_4_and_4_5():
    rng = random.Random(151)
    verdicts = set()
    for p, q in ((4, 4), (4, 5)):
        shape = GridShape(p, q)
        quads = list(pair_quadruples(shape))
        for share in (0.3, 0.5, 0.7, 0.9) * 2:
            k = graph_from_quadruples(shape, rng.sample(quads, round(share * len(quads))))
            for g in (k, _moved_edge(rng, k)):
                g = _permuted(rng, g)
                member = next(valid_labelings(g, shape), None) is not None
                assert _refuted_by_verify(g, shape) == (not member)
                verdicts.add((p, q, member))
    assert len(verdicts) == 4


def test_existence_check_inside_the_least_first_search_leaves_it_unchanged():
    # each run owns its placement, so an existence check asked mid-enumeration neither sees nor moves it
    shape = GridShape(3, 4)
    quads = list(pair_quadruples(shape))
    for seed in range(1, 21):
        rng = random.Random(seed)
        g = _permuted(rng, graph_from_quadruples(shape, rng.sample(quads, 1 + seed % 5)))
        labelings, exists = _labeling_search(g, shape)
        run = labelings()
        first = next(run)
        assert exists()
        assert [first, *run] == list(_labeling_search(g, shape)[0]())


def test_searches_run_past_the_recursion_limit():
    # 1040 vertices placed one per stack frame, past Python's default limit of 1000 frames
    g, shape = standard_graph("edgeless", 1040), GridShape(2, 520)
    assert has_independent_row_partition(g, shape)
    assert list(valid_labelings(g, shape)) == [GridLabeling.identity(shape)]
    assert t2_min_over_labelings(g, shape) == 2


def _pinned_cases():
    """Permuted members and one-edge-moved near-members at (3, 4), (4, 4) and (4, 5); 23 labelings in all."""
    rng = random.Random(173)
    for p, q in ((3, 4), (4, 4), (4, 5)):
        shape = GridShape(p, q)
        quads = list(pair_quadruples(shape))
        for share in (0.25, 0.5, 0.75):
            k = graph_from_quadruples(shape, rng.sample(quads, round(share * len(quads))))
            for g in (k, _moved_edge(rng, k)):
                yield _permuted(rng, g), shape


def test_valid_labelings_sequences_are_pinned():
    # every labeling's cells, in the order yielded, hashed as the search of commit f3d62e8 yielded them
    digest = hashlib.sha256()
    for g, shape in _pinned_cases():
        digest.update(repr([lab.cells for lab in valid_labelings(g, shape)]).encode())
    assert digest.hexdigest() == "15d9aa298a7eec23d892836ba10c6656ac34a0b78cef124197908a90c9edbb00"


def test_labeling_search_work_is_pinned():
    # a node made cheaper must keep the search tree, so the calls made by the enumeration, recognize and
    # the existence check in verify_certificate stay as commit f3d62e8 made them; dropping the line-parity
    # narrowing changes them, while an exit that only moves inside a node leaves them as they are
    def run():
        for g, shape in _pinned_cases():
            list(valid_labelings(g, shape))
            assert verify_certificate(recognize(g, shape)) == []

    assert search_calls(run) == {"propagate": 27748, "complete": 402, "_independent_split": 86}


def _recognized_cells(g, shape):
    cert = recognize(g, shape)
    assert verify_certificate(cert) == []
    return cert.labeling.cells if cert.verdict else None


def test_recognize_returns_the_oracle_labeling_on_3_3_census():
    rng = random.Random(107)
    shape = GridShape(3, 3)
    for k in census(shape):
        g = _permuted(rng, k)
        assert _recognized_cells(g, shape) == naive_least_labeling(g, 3, 3)


def test_recognize_returns_the_oracle_labeling_on_sparse_3_4_members():
    # two vertex-disjoint crosses (4K2 + 4K1): sparse members with many valid labelings
    rng = random.Random(109)
    shape = GridShape(3, 4)
    quads = list(pair_quadruples(shape))
    disjoint = [(a, b) for a, b in combinations(quads, 2) if not {a[2], a[3]} & {b[2], b[3]}]
    for a, b in rng.sample(disjoint, 8):
        g = _permuted(rng, graph_from_quadruples(shape, [a, b]))
        assert g.edge_count == 4
        assert _recognized_cells(g, shape) == naive_least_labeling(g, 3, 4)


def _moved_edge(rng: random.Random, k):
    """k with one random edge moved to a random non-edge."""
    edges = set(k.edges())
    absent = [e for e in combinations(range(k.n), 2) if e not in edges]
    edges.remove(rng.choice(sorted(edges)))
    edges.add(rng.choice(absent))
    return new_graph(k.n, sorted(edges))


def test_recognize_returns_the_oracle_labeling_on_3_4_near_members():
    rng = random.Random(113)
    shape = GridShape(3, 4)
    quads = list(pair_quadruples(shape))
    for size in (2, 3, 4, 6, 9, 12, 14, 16):
        k = graph_from_quadruples(shape, rng.sample(quads, size))
        g = _permuted(rng, _moved_edge(rng, k))
        assert _recognized_cells(g, shape) == naive_least_labeling(g, 3, 4)


def test_recognize_returns_the_oracle_labeling_on_4_4_members_and_near_members():
    # from 12 of the 36 crosses up: the naive oracle can take minutes on sparser 4x4 inputs
    rng = random.Random(131)
    shape = GridShape(4, 4)
    quads = list(pair_quadruples(shape))
    for size in (12, 16, 20, 24, 28, 32, 36):
        k = graph_from_quadruples(shape, rng.sample(quads, size))
        for g in (k, _moved_edge(rng, k)):
            g = _permuted(rng, g)
            assert _recognized_cells(g, shape) == naive_least_labeling(g, 4, 4)
