"""Unlabeled recognition pinned against brute force over all bijections."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from xorkron import (
    GridShape,
    census,
    graph_from_quadruples,
    has_independent_row_partition,
    is_spanning_cross_like,
    new_graph,
    prefilter,
    recognize,
    standard_graph,
    tensor_product,
    valid_labelings,
    verify_certificate,
)
from xorkron.membership import (
    REASON_EDGE_BOUND,
    REASON_NO_PARTITION,
    REASON_ODD_EDGES,
    REASON_SEARCH_EXHAUSTED,
    GridLabeling,
    find_violation,
    pair_quadruples,
)

from .helpers import (
    brute_valid_labelings,
    is_canonical,
    naive_least_labeling,
    random_graph,
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


def test_recognize_raises_on_wrong_count():
    with pytest.raises(ValueError):
        recognize(standard_graph("path", 3), GridShape(2, 2))


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
    cert = recognize(standard_graph("cycle", 4), GridShape(2, 2), use_prefilter=False)
    assert not cert.verdict and cert.witness.reason == REASON_SEARCH_EXHAUSTED
    assert brute_valid_labelings(standard_graph("cycle", 4), 2, 2) == []


def test_recognize_matches_brute_force_at_2_2():
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        k = new_graph(4, [pairs[t] for t in range(6) if (mask >> t) & 1])
        brute = brute_valid_labelings(k, 2, 2)
        cert = recognize(k, GridShape(2, 2), use_prefilter=False)
        assert cert.verdict == bool(brute)
        if brute:
            assert cert.labeling.cells == min(brute)


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
        assert got[:1] == sorted(brute)[:1]


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


def test_recognize_returns_the_oracle_labeling_on_3_4_near_members():
    rng = random.Random(113)
    shape = GridShape(3, 4)
    quads = list(pair_quadruples(shape))
    for size in (2, 3, 4, 6, 9, 12, 14, 16):
        k = graph_from_quadruples(shape, rng.sample(quads, size))
        edges = set(k.edges())
        absent = [e for e in combinations(range(12), 2) if e not in edges]
        edges.remove(rng.choice(sorted(edges)))
        edges.add(rng.choice(absent))
        g = _permuted(rng, new_graph(12, sorted(edges)))
        assert _recognized_cells(g, shape) == naive_least_labeling(g, 3, 4)
