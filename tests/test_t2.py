"""Summand counting: rank reduction against the exhaustive XOR-search oracle."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from xorkron import (
    Graph,
    GridLabeling,
    GridShape,
    census,
    gf2_rank,
    graph_from_quadruples,
    pair_matrix,
    pair_quadruples,
    standard_graph,
    t2_bruteforce_oracle,
    t2_exact,
    t2_min_over_labelings,
    tensor_elementary,
    tensor_product,
    two_sum,
)

from .helpers import brute_valid_labelings, random_graph


def _complete_product(p: int, q: int):
    return tensor_product(standard_graph("complete", p), standard_graph("complete", q))


def _chain(shape: GridShape):
    p, _ = shape
    out = standard_graph("edgeless", shape.order)
    for i in range(p - 1):
        out = two_sum(out, tensor_elementary(shape.p, shape.q, i, i + 1, i, i + 1))
    return out


def test_pair_matrix_examples():
    shape = GridShape(3, 3)
    assert pair_matrix(_complete_product(3, 3), shape) == (0b111, 0b111, 0b111)
    assert pair_matrix(standard_graph("edgeless", 9), shape) == (0, 0, 0)
    # row pairs (0,1),(0,2),(1,2); column pairs likewise; bits at ((0,1),(0,1)) and ((1,2),(1,2))
    assert pair_matrix(_chain(shape), shape) == (0b001, 0, 0b100)

    # bit t of row r is set iff (row pair r, column pair t) is a summand, pairs in combinations order
    shape = GridShape(3, 4)
    row_pairs = list(combinations(range(3), 2))
    col_pairs = list(combinations(range(4), 2))
    rng = random.Random(5)
    for _ in range(20):
        quads = [qd for qd in pair_quadruples(shape) if rng.random() < 0.4]
        rows = pair_matrix(graph_from_quadruples(shape, quads), shape)
        assert len(rows) == len(row_pairs)
        got = {
            row_pairs[r] + col_pairs[t]
            for r, row in enumerate(rows)
            for t in range(len(col_pairs))
            if (row >> t) & 1
        }
        assert got == set(quads)
        assert all(row >> len(col_pairs) == 0 for row in rows)


def test_pair_matrix_rejects_non_member():
    with pytest.raises(ValueError):
        pair_matrix(standard_graph("path", 4), GridShape(2, 2))


def test_gf2_rank_small_cases():
    assert gf2_rank((0b111, 0b111, 0b111)) == 1
    assert gf2_rank((0, 0, 0)) == 0
    assert gf2_rank((0b001, 0b010, 0b100)) == 3
    assert gf2_rank(()) == 0


def _span_size(rows) -> int:
    span = {0}
    for row in rows:
        span |= {row ^ s for s in span}
    return len(span)


def test_gf2_rank_against_span_oracle():
    rng = random.Random(101)
    for _ in range(100):
        r, c = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = tuple(rng.getrandbits(c) for _ in range(r))
        assert 1 << gf2_rank(rows) == _span_size(rows)


def test_t2_exact_pinned_values():
    for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)):
        assert t2_exact(_complete_product(p, q), GridShape(p, q)) == 1
    assert t2_exact(standard_graph("edgeless", 4), GridShape(2, 2)) == 2
    assert t2_exact(_chain(GridShape(3, 3)), GridShape(3, 3)) == 2


def test_oracle_pinned_values():
    shape = GridShape(2, 2)
    assert t2_bruteforce_oracle(_complete_product(2, 2), shape) == 1
    assert t2_bruteforce_oracle(standard_graph("edgeless", 4), shape) == 2
    assert t2_bruteforce_oracle(_chain(GridShape(3, 3)), GridShape(3, 3)) == 2


def test_oracle_scale_guard():
    with pytest.raises(ValueError):
        t2_bruteforce_oracle(standard_graph("edgeless", 24), GridShape(4, 6))


def test_oracle_agreement_on_small_censuses():
    for p, q in ((2, 2), (2, 3)):
        shape = GridShape(p, q)
        for k in census(shape):
            assert t2_exact(k, shape) == t2_bruteforce_oracle(k, shape)


def test_rank_never_exceeds_summand_count():
    shape = GridShape(3, 3)
    for k in census(shape):
        set_bits = sum(row.bit_count() for row in pair_matrix(k, shape))
        if set_bits:
            assert t2_exact(k, shape) <= set_bits


def test_t2_invariant_under_grid_symmetries():
    rng = random.Random(103)
    shape = GridShape(3, 3)
    quads = [
        (i, i2, j, j2)
        for i, i2 in combinations(range(3), 2)
        for j, j2 in combinations(range(3), 2)
    ]
    for _ in range(25):
        chosen = [quad for quad in quads if rng.random() < 0.5]
        k = graph_from_quadruples(shape, chosen)
        base = t2_exact(k, shape)
        rows = list(rng.sample(range(3), 3))
        cols = list(rng.sample(range(3), 3))
        perm = [rows[v // 3] * 3 + cols[v % 3] for v in range(9)]
        assert t2_exact(k.relabel(perm), shape) == base
        swap = [(v % 3) * 3 + v // 3 for v in range(9)]
        assert t2_exact(k.relabel(swap), shape) == base


def test_t2_one_iff_single_product():
    shape = GridShape(3, 3)
    singles = {
        tensor_product(g, h)
        for g in _all_nontrivial(3)
        for h in _all_nontrivial(3)
    }
    for k in census(shape):
        assert (t2_exact(k, shape) == 1) == (k in singles)


def _all_nontrivial(n: int):
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1, 1 << len(pairs)):
        rows = [0] * n
        for t, (u, v) in enumerate(pairs):
            if (mask >> t) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        out.append(Graph(n, rows))
    return out


def test_min_over_labelings():
    shape = GridShape(3, 3)
    k = _complete_product(3, 3)
    assert t2_min_over_labelings(k, shape) == 1
    rng = random.Random(107)
    perm = list(range(9))
    rng.shuffle(perm)
    assert t2_min_over_labelings(k.relabel(perm), shape) == 1
    assert t2_min_over_labelings(standard_graph("cycle", 9), shape) is None
    chain = _chain(shape)
    assert t2_min_over_labelings(chain, shape) == 2


def test_min_over_labelings_never_exceeds_labeled_value():
    rng = random.Random(109)
    shape = GridShape(2, 3)
    for k in census(shape):
        assert t2_min_over_labelings(k, shape) <= t2_exact(k, shape)


def test_min_over_labelings_is_the_minimum_over_every_brute_force_labeling():
    # t2 under every one of the (pq)! bijections, against the orbit-pruned search
    rng = random.Random(211)
    for p, q in ((2, 2), (2, 3)):
        shape = GridShape(p, q)
        graphs = [k.relabel(rng.sample(range(p * q), p * q)) for k in census(shape)]
        graphs += [random_graph(rng, p * q, 0.3) for _ in range(10)]
        for k in graphs:
            values = [
                t2_exact(k.relabel(GridLabeling(shape, cells).permutation()), shape)
                for cells in brute_valid_labelings(k, p, q)
            ]
            assert t2_min_over_labelings(k, shape) == (min(values) if values else None)
