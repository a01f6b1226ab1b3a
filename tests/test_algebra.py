"""Tensor product and XOR composition, checked against numpy's kron."""

from __future__ import annotations

import random
import time
from itertools import combinations

import numpy as np
import pytest

from xorkron import (
    TensorSummand,
    new_graph,
    standard_graph,
    tensor_2sum,
    tensor_elementary,
    tensor_product,
    two_sum,
)

from .helpers import dense_rows, random_graph, random_nontrivial


def test_product_of_two_edges_is_a_matching():
    k2 = standard_graph("complete", 2)
    m = tensor_product(k2, k2)
    assert m.n == 4
    assert sorted(m.edges()) == [(0, 3), (1, 2)]


def test_product_edge_counts():
    k4 = standard_graph("complete", 4)
    k3 = standard_graph("complete", 3)
    assert tensor_product(k4, k3).edge_count == 36
    g = standard_graph("path", 3)
    assert tensor_product(g, standard_graph("edgeless", 4)).edge_count == 0


def test_large_product_is_not_revalidated():
    # Re-checking the 6.3 M product edges in the validating constructor took about 12 s.
    k60 = standard_graph("complete", 60)
    start = time.perf_counter()
    prod = tensor_product(k60, k60)
    elapsed = time.perf_counter() - start
    assert prod.edge_count == 2 * (60 * 59 // 2) ** 2 == 6_265_800
    assert elapsed < 2.0, f"tensor_product(K60, K60) took {elapsed:.2f} s"


def test_product_matches_numpy_kron():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 6))
        h = random_graph(rng, rng.randrange(1, 6))
        prod = tensor_product(g, h)
        expected = np.kron(np.array(dense_rows(g)), np.array(dense_rows(h)))
        assert (np.array(dense_rows(prod)) == expected).all()


def test_product_edge_count_formula():
    rng = random.Random(29)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 7))
        h = random_graph(rng, rng.randrange(1, 7))
        assert tensor_product(g, h).edge_count == 2 * g.edge_count * h.edge_count


def test_product_symmetric_up_to_grid_swap():
    rng = random.Random(31)
    g = random_graph(rng, 3)
    h = random_graph(rng, 4)
    gh = tensor_product(g, h)
    hg = tensor_product(h, g)
    # send index i*4+j of g(x)h to j*3+i of h(x)g
    perm = [(v % 4) * 3 + (v // 4) for v in range(12)]
    assert gh.relabel(perm) == hg


def test_two_sum_basics():
    rng = random.Random(37)
    g = random_graph(rng, 6)
    empty = standard_graph("edgeless", 6)
    assert two_sum(g, g) == empty
    assert two_sum(g, empty) == g
    h = random_graph(rng, 6)
    assert two_sum(g, h) == two_sum(h, g)
    f = random_graph(rng, 6)
    assert two_sum(two_sum(g, h), f) == two_sum(g, two_sum(h, f))


def test_two_sum_matches_the_full_width_xor_at_every_order():
    rng = random.Random(43)
    for n in range(65):
        empty = new_graph(n, [])
        for _ in range(3):
            sparse = random_graph(rng, n, 0.05)
            dense = random_graph(rng, n, 0.9)
            pairs = [(sparse, dense), (dense, sparse), (sparse, sparse), (dense, dense), (dense, empty), (empty, sparse)]
            for g, h in pairs:
                out = two_sum(g, h)
                assert out.n == n and out.rows == tuple(a ^ b for a, b in zip(g.rows, h.rows))
            assert two_sum(dense, dense) == two_sum(sparse, sparse) == two_sum(empty, empty) == empty


def test_two_sum_rejects_mismatch():
    with pytest.raises(ValueError, match="2-sum needs equal vertex counts, got 3 and 4"):
        two_sum(standard_graph("path", 3), standard_graph("path", 4))
    with pytest.raises(ValueError, match="got 5 and 0"):
        two_sum(standard_graph("edgeless", 5), new_graph(0, []))


def test_two_sum_pinned_example():
    prod = tensor_product(standard_graph("complete", 4), standard_graph("complete", 3))
    other = tensor_product(standard_graph("cycle", 4), standard_graph("path", 3))
    assert other.edge_count == 16
    mixed = two_sum(prod, other)
    assert mixed.edge_count == 20
    # the 16 edges cancel, so the smaller product is a subgraph of the larger
    assert all(prod.has_edge(u, v) for u, v in other.edges())


def test_tensor_elementary():
    assert tensor_elementary(2, 2, 0, 1, 0, 1) == tensor_product(
        standard_graph("complete", 2), standard_graph("complete", 2)
    )
    e = tensor_elementary(2, 3, 0, 1, 0, 2)
    assert sorted(e.edges()) == [(0, 5), (2, 3)]


@pytest.mark.parametrize("p", range(2, 6))
@pytest.mark.parametrize("q", range(2, 6))
def test_tensor_elementary_is_the_product_of_its_one_edge_factors(p, q):
    for i, i2 in combinations(range(p), 2):
        for j, j2 in combinations(range(q), 2):
            expected = tensor_product(new_graph(p, [(i, i2)]), new_graph(q, [(j, j2)]))
            assert tensor_elementary(p, q, i, i2, j, j2) == expected


def test_tensor_elementary_rejects_bad_indices():
    with pytest.raises(ValueError):
        tensor_elementary(2, 2, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        tensor_elementary(2, 2, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        tensor_elementary(2, 2, 0, 1, 0, 2)


def test_tensor_2sum():
    k2 = standard_graph("complete", 2)
    single = tensor_2sum([TensorSummand(k2, k2)])
    assert single == tensor_product(k2, k2)
    rng = random.Random(43)
    g, h = random_nontrivial(rng, 3), random_nontrivial(rng, 4)
    cancel = tensor_2sum([TensorSummand(g, h), TensorSummand(g, h)])
    assert cancel == standard_graph("edgeless", 12)


def test_tensor_2sum_distributes():
    rng = random.Random(47)
    g = random_nontrivial(rng, 3)
    h1 = random_nontrivial(rng, 4)
    h2 = random_nontrivial(rng, 4)
    merged = two_sum(h1, h2)
    split = tensor_2sum([TensorSummand(g, h1), TensorSummand(g, h2)])
    if merged.edge_count:
        assert tensor_2sum([TensorSummand(g, merged)]) == split
    else:
        assert split.edge_count == 0


def test_tensor_2sum_rejects_bad_input():
    k2 = standard_graph("complete", 2)
    k3 = standard_graph("complete", 3)
    with pytest.raises(ValueError):
        tensor_2sum([])
    with pytest.raises(ValueError):
        tensor_2sum([TensorSummand(k2, k2), TensorSummand(k3, k2)])
    with pytest.raises(ValueError):
        tensor_2sum([TensorSummand(k2, standard_graph("edgeless", 2))])


def test_grid_index_convention():
    # edge of g between rows 0,2 and edge of h between cols 1,3:
    # product joins (0,1)-(2,3) and (0,3)-(2,1) at v = i*q + j
    g = new_graph(3, [(0, 2)])
    h = new_graph(4, [(1, 3)])
    prod = tensor_product(g, h)
    assert sorted(prod.edges()) == [(0 * 4 + 1, 2 * 4 + 3), (0 * 4 + 3, 2 * 4 + 1)]
