"""Blockwise partial transpose: involution, fixed points, and symmetry behavior."""

from __future__ import annotations

import random
import time
from math import comb

import numpy as np
import pytest

from xorkron import (
    Graph,
    GridShape,
    TensorSummand,
    format_matrix_text,
    graph_from_quadruples,
    new_graph,
    pair_quadruples,
    partial_transpose,
    ppt_test,
    standard_graph,
    tensor_2sum,
    tensor_product,
    two_sum,
)
from xorkron.membership import REASON_SAME_LINE, _read_blocks, find_violation

from .helpers import parse_matrix_text, random_graph, random_nontrivial


def _random_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(n) for _ in range(n))


def test_block_matrix_validation():
    with pytest.raises(ValueError):
        partial_transpose((0, 0, 0, 0), 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        partial_transpose((0, 0, 0), 2)  # 2 does not divide 3
    with pytest.raises(ValueError):
        partial_transpose((4, 0), 2)  # bit outside 0..1
    with pytest.raises(ValueError):
        partial_transpose((-1, 0), 2)
    with pytest.raises(ValueError):
        partial_transpose((0, 0, 0, 0), 0)
    assert partial_transpose((0,) * 6, 2) == (0,) * 6
    assert partial_transpose((), 2) == ()


SHAPES = ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (5, 1), (6, 6), (12, 3), (64, 8))


def test_partial_transpose_is_an_involution():
    rng = random.Random(61)
    for n, p in SHAPES:
        for _ in range(10):
            rows = _random_bits(rng, n)
            assert partial_transpose(partial_transpose(rows, p), p) == rows


def test_partial_transpose_matches_numpy_reference():
    rng = random.Random(67)
    for n, p in SHAPES:
        q = n // p
        for _ in range(10):
            rows = _random_bits(rng, n)
            dense = np.array([[(row >> c) & 1 for c in range(n)] for row in rows])
            expected = dense.reshape(p, q, p, q).transpose(0, 3, 2, 1).reshape(n, n)
            out = partial_transpose(rows, p)
            got = np.array([[(row >> c) & 1 for c in range(n)] for row in out])
            assert (got == expected).all()


def test_pinned_fixed_points():
    # 4-vertex path written down with its two off-diagonal blocks symmetric
    k = new_graph(4, [(0, 2), (0, 3), (1, 2)])
    assert partial_transpose(k.rows, 2) == k.rows
    assert ppt_test(k, 2)
    matching = tensor_product(standard_graph("complete", 2), standard_graph("complete", 2))
    assert ppt_test(matching, 2)


def test_consecutive_path_is_not_a_fixed_point():
    assert not ppt_test(standard_graph("path", 4), 2)


def test_every_composed_member_is_a_fixed_point():
    rng = random.Random(71)
    for _ in range(60):
        p, q = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        summands = [
            TensorSummand(random_nontrivial(rng, p), random_nontrivial(rng, q))
            for _ in range(rng.randrange(1, 5))
        ]
        assert ppt_test(tensor_2sum(summands), p)


def _partners_present(k, p: int) -> bool:
    """Every edge joining distinct rows and columns of the p x (n/p) grid has its partner diagonal."""
    q = k.n // p
    for u, v in k.edges():
        i, j, i2, j2 = u // q, u % q, v // q, v % q
        if i != i2 and j != j2 and not k.has_edge(i * q + j2, i2 * q + j):
            return False
    return True


def _check_fixed_point(k, p: int, fixed: bool) -> None:
    """ppt_test(k, p) == fixed, as the transpose says; ppt_test is the partner half of find_violation's check."""
    assert ppt_test(k, p) == (partial_transpose(k.rows, p) == k.rows) == _partners_present(k, p) == fixed
    w = find_violation(k, GridShape(p, k.n // p))
    if fixed:  # a fixed point fails membership only through a same-line edge
        assert w is None or w.reason == REASON_SAME_LINE
    else:  # and every member is a fixed point
        assert w is not None


# every (n, p) with n <= 6 that ppt_test accepts: (4, 2), (6, 2) and (6, 3)
@pytest.mark.parametrize("n, p", [(n, p) for n in range(7) for p in range(2, n) if n % p == 0 and n // p >= 2])
def test_fixed_points_are_exactly_the_graphs_with_every_cross_partner(n, p):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    fixed_count = 0
    for mask in range(1 << len(pairs)):
        k = new_graph(n, [pair for t, pair in enumerate(pairs) if (mask >> t) & 1])
        fixed = ppt_test(k, p)
        _check_fixed_point(k, p, fixed)
        fixed_count += fixed
    # free: each cross as a whole, each same-row pair and each same-column pair
    q = n // p
    a, b = comb(p, 2), comb(q, 2)
    assert fixed_count == 2 ** (a * b + p * b + q * a)


@pytest.mark.parametrize("p, q", [(3, 3), (3, 4), (4, 4), (4, 5)])
def test_members_stay_fixed_under_line_edges_and_leave_under_a_cross_edge(p, q):
    rng = random.Random(f"ppt:{p}x{q}")
    n = p * q
    quads = pair_quadruples(GridShape(p, q))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    in_line = [(u, v) for u, v in pairs if u // q == v // q or u % q == v % q]
    across = [(u, v) for u, v in pairs if u // q != v // q and u % q != v % q]
    for _ in range(40):
        member = graph_from_quadruples(GridShape(p, q), rng.sample(quads, rng.randrange(len(quads) + 1)))
        lined = two_sum(member, new_graph(n, rng.sample(in_line, rng.randrange(1, 4))))
        _check_fixed_point(lined, p, True)
        assert find_violation(lined, GridShape(p, q)).reason == REASON_SAME_LINE
        _check_fixed_point(two_sum(member, new_graph(n, [rng.choice(across)])), p, False)


def test_ppt_test_agrees_with_the_transpose_on_random_graphs_at_every_divisor():
    # wide, square and tall grids; the closures k | PT(k) are fixed points, one toggled edge usually breaks them
    rng = random.Random(4040)
    for n in range(4, 41):
        for p in (p for p in range(2, n) if n % p == 0 and n // p >= 2):
            for density in (0.05, 0.3, 0.8):
                k = random_graph(rng, n, density)
                closure = Graph(n, [a | b for a, b in zip(k.rows, partial_transpose(k.rows, p))])
                u, v = rng.sample(range(n), 2)
                toggled = two_sum(closure, new_graph(n, [(u, v)]))
                for g in (k, closure, toggled):  # membership's block read too on tall grids, where ppt_test transposes
                    fixed = partial_transpose(g.rows, p) == g.rows
                    assert ppt_test(g, p) == (_read_blocks(Graph(n, g.rows), p, n // p) is not False) == fixed
                assert ppt_test(closure, p)


def test_ppt_test_on_a_wide_edgeless_graph_within_budget():
    # deciding by the transpose, p*q*q Python steps, took about 1 s here
    start = time.perf_counter()
    assert ppt_test(standard_graph("edgeless", 4000), 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"ppt_test(E4000, 2) took {elapsed:.2f} s"


def test_ppt_test_on_a_tall_edgeless_graph_within_budget():
    # the block test's C(p,2)*(q-1) steps, about 8M here, took about 4 s; the transpose's p*q*q are 16000
    start = time.perf_counter()
    assert ppt_test(standard_graph("edgeless", 8000), 4000)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"ppt_test(E8000, 4000) took {elapsed:.2f} s"


def test_ppt_test_rejects_bad_block_size():
    g = standard_graph("path", 4)
    with pytest.raises(ValueError):
        ppt_test(g, 1)
    with pytest.raises(ValueError):
        ppt_test(g, 3)
    # blocks of size 1 (p = n) or 0 (the empty graph) would make every graph a fixed point
    with pytest.raises(ValueError):
        ppt_test(g, 4)
    with pytest.raises(ValueError):
        ppt_test(standard_graph("complete", 2), 2)
    with pytest.raises(ValueError):
        ppt_test(standard_graph("edgeless", 0), 2)
    assert not ppt_test(g, 2)


def _symmetric_4x4_matrices():
    # 10 free bits: 6 above the diagonal plus 4 on it
    pairs = [(r, c) for r in range(4) for c in range(r, 4)]
    for mask in range(1 << 10):
        rows = [0] * 4
        for t, (r, c) in enumerate(pairs):
            if (mask >> t) & 1:
                rows[r] |= 1 << c
                rows[c] |= 1 << r
        yield tuple(rows)


def _block_symmetric(rows: tuple[int, ...], p: int) -> bool:
    q = len(rows) // p

    def entry(r: int, c: int) -> int:
        return (rows[r] >> c) & 1

    for s1 in range(p):
        for s2 in range(p):
            for r1 in range(q):
                for r2 in range(q):
                    if entry(s1 * q + r1, s2 * q + r2) != entry(s1 * q + r2, s2 * q + r1):
                        return False
    return True


def test_symmetry_always_survives_and_fixed_point_means_symmetric_blocks():
    # exhaustive over all 1024 symmetric 4x4 0/1 matrices at block size 2
    count_fixed = 0
    for rows in _symmetric_4x4_matrices():
        out = partial_transpose(rows, 2)
        assert all(
            ((out[r] >> c) & 1) == ((out[c] >> r) & 1) for r in range(4) for c in range(4)
        )
        fixed = out == rows
        assert fixed == _block_symmetric(rows, 2)
        count_fixed += fixed
    assert 0 < count_fixed < 1024


def test_matrix_text_roundtrip():
    k = new_graph(4, [(0, 2), (0, 3), (1, 2)])
    text = format_matrix_text(k.rows, 4)
    assert text == "0011\n0010\n1100\n1000\n"
    assert parse_matrix_text(text) == (4, tuple(k.rows))
    with pytest.raises(ValueError):
        parse_matrix_text("01\n0\n")
    with pytest.raises(ValueError):
        parse_matrix_text("0x\n00\n")
    with pytest.raises(ValueError):
        parse_matrix_text("")


def test_matrix_text_roundtrip_at_every_small_order():
    rng = random.Random(5)
    for n in range(6):
        rows = tuple(rng.getrandbits(n) if n else 0 for _ in range(n))
        assert parse_matrix_text(format_matrix_text(rows, n)) == (n, rows)
    assert format_matrix_text((), 0) == "\n"
