"""Blockwise partial transpose: involution, fixed points, and symmetry behavior."""

from __future__ import annotations

import random

import numpy as np
import pytest

from xorkron import (
    TensorSummand,
    format_matrix_text,
    new_graph,
    parse_matrix_text,
    partial_transpose,
    ppt_test,
    standard_graph,
    tensor_2sum,
    tensor_product,
)

from .helpers import random_nontrivial


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
