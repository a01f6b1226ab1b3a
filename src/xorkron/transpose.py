"""Blockwise partial transpose of square 0/1 matrices, and the fixed-point test by membership's block reader."""

from __future__ import annotations

from .graphs import Graph
from .membership import _holds_read, _pair_rows


def partial_transpose(rows: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Transpose each q x q block in place on the p x p block grid.

    rows is a square 0/1 matrix of order n = len(rows) as bit rows: bit c of
    rows[r] is entry (r, c). p must divide n, and q = n // p. Entry
    (s1*q + r1, s2*q + r2) of the result is entry (s1*q + r2, s2*q + r1) of
    the input: block positions stay put, block contents transpose. Output
    row s1*q + r1 gathers, from each input row s1*q + r2 of its block row,
    the bits at in-block column r1 and moves them to in-block column r2.
    """
    n = len(rows)
    if p < 1:
        raise ValueError(f"block grid size must be positive, got {p}")
    if n % p:
        raise ValueError(f"block size p={p} does not divide order n={n}")
    full = (1 << n) - 1
    for r, row in enumerate(rows):
        if row < 0 or row & ~full:
            raise ValueError(f"row {r} has bits outside 0..{n - 1}")
    q = n // p
    lane = sum(1 << (s * q) for s in range(p))  # in-block column 0 of every block
    out = []
    for s1 in range(p):
        block_row = rows[s1 * q:(s1 + 1) * q]
        for r1 in range(q):
            mask = lane << r1
            acc = 0
            for r2, row in enumerate(block_row):
                bits = row & mask
                acc |= bits << (r2 - r1) if r2 >= r1 else bits >> (r1 - r2)
            out.append(acc)
    return tuple(out)


def ppt_test(k: Graph, p: int) -> bool:
    """True iff the adjacency matrix equals its blockwise partial transpose.

    Needs p >= 2, p dividing the vertex count and blocks of size n/p >= 2:
    at p = 1 or p = n the transpose is the plain one or the identity, so
    every graph would pass. With vertex v read as grid cell (v div q, v mod q),
    q = n/p, the test holds iff every edge that joins distinct rows and
    distinct columns has its partner, the other diagonal of its grid
    rectangle; equivalently, iff k without its same-row and same-column edges
    is a labeled member. Proof sketch: the transpose swaps the two diagonals
    of every grid rectangle and fixes same-line pairs. So the test is the
    compare of the labeled member test, and ppt_test asks membership's one
    block reader, _pair_rows: the partners are closed unless the read found
    a cross without its partner. A census member at its own shape answers
    from the matrix it carries; any other graph is read in C(p,2)*(q-1)
    steps, and the read, with the pair matrix of a member, is kept on it for
    the member test, t2 and the witness at this shape. Only on a graph with
    no record at this shape, where the whole transpose takes fewer steps,
    p*q*q, as on grids more than about twice as tall as wide, is the
    transpose built and compared instead, and nothing is kept.
    """
    if p < 2:
        raise ValueError(f"partial-transpose test needs p >= 2, got {p}")
    if k.n % p:
        raise ValueError(f"p={p} does not divide the vertex count {k.n}")
    q = k.n // p
    if q < 2:
        raise ValueError(f"partial-transpose test needs blocks of size n/p >= 2, got {q}")
    if (p - 1) * (q - 1) > 2 * q * q and not _holds_read(k, p, q):  # C(p,2)*(q-1) > p*q*q
        return partial_transpose(k.rows, p) == k.rows
    return _pair_rows(k, p, q) is not False


def format_matrix_text(rows: tuple[int, ...] | list[int], n: int) -> str:
    """One line of n '0'/'1' characters per row; bit c prints at column c."""
    return "\n".join("".join(str((row >> c) & 1) for c in range(n)) for row in rows) + "\n"
