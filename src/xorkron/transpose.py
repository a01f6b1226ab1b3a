"""Blockwise partial transpose of square 0/1 matrices and the fixed-point test."""

from __future__ import annotations

from .graphs import Graph


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
    every graph would pass. Graphs composed by XOR of tensor products with a
    size-p left factor always pass, but passing does not certify membership.
    """
    if p < 2:
        raise ValueError(f"partial-transpose test needs p >= 2, got {p}")
    if k.n % p:
        raise ValueError(f"p={p} does not divide the vertex count {k.n}")
    if k.n // p < 2:
        raise ValueError(f"partial-transpose test needs blocks of size n/p >= 2, got {k.n // p}")
    return partial_transpose(k.rows, p) == k.rows


def format_matrix_text(rows: tuple[int, ...] | list[int], n: int) -> str:
    """One line of n '0'/'1' characters per row; bit c prints at column c."""
    return "\n".join("".join(str((row >> c) & 1) for c in range(n)) for row in rows) + "\n"


def parse_matrix_text(text: str) -> tuple[int, tuple[int, ...]]:
    """Inverse of format_matrix_text; returns (n, rows). Rows must be square.

    Blank lines are skipped, so text of line breaks alone is the 0 x 0
    matrix, which format_matrix_text writes as one line break.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        if "\n" in text:
            return 0, ()
        raise ValueError("empty matrix text")
    n = len(lines)
    rows = []
    for r, ln in enumerate(lines):
        if len(ln) != n:
            raise ValueError(f"row {r} has {len(ln)} columns, expected {n}")
        if set(ln) - {"0", "1"}:
            raise ValueError(f"row {r} has characters other than 0/1")
        rows.append(sum((1 << c) for c, ch in enumerate(ln) if ch == "1"))
    return n, tuple(rows)
