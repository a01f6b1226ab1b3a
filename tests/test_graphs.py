"""Graph type, constructors, and codecs, pinned against networkx where it counts."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorkron import (
    Graph,
    GridShape,
    TensorSummand,
    build_ppt_graph,
    census,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    graph_from_quadruples,
    new_graph,
    pair_quadruples,
    parse_edge_list,
    standard_graph,
    tensor_2sum,
    tensor_elementary,
    tensor_product,
    two_sum,
)

from xorkron.graphs import GRAPH6_MAX_N

from .helpers import (
    dense_rows,
    random_graph,
    random_nontrivial,
    reference_graph6_decode,
    reference_graph6_encode,
)


def test_new_graph_examples():
    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4.edge_count == 3
    assert new_graph(3, []).edge_count == 0
    k2 = new_graph(2, [(0, 1), (1, 0)])
    assert k2.edge_count == 1


def test_new_graph_rejects_bad_pairs():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        new_graph(-1, [])


def test_graph_ctor_validates():
    with pytest.raises(ValueError):
        Graph(2, [0])
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0])  # not symmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # diagonal set
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0])  # bit out of range
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, [])


def _library_built_graphs(rng: random.Random):
    """Outputs of every operation that builds its result without re-validation."""
    for _ in range(25):
        p, q = rng.randrange(2, 5), rng.randrange(2, 5)
        prod = tensor_product(random_graph(rng, p), random_graph(rng, q))
        yield prod
        yield two_sum(prod, tensor_product(random_graph(rng, p), random_graph(rng, q)))
        i, i2 = sorted(rng.sample(range(p), 2))
        j, j2 = sorted(rng.sample(range(q), 2))
        yield tensor_elementary(p, q, i, i2, j, j2)
        summands = [TensorSummand(random_nontrivial(rng, p), random_nontrivial(rng, q))
                    for _ in range(rng.randrange(1, 4))]
        yield tensor_2sum(summands)
        n = rng.randrange(0, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        yield random_graph(rng, n).relabel(perm)
        pairs = list(combinations(range(n), 2))
        yield new_graph(n, [rng.choice([(u, v), (v, u)]) for u, v in pairs if rng.random() < 0.4])
        body = "".join(chr(rng.randrange(63, 127)) for _ in range((len(pairs) + 5) // 6))
        yield graph6_decode(chr(n + 63) + body)
        quads = pair_quadruples(GridShape(p, q))
        yield graph_from_quadruples(GridShape(p, q), rng.sample(quads, rng.randrange(len(quads) + 1)))
        yield build_ppt_graph(random_graph(rng, rng.randrange(2, 6)))[0]
    yield from census(GridShape(3, 3))
    yield from census(GridShape(2, 4))


def test_trusted_outputs_pass_the_validating_constructor():
    for g in _library_built_graphs(random.Random(41)):
        rebuilt = Graph(g.n, g.rows)
        assert rebuilt == g
        assert hash(rebuilt) == hash(g)
        assert type(g.rows) is tuple


def test_standard_graphs():
    assert standard_graph("complete", 4).edge_count == 6
    assert standard_graph("path", 4).edge_count == 3
    assert standard_graph("cycle", 4).edge_count == 4
    assert standard_graph("edgeless", 5).edge_count == 0
    assert standard_graph("path", 1).edge_count == 0
    with pytest.raises(ValueError):
        standard_graph("cycle", 2)
    with pytest.raises(ValueError):
        standard_graph("wheel", 4)
    with pytest.raises(ValueError):
        standard_graph("complete", 0)


def test_relabel_roundtrip():
    rng = random.Random(3)
    g = random_graph(rng, 7)
    perm = list(range(7))
    rng.shuffle(perm)
    inverse = [0] * 7
    for v, t in enumerate(perm):
        inverse[t] = v
    assert g.relabel(perm).relabel(inverse) == g
    with pytest.raises(ValueError):
        g.relabel([0] * 7)


def test_graph6_pinned_strings():
    assert graph6_encode(standard_graph("complete", 2)) == "A_"
    assert graph6_encode(standard_graph("complete", 4)) == "C~"
    assert graph6_encode(standard_graph("edgeless", 1)) == "@"
    assert graph6_decode("A_") == standard_graph("complete", 2)
    assert graph6_decode(">>graph6<<C~") == standard_graph("complete", 4)
    assert graph6_decode(graph6_encode(standard_graph("path", 62))) == standard_graph("path", 62)
    with pytest.raises(ValueError, match="short form handles n <= 62, got 63"):
        graph6_encode(standard_graph("path", 63))


def test_graph6_matches_networkx_reference():
    graphs = [
        standard_graph("complete", 2),
        standard_graph("complete", 4),
        standard_graph("edgeless", 1),
        standard_graph("path", 4),
        standard_graph("cycle", 5),
    ]
    rng = random.Random(19)
    graphs += [random_graph(rng, rng.randrange(1, 11)) for _ in range(20)]
    graphs += [random_graph(rng, n) for n in range(GRAPH6_MAX_N + 1)]
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(ref, header=False).strip().decode("ascii")
        assert graph6_encode(g) == expected
        assert graph6_decode(expected) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_graph6_roundtrip(n, rnd):
    g = random_graph(rnd, n)
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_matches_the_reference_codec_on_every_graph_up_to_six_vertices():
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = new_graph(n, [pair for t, pair in enumerate(pairs) if (mask >> t) & 1])
            text = reference_graph6_encode(g)
            assert graph6_encode(g) == text
            assert graph6_decode(text) == g


def test_graph6_matches_the_reference_codec_at_every_order():
    rng = random.Random(62)
    for n in range(GRAPH6_MAX_N + 1):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, density)
            text = reference_graph6_encode(g)
            assert graph6_encode(g) == text
            assert graph6_decode(text) == g == reference_graph6_decode(text)


def test_graph6_decode_ignores_padding_bits_like_the_reference():
    # random printable bodies at every order, the padding bits of the last character set where there are any
    rng = random.Random(6)
    for n in range(GRAPH6_MAX_N + 1):
        nbits = n * (n - 1) // 2
        padding = (1 << (-nbits % 6)) - 1  # low bits of the last character that hold no edge
        for _ in range(4):
            body = [rng.randrange(64) for _ in range((nbits + 5) // 6)]
            head, last = body[:-1], body[-1:]
            text = "".join(chr(v + 63) for v in [n, *head, *(v | padding for v in last)])
            g = graph6_decode(text)
            assert g == reference_graph6_decode(text)
            clean = "".join(chr(v + 63) for v in [n, *head, *(v & ~padding for v in last)])
            assert graph6_encode(g) == reference_graph6_encode(g) == clean


def test_graph6_decode_rejects_malformed():
    cases = [
        ("", "empty graph6 string"),
        ("C", "truncated graph6 bit field: need 1 characters, got 0"),
        ("}" + "~" * 315, "truncated graph6 bit field: need 316 characters, got 315"),
        ("C~~~", "trailing data after graph6 bit field (2 extra characters)"),
        ("A" + chr(20), "graph6 character '\\x14' outside printable range 63..126"),
        ("A" + chr(127) + chr(20), "graph6 character '\\x7f' outside printable range 63..126"),
        ("A\u00e9", "graph6 character '\u00e9' outside printable range 63..126"),
        ("~??????", "long-form graph6 (n >= 63) is not supported"),
    ]
    for text, message in cases:
        for decode in (graph6_decode, reference_graph6_decode):
            with pytest.raises(ValueError) as info:
                decode(text)
            assert str(info.value) == message


def test_edge_list_roundtrip():
    g = new_graph(4, [(0, 2), (0, 3), (1, 2)])
    text = format_edge_list(g)
    assert text == "4\n0 2\n0 3\n1 2\n"
    assert parse_edge_list(text) == g
    assert parse_edge_list("3\n") == standard_graph("edgeless", 3)


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("x\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("4\n0 1 2\n")


def test_dense_rows_helper_agrees():
    g = new_graph(3, [(0, 1), (1, 2)])
    assert dense_rows(g) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
