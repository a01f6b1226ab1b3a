"""Acceptance gate: eleven checked claims with runtime budgets.

Each test prints one "criterion N: PASS" line containing the measured
figures (run pytest with -s to see them on success). Budgets are asserted,
not just observed.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import networkx as nx

from xorkron import (
    GridShape,
    TensorSummand,
    build_ppt_graph,
    census,
    elementary_decomposition,
    format_matrix_text,
    graph6_decode,
    graph6_encode,
    graph_from_quadruples,
    is_spanning_cross_like,
    new_graph,
    pair_quadruples,
    ppt_test,
    recognize,
    standard_graph,
    t2_bruteforce_oracle,
    t2_exact,
    tensor_2sum,
    tensor_elementary,
    tensor_product,
    two_sum,
    verify_certificate,
    verify_components,
)
from xorkron.membership import REASON_ODD_EDGES, REASON_SEARCH_EXHAUSTED

from .helpers import brute_valid_labelings, random_graph, random_nontrivial


def _complete_product(p: int, q: int):
    return tensor_product(standard_graph("complete", p), standard_graph("complete", q))


def test_criterion_01_composed_members_are_transpose_fixed_points():
    # 500 random compositions across p,q in {2,3,4}, 1..4 summands; budget 5 s
    rng = random.Random(2026)
    start = time.perf_counter()
    for _ in range(500):
        p, q = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        summands = [
            TensorSummand(random_nontrivial(rng, p), random_nontrivial(rng, q))
            for _ in range(rng.randrange(1, 5))
        ]
        assert ppt_test(tensor_2sum(summands), p)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS (500 composed graphs fixed under partial transpose, {elapsed:.2f}s)")


def test_criterion_02_counterexample_matrix_is_bit_exact():
    # the published 4-vertex path relabeling: fixed point but not a member
    k = new_graph(4, [(0, 2), (0, 3), (1, 2)])
    assert format_matrix_text(k.rows, 4) == "0011\n0010\n1100\n1000\n"
    assert ppt_test(k, 2)
    cert = recognize(k, GridShape(2, 2))
    assert not cert.verdict
    assert cert.witness.reason == REASON_ODD_EDGES
    print("criterion 2: PASS (matrix rows 0011/0010/1100/1000, fixed point, rejected for odd edges)")


def test_criterion_03_equivalence_exhaustive_at_3_3():
    # all 512 cross-pair subsets are members and round-trip; random non-members fail
    shape = GridShape(3, 3)
    start = time.perf_counter()
    member_set = set()
    for k in census(shape):
        cert = is_spanning_cross_like(k, shape)
        assert cert.verdict
        assert graph_from_quadruples(shape, elementary_decomposition(k, shape)) == k
        member_set.add(k)
    assert len(member_set) == 512
    rng = random.Random(404)
    rejected = 0
    for _ in range(1000):
        g = random_graph(rng, 9, density=rng.choice([0.1, 0.2, 0.4]))
        verdict = is_spanning_cross_like(g, shape).verdict
        assert verdict == (g in member_set)
        rejected += not verdict
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 3: PASS (512 members round-trip, {rejected}/1000 random graphs rejected, {elapsed:.2f}s)"
    )


def test_criterion_04_edge_bound_attained_only_by_the_full_product():
    shape = GridShape(3, 3)
    attained = [k for k in census(shape) if k.edge_count == 18]
    assert all(k.edge_count <= 18 for k in census(shape))
    assert attained == [_complete_product(3, 3)]
    print("criterion 4: PASS (all 512 graphs have <= 18 edges; the one attaining 18 is the complete product)")


def test_criterion_05_rank_value_matches_search_oracle_everywhere():
    start = time.perf_counter()
    checked = 0
    for p, q in ((2, 2), (2, 3), (3, 3)):
        shape = GridShape(p, q)
        for k in census(shape):
            assert t2_exact(k, shape) == t2_bruteforce_oracle(k, shape)
            checked += 1
    shape33 = GridShape(3, 3)
    full_value = t2_exact(_complete_product(3, 3), shape33)
    chain = two_sum(tensor_elementary(3, 3, 0, 1, 0, 1), tensor_elementary(3, 3, 1, 2, 1, 2))
    chain_value = t2_exact(chain, shape33)
    chain_oracle = t2_bruteforce_oracle(chain, shape33)
    assert full_value == 1
    assert chain_value == chain_oracle == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"criterion 5: PASS ({checked} census graphs agree with the oracle, {elapsed:.2f}s; "
        f"complete product needs {full_value} summand; the chained-cross graph at (3,3) needs "
        f"{chain_value} = p-1, not p)"
    )


def test_criterion_06_constructed_embeddings_check_out():
    start = time.perf_counter()
    inputs = {
        "K2": standard_graph("complete", 2),
        "P3": standard_graph("path", 3),
        "K3": standard_graph("complete", 3),
        "C5": standard_graph("cycle", 5),
        "P4": standard_graph("path", 4),
    }
    for name, g in inputs.items():
        h, labeling = build_ppt_graph(g)
        assert is_spanning_cross_like(h, labeling.shape).verdict, name
        assert verify_components(h, g), name
        assert ppt_test(h, g.n), name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 6: PASS (5 embeddings: member, components m*K2 + isolated rest, fixed point; {elapsed:.2f}s)")


def test_criterion_07_product_distributes_over_xor():
    rng = random.Random(77)
    for _ in range(200):
        p, q = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        g = random_graph(rng, p)
        h1 = random_graph(rng, q)
        h2 = random_graph(rng, q)
        left = tensor_product(g, two_sum(h1, h2))
        right = two_sum(tensor_product(g, h1), tensor_product(g, h2))
        assert left == right
    print("criterion 7: PASS (200 random triples distribute exactly)")


def test_criterion_08_recognition_under_permutation_and_cycle_rejection():
    shape = GridShape(3, 3)
    k = _complete_product(3, 3)
    rng = random.Random(555)
    worst = 0.0
    for _ in range(50):
        perm = list(range(9))
        rng.shuffle(perm)
        g = k.relabel(perm)
        start = time.perf_counter()
        cert = recognize(g, shape)
        worst = max(worst, time.perf_counter() - start)
        assert cert.verdict
        assert verify_certificate(cert) == []
    assert worst < 1.0

    c4 = standard_graph("cycle", 4)
    cert = recognize(c4, GridShape(2, 2), use_prefilter=False)
    assert not cert.verdict and cert.witness.reason == REASON_SEARCH_EXHAUSTED
    assert brute_valid_labelings(c4, 2, 2) == []
    print(f"criterion 8: PASS (50 permuted products recognized, worst {worst * 1000:.1f}ms; 4-cycle exhausts all labelings)")


def test_criterion_09_members_always_have_even_edge_counts():
    total = 0
    for p, q in ((2, 2), (2, 3), (3, 3)):
        for k in census(GridShape(p, q)):
            assert k.edge_count % 2 == 0
            total += 1
    print(f"criterion 9: PASS ({total} census graphs, all even edge counts)")


def test_criterion_10_codec_roundtrip_and_reference_pins():
    suite_graphs = [
        standard_graph("complete", 2),
        standard_graph("complete", 4),
        standard_graph("edgeless", 1),
        standard_graph("path", 4),
        standard_graph("cycle", 5),
        standard_graph("cycle", 9),
        _complete_product(2, 2),
        _complete_product(2, 3),
        _complete_product(3, 3),
        tensor_elementary(2, 3, 0, 1, 0, 2),
        new_graph(4, [(0, 2), (0, 3), (1, 2)]),
        build_ppt_graph(standard_graph("complete", 3))[0],
    ]
    rng = random.Random(88)
    suite_graphs += [random_graph(rng, n) for n in range(1, 11)]
    for g in suite_graphs:
        if g.n > 10:
            continue
        assert graph6_decode(graph6_encode(g)) == g
    pins = {
        standard_graph("complete", 2): "A_",
        standard_graph("complete", 4): "C~",
        standard_graph("edgeless", 1): "@",
    }
    for g, expected in pins.items():
        assert graph6_encode(g) == expected
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(ref, header=False).strip().decode("ascii") == expected
    print("criterion 10: PASS (round-trips on the suite graphs; A_/C~/@ match the reference codec)")


def test_criterion_11_sparse_members_recognized_within_budget():
    # sparse members have many valid labelings; the search stops at the least one
    rng = random.Random(777)
    shape = GridShape(3, 4)
    quads = list(pair_quadruples(shape))
    disjoint = [(a, b) for a, b in combinations(quads, 2) if not {a[2], a[3]} & {b[2], b[3]}]
    worst_3_4 = 0.0
    for a, b in rng.sample(disjoint, 12):
        perm = list(range(12))
        rng.shuffle(perm)
        g = graph_from_quadruples(shape, [a, b]).relabel(perm)
        assert sum(1 for row in g.rows if not row) == 4
        start = time.perf_counter()
        cert = recognize(g, shape)
        worst_3_4 = max(worst_3_4, time.perf_counter() - start)
        assert cert.verdict and verify_certificate(cert) == []
    assert worst_3_4 < 0.1

    shape = GridShape(4, 4)
    quads = list(pair_quadruples(shape))
    worst_4_4 = 0.0
    for _ in range(6):
        perm = list(range(16))
        rng.shuffle(perm)
        g = graph_from_quadruples(shape, rng.sample(quads, 2)).relabel(perm)
        start = time.perf_counter()
        cert = recognize(g, shape)
        worst_4_4 = max(worst_4_4, time.perf_counter() - start)
        assert cert.verdict and verify_certificate(cert) == []
    assert worst_4_4 < 2.0
    print(
        f"criterion 11: PASS (3x4 two disjoint crosses worst {worst_3_4 * 1000:.1f}ms, "
        f"4x4 two crosses worst {worst_4_4 * 1000:.1f}ms)"
    )
