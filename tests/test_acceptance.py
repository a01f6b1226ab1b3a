"""Acceptance gate: fifteen checked claims with runtime budgets.

Each test prints one "criterion N: PASS" line containing the measured
figures (run pytest with -s to see them on success). Budgets are asserted,
not just observed.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations

import networkx as nx

from xorkron import (
    Certificate,
    GridShape,
    TensorSummand,
    Witness,
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
    t2_exact,
    tensor_2sum,
    tensor_elementary,
    tensor_product,
    two_sum,
    valid_labelings,
    verify_certificate,
    verify_components,
)
from xorkron.cli import main
from xorkron.membership import REASON_ODD_EDGES, REASON_SEARCH_EXHAUSTED

from .helpers import brute_valid_labelings, random_graph, random_nontrivial, t2_bruteforce_oracle


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
    # the search alone, as recognize runs it after a passed prefilter, finds no labeling
    assert next(valid_labelings(c4, GridShape(2, 2)), None) is None
    assert brute_valid_labelings(c4, 2, 2) == []
    cert = recognize(c4, GridShape(2, 2))
    assert not cert.verdict and verify_certificate(cert) == []
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


def test_criterion_12_full_3x4_census_within_budget(capsys):
    # each member is one step from the previous one, so the whole listing is cheap
    shape = GridShape(3, 4)
    start = time.perf_counter()
    count = 0
    for k in census(shape):
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 2**18
    assert k == tensor_product(standard_graph("complete", 3), standard_graph("complete", 4))
    assert elapsed < 5.0
    # the listing `xorkron census` prints, byte for byte as the per-bit graph6 codec wrote it
    start = time.perf_counter()
    assert main(["census", "--p", "3", "--q", "4"]) == 0
    listed = time.perf_counter() - start
    listing = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(listing).hexdigest() == "add7dbb41009d57119284e7908cc6f95ffe1126ddc9d749eb7f210fa19eb7421"
    assert listed < 1.0, f"census --p 3 --q 4 took {listed:.2f}s"
    print(f"criterion 12: PASS ({count} members of the 3x4 census in {elapsed:.2f}s, listed in {listed:.2f}s, listing pinned)")


def test_criterion_13_full_8x8_member_verifies_within_budget():
    # every one of the 784 crosses is rebuilt and XORed back; best of three runs
    shape = GridShape(8, 8)
    k = graph_from_quadruples(shape, pair_quadruples(shape))
    assert k == _complete_product(8, 8)
    cert = is_spanning_cross_like(k, shape)
    assert len(cert.summands) == 784
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        problems = verify_certificate(cert)
        best = min(best, time.perf_counter() - start)
        assert problems == []
    assert best < 0.02
    print(f"criterion 13: PASS (full 8x8 member, 784 summands, verified in {best * 1000:.1f}ms)")


def test_criterion_14_hard_recognitions_finish_within_budget():
    # a 4x4 non-member that passes the prefilter, then permuted sparse 5x5 members
    shape = GridShape(4, 4)
    k = graph6_decode("O?????@???Co_??C@@_C?")
    start = time.perf_counter()
    cert = recognize(k, shape)
    problems = verify_certificate(cert)
    refuted = time.perf_counter() - start
    assert not cert.verdict and cert.witness.reason == REASON_SEARCH_EXHAUSTED
    assert problems == []
    assert refuted < 1.0

    shape = GridShape(5, 5)
    worst = 0.0
    for seed in range(1, 7):
        rng = random.Random(seed)
        quads = rng.sample(pair_quadruples(shape), 5)
        perm = list(range(25))
        rng.shuffle(perm)
        g = graph_from_quadruples(shape, quads).relabel(perm)
        start = time.perf_counter()
        cert = recognize(g, shape)
        problems = verify_certificate(cert)
        worst = max(worst, time.perf_counter() - start)
        assert cert.verdict and problems == []
    assert worst < 0.5
    print(
        f"criterion 14: PASS (4x4 non-member refuted and verified in {refuted * 1000:.1f}ms, "
        f"six permuted 5x5 five-cross members worst {worst * 1000:.1f}ms)"
    )


def test_criterion_15_refutation_verifies_within_budget():
    # verify_certificate asks only whether some valid labeling exists; on the slowest 4x5 refutation of
    # the ROADMAP's recipe the least-first search takes about 0.8 s, the existence check a few ms
    shape = GridShape(4, 5)
    k = graph6_decode("S?C??G???????????_??A@AO?AOC???`?")
    cert = Certificate(False, shape, k, witness=Witness(REASON_SEARCH_EXHAUSTED))
    start = time.perf_counter()
    problems = verify_certificate(cert)
    elapsed = time.perf_counter() - start
    assert problems == []
    assert elapsed < 0.2
    print(f"criterion 15: PASS (4x5 search-exhausted certificate verified in {elapsed * 1000:.1f}ms)")
