"""Tests of the benchmark itself: seeded inputs, output checks, tracer hygiene.

Runs under pytest from the repository root; the package is imported from
`src/` and is never re-imported, so other test modules are unaffected.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import bench_checks as bc  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_workloads import (  # noqa: E402
    REPORT_TAG, SLOW_ISOLATED, WORKLOADS, CensusItem, CensusStats, Cli, Labeled, Recorder, Recognize, split_report,
)


@pytest.fixture(scope="module")
def xk():
    return run.modules()


def fingerprint(item) -> tuple:
    """Everything an input consists of, as plain data."""
    out = []
    for f in dataclasses.fields(item):
        value = getattr(item, f.name)
        if hasattr(value, "rows"):
            value = (value.n, tuple(value.rows))
        elif isinstance(value, dict):
            value = tuple(sorted((k, (v.n, tuple(v.rows)) if hasattr(v, "rows") else v) for k, v in value.items()))
        elif isinstance(value, list):
            value = tuple(value)
        out.append(value)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(xk, name):
    workload = WORKLOADS[name]()
    first = [fingerprint(i) for i in workload.generate(xk, 7)]
    again = [fingerprint(i) for i in workload.generate(xk, 7)]
    other = [fingerprint(i) for i in workload.generate(xk, 8)]
    assert first == again
    if name != "census-stats":  # the full census in stats mode does not depend on the seed
        assert first != other


def labeled_item(xk, kind: str, p=3, q=4):
    return next(i for i in Labeled().generate(xk, 3) if i.kind == kind and i.shape == (p, q))


def test_labeled_check_accepts_then_rejects_wrong_answers(xk):
    w = Labeled()
    member = labeled_item(xk, "member")
    out = w.run_op(xk, member)
    assert w.check(member, out) == ([], set())
    cert = out["cert"]
    wrong = [
        {**out, "cert": dataclasses.replace(cert, verdict=False)},
        {**out, "cert": dataclasses.replace(cert, summands=cert.summands[1:])},
        {**out, "t2": out["t2"] + 1},
        {**out, "ppt": False},
        {**out, "problems": ["invented"]},
        {**out, "g6": ValueError("graph6 broke")},
    ]
    for bad in wrong:
        assert w.check(member, bad)[0]

    defect = labeled_item(xk, "same-line")
    out = w.run_op(xk, defect)
    assert w.check(defect, out) == ([], set())
    moved = dataclasses.replace(out["cert"].witness, edge=(0, 1))
    assert w.check(defect, {**out, "cert": dataclasses.replace(out["cert"], witness=moved)})[0]
    assert w.check(defect, {**out, "cert": dataclasses.replace(out["cert"], verdict=True)})[0]


def test_labeled_known_gap_only_where_the_limit_applies(xk):
    w = Labeled()
    big = labeled_item(xk, "member", 8, 8)
    out = w.run_op(xk, big)
    problems, gaps = w.check(big, out)
    assert problems == [] and gaps == {"graph6-long-form-missing"}
    small = labeled_item(xk, "member")
    out = w.run_op(xk, small)
    problems, gaps = w.check(small, {**out, "g6": ValueError("graph6 short form handles n <= 62")})
    assert problems and not gaps


def test_recognize_check_rejects_wrong_answers(xk):
    w = Recognize()
    item = next(i for i in w.generate(xk, 3) if i.kind == "dense" and i.shape == (3, 4))
    out = w.run_op(xk, item)
    assert w.check(item, out) == ([], set())
    cert = out["cert"]
    cells = list(cert.labeling.cells)
    cells[0], cells[-1] = cells[-1], cells[0]
    swapped = dataclasses.replace(cert.labeling, cells=tuple(cells))
    assert w.check(item, {**out, "cert": dataclasses.replace(cert, labeling=swapped)})[0]
    rejected = dataclasses.replace(cert, verdict=False, labeling=None, summands=None)
    assert w.check(item, {**out, "cert": rejected})[0]


def test_census_check_rejects_wrong_histograms_and_order():
    w = CensusStats()
    want = bc.census_expectation(2, 3)
    item = CensusItem((2, 3), "stats", ())
    good = {"edges": dict(want["edges"]), "t2": dict(want["t2"]), "attained": 1, "listing": []}
    assert w.check(item, good) == ([], set())
    assert w.check(item, {**good, "edges": {**good["edges"], 0: 2}})[0]
    assert w.check(item, {**good, "t2": {**good["t2"], 1: good["t2"][1] - 1, 2: good["t2"][2] + 1}})[0]

    listing = [bc.graph6_short(6, bc.census_member_rows(2, 3, c)) for c in range(8)]
    item = dataclasses.replace(item, mode="list", samples=(1, 6))
    assert w.check(item, {"listing": listing}) == ([], set())
    listing[1], listing[6] = listing[6], listing[1]
    assert w.check(item, {"listing": listing})[0]
    assert w.check(item, {"listing": listing[:-1]})[0]


def test_closed_form_census_matches_the_enumeration(xk):
    for p, q in ((2, 3), (3, 3)):
        shape = xk.membership.GridShape(p, q)
        want = bc.census_expectation(p, q)
        t2 = {}
        for g in xk.membership.census(shape):
            value = bc.t2_of_member(g.n, g.rows, p, q)
            t2[value] = t2.get(value, 0) + 1
        assert t2 == want["t2"]


def test_cli_check_rejects_wrong_exit_codes_and_json(xk):
    w = Cli()
    items = w.generate(xk, 3)
    t2 = next(i for i in items if i.command == "t2")
    g = t2.expect["graph"]
    want = bc.t2_of_member(g.n, g.rows, *t2.expect["shape"])
    assert w.check(t2, (0, f'{{"t2": {want}}}\n', "")) == ([], set())
    assert w.check(t2, (1, f'{{"t2": {want}}}\n', ""))[0]
    assert w.check(t2, (0, "not json\n", ""))[0]
    assert w.check(t2, (0, f'{{"t2": {want + 1}}}\n', ""))[0]
    verify = next(i for i in items if i.command == "verify")
    assert w.check(verify, (0, "certificate ok\n", "")) == ([], set())
    assert w.check(verify, (1, "", "verify: broken\n"))[0]


def test_cli_report_is_split_off_only_when_the_child_sent_one():
    assert split_report("warning\n" + REPORT_TAG + '{"loop_s": 0.5}\n') == ({"loop_s": 0.5}, "warning\n")
    traceback = "Traceback (most recent call last):\n  ...\nKeyError: 'boom'\n"
    assert split_report(traceback) == ({}, traceback)


def test_cli_child_that_dies_without_a_report_is_a_failed_op(xk):
    w = Cli()
    item = next(i for i in w.generate(xk, 3) if i.command == "verify")
    w.command = lambda traced: [sys.executable, "-c", "raise KeyError('boom')"]
    rec = Recorder(sample_here=False)
    w.run_pass(xk, [item], rec)
    assert len(rec.latencies) == 1 and rec.failed == 1
    assert any("without a report" in problem and "KeyError" in problem for problem in rec.problems)


def test_slow_recognize_members_put_isolated_vertices_at_the_scheduled_spots(xk):
    slow = [i for i in Recognize().generate(xk, 4) if i.kind == "slow"]
    spots = {tuple(v for v in range(i.graph.n) if not i.graph.rows[v]) for i in slow}
    assert spots == set(SLOW_ISOLATED)
    assert all(i.graph.edge_count == 4 for i in slow)  # two crosses, 4K2 + 4K1


def test_runs_whole_passes_while_the_next_one_fits():
    class Sleeper:
        name = "sleeper"

        def run_pass(self, xk, items, rec, tracer=None):
            time.sleep(0.05)
            for _ in range(60):
                rec.record(0.001, [], set())

    rec = Recorder(sample_here=False)
    # Two passes: the first leaves fewer than MIN_OPS ops; a third would end after 0.15 s.
    assert run.run_passes(Sleeper(), None, [], rec, 0.12)[0] == 2
    assert run.run_passes(Sleeper(), None, [], rec, 0.0, min_ops=0)[0] == 1


def test_layer_metrics_are_the_ones_benchmark_json_lists():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = bench_trace.Tracer()
    got = run.layer_metrics(SimpleNamespace(), tracer, 1)
    got["trace.overhead_ratio"] = (1.0, "ratio")
    assert {name: unit for name, (_, unit) in got.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_naive_least_labeling_agrees_with_recognize(xk):
    w = Recognize()
    for item in w.generate(xk, 5):
        if item.shape == (3, 4) and item.kind in ("dense", "near"):
            cert = xk.recognition.recognize(item.graph, xk.membership.GridShape(3, 4))
            least = bc.least_labeling(item.graph.n, item.graph.rows, 3, 4)
            assert least == (cert.labeling.cells if cert.verdict else None)


def snapshot(xk):
    names = ["xorkron"] + [f"xorkron.{m}" for m in run.MODULES + ("cli",)]
    mods = [importlib.import_module(name) for name in names]
    out = {}
    for module in mods:
        out.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls in (xk.graphs.Graph, xk.membership.Certificate):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_restores_every_attribute(xk):
    before = snapshot(xk)
    tracer = bench_trace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert xk.membership.verify_certificate is not before[("xorkron.membership", "verify_certificate")]
            assert xk.graphs.Graph.__init__ is not before[("Graph", "__init__")]
            raise RuntimeError("leave the context by an exception")
    after = snapshot(xk)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nested_calls_are_traced_and_self_time_excludes_children(xk):
    tracer = bench_trace.Tracer()
    g = next(i for i in Labeled().generate(xk, 3) if i.kind == "member" and i.shape == (4, 4)).graph
    with tracer.installed():
        cert = xk.membership.is_spanning_cross_like(g, xk.membership.GridShape(4, 4))
        tracer.fold()
        xk.membership.verify_certificate(cert)
        names = {span[0] for span in tracer.spans}
        parents = {tracer.spans[span[3]][0] for span in tracer.spans if span[0] == "membership.graph_from_quadruples"}
        tracer.fold()
    assert {"membership.graph_from_quadruples", "algebra.two_sum", "graphs.graph_init"} <= names
    assert parents == {"membership.verify_certificate"}
    assert tracer.calls["algebra.two_sum"] == len(cert.summands)
    total = tracer.total_s["membership.verify_certificate"]
    assert 0 <= tracer.self_s["membership.verify_certificate"] < total


def test_fold_computes_self_time_from_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")
    a = tracer.open("child")
    tracer.close(a)
    b = tracer.open("child")
    tracer.close(b)
    tracer.close(outer)
    tracer.fold()
    assert tracer.total_s["outer"] == 10.0
    assert tracer.self_s["outer"] == 10.0 - 3.0 - 2.0
    assert tracer.self_s["child"] == 5.0
    assert tracer.calls["child"] == 2


def test_speed_factor_is_reference_over_nearby_loop_times():
    speed = bench_speed.Speed()
    ref = bench_speed.REFERENCE_S
    speed.times = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 5.0]
    speed.seconds = [ref, ref, ref, ref, 2 * ref, 2 * ref, 4 * ref]
    assert speed.factor(0.05) == 1.0  # median of the six samples within the window
    assert speed.factor(5.0) == 0.5  # too few nearby: the nearest six
    # An operation from 0.2 to 0.9 s is scaled by the samples on both sides of it.
    speed = bench_speed.Speed()
    speed.times = [0.1, 0.12, 0.14, 0.16, 0.18, 0.95, 0.97, 0.99, 1.2]
    speed.seconds = [ref] * 5 + [3 * ref] * 4
    assert speed.factor(0.2, 0.9) == 1.0
    assert speed.factor(0.9) == 0.5


def test_child_operations_are_left_unscaled():
    rec = Recorder(sample_here=False)
    rec.speed.add(0.5, 2 * bench_speed.REFERENCE_S)
    for end in (1.0, 2.0):
        rec.record(0.1, [], set(), end)
    assert rec.scaled() == [0.1, 0.1]
    assert len(rec.speed.times) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    copy = tmp_path / "benchmarks"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "labeled", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
