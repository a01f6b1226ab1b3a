"""Command-line behavior: verdict exit codes, JSON output, input formats."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xorkron
from xorkron import (
    GridShape,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    graph_from_quadruples,
    is_spanning_cross_like,
    new_graph,
    recognize,
    standard_graph,
    tensor_product,
)
from xorkron.cli import build_parser, main

from .helpers import census_stats_by_enumeration

SRC = Path(xorkron.__file__).resolve().parent.parent

MATCHING_G6 = graph6_encode(tensor_product(standard_graph("complete", 2), standard_graph("complete", 2)))
PRODUCT_33_G6 = graph6_encode(tensor_product(standard_graph("complete", 3), standard_graph("complete", 3)))
P3_PLUS_K1_G6 = graph6_encode(new_graph(4, [(0, 1), (1, 2)]))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_product_and_standard_tokens(capsys):
    code, out, _ = run(capsys, "product", "K2", "K2")
    assert code == 0 and out.strip() == MATCHING_G6


def test_xor_cancels(capsys):
    code, out, _ = run(capsys, "xor", MATCHING_G6, MATCHING_G6)
    assert code == 0
    assert graph6_decode(out.strip()) == standard_graph("edgeless", 4)


def test_xor_mismatch_is_an_input_error(capsys):
    code, _, err = run(capsys, "xor", "K2", "K3")
    assert code == 2 and "error" in err


def test_elementary_edge_list_output(capsys):
    code, out, _ = run(capsys, "elementary", "2", "3", "0", "1", "0", "2", "--edges")
    assert code == 0
    assert out == "6\n0 5\n2 3\n"


def test_member_verdict_and_json(capsys):
    code, out, _ = run(capsys, "member", "--p", "2", "--q", "2", MATCHING_G6)
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "member"
    assert cert["summands"] == [[0, 1, 0, 1]]

    code, out, _ = run(capsys, "member", "--p", "2", "--q", "2", "P4")
    assert code == 1
    assert json.loads(out)["verdict"] == "non-member"


def test_member_bad_input_exits_2(capsys):
    code, _, err = run(capsys, "member", "--p", "2", "--q", "2", "K3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "member", "--p", "2", "--q", "2", "not graph6 at all")
    assert code == 2


def test_edgeless_member_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    for cmd in ("member", "recognize"):
        code, out, err = run(capsys, cmd, "--p", "2", "--q", "2", "E4")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["summands"] == [] and data["empty_decomposition"] is True
        path.write_text(out)
        assert run(capsys, "verify", str(path)) == (0, "certificate ok\n", "")


def test_recognize_verdicts(capsys):
    # a path on three of the four vertices passes the prefilter and leaves the verdict to the search
    code, out, _ = run(capsys, "recognize", "--p", "2", "--q", "2", P3_PLUS_K1_G6)
    assert code == 1
    assert json.loads(out)["witness"]["reason"] == "search-exhausted"

    code, out, _ = run(capsys, "recognize", "--p", "2", "--q", "2", "C4")
    assert code == 1
    assert json.loads(out)["witness"]["reason"] == "edge-bound-exceeded"


def test_recognize_scale_guard(capsys):
    code, _, err = run(capsys, "recognize", "--p", "4", "--q", "5", "E20")
    assert code == 2 and "--force" in err


def test_decompose(capsys):
    # `member` is the one command that prints the cross summands
    shape = GridShape(3, 3)
    code, out, _ = run(capsys, "member", "--p", "3", "--q", "3", PRODUCT_33_G6)
    assert code == 0
    summands = [tuple(s) for s in json.loads(out)["summands"]]
    assert len(summands) == 9
    assert graph_from_quadruples(shape, summands) == graph6_decode(PRODUCT_33_G6)
    code, out, _ = run(capsys, "member", "--p", "3", "--q", "3", "P9")
    assert code == 1 and "summands" not in json.loads(out)


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("member", "--p", "2", "--q", "2", "CK", "--verify"), "unrecognized arguments: --verify"),
        (("recognize", "--p", "2", "--q", "2", "C4", "--verify"), "unrecognized arguments: --verify"),
        (("build-ppt", "P3", "--verify"), "unrecognized arguments: --verify"),
        (("recognize", "--p", "2", "--q", "2", "C4", "--no-prefilter"), "unrecognized arguments: --no-prefilter"),
        (("decompose", "--p", "2", "--q", "2", "CK"), "argument command: invalid choice: 'decompose'"),
    ],
    ids=["member-verify", "recognize-verify", "build-ppt-verify", "no-prefilter", "decompose"],
)
def test_each_job_has_one_spelling(capsys, argv, bad):
    # certificates are rechecked by piping them into `verify -`, and `member` has no alias
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and f": error: {bad}" in err


def test_t2_output_with_and_without_all_labelings(capsys):
    code, out, _ = run(capsys, "t2", "--p", "3", "--q", "3", PRODUCT_33_G6, "--all-labelings")
    assert code == 0
    data = json.loads(out)
    assert data == {"t2": 1, "min_over_labelings": 1}

    code, out, _ = run(capsys, "t2", "--p", "2", "--q", "2", "P4")
    assert code == 1
    assert json.loads(out)["verdict"] == "non-member"

    # the edgeless member needs two equal summands
    code, out, err = run(capsys, "t2", "--p", "2", "--q", "2", "E4")
    assert code == 0 and err == ""
    assert json.loads(out) == {"t2": 2}


def test_t2_ranks_past_the_old_oracle_bound_and_has_no_oracle_flag(capsys):
    rank_four = "O?]ed?vIuyTo\\vixZkd\\o"
    code, out, err = run(capsys, "t2", "--p", "4", "--q", "4", rank_four)
    assert code == 0 and json.loads(out) == {"t2": 4}
    # the exhaustive search lives in tests/helpers.py, not on the command line
    for p, q, graph in ((4, 4, rank_four), (3, 5, "E15")):
        code, out, err = run(capsys, "t2", "--p", str(p), "--q", str(q), graph, "--oracle")
        assert code == 2 and out == ""
        assert err.startswith("usage: ") and err.endswith(": error: unrecognized arguments: --oracle\n")


def test_t2_of_a_two_cross_member_at_a_wide_shape_is_quick(tmp_path, capsys):
    # its second cross sets the last of the 12.5M pair-matrix bits; no table of that size is built
    k = graph_from_quadruples(GridShape(2, 5000), [(0, 1, 0, 4999), (0, 1, 4998, 4999)])
    path = tmp_path / "member.txt"
    path.write_text(format_edge_list(k), encoding="ascii")
    start = time.perf_counter()
    code, out, err = run(capsys, "t2", "--p", "2", "--q", "5000", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert '"t2": 1' in out
    assert elapsed < 1.0, f"t2 at (2, 5000) took {elapsed:.2f} s"


def test_ppt_check_and_dump(capsys):
    fixed_path = graph6_encode(new_graph(4, [(0, 2), (0, 3), (1, 2)]))
    code, out, _ = run(capsys, "ppt-check", "--p", "2", fixed_path)
    assert code == 0 and out.strip() == "fixed-point: yes"

    code, out, err = run(capsys, "ppt-check", "--p", "2", "P4", "--dump")
    assert code == 1
    assert out == "0101\n1000\n0001\n1010\n"
    assert "fixed-point: no" in err

    code, _, _ = run(capsys, "ppt-check", "--p", "3", "P4")
    assert code == 2

    # p = n leaves 1x1 blocks, which every graph would pass
    code, out, err = run(capsys, "ppt-check", "--p", "4", "P4")
    assert code == 2 and out == ""
    assert "n/p >= 2" in err


def test_build_ppt(capsys):
    code, out, err = run(capsys, "build-ppt", "P3")
    assert code == 0
    first, rest = out.split("\n", 1)
    h = graph6_decode(first)
    assert h.n == 9 and h.edge_count == 4
    assert json.loads(rest)["verdict"] == "member"
    assert "2 K2" in err and "2 K1" in err and "verified" in err


def test_build_ppt_past_graph6_prints_nothing(capsys):
    # K8 embeds on 64 vertices, past graph6, so the certificate cannot be written: no half document
    for flags in ((), ("--edges",)):
        code, out, err = run(capsys, "build-ppt", "K8", *flags)
        assert code == 2 and out == ""
        assert err == "error: graph6 short form handles n <= 62, got 64\n"


def test_printed_certificates_pass_verify(capsys, monkeypatch):
    # `cmd | xorkron verify -` is the one way to recheck a certificate, and it round-trips the JSON
    p3 = standard_graph("path", 3)
    permuted = graph6_encode(tensor_product(p3, p3).relabel([4, 0, 8, 2, 6, 1, 3, 5, 7]))
    for argv, want_code, want_reason in (
        (("member", "--p", "3", "--q", "3", PRODUCT_33_G6), 0, None),
        (("member", "--p", "2", "--q", "2", "P4"), 1, "same-row-or-column-edge"),
        (("member", "--p", "2", "--q", "2", "E4"), 0, None),
        (("recognize", "--p", "3", "--q", "3", permuted), 0, None),
        (("recognize", "--p", "2", "--q", "2", "C4"), 1, "edge-bound-exceeded"),
        (("recognize", "--p", "2", "--q", "2", P3_PLUS_K1_G6), 1, "search-exhausted"),
        (("t2", "--p", "2", "--q", "2", "P4"), 1, "same-row-or-column-edge"),
        (("build-ppt", "P3"), 0, None),
    ):
        code, out, _ = run(capsys, *argv)
        text = out.split("\n", 1)[1] if argv[0] == "build-ppt" else out  # the graph comes first
        assert code == want_code and json.loads(text).get("witness", {}).get("reason") == want_reason, argv
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "verify", "-") == (0, "certificate ok\n", ""), argv


def test_census_listing_and_stats(capsys):
    code, out, _ = run(capsys, "census", "--p", "2", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert graph6_decode(lines[0]) == standard_graph("edgeless", 4)
    assert graph6_decode(lines[1]) == graph6_decode(MATCHING_G6)

    code, out, _ = run(capsys, "census", "--p", "2", "--q", "3", "--stats")
    assert code == 0
    stats = json.loads(out)
    assert stats["count"] == 8
    assert stats["edge_bound"] == 6
    assert sum(stats["t2_counts"].values()) == 8
    assert len(stats["bound_attained"]) == 1


# sha256 of `xorkron census` stdout, taken from the per-bit codec and the per-line print;
# the (3, 4) listing is pinned in test_acceptance.py
CENSUS_LISTING_SHA256 = {
    (2, 3): "966bd59471b897643cfad37ddbe1b6cc55296b563d1e11b028039ddbc5d64551",
    (3, 3): "e1bc6b1edfde38de9a01a75ce7ea6efda99173eaea3908f19901e4f93402d7b7",
    (2, 6): "40a034485967c3fc89fb813cd2d19b1363b154d9211af933f340c8cb62660ae8",
}


def test_census_listings_are_pinned(capsys):
    for (p, q), digest in CENSUS_LISTING_SHA256.items():
        code, out, err = run(capsys, "census", "--p", str(p), "--q", str(q))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5)])
def test_census_stats_equal_the_enumeration(capsys, p, q):
    code, out, err = run(capsys, "census", "--p", str(p), "--q", str(q), "--stats")
    assert code == 0 and err == ""
    assert out == json.dumps(census_stats_by_enumeration(p, q), indent=2) + "\n"


def test_census_stats_past_the_listing_guard(capsys):
    code, out, _ = run(capsys, "census", "--p", "3", "--q", "4", "--stats")
    assert code == 0
    stats = json.loads(out)
    assert stats["count"] == 262144
    assert stats["t2_counts"] == {"1": 441, "2": 27343, "3": 234360}

    code, out, _ = run(capsys, "census", "--p", "7", "--q", "8", "--stats")
    assert code == 0
    stats = json.loads(out)
    assert stats["count"] == 2**588
    assert sum(stats["edge_counts"].values()) == 2**588
    full = tensor_product(standard_graph("complete", 7), standard_graph("complete", 8))
    assert stats["bound_attained"] == [graph6_encode(full)]

    code, out, err = run(capsys, "census", "--p", "8", "--q", "8", "--stats")
    assert code == 2 and out == ""
    assert "graph6" in err and "n <= 62" in err


def test_census_scale_guard(capsys):
    code, _, err = run(capsys, "census", "--p", "4", "--q", "5")
    assert code == 2 and "--force" in err

    # Both refusals come from the shape alone: no cross is listed, no graph built, no binomial summed.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "census", "--p", "60", "--q", "60")
    assert code == 2 and out == "" and "--force" in err
    assert time.perf_counter() - t0 < 0.5
    proc = run_module("census", "--p", "60", "--q", "60", "--stats", timeout=10)
    assert proc.returncode == 2 and proc.stdout == "" and "graph6" in proc.stderr


def test_verify_command(tmp_path, capsys):
    code, out, _ = run(capsys, "member", "--p", "2", "--q", "2", MATCHING_G6)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and "certificate ok" in out

    honest = json.loads(cert_path.read_text())
    tampered = dict(honest)
    tampered["summands"] = []
    cert_path.write_text(json.dumps(tampered))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1 and "verify:" in err

    tampered["summands"] = [["0", 1, 0, 1]]
    cert_path.write_text(json.dumps(tampered))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and err.startswith("error: unreadable certificate:")

    tampered["summands"] = [[0, 5, 0, 1]]
    cert_path.write_text(json.dumps(tampered))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and err.startswith("error: unreadable certificate: summand [0, 5, 0, 1]")

    for flag in (None, "yes", 2):
        cert_path.write_text(json.dumps({**honest, "empty_decomposition": flag}))
        code, _, err = run(capsys, "verify", str(cert_path))
        assert code == 2 and err.startswith("error: unreadable certificate: empty_decomposition")

    cert_path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2

    # each verdict's certificate must not carry the other verdict's fields
    _, out, _ = run(capsys, "member", "--p", "2", "--q", "2", "C4")
    rejection = json.loads(out)
    for extra in (
        {"summands": [[0, 1, 0, 1]]},
        {"summands": [[0, 1, 0, 1]], "labeling": [[0, 0], [0, 1], [1, 0], [1, 1]]},
        {"summands": [[0, 1, 0, 1]], "empty_decomposition": True},
    ):
        cert_path.write_text(json.dumps({**rejection, **extra}))
        code, out, err = run(capsys, "verify", str(cert_path))
        assert code == 1 and out == ""
        assert err == "verify: non-member certificate carries a labeling, summands or empty_decomposition\n"
    cert_path.write_text(json.dumps({**honest, "witness": {"reason": "odd-edge-count"}}))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 1 and err == "verify: member certificate carries a witness\n"

    # only the two edge reasons name an edge
    witness = {"reason": "edge-bound-exceeded", "edge": [0, 1]}
    cert_path.write_text(json.dumps({"verdict": "non-member", "shape": [2, 2], "graph6": "C~", "witness": witness}))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 1 and out == "" and err == "verify: edge-bound-exceeded witness carries an edge\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _container_paths(node, path=()):
    """Key paths to every dict and list inside a JSON value, the root first."""
    yield path
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(child, (dict, list)):
            yield from _container_paths(child, path + (key,))


def _sample_certificates() -> list[str]:
    """Member and non-member certificates, with identity and permuted labelings."""
    shape = GridShape(3, 3)
    p3 = standard_graph("path", 3)
    permuted = tensor_product(p3, p3).relabel([4, 0, 8, 2, 6, 1, 3, 5, 7])
    return [
        is_spanning_cross_like(graph6_decode(PRODUCT_33_G6), shape).to_json(),
        is_spanning_cross_like(standard_graph("path", 9), shape).to_json(),
        recognize(permuted, shape).to_json(),
        recognize(standard_graph("path", 9), shape).to_json(),
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_sample_certificates()), st.data())
def test_verify_never_raises_on_mutated_certificates(tmp_path, capsys, text, data):
    cert = json.loads(text)
    node = cert
    for key in data.draw(st.sampled_from(list(_container_paths(cert)))):
        node = node[key]
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["drop", "retype", "lengthen"] if keys else ["lengthen"]))
    if op == "lengthen":
        extra = data.draw(JSON_VALUES)
        if isinstance(node, dict):
            node[data.draw(st.text(max_size=3))] = extra
        else:
            node.append(extra)
    else:
        key = data.draw(st.sampled_from(keys))
        if op == "drop":
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(node[key])))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) in (0, 1, 2)
    capsys.readouterr()


def test_graph_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("4\n0 3\n1 2\n")
    code, out, _ = run(capsys, "member", "--p", "2", "--q", "2", str(path))
    assert code == 0 and json.loads(out)["verdict"] == "member"

    monkeypatch.setattr(sys, "stdin", io.StringIO(MATCHING_G6 + "\n"))
    code, out, _ = run(capsys, "member", "--p", "2", "--q", "2", "-")
    assert code == 0 and json.loads(out)["verdict"] == "member"


def test_usage_errors_exit_2(capsys):
    assert main(["member", "--p", "2"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[]", "certificate must be a JSON object"),
        ('"x"', "certificate must be a JSON object"),
        ('{"shape": [2, 2], "graph6": "C?"}', "certificate has no 'verdict' field"),
        ('{"verdict": "member", "graph6": "C?"}', "certificate has no 'shape' field"),
        ('{"verdict": "member", "shape": [2, 2]}', "certificate has no 'graph6' field"),
        ('{"verdict": "non-member", "shape": [2, 2], "graph6": "C?", "witness": {}}', "witness has no 'reason' field"),
    ],
)
def test_verify_names_a_missing_field(capsys, monkeypatch, text, problem):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "verify", "-") == (2, "", f"error: unreadable certificate: {problem}\n")


def test_verify_reads_a_huge_shape_at_once(capsys, monkeypatch):
    # the shape is read before anything ties it to the graph, so nothing may be built from it
    text = '{"verdict": "member", "shape": [100000, 100000], "graph6": "C?", "summands": []}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    problem = "graph has 4 vertices but shape (100000, 100000) needs 10000000000"
    assert run(capsys, "verify", "-") == (1, "", f"verify: {problem}\n")


def test_deeply_nested_certificate_is_unreadable(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000 + "]" * 100000))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: unreadable certificate: maximum recursion depth exceeded")


# Each count is too large for the first list the command makes, so nothing is allocated:
# HUGE does not fit an index, BIG fits one but its list would not fit the address space.
HUGE = "100000000000000000000"
BIG = "2000000000000000000"
NO_INDEX = "error: cannot fit 'int' into an index-sized integer\n"
NO_MEMORY = "error: not enough memory for this input\n"


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (("ppt-check", "--p", "2", "E" + HUGE), "", NO_INDEX),
        (("member", "--p", "2", "--q", "2", "-"), HUGE + "\n0 1\n", NO_INDEX),
        (("elementary", HUGE, "2", "0", "1", "0", "1"), "", NO_INDEX),
        (("ppt-check", "--p", "2", "E" + BIG), "", NO_MEMORY),
        (("elementary", BIG, "2", "0", "1", "0", "1"), "", NO_MEMORY),
    ],
    ids=["ppt-check", "member", "elementary", "ppt-check-memory", "elementary-memory"],
)
def test_vertex_count_too_large_is_an_input_error(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message


def test_a_fault_in_a_handler_exits_70_not_a_verdict(capsys, monkeypatch):
    def fail(args: argparse.Namespace) -> int:
        raise RuntimeError("handler broke\nsecond line")

    monkeypatch.setattr(xorkron.cli, "cmd_member", fail)
    code, out, err = run(capsys, "member", "--p", "2", "--q", "2", MATCHING_G6)
    assert (code, out, err) == (70, "", "error: internal: RuntimeError: handler broke second line\n")
    assert "Traceback" not in err


def test_a_search_past_the_recursion_limit_gives_a_verdict(capsys):
    # The searches walk explicit stacks, so 990 vertices, past Python's default limit of 1000 frames, still end.
    code, out, err = run(capsys, "t2", "--p", "2", "--q", "495", "--all-labelings", "E990")
    assert (code, json.loads(out), err) == (0, {"t2": 2, "min_over_labelings": 2}, "")


def child_env() -> dict[str, str]:
    """The environment with the package's source dir on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run `python -m xorkron` in a child."""
    return subprocess.run(
        [sys.executable, "-m", "xorkron", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )


def test_console_script_runs():
    proc = run_module("member", "--p", "2", "--q", "2", MATCHING_G6)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "member"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_pipe_ends_the_command_quietly():
    # Like `xorkron census ... | head -1`: the reader takes one line and closes its end.
    child = subprocess.Popen(
        [sys.executable, "-m", "xorkron", "census", "--p", "3", "--q", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == -signal.SIGPIPE
    assert err == "" and graph6_decode(first.strip()) == standard_graph("edgeless", 12)


def test_console_script_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = re.findall(r"^ {4}([a-z0-9-]+)(?: |$)", proc.stdout, re.MULTILINE)
    assert listed == list(commands.choices)


def test_readme_command_table_lists_every_registered_name():
    readme = (SRC.parent / "README.md").read_text()
    listed = re.findall(r"^\| `([a-z0-9-]+)[ `]", readme, re.MULTILINE)
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(commands.choices)


def _registered_options() -> set[str]:
    """Every --option string of every subcommand, --help left out."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for sp in commands.choices.values()
        for action in sp._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }


def test_readme_mentions_every_registered_option():
    readme = (SRC.parent / "README.md").read_text()
    options = _registered_options()
    assert options  # the parser registers options at all
    missing = sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", readme))
    assert missing == []


def test_readme_shows_exactly_the_registered_options():
    readme = (SRC.parent / "README.md").read_text()
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    # --no-build-isolation belongs to the pip install lines
    assert shown - {"--help", "--no-build-isolation"} == _registered_options()


def test_console_script_entry_point_is_declared():
    text = (SRC.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^xorkron\s*=\s*"xorkron\.cli:entry"\s*$', scripts, re.MULTILINE)
