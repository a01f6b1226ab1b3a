"""Command-line behavior: verdict exit codes, JSON output, input formats."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xorkron
from xorkron import (
    GridShape,
    graph6_decode,
    graph6_encode,
    is_spanning_cross_like,
    new_graph,
    recognize,
    standard_graph,
    tensor_product,
)
from xorkron.cli import main

SRC = Path(xorkron.__file__).resolve().parent.parent

MATCHING_G6 = graph6_encode(tensor_product(standard_graph("complete", 2), standard_graph("complete", 2)))
PRODUCT_33_G6 = graph6_encode(tensor_product(standard_graph("complete", 3), standard_graph("complete", 3)))


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


def test_member_verify_flag(capsys):
    code, out, _ = run(capsys, "member", "--p", "3", "--q", "3", PRODUCT_33_G6, "--verify")
    assert code == 0 and json.loads(out)["verdict"] == "member"


def test_recognize_verdicts(capsys):
    code, out, _ = run(capsys, "recognize", "--p", "2", "--q", "2", "C4", "--no-prefilter")
    assert code == 1
    assert json.loads(out)["witness"]["reason"] == "search-exhausted"

    code, out, _ = run(capsys, "recognize", "--p", "2", "--q", "2", "C4")
    assert code == 1
    assert json.loads(out)["witness"]["reason"] == "edge-bound-exceeded"


def test_recognize_scale_guard(capsys):
    code, _, err = run(capsys, "recognize", "--p", "4", "--q", "5", "E20")
    assert code == 2 and "--force" in err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--q", "3", PRODUCT_33_G6)
    assert code == 0
    assert len(json.loads(out)["summands"]) == 9
    for graph, want in ((PRODUCT_33_G6, 0), ("P9", 1)):
        results = [run(capsys, cmd, "--p", "3", "--q", "3", graph)[:2] for cmd in ("decompose", "member")]
        assert results[0] == results[1] and results[0][0] == want


def test_t2_with_oracle(capsys):
    code, out, _ = run(capsys, "t2", "--p", "3", "--q", "3", PRODUCT_33_G6, "--oracle", "--all-labelings")
    assert code == 0
    data = json.loads(out)
    assert data == {"t2": 1, "oracle": 1, "min_over_labelings": 1}

    code, out, _ = run(capsys, "t2", "--p", "2", "--q", "2", "P4")
    assert code == 1
    assert json.loads(out)["verdict"] == "non-member"


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
    code, out, err = run(capsys, "build-ppt", "P3", "--verify")
    assert code == 0
    first, rest = out.split("\n", 1)
    h = graph6_decode(first)
    assert h.n == 9 and h.edge_count == 4
    assert json.loads(rest)["verdict"] == "member"
    assert "2 K2" in err and "2 K1" in err and "verified" in err


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


def test_census_scale_guard(capsys):
    code, _, err = run(capsys, "census", "--p", "4", "--q", "5")
    assert code == 2 and "--force" in err


def test_verify_command(tmp_path, capsys):
    code, out, _ = run(capsys, "member", "--p", "2", "--q", "2", MATCHING_G6)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and "certificate ok" in out

    tampered = json.loads(cert_path.read_text())
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

    cert_path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2


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


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run `python -m xorkron` in a child with the package's source dir on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "xorkron", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_runs():
    proc = run_module("member", "--p", "2", "--q", "2", MATCHING_G6)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "member"


def test_console_script_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "census" in proc.stdout


def test_console_script_entry_point_is_declared():
    text = (SRC.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^xorkron\s*=\s*"xorkron\.cli:entry"\s*$', scripts, re.MULTILINE)
