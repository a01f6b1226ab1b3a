"""Command-line front end: verdicts via exit codes, data via stdout.

Exit codes: 0 affirmative or success, 1 negative verdict, 2 usage or input
error, 70 (EX_SOFTWARE) an internal error, which no verdict uses. Labeled
commands read vertex v as grid cell (v div q, v mod q).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import comb

from .algebra import tensor_elementary, tensor_product, two_sum
from .builder import build_ppt_graph, verify_components
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    standard_graph,
)
from .membership import (
    Certificate,
    GridShape,
    census,
    is_spanning_cross_like,
    verify_certificate,
)
from .recognition import recognize
from .t2 import t2_census_counts, t2_exact, t2_min_over_labelings
from .transpose import format_matrix_text, partial_transpose, ppt_test

RECOGNIZE_SCALE_LIMIT = 16
CENSUS_BIT_LIMIT = 20

_STANDARD_KINDS = {"K": "complete", "P": "path", "C": "cycle", "E": "edgeless"}

GRAPH_TOKEN_HELP = (
    "graph argument: '-' reads stdin, an existing path reads that file "
    "(edge list when the first line is a bare vertex count, graph6 otherwise), "
    "K<n>/P<n>/C<n>/E<n> name complete/path/cycle/edgeless graphs, "
    "anything else is an inline graph6 string"
)


def read_graph(token: str) -> Graph:
    if token == "-" or os.path.exists(token):
        return _parse_graph_text(_read_text(token))
    m = re.fullmatch(r"([KPCE])(\d+)", token)
    if m:
        return standard_graph(_STANDARD_KINDS[m.group(1)], int(m.group(2)))
    return graph6_decode(token)


def _read_text(token: str) -> str:
    """Stdin for '-', else the named file, read as ASCII."""
    if token == "-":
        return sys.stdin.read()
    with open(token, encoding="ascii") as fh:
        return fh.read()


def _parse_graph_text(text: str) -> Graph:
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if first.isdigit():
        return parse_edge_list(text)
    return graph6_decode(text)


def _emit_graph(g: Graph, as_edges: bool) -> None:
    if as_edges:
        sys.stdout.write(format_edge_list(g))
    else:
        print(graph6_encode(g))


def _print_certificate(cert: Certificate) -> int:
    """Print cert as JSON; exit 0 for a member and 1 otherwise."""
    print(cert.to_json())
    return 0 if cert.verdict else 1


def cmd_binary(args: argparse.Namespace) -> int:
    _emit_graph(args.op(read_graph(args.left), read_graph(args.right)), args.edges)
    return 0


def cmd_elementary(args: argparse.Namespace) -> int:
    g = tensor_elementary(args.p, args.q, args.i, args.i2, args.j, args.j2)
    _emit_graph(g, args.edges)
    return 0


def cmd_member(args: argparse.Namespace) -> int:
    cert = is_spanning_cross_like(read_graph(args.graph), GridShape(args.p, args.q))
    return _print_certificate(cert)


def cmd_recognize(args: argparse.Namespace) -> int:
    shape = GridShape(args.p, args.q)
    if shape.order > RECOGNIZE_SCALE_LIMIT and not args.force:
        raise ValueError(f"recognition above p*q = {RECOGNIZE_SCALE_LIMIT} may run long; pass --force to proceed")
    cert = recognize(read_graph(args.graph), shape)
    return _print_certificate(cert)


def cmd_t2(args: argparse.Namespace) -> int:
    k = read_graph(args.graph)
    shape = GridShape(args.p, args.q)
    cert = is_spanning_cross_like(k, shape)
    if not cert.verdict:
        return _print_certificate(cert)
    out: dict = {"t2": t2_exact(k, shape)}
    if args.all_labelings:
        out["min_over_labelings"] = t2_min_over_labelings(k, shape)
    print(json.dumps(out, indent=2))
    return 0


def cmd_ppt_check(args: argparse.Namespace) -> int:
    k = read_graph(args.graph)
    fixed = ppt_test(k, args.p)
    verdict = f"fixed-point: {'yes' if fixed else 'no'}"
    if args.dump:
        sys.stdout.write(format_matrix_text(partial_transpose(k.rows, args.p), k.n))
        print(verdict, file=sys.stderr)
    else:
        print(verdict)
    return 0 if fixed else 1


def cmd_build_ppt(args: argparse.Namespace) -> int:
    g = read_graph(args.graph)
    h, labeling = build_ppt_graph(g)
    cert = is_spanning_cross_like(h, labeling.shape)
    text = cert.to_json()  # before any output: past 62 vertices it raises, and stdout stays empty
    _emit_graph(h, args.edges)
    print(text)
    n, m = g.n, g.edge_count
    matched = verify_components(h, g)
    note = "verified" if matched else "MISMATCH"
    print(f"components: input graph + {m} K2 + {n * n - n - 2 * m} K1 [{note}]", file=sys.stderr)
    return 0 if cert.verdict and matched else 2


def cmd_census(args: argparse.Namespace) -> int:
    shape = GridShape(args.p, args.q)
    nbits = comb(args.p, 2) * comb(args.q, 2)
    if args.stats:
        # Closed form: the members are the subsets of the nbits crosses, so C(nbits, k) of
        # them have 2k edges, and only K_p x K_q, the XOR of every cross, meets the bound.
        if shape.order > GRAPH6_MAX_N:  # first: past it graph6 fails and the binomials take forever
            raise ValueError(f"census --stats prints graph6, which handles n <= {GRAPH6_MAX_N}, got {shape.order}")
        full = tensor_product(standard_graph("complete", args.p), standard_graph("complete", args.q))
        out = {
            "shape": [args.p, args.q],
            "count": 1 << nbits,
            "edge_bound": shape.edge_bound,
            "edge_counts": {str(2 * k): comb(nbits, k) for k in range(nbits + 1)},
            "t2_counts": {str(t): n for t, n in t2_census_counts(shape).items()},
            "bound_attained": [graph6_encode(full)],
        }
        print(json.dumps(out, indent=2))
        return 0
    if nbits > CENSUS_BIT_LIMIT and not args.force:
        raise ValueError(f"census at ({args.p}, {args.q}) enumerates 2^{nbits} graphs; pass --force to proceed")
    sys.stdout.writelines(graph6_encode(g) + "\n" for g in census(shape))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.certificate)
    try:
        cert = Certificate.from_json(text)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"unreadable certificate: {exc}") from exc
    problems = verify_certificate(cert)
    for pb in problems:
        print(f"verify: {pb}", file=sys.stderr)
    if problems:
        return 1
    print("certificate ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorkron",
        description=(
            "Graphs as XOR-combinations of tensor products: build them, test "
            "labeled and unlabeled membership, decompose, count minimal "
            "summands, and probe the partial-transpose fixed point. Labeled "
            "commands read vertex v as grid cell (v div q, v mod q)."
        ),
        epilog=GRAPH_TOKEN_HELP + ". Exit codes: 0 affirmative, 1 negative verdict, 2 error, 70 internal error.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        return sp

    def add_shape(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True, help="grid row count (left factor size)")
        sp.add_argument("--q", type=int, required=True, help="grid column count (right factor size)")

    for name, op, help_text in (
        ("product", tensor_product, "tensor product of two graphs"),
        ("xor", two_sum, "XOR of two edge sets on the same vertex count"),
    ):
        sp = add(name, cmd_binary, help_text)
        sp.set_defaults(op=op)
        sp.add_argument("left")
        sp.add_argument("right")
        sp.add_argument("--edges", action="store_true", help="emit an edge list instead of graph6")

    sp = add("elementary", cmd_elementary, "two-edge cross graph on a p x q grid")
    for name in ("p", "q", "i", "i2", "j", "j2"):
        sp.add_argument(name, type=int)
    sp.add_argument("--edges", action="store_true", help="emit an edge list instead of graph6")

    sp = add("member", cmd_member, "labeled membership certificate and its cross summands")
    add_shape(sp)
    sp.add_argument("graph")

    sp = add("recognize", cmd_recognize, "search all labelings for membership")
    add_shape(sp)
    sp.add_argument("graph")
    sp.add_argument("--force", action="store_true", help="lift the p*q scale guard")

    sp = add("t2", cmd_t2, "least summand count of a labeled member")
    add_shape(sp)
    sp.add_argument("graph")
    sp.add_argument(
        "--all-labelings", action="store_true", help="also minimize over every valid labeling"
    )

    sp = add("ppt-check", cmd_ppt_check, "is the adjacency matrix a partial-transpose fixed point")
    sp.add_argument("--p", type=int, required=True, help="block grid size (must divide n)")
    sp.add_argument("graph")
    sp.add_argument("--dump", action="store_true", help="print the transposed matrix, verdict to stderr")

    sp = add("build-ppt", cmd_build_ppt, "embed any graph as a member on n^2 vertices")
    sp.add_argument("graph")
    sp.add_argument("--edges", action="store_true", help="emit an edge list instead of graph6")

    sp = add("census", cmd_census, "every labeled member of one shape")
    add_shape(sp)
    sp.add_argument("--stats", action="store_true", help="print count/edge/t2 histograms as JSON")
    sp.add_argument("--force", action="store_true", help="lift the enumeration size guard")

    sp = add("verify", cmd_verify, "recheck a stored certificate JSON")
    sp.add_argument("certificate", help="certificate file path, or '-' for stdin")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault, not a verdict: one line and EX_SOFTWARE, never exit 1
        print(f"error: internal: {type(exc).__name__}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 70


def entry() -> None:
    """Run as a program: a reader that closes the pipe ends it quietly, like any Unix filter."""
    import signal  # here, not at the top: main() callers neither pay for it nor get their signals changed

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
