"""Package surface: the exported names exist, no private helper is left unused, the
runtime needs only the standard library, and the modules import one way."""

from __future__ import annotations

import argparse
import ast
import graphlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import xorkron
from xorkron import graphs, membership
from xorkron.cli import build_parser

SRC = Path(xorkron.__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from xorkron import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert set(xorkron.__all__) <= set(namespace)


def test_import_loads_only_the_standard_library():
    # Compared against what the bare interpreter already holds, since site hooks may load more.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import xorkron, xorkron.cli\n"
        "for name in sorted(set(sys.modules) - before):\n"
        "    top = name.partition('.')[0]\n"
        "    if top != 'xorkron' and top not in sys.stdlib_module_names:\n"
        "        print(name)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == ""


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_private_module_name_is_used():
    # A module-level _name counts as used when a statement other than its own definition names it.
    statements = [
        node
        for path in sorted((SRC / "xorkron").glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    uses = [_used_names(node) for node in statements]
    unused = [
        name
        for at, node in enumerate(statements)
        for name in _defined_names(node)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in used for other, used in enumerate(uses) if other != at)
    ]
    assert unused == []


def _graph_constructions() -> list[tuple[str, str, str]]:
    """(module, enclosing function, callee) for each call that makes a Graph instance.

    Any *._trusted call counts, so a subclass's constructor shows up as well as Graph's own.
    """
    found = []
    for path in sorted((SRC / "xorkron").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                callee = ast.unparse(call.func)
                if callee == "Graph" or callee.startswith("Graph.") or callee.endswith(("._trusted", "__new__")):
                    found.append((path.stem, func.name, callee))
    return found


def test_graphs_are_validated_only_at_the_boundary():
    # Library operations build from valid graphs, so they skip the checks in Graph(n, rows);
    # the one validating call left is the edgeless start of graph_from_quadruples.
    made = _graph_constructions()
    assert [m for m in made if m[2] == "Graph"] == [("membership", "graph_from_quadruples", "Graph")]
    assert [m for m in made if m[2].endswith("__new__")] == [("graphs", "_trusted", "object.__new__")]
    assert {m[2] for m in made} == {"Graph", "Graph._trusted", "object.__new__"}


def _top_level_functions(tree: ast.Module):
    """(name, node) of each module-level function and method, methods named Class.method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _carried_record(slot: str, position: int, keyword: str):
    """Where the package names slot, a record census hands a graph through _trusted at position or keyword.

    Returns the modules holding the string slot, the functions that store it, the functions that pass it
    to a _trusted call, and the functions that read it, each function as (module, name).
    """
    named, stores, passes, reads = [], [], set(), set()
    for path in sorted((SRC / "xorkron").glob("*.py")):
        tree = ast.parse(path.read_text())
        named += [path.stem for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == slot]
        for name, func in _top_level_functions(tree):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == slot:
                    if isinstance(node.ctx, ast.Store):
                        stores.append((path.stem, name))
                    else:
                        reads.add((path.stem, name))
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_trusted"):
                    if len(node.args) > position or any(kw.arg in (keyword, None) for kw in node.keywords):
                        passes.add((path.stem, name))
    return named, stores, passes, reads


def test_only_census_hands_a_graph_its_graph6_field():
    # graph6_encode writes a carried field as it is, so no other builder may store one on a graph it makes
    named, stores, passes, _ = _carried_record("_graph6", 3, "graph6")
    assert named == ["graphs"]  # the __slots__ entry: no setattr by name
    assert stores == [("graphs", "Graph.__init__"), ("graphs", "Graph._trusted")]
    assert passes == {("membership", "census")}


def test_only_census_hands_a_graph_its_packed_rows():
    # a _PackedGraph's rows are whatever its packed int unpacks to, so only census may hand one over, and only
    # _trusted and the rows property may write it
    named, stores, passes, reads = _carried_record("_packed", 5, "packed")
    assert named == ["graphs"]  # the __slots__ entry: no setattr by name
    assert stores == [("graphs", "Graph._trusted"), ("graphs", "_PackedGraph.rows"), ("graphs", "_PackedGraph.rows")]
    assert passes == {("membership", "census")}
    assert reads == {("graphs", "_PackedGraph.rows")}


def test_only_the_block_reader_stores_a_graph_its_block_read():
    # the member test, t2, the witness and ppt_test answer from a graph's one block record, so only census may
    # hand one over, only the read may write one, and every other module asks membership's reader for it
    named, stores, passes, reads = _carried_record("_block_read", 4, "block_read")
    assert named == ["graphs"]  # the __slots__ entry: no setattr by name
    assert stores == [("graphs", "Graph.__init__"), ("graphs", "Graph._trusted"), ("membership", "_pair_rows")]
    assert passes == {("membership", "census")}
    assert reads == {("membership", "_pair_rows"), ("membership", "_holds_read")}


def test_only_the_decider_and_the_reader_make_a_checked_summand_list():
    # to_json and verify_certificate skip the int and order tests on a _Crosses, so only code that made sure of both may
    makers = []
    for path in sorted((SRC / "xorkron").glob("*.py")):
        for name, func in _top_level_functions(ast.parse(path.read_text())):
            calls = [sub for sub in ast.walk(func) if isinstance(sub, ast.Call)]
            makers += [(path.stem, name) for c in calls if ast.unparse(c.func) == "_Crosses"]
    assert makers == [("membership", "Certificate.from_dict"), ("membership", "_summands")]


def test_every_cache_is_bounded():
    # an unbounded lru_cache keeps every argument it was asked for, with its result, for the life of the process
    decorators = {}
    for path in sorted((SRC / "xorkron").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in [alias.name for alias in node.names], path.stem  # functools.cache has no bound
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if "cache" in ast.unparse(dec):
                        decorators[f"{path.stem}.{node.name}"] = ast.unparse(dec)
    assert {"graphs._g6_layout", "membership.identity", "membership._columns"} <= set(decorators)
    bounded = re.compile(r"lru_cache\(maxsize=[1-9]\d*\)")
    assert {name: dec for name, dec in decorators.items() if not bounded.fullmatch(dec)} == {}
    # the labeled and census codecs use every short-form order, 0..GRAPH6_MAX_N, and keep all their tables
    assert graphs._g6_layout.cache_info().maxsize >= graphs.GRAPH6_MAX_N + 1


def test_member_certificates_are_built_only_by_the_labeled_decision():
    # recognize and verify_certificate restate is_spanning_cross_like instead of rebuilding its fields.
    built = []
    for path in sorted((SRC / "xorkron").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "Certificate"):
                    continue
                verdict = [kw.value for kw in call.keywords if kw.arg == "verdict"] + call.args[:1]
                if any(isinstance(v, ast.Constant) and v.value is True for v in verdict):
                    built.append((path.stem, func.name))
    assert built == [("membership", "is_spanning_cross_like")]


def test_package_imports_are_top_level_and_acyclic():
    # Relative imports sit in module bodies, where they run on import, and the modules form layers.
    edges: dict[str, set[str]] = {}
    nested = []
    for path in sorted((SRC / "xorkron").glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        name = path.stem
        edges[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges[name].add(node.module)
                if id(node) not in top:
                    nested.append((name, node.lineno, node.module))
    assert nested == []
    list(graphlib.TopologicalSorter(edges).static_order())  # raises CycleError naming a cycle


def test_cli_refusals_are_printed_only_by_main():
    # Commands raise ValueError with the refusal text; main's one handler writes the `error:` line.
    tree = ast.parse((SRC / "xorkron" / "cli.py").read_text())
    holders = [
        getattr(node, "name", type(node).__name__)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "error:" in sub.value
    ]
    assert holders and set(holders) == {"main"}


def test_cli_checks_certificates_only_in_verify():
    # Commands print certificates; `cmd | xorkron verify -` is the one way to recheck them.
    tree = ast.parse((SRC / "xorkron" / "cli.py").read_text())
    callers = [
        node.name
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "verify_certificate"
    ]
    assert callers == ["cmd_verify"]


def test_certificates_have_one_writer():
    # Every printed certificate comes from Certificate.to_json. It and to_dict are the two readers of
    # Certificate._fields, and no library code calls to_dict.
    callers = []
    for path in sorted((SRC / "xorkron").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [ast.unparse(sub.func) for sub in ast.walk(func) if isinstance(sub, ast.Call)]
                callers += [(path.stem, func.name, c) for c in calls if c.endswith((".to_dict", "._fields"))]
    assert callers == [("membership", "to_dict", "self._fields"), ("membership", "to_json", "self._fields")]


def test_every_command_has_one_name():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsers = list(commands.choices.values())
    assert len({id(sp) for sp in parsers}) == len(parsers)


def test_the_labeling_search_has_no_knob():
    # The completion check prunes inside valid_labelings: no parameter, export or module-level name.
    assert list(inspect.signature(xorkron.valid_labelings).parameters) == ["k", "shape"]
    assert list(inspect.signature(xorkron.recognize).parameters) == ["k", "shape"]
    assert len(xorkron.__all__) == 36
    assert [name for name in vars(membership) if "complet" in name.lower()] == []


def _membership_functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / "xorkron" / "membership.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _calls(func: ast.AST) -> set[str]:
    return {ast.unparse(sub.func) for sub in ast.walk(func) if isinstance(sub, ast.Call)}


def test_one_split_search_serves_the_row_partition_and_the_root_splits():
    # The row test is the split with no parity mask; valid_labelings' root splits pass the odd-degree mask.
    # No function calls itself, so no search depth meets the recursion limit.
    recursive = []
    for path in sorted((SRC / "xorkron").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                calls = [sub.func for sub in ast.walk(func) if isinstance(sub, ast.Call)]
                names = [getattr(f, "id", None) or getattr(f, "attr", None) for f in calls]
                recursive += [(path.stem, func.name)] * (func.name in names)
    assert recursive == []
    funcs = _membership_functions()
    callers = sorted(name for name, func in funcs.items() if "_independent_split" in _calls(func))
    assert callers == ["_labeling_search", "has_independent_row_partition"]


def test_verify_checks_search_exhausted_by_existence():
    # verify_certificate asks whether some valid labeling exists, never for the least one.
    calls = _calls(_membership_functions()["verify_certificate"])
    assert "valid_labelings" not in calls and "_labeling_search" in calls
