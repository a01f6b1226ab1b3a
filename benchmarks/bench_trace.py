"""Span tracing of the xorkron layers, installed from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper in every
loaded `xorkron` module namespace that holds it, and on the class for
methods, so nested calls made through module globals (for example
`verify_certificate -> graph_from_quadruples`, or `recognize ->
valid_labelings`) are traced too. Leaving the context puts every original
attribute back.

Each span records its name, start, end and parent. Spans are kept for one
operation at a time; `fold()` turns them into per-name totals. A span's self
time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute). A dotted attribute names a method.
TARGETS = (
    ("graphs.graph_init", "graphs", "Graph.__init__"),
    ("graphs.relabel", "graphs", "Graph.relabel"),
    ("graphs.graph6", "graphs", "graph6_encode"),
    ("graphs.graph6", "graphs", "graph6_decode"),
    ("algebra.tensor_product", "algebra", "tensor_product"),
    ("algebra.two_sum", "algebra", "two_sum"),
    ("algebra.tensor_elementary", "algebra", "tensor_elementary"),
    ("algebra.tensor_2sum", "algebra", "tensor_2sum"),
    ("membership.find_violation", "membership", "find_violation"),
    ("membership.is_spanning_cross_like", "membership", "is_spanning_cross_like"),
    ("membership.elementary_decomposition", "membership", "elementary_decomposition"),
    ("membership.graph_from_quadruples", "membership", "graph_from_quadruples"),
    ("membership.verify_certificate", "membership", "verify_certificate"),
    ("membership.certificate_json", "membership", "Certificate.to_json"),
    ("membership.certificate_json", "membership", "Certificate.from_json"),
    ("membership.census", "membership", "census"),
    ("membership.edge_bound_check", "membership", "edge_bound_check"),
    ("recognition.prefilter", "recognition", "prefilter"),
    ("recognition.has_independent_row_partition", "recognition", "has_independent_row_partition"),
    ("recognition.recognize", "recognition", "recognize"),
    ("recognition.valid_labelings", "recognition", "valid_labelings"),
    ("t2.pair_matrix", "t2", "pair_matrix"),
    ("t2.gf2_rank", "t2", "gf2_rank"),
    ("t2.t2_exact", "t2", "t2_exact"),
    ("t2.t2_min_over_labelings", "t2", "t2_min_over_labelings"),
    ("transpose.partial_transpose", "transpose", "partial_transpose"),
    ("transpose.ppt_test", "transpose", "ppt_test"),
    ("builder.build_ppt_graph", "builder", "build_ppt_graph"),
    ("builder.verify_components", "builder", "verify_components"),
    ("cli.main", "cli", "main"),
)


def _count_result(name: str, result, counts: Counter) -> None:
    """Outcome counters measured where the work happens."""
    if name == "recognition.prefilter" and result is not None:
        counts["recognition.prefilter.rejects"] += 1
    elif name == "recognition.recognize" and result.verdict:
        counts["recognition.recognize.members"] += 1


class Tracer:
    """Span recorder with per-name totals of calls, self time and inclusive time."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def fold(self, scale: float = 1.0) -> None:
        """Add the finished spans, times multiplied by scale, to the totals and forget them."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), cover in zip(self.spans, covered):
            self.calls[name] += 1
            self.total_s[name] += (end - start) * scale
            self.self_s[name] += (end - start - cover) * scale
        self.spans.clear()

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    consumer = tracer.parent_name()
                    index = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    tracer.counts[name + ".yields"] += 1
                    tracer.counts[f"{name}.yields_in:{consumer}"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            _count_result(name, result, tracer.counts)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target while the context is open; always restore."""
        saved: list[tuple[object, str, object]] = []
        try:
            for name, module_name, attr in TARGETS:
                module = importlib.import_module(f"xorkron.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    if isinstance(original, staticmethod):
                        replacement = staticmethod(self.wrap(name, original.__func__))
                    else:
                        replacement = self.wrap(name, original)
                    saved.append((cls, method, original))
                    setattr(cls, method, replacement)
                    continue
                original = getattr(module, attr)
                replacement = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "xorkron" and not mod_name.startswith("xorkron."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, replacement)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)
