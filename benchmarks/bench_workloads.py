"""Seeded workloads: input generation, the timed operations, and their checks.

Every workload is a closed loop with one client. `generate(xk, seed)` builds
the input pool for one run from the seed alone; `run_pass` runs every input
once, timing only the library calls, and then checks each output with
`bench_checks`, which does not use the library. The library is reached
through module attributes (`xk.membership.verify_certificate`, ...) looked up
at call time, so the tracer's wrappers see the calls.

Outcomes of one operation:
- ok: the output checked out;
- known gap: the library raised the documented error of a limit that the
  ROADMAP lists as open (graph6 long form for n >= 63, the order-8 cap of the
  canonical form used by `verify_components`). The check confirms that the
  limit really applies to this input;
- failed: any other exception, or a wrong output.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any

import bench_checks as bc
from bench_speed import Speed

GRAPH6_LIMIT = 62
CANONICAL_LIMIT = 8
GAP_GRAPH6 = "graph6-long-form-missing"
GAP_CANONICAL = "canonical-form-order-cap"


@dataclass
class Recorder:
    """Per-operation latencies and outcomes of one run, with speed samples between operations.

    With sample_here False (operations that run in child processes) no
    samples are taken and the latencies are not scaled.
    """

    sample_here: bool = True
    speed: Speed = field(default_factory=Speed)
    latencies: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    known_gaps: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, seconds: float, problems: list[str], gaps: set[str], end: float | None = None) -> None:
        """Record one operation that took `seconds` and ended at `end`, by default now.

        Pass `end` when the output was checked after the operation, so that
        the operation is scaled by the speed samples around it.
        """
        now = time.perf_counter()
        self.latencies.append(seconds)
        self.ends.append(now if end is None else end)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:2])
        for gap in gaps:
            self.known_gaps[gap] = self.known_gaps.get(gap, 0) + 1
        if self.sample_here and self.speed.due(now, seconds):
            self.speed.sample()

    def scaled(self, start: int = 0, stop: int | None = None) -> list[float]:
        """Latencies of operations start..stop, scaled to the reference speed.

        Operations that ran in child processes are left as measured. Their
        time is mostly process start-up, which a calibration loop run in each
        child tracked worse than no scaling at all: over sets of ten `cli`
        seeds, op_p90_ms spread by 8-15% of the median in four sets scaled
        that way and by 4-8% in five unscaled, and the unscaled medians
        stayed within 4% over an hour.
        """
        if not self.sample_here:
            return list(self.latencies[start:stop])
        return [s * self.speed.factor(t - s, t) for s, t in zip(self.latencies[start:stop], self.ends[start:stop])]


def _rows(g) -> tuple[int, ...]:
    return tuple(g.rows)


def _rand_graph(xk, rng: random.Random, n: int, density: float):
    """G(n, density) with at least one edge."""
    while True:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
        if edges:
            return xk.graphs.new_graph(n, edges)


def _graph_with_edges(xk, rng: random.Random, n: int, m: int):
    """Uniformly random graph on n vertices with exactly m edges."""
    return xk.graphs.new_graph(n, rng.sample(list(combinations(range(n), 2)), m))


def _connected_graph(xk, rng: random.Random, n: int, density: float):
    """Random spanning tree plus each other pair with probability density."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:k])))) for k, v in enumerate(order) if k}
    edges |= {e for e in combinations(range(n), 2) if e not in edges and rng.random() < density}
    return xk.graphs.new_graph(n, edges)


def _permuted(xk, rng: random.Random, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _graph6_gap(n: int, exc: Exception) -> bool:
    return n > GRAPH6_LIMIT and isinstance(exc, ValueError) and "graph6" in str(exc)


def _timed(fn, *args):
    """(seconds taken, end time, result or the exception raised) of fn(*args)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an unexpected exception is a failed operation
        out = exc
    t1 = time.perf_counter()
    return t1 - t0, t1, out


class Workload:
    """One workload: a seeded input pool, a timed operation and its check."""

    name = ""
    in_process = True  # operations run in this process, so speed is sampled here

    def generate(self, xk, seed: int) -> list:
        raise NotImplementedError

    def run_op(self, xk, item) -> Any:
        raise NotImplementedError

    def check(self, item, out) -> tuple[list[str], set[str]]:
        raise NotImplementedError

    def run_pass(self, xk, items: list, rec: Recorder, tracer=None) -> None:
        """Run every item once, recording each operation."""
        for item in items:
            seconds, end, out = _timed(self.run_op, xk, item)
            if tracer is not None:
                tracer.fold(rec.speed.factor(end - seconds, end))
            if isinstance(out, Exception):
                rec.record(seconds, [f"{self.name}: {type(out).__name__}: {out}"], set(), end)
            else:
                rec.record(seconds, *self.check(item, out), end)


# --------------------------------------------------------------------------- labeled

LABELED_SHAPES = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8), (8, 8))
# Per shape, member k is the XOR of 1 + k % 4 products whose factors have
# exactly FACTOR_DENSITIES[k] of their possible edges. An operation's cost
# grows with the member's cross count, so fixing the edge counts keeps the
# mix of costs the same for every seed; the seed picks which edges. Each
# (products, density) pair occurs twice, so op_p90_ms, which falls among the
# members of the largest shapes, is taken over more of them.
FACTOR_DENSITIES = (0.3, 0.5, 0.7, 0.4, 0.6, 0.35, 0.55, 0.45) * 2
LABELED_NONMEMBERS = 4  # per shape, alternating same-line and missing-partner defects
# Builder inputs are connected, so verify_components canonicalizes one
# component of order n: its cost is fixed by n, and n = 9 exceeds the cap.
BUILDER_ORDERS = tuple(range(3, 10))


@dataclass
class LabeledItem:
    kind: str  # "member", "same-line", "missing-partner" or "builder"
    shape: tuple[int, int]
    graph: Any
    summands: tuple = ()  # the factor pairs a member is composed of


class Labeled(Workload):
    """Labeled membership pipeline on planted members and one-edge defects."""

    name = "labeled"

    def generate(self, xk, seed: int) -> list[LabeledItem]:
        rng = random.Random(f"labeled:{seed}")
        items: list[LabeledItem] = []
        for p, q in LABELED_SHAPES:
            members = [self._member(xk, rng, p, q, 1 + k % 4, d) for k, d in enumerate(FACTOR_DENSITIES)]
            items += members
            for k in range(LABELED_NONMEMBERS):
                base = members[k]
                kind = "same-line" if k % 2 == 0 else "missing-partner"
                items.append(LabeledItem(kind, (p, q), self._defect(xk, rng, base.graph, p, q, kind)))
        for n in BUILDER_ORDERS:
            items.append(LabeledItem("builder", (n, n), _connected_graph(xk, rng, n, 0.2)))
        rng.shuffle(items)
        return items

    @staticmethod
    def _member(xk, rng, p, q, r, density) -> LabeledItem:
        mp, mq = (max(1, round(density * n * (n - 1) / 2)) for n in (p, q))
        while True:
            summands = [
                xk.algebra.TensorSummand(_graph_with_edges(xk, rng, p, mp), _graph_with_edges(xk, rng, q, mq))
                for _ in range(r)
            ]
            g = xk.algebra.tensor_2sum(summands)
            if g.edge_count:
                return LabeledItem("member", (p, q), g, tuple(summands))

    @staticmethod
    def _defect(xk, rng, g, p, q, kind):
        edges = set(g.edges())
        if kind == "same-line":
            i, j = rng.randrange(p), rng.randrange(q)
            if rng.random() < 0.5:
                j2 = rng.choice([c for c in range(q) if c != j])
                u, v = i * q + j, i * q + j2
            else:
                i2 = rng.choice([r for r in range(p) if r != i])
                u, v = i * q + j, i2 * q + j
            edges.add((min(u, v), max(u, v)))
        elif rng.random() < 0.5:
            edges.remove(rng.choice(sorted(edges)))
        else:
            absent = [
                (u, v) for u, v in combinations(range(p * q), 2)
                if u // q != v // q and u % q != v % q and (u, v) not in edges
            ]
            edges.add(rng.choice(absent))
        return xk.graphs.new_graph(p * q, edges)

    def run_op(self, xk, item: LabeledItem) -> dict:
        g = item.graph
        if item.kind == "builder":
            h, labeling = xk.builder.build_ppt_graph(g)
            try:
                matched = xk.builder.verify_components(h, g)
            except ValueError as exc:
                matched = exc
            return {"h": h, "matched": matched}
        shape = xk.membership.GridShape(*item.shape)
        out: dict = {}
        if item.summands:
            g = out["composed"] = xk.algebra.tensor_2sum(item.summands)
        try:
            out["g6"] = xk.graphs.graph6_decode(xk.graphs.graph6_encode(g))
        except ValueError as exc:
            out["g6"] = exc
        cert = xk.membership.is_spanning_cross_like(g, shape)
        out["cert"] = cert
        try:
            out["reread"] = xk.membership.Certificate.from_json(cert.to_json())
            checked = out["reread"]
        except ValueError as exc:
            out["reread"] = exc
            checked = cert
        out["problems"] = xk.membership.verify_certificate(checked)
        if cert.verdict:
            out["t2"] = xk.t2.t2_exact(g, shape)
        out["ppt"] = xk.transpose.ppt_test(g, shape.p)
        return out

    def check(self, item: LabeledItem, out: dict) -> tuple[list[str], set[str]]:
        g = item.graph
        n, rows = g.n, _rows(g)
        p, q = item.shape
        problems: list[str] = []
        gaps: set[str] = set()
        if item.kind == "builder":
            matched = out["matched"]
            if isinstance(matched, Exception):
                if max(bc.component_orders(n, rows)) > CANONICAL_LIMIT and "canonical form" in str(matched):
                    gaps.add(GAP_CANONICAL)
                else:
                    problems.append(f"builder n={n}: {matched}")
            elif matched is not True:
                problems.append(f"builder n={n}: verify_components rejected its own embedding")
            if not bc.embedding_is_exact(n, rows, out["h"].n, _rows(out["h"])):
                problems.append(f"builder n={n}: embedding differs from the construction")
            return problems, gaps

        if item.summands:
            factors = [(a.n, tuple(a.rows), b.n, tuple(b.rows)) for a, b in item.summands]
            if _rows(out["composed"]) != tuple(bc.xor_of_products(factors)):
                problems.append(f"labeled member {p}x{q}: tensor_2sum differs from the naive Kronecker XOR")
        naive = bc.labeled_violation(n, rows, p, q)
        truth = item.kind == "member"
        cert = out["cert"]
        where = f"labeled {item.kind} {p}x{q}"
        if (naive is None) != truth:
            problems.append(f"{where}: planted truth disagrees with the naive check")
        if cert.verdict != truth:
            problems.append(f"{where}: verdict {cert.verdict}, planted {truth}")
        if not cert.verdict and naive is not None:
            if cert.witness is None or (cert.witness.reason, cert.witness.edge) != naive:
                problems.append(f"{where}: witness differs from the naive first violation {naive}")
        if cert.verdict:
            if set(cert.summands or ()) != bc.cross_quads(n, rows, q) or len(cert.summands) != len(set(cert.summands)):
                problems.append(f"{where}: summands differ from the naive decomposition")
            want_t2 = bc.t2_of_member(n, rows, p, q)
            if out.get("t2") != want_t2:
                problems.append(f"{where}: t2 {out.get('t2')}, naive rank gives {want_t2}")
            if out["ppt"] is not True:
                problems.append(f"{where}: member is not a partial-transpose fixed point")
        elif out["ppt"] != bc.is_ppt_fixed_point(n, rows, p):
            problems.append(f"{where}: ppt_test disagrees with the naive partial transpose")
        for key in ("g6", "reread"):
            value = out[key]
            if isinstance(value, Exception):
                if _graph6_gap(n, value):
                    gaps.add(GAP_GRAPH6)
                else:
                    problems.append(f"{where}: {key}: {value}")
        if not isinstance(out["g6"], Exception) and _rows(out["g6"]) != rows:
            problems.append(f"{where}: graph6 round trip changed the graph")
        reread = out["reread"]
        if not isinstance(reread, Exception) and (
            reread.verdict != cert.verdict or _rows(reread.graph) != rows or reread.summands != cert.summands
        ):
            problems.append(f"{where}: certificate JSON round trip changed the certificate")
        if out["problems"]:
            problems.append(f"{where}: verify_certificate: {out['problems'][0]}")
        return problems, gaps


# --------------------------------------------------------------------------- recognize

# (class, shape, count per pass). Costs at the parent commit on one 2-core
# machine: "dense" and "near" inputs take 0.1-20 ms, "mid" 5-300 ms and
# "near-sparse" 25-150 ms. "slow" is the member of the 3x4 grid made of two
# vertex-disjoint crosses (4K2 + 4K1 up to isomorphism). The exhaustive search
# takes 0.25-1.2 s on it, depending only on the vertex permutation, and most
# of all on where the four isolated vertices land: at the positions of one
# SLOW_ISOLATED entry it takes 0.55-0.6 s on average, with a coefficient of
# variation of about 0.1. Slow members use the entries in turn, and the seed
# picks the crosses and the rest of the permutation. Sparse 4x4 members vary
# far more (0.2-0.9 s at 12 crosses, minutes at 2), so they are left out to
# keep runs comparable. Dense inputs hold DENSE_SHARES of the crosses in turn,
# so every seed gets the same mix of costs. The cheap classes put op_p50_ms
# among the dense inputs, and "slow" is 1/6 of a pass so that op_p90_ms lands
# among its members. A pass takes about 12 s.
RECOGNIZE_MIX = (
    ("dense", (3, 4), 12), ("dense", (4, 4), 12), ("dense", (4, 5), 12),
    ("near", (3, 4), 12), ("near", (4, 4), 12), ("near", (4, 5), 12),
    ("mid", (3, 4), 6), ("mid", (4, 5), 8),
    ("near-sparse", (3, 4), 4),
    ("slow", (3, 4), 18),
)
SLOW_ISOLATED = ((0, 3, 6, 9), (1, 5, 8, 11), (1, 2, 3, 4))
DENSE_SHARES = (0.6, 0.7, 0.8, 0.9)
T2_MIN_EVERY = 3  # t2_min_over_labelings runs on every third dense member


@dataclass
class RecognizeItem:
    kind: str
    shape: tuple[int, int]
    graph: Any
    planted_member: bool
    t2_min: bool = False
    oracle: Any = None  # least labeling found by the naive search, computed once


class Recognize(Workload):
    """Unlabeled recognition of permuted members and one-edge-moved near-members."""

    name = "recognize"

    def generate(self, xk, seed: int) -> list[RecognizeItem]:
        rng = random.Random(f"recognize:{seed}")
        items = []
        dense_count = 0
        for kind, (p, q), count in RECOGNIZE_MIX:
            quads = list(xk.membership.pair_quadruples(xk.membership.GridShape(p, q)))
            for k in range(count):
                if kind in ("dense", "near"):
                    chosen = rng.sample(quads, round(DENSE_SHARES[k % len(DENSE_SHARES)] * len(quads)))
                elif kind == "mid":
                    chosen = rng.sample(quads, 3 if p == 3 else 30)
                elif kind == "near-sparse":
                    chosen = rng.sample(quads, 4)
                else:
                    chosen = self._disjoint_pair(rng, quads)
                g = xk.membership.graph_from_quadruples(xk.membership.GridShape(p, q), chosen)
                planted = not kind.startswith("near")
                if not planted:
                    g = self._move_edge(xk, rng, g)
                t2_min = kind == "dense" and dense_count % T2_MIN_EVERY == 0
                dense_count += kind == "dense"
                if kind == "slow":
                    g = self._place_isolated(g, rng, SLOW_ISOLATED[k % len(SLOW_ISOLATED)])
                else:
                    g = _permuted(xk, rng, g)
                items.append(RecognizeItem(kind, (p, q), g, planted, t2_min))
        rng.shuffle(items)
        return items

    @staticmethod
    def _disjoint_pair(rng, quads):
        while True:
            a, b = rng.sample(quads, 2)
            if not {a[0], a[1]} & {b[0], b[1]} or not {a[2], a[3]} & {b[2], b[3]}:
                return [a, b]

    @staticmethod
    def _place_isolated(g, rng, spots):
        """g under a random vertex permutation that puts its isolated vertices at spots."""
        isolated = [v for v in range(g.n) if not g.rows[v]]
        others = [v for v in range(g.n) if g.rows[v]]
        rest = [v for v in range(g.n) if v not in spots]
        rng.shuffle(isolated)
        rng.shuffle(rest)
        perm = [0] * g.n
        for v, spot in zip(isolated + others, list(spots) + rest):
            perm[v] = spot
        return g.relabel(perm)

    @staticmethod
    def _move_edge(xk, rng, g):
        edges = set(g.edges())
        absent = [e for e in combinations(range(g.n), 2) if e not in edges]
        edges.remove(rng.choice(sorted(edges)))
        edges.add(rng.choice(absent))
        return xk.graphs.new_graph(g.n, edges)

    def run_op(self, xk, item: RecognizeItem) -> dict:
        shape = xk.membership.GridShape(*item.shape)
        cert = xk.recognition.recognize(item.graph, shape)
        out = {"cert": cert, "problems": xk.membership.verify_certificate(cert)}
        if item.t2_min and cert.verdict:
            out["t2_min"] = xk.t2.t2_min_over_labelings(item.graph, shape)
        return out

    def check(self, item: RecognizeItem, out: dict) -> tuple[list[str], set[str]]:
        g = item.graph
        n, rows = g.n, _rows(g)
        p, q = item.shape
        cert = out["cert"]
        where = f"recognize {item.kind} {p}x{q}"
        problems = []
        if item.planted_member and not cert.verdict:
            problems.append(f"{where}: planted member rejected ({cert.witness})")
        if cert.verdict:
            cells = cert.labeling.cells
            if not bc.labeling_is_valid(n, rows, p, q, cells):
                problems.append(f"{where}: returned labeling is not valid")
        if (p, q) == (3, 4):
            # Below (4, 4) the naive search is cheap enough to check every
            # verdict and the least labeling; above, non-member verdicts are
            # only rechecked by verify_certificate, which reruns the same search.
            if item.oracle is None:
                item.oracle = (bc.least_labeling(n, rows, p, q),)
            least = item.oracle[0]
            got = cert.labeling.cells if cert.verdict else None
            if got != least:
                problems.append(f"{where}: labeling {got} is not the least valid one {least}")
        if out["problems"]:
            problems.append(f"{where}: verify_certificate: {out['problems'][0]}")
        if "t2_min" in out and cert.verdict and not problems:
            under = bc.t2_of_member(n, bc.placed_rows(n, rows, q, cert.labeling.cells), p, q)
            if not isinstance(out["t2_min"], int) or not 1 <= out["t2_min"] <= under:
                problems.append(f"{where}: t2_min {out['t2_min']} outside 1..{under}")
        return problems, set()


# --------------------------------------------------------------------------- census

CENSUS_SHAPES = ((3, 3), (2, 6))
CENSUS_ORDER_SAMPLES = 16


@dataclass
class CensusItem:
    shape: tuple[int, int]
    mode: str  # "stats" as `census --stats` does, "list" as plain `census`
    samples: tuple[int, ...]  # list mode: member indices whose listing position is checked


class Census(Workload):
    """Full census enumeration in one mode; each generated member is one operation.

    The two modes are two workloads, so a change that speeds one up at the
    other's cost moves the end-to-end metrics of one of them.
    """

    mode = ""

    def generate(self, xk, seed: int) -> list[CensusItem]:
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for p, q in CENSUS_SHAPES:
            m = len(xk.membership.pair_quadruples(xk.membership.GridShape(p, q)))
            samples = rng.sample(range(2**m), CENSUS_ORDER_SAMPLES) if self.mode == "list" else ()
            items.append(CensusItem((p, q), self.mode, tuple(sorted(samples))))
        return items

    def run_pass(self, xk, items, rec: Recorder, tracer=None) -> None:
        for item in items:
            shape = xk.membership.GridShape(*item.shape)
            stats = item.mode == "stats"
            edges: dict[int, int] = {}
            t2s: dict[int, int] = {}
            listing: list[str] = []
            attained = 0
            members = iter(xk.membership.census(shape))
            while True:
                t0 = time.perf_counter()
                try:
                    g = next(members)
                    if stats:
                        e = g.edge_count
                        t2 = xk.t2.t2_exact(g, shape)
                        _, hit = xk.membership.edge_bound_check(g, shape)
                        if hit:
                            xk.graphs.graph6_encode(g)
                    else:
                        text = xk.graphs.graph6_encode(g)
                except StopIteration:
                    break
                except Exception as exc:  # an unexpected exception fails this step
                    rec.record(time.perf_counter() - t0, [f"census {item.shape} {item.mode}: {exc}"], set())
                    continue
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.fold(rec.speed.factor(t1))
                rec.record(t1 - t0, [], set())
                if stats:
                    edges[e] = edges.get(e, 0) + 1
                    t2s[t2] = t2s.get(t2, 0) + 1
                    attained += hit
                else:
                    listing.append(text)
            problems = self.check(item, {"edges": edges, "t2": t2s, "attained": attained, "listing": listing})[0]
            if problems:
                # A wrong histogram or listing fails the whole segment.
                rec.failed += 1
                rec.problems.extend(problems[:2])

    def check(self, item: CensusItem, out: dict) -> tuple[list[str], set[str]]:
        p, q = item.shape
        want = bc.census_expectation(p, q)
        where = f"census {p}x{q} {item.mode}"
        problems = []
        if item.mode == "stats":
            if sum(out["edges"].values()) != want["count"]:
                problems.append(f"{where}: count {sum(out['edges'].values())}, expected {want['count']}")
            if out["edges"] != want["edges"]:
                problems.append(f"{where}: edge histogram differs from binomial(m, k)")
            if out["t2"] != want["t2"]:
                problems.append(f"{where}: t2 histogram differs from the GF(2) rank counts")
            if out["attained"] != 1:
                problems.append(f"{where}: edge bound attained {out['attained']} times, expected once")
            return problems, set()
        listing = out["listing"]
        if len(listing) != want["count"] or len(set(listing)) != want["count"]:
            problems.append(f"{where}: {len(listing)} listed ({len(set(listing))} distinct), expected {want['count']}")
            return problems, set()
        hist: dict[int, int] = {}
        for text in listing:
            e = bc.graph6_edge_count(text)
            hist[e] = hist.get(e, 0) + 1
        if hist != want["edges"]:
            problems.append(f"{where}: edge histogram of the listing differs from binomial(m, k)")
        for index in item.samples:
            if listing[index] != bc.graph6_short(p * q, bc.census_member_rows(p, q, index)):
                problems.append(f"{where}: member {index} is out of order")
                break
        return problems, set()


class CensusStats(Census):
    name = "census-stats"
    mode = "stats"


class CensusList(Census):
    name = "census-list"
    mode = "list"


# --------------------------------------------------------------------------- cli

# The child times the import, runs the command, and reports the import time,
# with the tracer's totals in a traced run, as the last line of stderr.
CHILD_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, {src!r})\n"
    "import xorkron.cli\n"
    "report = {{'import_ms': (time.perf_counter() - t0) * 1000}}\n"
    "{body}"
    "import json\n"
    "print({tag!r} + json.dumps(report), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
CHILD_PLAIN = "code = xorkron.cli.main(sys.argv[1:])\n"
CHILD_TRACED = (
    "sys.path.insert(0, {bench!r})\n"
    "import bench_trace\n"
    "tracer = bench_trace.Tracer()\n"
    "with tracer.installed():\n"
    "    code = xorkron.cli.main(sys.argv[1:])\n"
    "tracer.fold()\n"
    "report.update(calls=tracer.calls, self_s=tracer.self_s, total_s=tracer.total_s, counts=tracer.counts)\n"
)
REPORT_TAG = "BENCH-CHILD "
CLI_TIMEOUT_S = 120
CLI_ROUNDS = 3  # per pass, each command runs this many times on its own inputs
CLI_SHAPES = ((3, 3), (3, 4), (4, 4))  # grid of round k; members hold 80% of its crosses
BUILD_ORDERS = (4, 6, 9)
CLI_CENSUS_SHAPES = ((2, 3), (3, 3), (2, 4))


def split_report(stderr: str) -> tuple[dict, str]:
    """The child's report and the standard error before it; ({}, stderr) if it sent none."""
    if REPORT_TAG not in stderr:
        return {}, stderr
    before, _, tail = stderr.rpartition(REPORT_TAG)
    return json.loads(tail), before


@dataclass
class CliItem:
    command: str
    argv: list[str]
    stdin: str | None
    expect: dict


class Cli(Workload):
    """Cold-start `xorkron.cli.main` runs, one subprocess at a time."""

    name = "cli"
    in_process = False

    def __init__(self) -> None:
        self.src = str(Path(__file__).resolve().parent.parent / "src")
        self.bench = str(Path(__file__).resolve().parent)
        self.trace_totals: list[dict] = []  # the reports of traced children

    def generate(self, xk, seed: int) -> list[CliItem]:
        rng = random.Random(f"cli:{seed}")
        ms = xk.membership
        items = []
        for k in range(CLI_ROUNDS):
            p, q = CLI_SHAPES[k]
            shape = ms.GridShape(p, q)
            quads = list(ms.pair_quadruples(shape))
            member = ms.graph_from_quadruples(shape, rng.sample(quads, round(0.8 * len(quads))))
            defect = Labeled._defect(xk, rng, member, p, q, "same-line" if k % 2 else "missing-partner")
            labeled = member if k % 2 == 0 else defect
            g6 = xk.graphs.graph6_encode(labeled)
            items.append(CliItem("member", ["member", "--p", str(p), "--q", str(q), g6], None,
                                 {"graph": labeled, "shape": (p, q), "member": k % 2 == 0}))
            scrambled = _permuted(xk, rng, member)
            items.append(CliItem("recognize", ["recognize", "--p", str(p), "--q", str(q), xk.graphs.graph6_encode(scrambled)],
                                 None, {"graph": scrambled, "shape": (p, q)}))
            items.append(CliItem("t2", ["t2", "--p", str(p), "--q", str(q), xk.graphs.graph6_encode(member)], None,
                                 {"graph": member, "shape": (p, q)}))
            cp, cq = CLI_CENSUS_SHAPES[k % len(CLI_CENSUS_SHAPES)]
            items.append(CliItem("census", ["census", "--p", str(cp), "--q", str(cq), "--stats"], None, {"shape": (cp, cq)}))
            base = _rand_graph(xk, rng, BUILD_ORDERS[k % len(BUILD_ORDERS)], 0.4)
            items.append(CliItem("build-ppt", ["build-ppt", xk.graphs.graph6_encode(base)], None, {"graph": base}))
            cert = ms.is_spanning_cross_like(labeled, shape)
            items.append(CliItem("verify", ["verify", "-"], cert.to_json(), {}))
            items.append(CliItem("ppt-check", ["ppt-check", "--p", str(p), xk.graphs.graph6_encode(labeled)], None,
                                 {"graph": labeled, "shape": (p, q)}))
        rng.shuffle(items)
        return items

    def command(self, traced: bool) -> list[str]:
        body = CHILD_TRACED.format(bench=self.bench) if traced else CHILD_PLAIN
        code = CHILD_CODE.format(src=self.src, body=body, tag=REPORT_TAG)
        return [sys.executable, "-c", code]

    def run_pass(self, xk, items, rec: Recorder, tracer=None) -> None:
        base = self.command(tracer is not None)
        for item in items:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(base + item.argv, input=item.stdin, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                rec.record(time.perf_counter() - t0, [f"cli {item.command}: no exit within {CLI_TIMEOUT_S} s"], set())
                continue
            t1 = time.perf_counter()
            report, stderr = split_report(proc.stderr)
            if tracer is not None and "calls" in report:
                self.trace_totals.append(report)
            problems, gaps = self.check(item, (proc.returncode, proc.stdout, stderr))
            if not report:
                problems.append(f"cli {item.command}: exit {proc.returncode} without a report: {stderr.strip()[-160:]}")
            rec.record(t1 - t0, problems, gaps, t1)

    def check(self, item: CliItem, out) -> tuple[list[str], set[str]]:
        code, stdout, stderr = out
        ex = item.expect
        where = f"cli {item.command}"
        problems: list[str] = []
        gaps: set[str] = set()
        doc = bc.parse_json(stdout)
        if item.command in ("member", "recognize", "t2", "ppt-check"):
            g = ex["graph"]
            n, rows = g.n, _rows(g)
            p, q = ex["shape"]
        if item.command == "member":
            want = 0 if ex["member"] else 1
            if code != want or doc is None or doc.get("verdict") != ("member" if ex["member"] else "non-member"):
                problems.append(f"{where}: exit {code}, expected {want} with a parsable verdict")
        elif item.command == "recognize":
            if code != 0 or doc is None or not bc.labeling_is_valid(n, rows, p, q, doc.get("labeling", [])):
                problems.append(f"{where}: exit {code}, expected 0 with a valid labeling")
        elif item.command == "t2":
            want = bc.t2_of_member(n, rows, p, q)
            if code != 0 or doc is None or doc.get("t2") != want:
                problems.append(f"{where}: exit {code} / {doc}, expected t2 = {want}")
        elif item.command == "census":
            want = bc.census_expectation(*ex["shape"])
            ok = (
                code == 0 and doc is not None and doc.get("count") == want["count"]
                and doc.get("edge_counts") == {str(k): v for k, v in want["edges"].items()}
                and doc.get("t2_counts") == {str(k): v for k, v in sorted(want["t2"].items())}
            )
            if not ok:
                problems.append(f"{where}: exit {code}, histograms differ from the closed form")
        elif item.command == "build-ppt":
            g = ex["graph"]
            if g.n * g.n > GRAPH6_LIMIT:
                if code == 2 and "graph6" in stderr:
                    gaps.add(GAP_GRAPH6)
                elif code != 0:
                    problems.append(f"{where}: n={g.n} exit {code}: {stderr.strip()[:80]}")
            else:
                first, _, rest = stdout.partition("\n")
                h_doc = bc.parse_json(rest)
                expect_h = bc.graph6_short(g.n * g.n, bc.embedding_rows(g.n, _rows(g)))
                if code != 0 or first != expect_h or h_doc is None or h_doc.get("verdict") != "member":
                    problems.append(f"{where}: n={g.n} exit {code}, embedding or certificate wrong")
        elif item.command == "verify":
            if code != 0 or stdout.strip() != "certificate ok":
                problems.append(f"{where}: exit {code}: {stderr.strip()[:80]}")
        elif item.command == "ppt-check":
            fixed = bc.is_ppt_fixed_point(n, rows, p)
            if code != (0 if fixed else 1) or stdout.strip() != f"fixed-point: {'yes' if fixed else 'no'}":
                problems.append(f"{where}: exit {code}, expected fixed-point {fixed}")
        return problems, gaps


WORKLOADS = {w.name: w for w in (Labeled, Recognize, CensusStats, CensusList, Cli)}
