"""Benchmark of the xorkron library and CLI: one workload per invocation.

    python3 benchmarks/run.py --workload labeled --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Whole passes over the seeded input pool repeat while the next one
still fits in `--seconds`. Every output is checked; a wrong one makes the
exit code 1.

`--trace 0` prints the end-to-end metrics; `--trace 1` spends a third of
`--seconds` on untraced passes and the rest on traced passes, at least one
of each, and prints the per-layer metrics. Each metric is printed on its own
line as `name value unit`, then the environment as one JSON line, and last
the result object. See `benchmarks/NOTES.md`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS, Recorder  # noqa: E402

SETUP_REPEATS = 9
MIN_OPS = 100
MODULES = ("graphs", "algebra", "membership", "recognition", "t2", "transpose", "builder")

TRACE_PLAIN_SHARE = 1 / 3  # of --seconds, for the untraced passes of a traced run
# Per-layer metrics read off one span, named '<span>.calls' or
# '<span>.self_ms'. They are summed over the traced passes and divided by the
# passes run. layer_metrics() adds the ones computed from several spans.
SPAN_METRICS = (
    "graphs.graph_init.calls",
    "graphs.graph_init.self_ms",
    "graphs.graph6.self_ms",
    "graphs.relabel.self_ms",
    "algebra.tensor_product.self_ms",
    "algebra.two_sum.calls",
    "algebra.two_sum.self_ms",
    "algebra.tensor_elementary.calls",
    "membership.find_violation.self_ms",
    "membership.elementary_decomposition.self_ms",
    "membership.graph_from_quadruples.calls",
    "membership.graph_from_quadruples.self_ms",
    "membership.verify_certificate.self_ms",
    "membership.certificate_json.self_ms",
    "recognition.prefilter.self_ms",
    "recognition.has_independent_row_partition.self_ms",
    "recognition.recognize.self_ms",
    "recognition.valid_labelings.self_ms",
    "t2.pair_matrix.self_ms",
    "t2.gf2_rank.self_ms",
    "t2.t2_min_over_labelings.self_ms",
    "transpose.partial_transpose.self_ms",
    "builder.build_ppt_graph.self_ms",
    "builder.verify_components.self_ms",
    "cli.main.self_ms",
)


def modules() -> SimpleNamespace:
    """The package's modules as attributes, imported if needed."""
    importlib.import_module("xorkron")
    return SimpleNamespace(**{name: importlib.import_module(f"xorkron.{name}") for name in MODULES})


def fresh_import() -> SimpleNamespace:
    """Import the package from scratch, so set-up time includes the import."""
    for name in [m for m in sys.modules if m == "xorkron" or m.startswith("xorkron.")]:
        del sys.modules[name]
    return modules()


def set_up(workload, seed: int):
    xk = fresh_import()
    return xk, workload.generate(xk, seed)


def git_sha() -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "isolation": "none: no CPU pinning, frequency control or cache dropping",
    }


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_passes(workload, xk, items, rec: Recorder, seconds: float, tracer=None, min_ops: int = MIN_OPS):
    """Whole passes while the next one still fits in `seconds`; at least one, and min_ops ops.

    The next pass is taken to last as long as the mean pass so far, so a run
    overruns `seconds` only when one pass, or min_ops, takes longer. Returns
    the passes run and the peak resident set in MB after the first one,
    which later passes only grow by the latencies they record.
    """
    start = time.perf_counter()
    first = len(rec.latencies)
    passes = 0
    while True:
        workload.run_pass(xk, items, rec, tracer)
        passes += 1
        if passes == 1:
            who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if len(rec.latencies) - first >= min_ops and elapsed * (passes + 1) / passes > seconds:
            return passes, rss_mb


def layer_metrics(workload, tracer: bench_trace.Tracer, passes: int) -> dict:
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    import_ms: list[float] = []
    for child in getattr(workload, "trace_totals", []):
        import_ms.append(child["import_ms"])
        calls.update(child["calls"])
        self_s.update(child["self_s"])
        total_s.update(child["total_s"])
        counts.update(child["counts"])
    out = {}
    for metric in SPAN_METRICS:
        span, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = (calls[span] / passes, "count")
        else:
            out[metric] = (self_s[span] * 1000 / passes, "ms")
    steps = counts["membership.census.yields"]
    out["membership.census.step_us"] = (total_s["membership.census"] * 1e6 / steps if steps else 0.0, "us")
    prefilters = calls["recognition.prefilter"]
    out["recognition.prefilter.reject_ratio"] = (
        counts["recognition.prefilter.rejects"] / prefilters if prefilters else 0.0, "ratio")
    out["recognition.labelings_enumerated"] = (counts["recognition.valid_labelings.yields"] / passes, "count")
    searched = counts["recognition.valid_labelings.yields_in:recognition.recognize"]
    out["recognition.useful_labeling_ratio"] = (
        counts["recognition.recognize.members"] / searched if searched else 0.0, "ratio")
    out["cli.import_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xorkron" / "__init__.py").is_file():
        print(f"error: no xorkron package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    rec = Recorder(sample_here=workload.in_process)
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        (xk, items), seconds, scaled = rec.speed.bracket(lambda: set_up(workload, args.seed))
        setup_raw.append(seconds)
        setup_scaled.append(scaled)

    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    if args.trace:
        plain_seconds = args.seconds * TRACE_PLAIN_SHARE
        plain_passes, _ = run_passes(workload, xk, items, rec, plain_seconds, min_ops=0)
        plain = len(rec.latencies)
        tracer = bench_trace.Tracer()
        with tracer.installed():
            passes, _ = run_passes(workload, xk, items, rec, args.seconds - plain_seconds, tracer, min_ops=0)
        metrics.update(layer_metrics(workload, tracer, passes))
        overhead = (sum(rec.scaled(plain)) / passes) / (sum(rec.scaled(0, plain)) / plain_passes)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        passes, rss_mb = run_passes(workload, xk, items, rec, args.seconds)
        lat = rec.scaled()
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "op_p90_ms": (percentile(lat, 90) * 1000, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        raw = {
            "raw_setup_s": statistics.median(setup_raw),
            "raw_ops_per_s": len(lat) / sum(rec.latencies),
            "raw_op_p50_ms": statistics.median(rec.latencies) * 1000,
            "raw_op_p90_ms": percentile(rec.latencies, 90) * 1000,
        }

    attempted = len(rec.latencies)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_attempted {attempted} count")
    print(f"failed_ops_ratio {rec.failed / attempted:.6g} ratio")
    print(f"passes {passes} count")
    for name, value in raw.items():
        print(f"{name} {value:.6g} unscaled")
    print(f"speed_factor {statistics.median(s / r for s, r in zip(rec.scaled(), rec.latencies) if r > 0):.4g} ratio")
    for gap, count in sorted(rec.known_gaps.items()):
        print(f"known_gap {gap} {count} ops ({count / attempted:.4g} of attempted)")
    for problem in rec.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(args.seed), "workload": args.workload}))
    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
