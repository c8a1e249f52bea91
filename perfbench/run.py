"""fetchahead benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload large_app --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports `fetchahead` from `src/`.
It prints a readable report, then, as its last line, one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
traced run. The full result, stamped with the environment, goes to
`.perfbench_out/`. Exit code 0 when every correctness check passed, 1
when one failed, 2 when the program could not be imported.

`--workload all` runs each workload in its own fresh process, one after
another, and namespaces the metrics as `<workload>/<metric>`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import measure
from measure import ratio

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("large_app", "long_session", "corpus")


def end_to_end(r: measure.Result) -> dict:
    """name -> (value, unit, samples). Times come from untraced pipelines,
    scaled to the reference host speed; ratios are micro-averaged over one
    pass of the workload."""
    c = r.counts
    hits = c["runtime.served_cache"] + c["runtime.served_waited"]
    return {
        **timings(r.untraced_norm_s, r.setup_norm_s),
        "peak_rss_mb": (r.peak_rss_mb, "MB", 1),
        "hit_rate": (ratio(hits, c["runtime.demands"]), "ratio",
                     c["runtime.demands"]),
        "latency_reduction_pct": (ratio(c["reduction_sum"], c["reduction_count"]),
                                  "%", c["reduction_count"]),
        "wasted_prefetch_ratio": (
            ratio(c["wasted_prefetches"], c["runtime.prefetches_issued"]),
            "ratio", c["runtime.prefetches_issued"]),
        # the program counts an empty denominator as 1.0
        "precision": (ratio(c["accuracy_useful"], c["accuracy_issued"], 1.0),
                      "ratio", c["accuracy_issued"]),
        "recall": (ratio(c["accuracy_useful"], c["metrics.prefetchable"], 1.0),
                   "ratio", c["metrics.prefetchable"]),
    }


def timings(pipelines: list[float], setups: list[float]) -> dict:
    return {
        "pipeline_p50_ms": (1000 * measure.median(pipelines), "ms",
                            len(pipelines)),
        "pipelines_per_s": (len(pipelines) / sum(pipelines), "1/s",
                            len(pipelines)),
        "setup_s": (measure.median(setups), "s", len(setups)),
    }


def extra_end_to_end(r: measure.Result) -> dict:
    """Reported but not gated: p90 only where at least ten samples lie
    above it, the failed share, which the JSON carries as counts, and the
    timings as measured, before scaling to the reference host speed."""
    out = {"failed_ratio": (len(r.failures) / r.attempted, "ratio", r.attempted)}
    if len(r.untraced_norm_s) >= 100:
        p90 = statistics.quantiles(r.untraced_norm_s, n=10)[-1]
        out["pipeline_p90_ms"] = (1000 * p90, "ms", len(r.untraced_norm_s))
    out.update({f"measured_{k}": v
                for k, v in timings(r.untraced_s, r.setup_s).items()})
    out["host_kernel_ms"] = (1000 * r.kernel_s, "ms", 1)
    return out


def per_layer(r: measure.Result) -> dict:
    c = r.counts
    n = r.traced_pipelines
    out = {k: (v, "1/s" if k.endswith("_per_s") else "s", n)
           for k, v in r.layer_times.items()}
    out["mbm.bench_s"] = (r.layer_times["mbm.bench_s"], "s", r.traced_benches)
    for key in measure.COUNT_METRICS:
        out[key] = (c[key], "count", 1)
    out["string_analysis.concrete_ratio"] = (
        ratio(c["string_analysis.concrete_parts"], c["string_analysis.url_parts"]),
        "ratio", c["string_analysis.url_parts"])
    untraced = measure.median(r.untraced_norm_s)
    out["bench.trace_overhead_pct"] = (
        100 * (measure.median(r.traced_norm_s) / untraced - 1), "%",
        len(r.traced_norm_s))
    return out


def git_commit() -> str:
    """HEAD's commit read from `.git`, without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/fetchahead/*.py, naming the code measured even
    where there is no git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fetchahead").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(r: measure.Result, args) -> dict:
    """Print the readable report and write the stamped result; returns
    the metrics for the JSON line."""
    gated = per_layer(r) if args.trace else end_to_end(r)
    shown = dict(gated)
    if not args.trace:
        shown.update(extra_end_to_end(r))
    env = stamp(args)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, n) in shown.items():
        print(f"{name:36} {value:>16.6g} {unit:6} n={n}")
    notes = {}
    if args.trace:
        notes = layer_notes(r, gated["bench.trace_overhead_pct"][0])
        for line in notes["lines"]:
            print("# " + line)
    for failure in r.failures:
        print(f"# FAILED: {failure}")
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "stamp": env,
        "correct": r.correct,
        "attempted": r.attempted,
        "failures": r.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in shown.items()},
        "pipeline_s": {"untraced": r.untraced_s, "traced": r.traced_s},
        "pipeline_norm_s": {"untraced": r.untraced_norm_s,
                            "traced": r.traced_norm_s},
        "setup_s": r.setup_s,
        "setup_norm_s": r.setup_norm_s,
        **notes,
    }, indent=2) + "\n", encoding="utf-8")
    if r.tracer is not None:
        r.tracer.write(OUT / f"spans-{args.workload}.json")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in gated.items()}


def layer_notes(r: measure.Result, overhead_pct: float) -> dict:
    """Where a traced pipeline spends its time, and whether the self
    times account for the untraced wall time."""
    totals = r.layer_totals
    traced_sum = sum(totals.values())
    spans = {k: v / max(r.traced_pipelines, 1) for k, v in r.span_totals.items()}
    top_layer = max(totals, key=totals.get)
    top_span = max(spans, key=spans.get)
    self_sum = measure.median(r.self_sum_s)
    untraced = measure.median(r.untraced_s)
    gap_pct = 100 * (self_sum / untraced - 1)
    lines = [
        "layer self time per traced pipeline (s): " + ", ".join(
            f"{k}={v:.6f}" for k, v in totals.items()),
        f"largest layer: {top_layer} ({100 * totals[top_layer] / traced_sum:.1f}%);"
        f" largest span: {top_span} ({100 * spans[top_span] / traced_sum:.1f}%)",
        f"self times of a traced pipeline sum to {1000 * self_sum:.3f} ms "
        f"(median), {gap_pct:+.2f}% from the untraced median of "
        f"{1000 * untraced:.3f} ms; tracing overhead {overhead_pct:+.2f}%",
    ]
    return {"layer_self_s": totals, "span_self_s": spans,
            "largest_layer": top_layer, "largest_span": top_span,
            "self_sum_vs_untraced_pct": gap_pct, "lines": lines}


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        r = measure.run_workload(
            ROOT / "src", ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}",
            args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as e:
        print(f"cannot import fetchahead from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    metrics = report(r, args)
    print(json.dumps({"correct": r.correct, "attempted": r.attempted,
                      "failed": len(r.failures), "metrics": metrics}))
    return 0 if r.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return 2
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
