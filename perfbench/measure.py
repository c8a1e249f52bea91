"""One workload run: set-up, closed loop of pipelines, checks, metrics.

The timed unit is one in-process `fetchahead.cli.main(["pipeline", ...])`
call, which writes seven artifacts. Each repetition runs `fetchahead
bench` once and then every pipeline of the workload, one after another
(a closed loop with one client). Repetitions continue until the run's
time is spent. In a traced run, repetitions alternate between untraced
and traced, so the tracing overhead is measured under the same conditions.

Correctness is checked in the same run:
- every pipeline's exit code is the one the generator expects, and an
  exit 2 says `nothing to profile` and writes no artifact;
- every artifact is byte-identical across repetitions, and the weather
  fixture's artifacts match the digests recorded in `weather_digests.json`;
- `fetchahead bench` labels all 25 cases as expected, with precision and
  recall 1.0;
- each `metrics.json` agrees with the hit rate, latency reduction,
  precision and recall recomputed here from the run logs and the oracle.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import gen
from hostspeed import HostSpeed
from spans import LAYERS, Tracer

ARTIFACTS = ("urlmap.json", "triggermap.json", "optimized.papp",
             "runlog_base.json", "runlog_opt.json", "oracle.json",
             "metrics.json")
WEATHER_DIGESTS = Path(__file__).with_name("weather_digests.json")
SETUPS = 9
MIN_REPS = 2
STALE_MARGIN_NS = 50_000_000

# per-layer time metric -> span name
SPAN_METRICS = {
    "app_ir.parse_s": "app_ir.parse",
    "app_ir.print_s": "app_ir.print",
    "app_ir.build_ecg_s": "app_ir.build_ecg",
    "string_analysis.analyze_s": "string_analysis.analyze",
    "string_analysis.codec_s": "string_analysis.codec",
    "callback_analysis.profile_self_s": "callback_analysis.profile",
    "callback_analysis.triggers_s": "callback_analysis.triggers",
    "callback_analysis.codec_s": "callback_analysis.codec",
    "instrumenter.instrument_s": "instrumenter.instrument",
    "runtime.run_profile_s": "runtime.run_profile",
    "runtime.run_base_s": "runtime.run_base",
    "runtime.run_opt_s": "runtime.run_opt",
    "runtime.codec_s": "runtime.codec",
    "metrics.oracle_s": "metrics.oracle",
    "metrics.effectiveness_s": "metrics.effectiveness",
    "metrics.accuracy_s": "metrics.accuracy",
    "cli.self_s": "cli.main",
}
RUN_SPANS = ("runtime.run_profile", "runtime.run_base", "runtime.run_opt")
# per-layer counts, parsed from the artifacts of one pass over the workload
COUNT_METRICS = (
    "app_ir.stmts", "string_analysis.url_parts",
    "string_analysis.definition_spots", "callback_analysis.trigger_urls",
    "instrumenter.stmts_added", "runtime.events", "runtime.demands",
    "runtime.served_cache", "runtime.served_waited", "runtime.served_origin",
    "runtime.waited_vms", "runtime.prefetches_issued",
    "runtime.definition_updates", "runtime.skipped_unknown",
    "runtime.skipped_cached", "runtime.over_threshold", "metrics.prefetchable",
    "mbm.cases_matched", "cli.artifact_bytes",
)
# the parts of the end-to-end ratios
RATIO_PARTS = ("string_analysis.concrete_parts", "wasted_prefetches",
               "accuracy_useful", "accuracy_issued", "reduction_sum",
               "reduction_count")


class CheckFailed(Exception):
    pass


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    # wall times as measured; the *_norm_s lists hold the same times
    # scaled to the reference host speed (hostspeed.py)
    setup_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    setup_norm_s: list[float] = field(default_factory=list)
    untraced_norm_s: list[float] = field(default_factory=list)
    traced_norm_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    layer_times: dict = field(default_factory=dict)
    layer_totals: dict = field(default_factory=dict)
    span_totals: dict = field(default_factory=dict)
    traced_pipelines: int = 0
    traced_benches: int = 0
    self_sum_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    kernel_s: float = 0.0  # the host-speed kernel's median time
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.failures


def _import_fresh(src: Path):
    """Import fetchahead from `src`, dropping any earlier import first."""
    for name in [m for m in sys.modules
                 if m == "fetchahead" or m.startswith("fetchahead.")]:
        del sys.modules[name]
    cli = importlib.import_module("fetchahead.cli")
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"fetchahead imported from {where}, not from {src}")
    return cli


def set_up(src: Path, workload: str, seed: int, inputs: Path, sizes: dict):
    """Import fetchahead, then generate and write the inputs, overwriting
    any earlier round's files. Returns the CLI module, the written cases
    and the seconds taken."""
    start = time.perf_counter()
    cli = _import_fresh(src)
    written = gen.write_cases(gen.GENERATORS[workload](seed, **sizes), inputs)
    return cli, written, time.perf_counter() - start


def _digests(outdir: Path, since_ns: int = 0) -> dict[str, str]:
    """sha256 of each artifact present, or "stale" for one not written
    since `since_ns`. File times come from the kernel's coarse clock, which
    lags by up to a tick; a repetition is far longer than the margin."""
    out = {}
    for name in ARTIFACTS:
        path = outdir / name
        if path.exists():
            fresh = path.stat().st_mtime_ns >= since_ns - STALE_MARGIN_NS
            out[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                         if fresh else "stale")
    return out


def _call(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """(exit code or None on an uncaught exception, stderr, seconds)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed pipeline, not a crash
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, err.getvalue(), seconds


# ---------------------------------------------------------------------------
# counts parsed from the artifacts
# ---------------------------------------------------------------------------

def _papp_stmts(text: str) -> int:
    """Statement lines inside callback and method blocks."""
    count, inside = 0, False
    for line in text.splitlines():
        if line.startswith(("callback ", "method ")):
            inside = True
        elif line == "}":
            inside = False
        elif inside and line.strip():
            count += 1
    return count


def ratio(num: float, den: int, empty: float = 0.0) -> float:
    return num / den if den else empty


def count_artifacts(outdir: Path, stmts: int, counts: dict) -> None:
    """Add one pipeline's counts to `counts`, and check its metrics.json
    against the same numbers recomputed from the run logs and oracle."""
    def load(name):
        return json.loads((outdir / name).read_text(encoding="utf-8"))

    add = lambda key, n: counts.__setitem__(key, counts.get(key, 0) + n)

    parts = [p for row in load("urlmap.json").values() for p in row]
    add("string_analysis.url_parts", len(parts))
    add("string_analysis.concrete_parts", sum("concrete" in p for p in parts))
    add("string_analysis.definition_spots",
        sum(len(p.get("spots", ())) for p in parts))
    add("callback_analysis.trigger_urls",
        sum(len(v) for v in load("triggermap.json").values()))
    opt_text = (outdir / "optimized.papp").read_text(encoding="utf-8")
    add("instrumenter.stmts_added", _papp_stmts(opt_text) - stmts)

    base, opt = load("runlog_base.json"), load("runlog_opt.json")
    add("runtime.events", len(base["events"]) + len(opt["events"]))
    demands = [e for e in opt["events"] if e["type"] == "demand"]
    prefetches = [e for e in opt["events"] if e["type"] == "prefetch"]
    evals = [e for e in opt["events"] if e["type"] == "trigger_eval"]
    served = {k: sum(d["served_from"] == k for d in demands)
              for k in ("cache", "waited", "origin")}
    add("runtime.demands", len(demands))
    for k, n in served.items():
        add(f"runtime.served_{k}", n)
    add("runtime.waited_vms", sum(d["waited_ms"] for d in demands))
    add("runtime.prefetches_issued", len(prefetches))
    add("runtime.definition_updates",
        sum(e["type"] == "definition_update" for e in opt["events"]))
    skipped_unknown = sum(len(e["skipped_unknown"]) for e in evals)
    skipped_cached = sum(len(e["skipped_known_cached"]) for e in evals)
    add("runtime.skipped_unknown", skipped_unknown)
    add("runtime.skipped_cached", skipped_cached)
    add("runtime.over_threshold",
        sum(len(e["considered"]) - len(e["issued"]) for e in evals)
        - skipped_unknown - skipped_cached)
    demanded = {d["url"] for d in demands}
    add("wasted_prefetches", sum(p["url"] not in demanded for p in prefetches))

    oracle = load("oracle.json")
    if [o["callback"] for o in oracle] != [e["callback"] for e in evals]:
        raise CheckFailed(f"{outdir.name}: oracle and run log trigger points differ")
    useful = issued = prefetchable = 0
    for ev, point in zip(evals, oracle):
        truth = set(point["prefetchable"])
        useful += len(set(ev["issued"]) & truth)
        issued += len(set(ev["issued"]))
        prefetchable += len(truth)
    add("metrics.prefetchable", prefetchable)
    add("accuracy_useful", useful)
    add("accuracy_issued", issued)

    reductions = load("metrics.json")["pairs"][0]
    per_request = reductions["latency_reduction_pct"]["per_request"]
    add("reduction_sum", sum(per_request))
    add("reduction_count", len(per_request))
    hits = served["cache"] + served["waited"]
    expected = {
        "hit_rate": ratio(hits, len(demands)),
        # the program counts an empty denominator as 1.0
        "precision": ratio(useful, issued, 1.0),
        "recall": ratio(useful, prefetchable, 1.0),
        "mean": ratio(sum(per_request), len(per_request)),
    }
    reported = dict(reductions, mean=reductions["latency_reduction_pct"]["mean"])
    for key, value in expected.items():
        if reported[key] != value:
            raise CheckFailed(f"{outdir.name}: metrics.json {key} "
                              f"{reported[key]!r}, recomputed {value!r}")
    add("cli.artifact_bytes",
        sum((outdir / name).stat().st_size for name in ARTIFACTS))


def check_bench(path: Path) -> int:
    """Cases whose observed label is the expected one; raises unless all
    25 match with precision and recall 1.0."""
    report = json.loads(path.read_text(encoding="utf-8"))
    matched = sum(r["observed"] == r["expected"] for r in report["rows"])
    accuracy = report["accuracy"]
    if (matched, len(report["rows"]), accuracy["precision"],
            accuracy["recall"]) != (25, 25, 1.0, 1.0):
        raise CheckFailed(f"fetchahead bench: {matched}/{len(report['rows'])} "
                          f"cases as expected, accuracy {accuracy}")
    return matched


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, cli, written, work: Path):
        self.cli = cli
        self.written = written
        self.work = work
        self.reference: dict[str, dict[str, str]] = {}
        self.counts = dict.fromkeys(COUNT_METRICS + RATIO_PARTS, 0)
        self.failures: list[str] = []
        self.attempted = 0

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def bench(self, outdir: Path) -> None:
        self.attempted += 1
        out = outdir / "bench.json"
        code, err, _ = _call(self.cli, ["bench", "--out", str(out)])
        try:
            if code != 0:
                raise CheckFailed(f"fetchahead bench exited {code}: {err.strip()}")
            self.counts["mbm.cases_matched"] = check_bench(out)
        except CheckFailed as e:
            self.fail(str(e))

    def pipeline(self, case, outdir: Path, count: bool = True) -> float:
        """Run and check one pipeline; returns its wall time. The first
        run of a case records its digests and, if `count`, its counts."""
        self.attempted += 1
        since = time.time_ns()
        code, err, seconds = _call(self.cli, [
            "pipeline", str(case.papp), "--trace", str(case.trace),
            "--outdir", str(outdir)])
        digests = _digests(outdir, since)
        try:
            if code != case.expect_exit:
                raise CheckFailed(f"{case.name}: exit {code}, expected "
                                  f"{case.expect_exit}: {err.strip()[-300:]}")
            if code == 2:
                if "nothing to profile" not in err or digests:
                    raise CheckFailed(f"{case.name}: exit 2 without "
                                      f"'nothing to profile': {err.strip()}")
            elif sorted(digests) != sorted(ARTIFACTS) or \
                    "stale" in digests.values():
                raise CheckFailed(f"{case.name}: artifacts missing or not "
                                  f"rewritten: {digests}")
            ref = self.reference.get(case.name)
            if ref is None:
                self.reference[case.name] = digests
                if code == 0 and count:
                    count_artifacts(outdir, case.stmts, self.counts)
            elif ref != digests:
                changed = sorted(k for k in ARTIFACTS
                                 if ref.get(k) != digests.get(k))
                raise CheckFailed(f"{case.name}: artifacts differ between "
                                  f"repetitions: {changed}")
        except CheckFailed as e:
            self.fail(str(e))
        return seconds

    def weather(self, cases) -> None:
        """The worked example against its recorded digests."""
        outdir = self.work / "weather"
        self.pipeline(replace(cases[0], name="weather-warm-up"), outdir,
                      count=False)
        recorded = json.loads(WEATHER_DIGESTS.read_text(encoding="utf-8"))
        if _digests(outdir) != recorded:
            self.fail("weather: artifacts differ from weather_digests.json")

    def repetition(self, rep: int, tracer: Tracer | None) -> list[float]:
        """Every repetition writes into the same output directories, as a
        user re-running the pipeline would."""
        outdir = self.work / "out"
        outdir.mkdir(exist_ok=True)
        gc.collect()
        if tracer is not None:
            tracer.pipeline = f"bench{rep}"
        self.bench(outdir)
        times = []
        for i, case in enumerate(self.written):
            if tracer is not None:
                tracer.pipeline = (rep, i)
            times.append(self.pipeline(case, outdir / case.name))
        return times


def run_workload(src: Path, work: Path, workload: str, seed: int,
                 seconds: float, traced: bool,
                 sizes: dict | None = None) -> Result:
    """Set up, run the closed loop for `seconds`, check, and collect the
    metrics. `src` holds the `fetchahead` package; `work` is scratch space,
    removed afterwards. `sizes` overrides the generator's defaults. Each
    set-up's and each repetition's times are also scaled by the host's
    speed over that interval."""
    shutil.rmtree(work, ignore_errors=True)
    result = Result(workload, seed, traced)
    speed = HostSpeed()

    def set_up_again() -> tuple:
        cli, written, taken = set_up(src, workload, seed, work / "inputs",
                                     sizes or {})
        now = time.perf_counter()
        result.setup_s.append(taken)
        result.setup_norm_s.append(taken * speed.scale(now - taken, now))
        return cli, written

    try:
        with speed.sampling():
            runner = Runner(*set_up_again(), work)
            # warm-up, untimed: the worked example, checked against its digests
            weather = gen.write_cases(gen.corpus(seed, apps=0),
                                      work / "weather_in")
            runner.weather(weather)

            tracer = Tracer() if traced else None
            start = time.perf_counter()
            rep = 0
            while rep < MIN_REPS * (2 if traced else 1) or \
                    time.perf_counter() - start < seconds:
                rep_start = time.perf_counter()
                if traced and rep % 2 == 1:
                    with tracer.installed():
                        times = runner.repetition(rep, tracer)
                    raw, norm = result.traced_s, result.traced_norm_s
                else:
                    times = runner.repetition(rep, None)
                    raw, norm = result.untraced_s, result.untraced_norm_s
                scale = speed.scale(rep_start, time.perf_counter())
                raw += times
                norm += [t * scale for t in times]
                rep += 1
                # set-up k is due once k / SETUPS of the run has passed, so
                # its median samples the machine over the whole run
                due = len(result.setup_s) * seconds / SETUPS
                if len(result.setup_s) < SETUPS and \
                        time.perf_counter() - start >= due:
                    runner.cli, runner.written = set_up_again()
            while len(result.setup_s) < SETUPS:
                runner.cli, runner.written = set_up_again()
        result.kernel_s = statistics.median(speed.seconds)
        result.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.attempted = runner.attempted
    result.failures = runner.failures
    result.counts = runner.counts
    result.counts["app_ir.stmts"] = sum(c.stmts for c in runner.written)
    if tracer is not None:
        result.tracer = tracer
        _layer_metrics(result, tracer, runner.written)
    return result


def _layer_metrics(result: Result, tracer: Tracer, written) -> None:
    """Per-pipeline mean self time of each span kind and layer, over the
    traced pipelines; mbm over the traced bench runs."""
    own = tracer.self_times()
    pipelines = set()
    bench_s, benches = 0.0, set()
    by_span: dict[str, float] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    run_steps = run_time = 0.0
    for (name, start, end, _, pid), self_s in zip(tracer.spans, own):
        if not isinstance(pid, tuple):  # a bench run
            benches.add(pid)
            if name == "mbm.bench":
                bench_s += end - start
            continue
        pipelines.add(pid)
        by_span[name] = by_span.get(name, 0.0) + self_s
        by_layer[name.split(".")[0]] += self_s
        if name in RUN_SPANS:
            run_steps += written[pid[1]].steps
            run_time += end - start
    n = max(len(pipelines), 1)
    # a pipeline's self times sum to its root span's duration
    result.self_sum_s = [end - start for name, start, end, parent, pid
                         in tracer.spans
                         if parent < 0 and isinstance(pid, tuple)]
    result.traced_pipelines = len(pipelines)
    result.traced_benches = len(benches)
    result.layer_times = {metric: by_span.get(span, 0.0) / n
                          for metric, span in SPAN_METRICS.items()}
    result.layer_times["mbm.bench_s"] = bench_s / max(len(benches), 1)
    result.layer_times["runtime.steps_per_s"] = (
        run_steps / run_time if run_time else 0.0)
    result.layer_totals = {k: v / n for k, v in by_layer.items()}
    result.span_totals = by_span


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
