"""Command-line pipeline driver.

Subcommands: analyze, instrument, run, bench, report, and pipeline (which
chains the others and writes every intermediate artifact). All artifacts
are plain JSON (or `.papp` text), so developer hints can be applied by
editing the files between stages.

`run_pipeline` alone decides the stage order, for `pipeline` and `bench`.
It calls every stage through the names imported here: the traced
benchmark wraps those.

Exit codes: 0 success, 1 usage error, 2 analysis/run error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .app_ir import App, build_ecg, parse_app, print_app
from .callback_analysis import (
    FetchSignature,
    TriggerMap,
    heuristic_fetch_signature,
    identify_trigger_callbacks,
    profile_fetch_signature,
    signature_from_log,
    trigger_map_from_json_obj,
    trigger_map_to_json_obj,
)
from .codec import dumps, encode
from .errors import FetchaheadError
from .instrumenter import (
    Hints,
    InstrumentedApp,
    apply_hints,
    hints_from_json_obj,
    instrument,
)
from .mbm import ALL_CASES, Accuracy, BenchReport, generate_case, score_case
from .metrics import (
    Metrics,
    Oracle,
    accuracy_counts,
    compute_accuracy,
    compute_effectiveness,
    compute_oracle,
    format_summary,
    oracle_from_json_obj,
    precision_recall,
    summarize_pairs,
)
from .runtime import (
    NetModel,
    RunLog,
    Trace,
    net_model_from_json_obj,
    run_log_from_json_obj,
    run_trace,
    trace_from_json_obj,
)
from .string_analysis import (
    UrlMap,
    analyze_urls,
    url_map_from_json_obj,
    url_map_to_json_obj,
)


@dataclass(frozen=True)
class Pipeline:
    """Every result of one `run_pipeline` call, in stage order."""

    url_map: UrlMap
    sig: FetchSignature
    trigger_map: TriggerMap
    ia: InstrumentedApp
    base: RunLog
    opt: RunLog
    oracle: Oracle


def run_pipeline(app: App, trace: Trace, net: NetModel,
                 hints: Hints | None = None,
                 sig: FetchSignature | None = None) -> Pipeline:
    """String analysis, baseline run, callback analysis, instrumentation
    (plus hints), optimized run and oracle, in that order. Unless `sig` is
    given, the baseline run is also the profiling run that picks it."""
    url_map = analyze_urls(app)
    base = run_trace(app, trace, net)
    if sig is None:
        sig = signature_from_log(base)
    trigger_map = identify_trigger_callbacks(app, build_ecg(app), sig)
    ia = instrument(app, url_map, trigger_map, sig)
    if hints is not None:
        ia = apply_hints(ia, hints)
    # ia, not ia.app: the traced benchmark tells the two runs apart by it
    opt = run_trace(ia, trace, net, seed_url_map=url_map, hints=hints)
    oracle = compute_oracle(ia, trace)
    return Pipeline(url_map, sig, trigger_map, ia, base, opt, oracle)


def run_benchmark(latency_ms: int, think_ms: int) -> BenchReport:
    """Run all 25 microbenchmark cases through `run_pipeline`."""
    if latency_ms <= 0:
        raise FetchaheadError("latency must be positive")
    rows, counts = [], (0, 0, 0)
    for case_id in ALL_CASES:
        app, trace, net, _ = generate_case(case_id, latency_ms, think_ms)
        p = run_pipeline(app, trace, net)
        rows.append(score_case(case_id, p.base, p.opt))
        counts = tuple(map(sum, zip(counts, accuracy_counts(p.opt, p.oracle))))
    # micro-averaged over all cases, as compute_accuracy does for one run
    return BenchReport(latency_ms, think_ms, tuple(rows),
                       Accuracy(*precision_recall(*counts)))


def _scored(base: RunLog, opt: RunLog, oracle: Oracle | None) -> Metrics:
    """Effectiveness of one run pair, plus accuracy if there is an oracle."""
    m = compute_effectiveness(base, opt)
    if oracle is not None:
        m.precision, m.recall = compute_accuracy(opt, oracle)
    return m


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _load(path: str | None, decode, as_json: bool = True):
    """`decode` of the file's JSON value (of its text if not `as_json`),
    None if there is no file. Every error raised on the way starts with
    the file's path."""
    if path is None:
        return None
    try:
        text = Path(path).read_text(encoding="utf-8")
        return decode(json.loads(text) if as_json else text)
    except OSError as e:
        raise FetchaheadError(f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise FetchaheadError(f"{path}: not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise FetchaheadError(f"{path}: malformed JSON: {e}") from e
    except RecursionError as e:  # json.loads on arrays nested too deeply
        raise FetchaheadError(f"{path}: malformed JSON: nested too deeply") from e
    except FetchaheadError as e:
        e.args = (f"{path}: {e}",)
        raise


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise FetchaheadError(f"cannot write {path}: {e.strerror or e}") from e


def _write_json(path: str, obj) -> None:
    """The JSON value `obj` as `codec.dumps` writes it: the one form of
    every JSON artifact, so a file that no stage changed is byte-identical
    from run to run."""
    _write_text(path, dumps(obj))


def _load_app(path: str):
    return _load(path, parse_app, as_json=False)


def _load_net(path: str | None) -> NetModel:
    return _load(path, net_model_from_json_obj) or NetModel()


def _pick_signature(app, args) -> FetchSignature:
    """--signature wins; else profile when a trace is given; else fall
    back to the highest declared latency."""
    if getattr(args, "signature", None):
        return FetchSignature(args.signature)
    if getattr(args, "trace", None):
        trace = _load(args.trace, trace_from_json_obj)
        net = _load_net(getattr(args, "net", None))
        return profile_fetch_signature(app, trace, net)
    return heuristic_fetch_signature(app)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    app = _load_app(args.app)
    url_map = analyze_urls(app)
    sig = _pick_signature(app, args)
    trigger_map = identify_trigger_callbacks(app, build_ecg(app), sig)
    _write_json(args.urlmap_out, url_map_to_json_obj(url_map))
    _write_json(args.triggermap_out, trigger_map_to_json_obj(trigger_map))
    result = {
        "signature": sig.net_method,
        "urlmap": args.urlmap_out,
        "triggermap": args.triggermap_out,
    }
    if args.json:
        print(dumps(result), end="")
    else:
        print(f"signature: {sig.net_method}")
        print(f"wrote {args.urlmap_out} and {args.triggermap_out}")
    return 0


def _cmd_instrument(args) -> int:
    app = _load_app(args.app)
    url_map = _load(args.urlmap, url_map_from_json_obj)
    trigger_map = _load(args.triggermap, trigger_map_from_json_obj)
    sig = _pick_signature(app, args)
    ia = instrument(app, url_map, trigger_map, sig)
    hints = _load(args.hints, hints_from_json_obj)
    if hints is not None:
        ia = apply_hints(ia, hints)
    _write_text(args.out, print_app(ia.app))
    if args.json:
        print(dumps({"out": args.out, "signature": sig.net_method}), end="")
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    app = _load_app(args.app)
    trace = _load(args.trace, trace_from_json_obj)
    net = _load_net(args.net)
    seed = _load(args.seed_urlmap, url_map_from_json_obj)
    hints = _load(args.hints, hints_from_json_obj)
    if args.oracle_out and not app.is_instrumented:
        raise FetchaheadError("--oracle-out requires an instrumented app")
    log = run_trace(app, trace, net, seed_url_map=seed, hints=hints)
    _write_text(args.out, log.canonical_json())
    if args.oracle_out:
        _write_json(args.oracle_out, encode(compute_oracle(app, trace)))
    if args.json:
        print(dumps({"out": args.out, "final_ms": log.final_ms}), end="")
    else:
        print(f"wrote {args.out} ({len(log.demands())} demands, "
              f"{log.final_ms}ms virtual time)")
    return 0


def _cmd_bench(args) -> int:
    if args.latency_ms < 1:
        raise UsageError("--latency-ms must be >= 1")
    if args.think_ms < 0:
        raise UsageError("--think-ms must be >= 0")
    report = run_benchmark(args.latency_ms, args.think_ms)
    if args.out:
        if args.out.endswith(".json"):
            _write_json(args.out, encode(report))
        else:
            _write_text(args.out, report.to_tsv())
    if args.json:
        print(dumps(encode(report)), end="")
    elif not args.out:
        print(report.to_tsv(), end="")
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    bases = args.base or []
    opts = args.opt or []
    oracles = args.oracle or []
    if len(bases) != len(opts):
        raise UsageError("--base and --opt must be given the same number of times")
    if oracles and len(oracles) != len(bases):
        raise UsageError("--oracle must be given once per pair (or not at all)")
    pairs = []
    for i, (bpath, opath) in enumerate(zip(bases, opts)):
        base = _load(bpath, run_log_from_json_obj)
        opt = _load(opath, run_log_from_json_obj)
        oracle = _load(oracles[i], oracle_from_json_obj) if oracles else None
        pairs.append(_scored(base, opt, oracle))
    result: dict = {"pairs": [encode(m) for m in pairs]}
    if len(pairs) > 1:
        result["summary"] = summarize_pairs(pairs)
    if args.out:
        _write_json(args.out, result)
    if args.json:
        print(dumps(result), end="")
    else:
        for i, m in enumerate(pairs):
            line = (f"pair {i}: hit rate {m.hit_rate * 100:.1f}%, mean reduction "
                    f"{m.latency_reduction_pct.mean:.1f}%")
            if m.precision is not None:
                line += f", precision {m.precision:.3f}, recall {m.recall:.3f}"
            print(line)
        if "summary" in result:
            print(format_summary(result["summary"]))
    return 0


def _cmd_pipeline(args) -> int:
    app = _load_app(args.app)
    trace = _load(args.trace, trace_from_json_obj)
    net = _load_net(args.net)
    hints = _load(args.hints, hints_from_json_obj)
    sig = FetchSignature(args.signature) if args.signature else None
    p = run_pipeline(app, trace, net, hints, sig)
    m = _scored(p.base, p.opt, p.oracle)

    # nothing is written unless every stage succeeded
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise FetchaheadError(f"cannot create {outdir}: {e.strerror or e}") from e
    _write_json(str(outdir / "urlmap.json"), url_map_to_json_obj(p.url_map))
    _write_json(str(outdir / "triggermap.json"), trigger_map_to_json_obj(p.trigger_map))
    _write_text(str(outdir / "optimized.papp"), print_app(p.ia.app))
    _write_text(str(outdir / "runlog_base.json"), p.base.canonical_json())
    _write_text(str(outdir / "runlog_opt.json"), p.opt.canonical_json())
    _write_json(str(outdir / "oracle.json"), encode(p.oracle))
    # same shape the report subcommand writes, so the two paths are
    # byte-identical
    _write_json(str(outdir / "metrics.json"), {"pairs": [encode(m)]})

    if args.json:
        print(dumps({"outdir": str(outdir), "metrics": encode(m)}), end="")
    else:
        print(f"pipeline artifacts in {outdir}")
        print(f"hit rate {m.hit_rate * 100:.1f}%, mean reduction "
              f"{m.latency_reduction_pct.mean:.1f}%, precision {m.precision:.3f}, "
              f"recall {m.recall:.3f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fetchahead",
        description="prefetch analysis, instrumentation, and simulation for "
                    "event-driven app models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit url map and trigger map JSON")
    p.add_argument("app", help=".papp source file")
    p.add_argument("--signature", help="fetch signature; skips profiling")
    p.add_argument("--trace", help="trace JSON used to profile the signature")
    p.add_argument("--net", help="net model JSON used while profiling")
    p.add_argument("--urlmap-out", default="urlmap.json")
    p.add_argument("--triggermap-out", default="triggermap.json")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("instrument", help="rewrite an app for prefetching")
    p.add_argument("app")
    p.add_argument("--urlmap", required=True)
    p.add_argument("--triggermap", required=True)
    p.add_argument("--signature")
    p.add_argument("--trace", help="trace JSON used to profile the signature")
    p.add_argument("--net")
    p.add_argument("--hints")
    p.add_argument("-o", "--out", default="optimized.papp")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_instrument)

    p = sub.add_parser("run", help="execute a trace and write the run log")
    p.add_argument("--app", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--net")
    p.add_argument("--seed-urlmap")
    p.add_argument("--hints")
    p.add_argument("--out", default="runlog.json")
    p.add_argument("--oracle-out", help="also write the ground-truth oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="run the 25-case microbenchmark")
    p.add_argument("--latency-ms", type=int, default=1000)
    p.add_argument("--think-ms", type=int, default=2000)
    p.add_argument("--out", help="report path (.json or .tsv)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("report", help="metrics from base/optimized run logs")
    p.add_argument("--base", action="append", required=True)
    p.add_argument("--opt", action="append", required=True)
    p.add_argument("--oracle", action="append")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("pipeline", help="analyze + instrument + run + report")
    p.add_argument("app")
    p.add_argument("--trace", required=True)
    p.add_argument("--net")
    p.add_argument("--hints")
    p.add_argument("--signature")
    p.add_argument("--outdir", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except FetchaheadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
