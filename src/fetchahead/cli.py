"""Command-line pipeline driver.

Subcommands: analyze, instrument, run, bench, report, and pipeline (which
chains the others and writes every intermediate artifact). All artifacts
are plain JSON (or `.papp` text), so developer hints can be applied by
editing the files between stages.

Exit codes: 0 success, 1 usage error, 2 analysis/run error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .app_ir import build_ecg, parse_app, print_app
from .callback_analysis import (
    FetchSignature,
    heuristic_fetch_signature,
    identify_trigger_callbacks,
    profile_fetch_signature,
    signature_from_log,
    trigger_map_from_json_obj,
    trigger_map_to_json_obj,
)
from .errors import FetchaheadError
from .instrumenter import apply_hints, hints_from_json_obj, instrument
from .metrics import (
    PairStats,
    compute_accuracy,
    compute_effectiveness,
    compute_oracle,
    format_summary,
    oracle_from_json_obj,
    summarize_pairs,
)
from .mbm import run_benchmark
from .runtime import (
    NetModel,
    net_model_from_json_obj,
    run_log_from_json_obj,
    run_trace,
    trace_from_json_obj,
)
from .string_analysis import analyze_urls, url_map_from_json_obj, url_map_to_json_obj


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise FetchaheadError(f"cannot read {path}: {e.strerror or e}") from e


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FetchaheadError(f"malformed JSON in {path}: {e}") from e


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise FetchaheadError(f"cannot write {path}: {e.strerror or e}") from e


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_app(path: str):
    return parse_app(_read_text(path))


def _load_trace(path: str):
    return trace_from_json_obj(_read_json(path))


def _load_net(path: str | None) -> NetModel:
    if path is None:
        return NetModel()
    return net_model_from_json_obj(_read_json(path))


def _load_hints(path: str | None):
    if path is None:
        return None
    return hints_from_json_obj(_read_json(path))


def _pick_signature(app, args) -> FetchSignature:
    """--signature wins; else profile when a trace is given; else fall
    back to the highest declared latency."""
    if getattr(args, "signature", None):
        return FetchSignature(args.signature)
    if getattr(args, "trace", None):
        trace = _load_trace(args.trace)
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
    trigger_map = identify_trigger_callbacks(app, app.ccfg, build_ecg(app), sig)
    _write_text(args.urlmap_out, _dump_json(url_map_to_json_obj(url_map)))
    _write_text(args.triggermap_out, _dump_json(trigger_map_to_json_obj(trigger_map)))
    result = {
        "signature": sig.net_method,
        "urlmap": args.urlmap_out,
        "triggermap": args.triggermap_out,
    }
    if args.json:
        print(_dump_json(result), end="")
    else:
        print(f"signature: {sig.net_method}")
        print(f"wrote {args.urlmap_out} and {args.triggermap_out}")
    return 0


def _cmd_instrument(args) -> int:
    app = _load_app(args.app)
    url_map = url_map_from_json_obj(_read_json(args.urlmap))
    trigger_map = trigger_map_from_json_obj(_read_json(args.triggermap))
    sig = _pick_signature(app, args)
    ia = instrument(app, url_map, trigger_map, sig)
    hints = _load_hints(args.hints)
    if hints is not None:
        ia = apply_hints(ia, hints)
    _write_text(args.out, print_app(ia.app))
    if args.json:
        print(_dump_json({"out": args.out, "signature": sig.net_method}), end="")
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    app = _load_app(args.app)
    trace = _load_trace(args.trace)
    net = _load_net(args.net)
    seed = None
    if args.seed_urlmap:
        seed = url_map_from_json_obj(_read_json(args.seed_urlmap))
    hints = _load_hints(args.hints)
    log = run_trace(app, trace, net, seed_url_map=seed, hints=hints)
    _write_text(args.out, log.canonical_json())
    if args.oracle_out:
        if not app.is_instrumented:
            raise FetchaheadError("--oracle-out requires an instrumented app")
        _write_text(args.oracle_out, _dump_json(compute_oracle(app, trace)))
    if args.json:
        print(_dump_json({"out": args.out, "final_ms": log.final_ms}), end="")
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
            _write_text(args.out, _dump_json(report.to_json_obj()))
        else:
            _write_text(args.out, report.to_tsv())
    if args.json:
        print(_dump_json(report.to_json_obj()), end="")
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
    stats = []
    for i, (bpath, opath) in enumerate(zip(bases, opts)):
        base = run_log_from_json_obj(_read_json(bpath))
        opt = run_log_from_json_obj(_read_json(opath))
        m = compute_effectiveness(base, opt)
        if oracles:
            oracle = oracle_from_json_obj(_read_json(oracles[i]))
            m.precision, m.recall = compute_accuracy(opt, oracle)
        pairs.append(m.to_json_obj())
        stats.append(PairStats(
            requests=len(opt.demands()),
            hit_rate=m.hit_rate,
            mean_reduction_pct=m.mean_reduction_pct,
        ))
    result: dict = {"pairs": pairs}
    if len(stats) > 1:
        result["summary"] = summarize_pairs(stats)
    if args.out:
        _write_text(args.out, _dump_json(result))
    if args.json:
        print(_dump_json(result), end="")
    else:
        for i, m in enumerate(pairs):
            hit = m["hit_rate"]
            red = m["latency_reduction_pct"]["mean"]
            line = f"pair {i}: hit rate {hit * 100:.1f}%, mean reduction {red:.1f}%"
            if m["precision"] is not None:
                line += (f", precision {m['precision']:.3f}, "
                         f"recall {m['recall']:.3f}")
            print(line)
        if "summary" in result:
            print(format_summary(result["summary"]))
    return 0


def _cmd_pipeline(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise FetchaheadError(f"cannot create {outdir}: {e.strerror or e}") from e

    app = _load_app(args.app)
    trace = _load_trace(args.trace)
    net = _load_net(args.net)
    hints = _load_hints(args.hints)

    url_map = analyze_urls(app)
    # the baseline run doubles as the profiling run
    base = run_trace(app, trace, net)
    if args.signature:
        sig = FetchSignature(args.signature)
    else:
        sig = signature_from_log(base)
    trigger_map = identify_trigger_callbacks(app, app.ccfg, build_ecg(app), sig)
    _write_text(str(outdir / "urlmap.json"), _dump_json(url_map_to_json_obj(url_map)))
    _write_text(str(outdir / "triggermap.json"),
                _dump_json(trigger_map_to_json_obj(trigger_map)))

    ia = instrument(app, url_map, trigger_map, sig)
    if hints is not None:
        ia = apply_hints(ia, hints)
    _write_text(str(outdir / "optimized.papp"), print_app(ia.app))

    opt = run_trace(ia, trace, net, seed_url_map=url_map, hints=hints)
    _write_text(str(outdir / "runlog_base.json"), base.canonical_json())
    _write_text(str(outdir / "runlog_opt.json"), opt.canonical_json())

    oracle = compute_oracle(ia, trace)
    _write_text(str(outdir / "oracle.json"), _dump_json(oracle))

    m = compute_effectiveness(base, opt)
    m.precision, m.recall = compute_accuracy(opt, oracle)
    # same shape the report subcommand writes, so the two paths are
    # byte-identical
    _write_text(str(outdir / "metrics.json"), _dump_json({"pairs": [m.to_json_obj()]}))

    if args.json:
        print(_dump_json({"outdir": str(outdir), "metrics": m.to_json_obj()}),
              end="")
    else:
        print(f"pipeline artifacts in {outdir}")
        print(f"hit rate {m.hit_rate * 100:.1f}%, mean reduction "
              f"{m.mean_reduction_pct:.1f}%, precision {m.precision:.3f}, "
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
