"""Command-line pipeline driver.

Subcommands: analyze, instrument, run, bench, report, and pipeline (which
chains the others and writes every intermediate artifact). All artifacts
are plain JSON (or `.papp` text), so developer hints can be applied by
editing the files between stages.

`run_pipeline` alone decides the stage order, for `pipeline` and `bench`.
It calls every stage through the names imported here: the traced
benchmark wraps those. Each command checks each input once, as it reads
it, and the stages trust their arguments. It returns the JSON value that
`--json` prints and the text printed otherwise, for `main` to print.

`main` parses and runs each command with the cyclic garbage collector
paused, and puts back the caller's setting afterwards, on every exit and
on an uncaught exception: a caller that had it off keeps it off.
Everything a command builds is freed by reference counting, so the
collector finds nothing to free; yet a `long_session` pipeline allocates
enough to start it over 200 times, for 55-80 ms, and a `large_app`
pipeline about 120 times. The only cycles a process makes here are the
argparse formatter objects of the parser's first build, which runs
before the pause.

Exit codes: 0 success, 1 usage error, 2 analysis/run error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

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
from .instrumenter import (Hints, InstrumentedApp, check_trigger_map,
                           check_trigger_points, hints_from_json_obj, instrument)
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
    (with the hints), optimized run and oracle, in that order. Unless `sig` is
    given, the baseline run is also the profiling run that picks it. Assumes
    the original app, checked hints and a declared `sig`."""
    url_map = analyze_urls(app)
    base = run_trace(app, trace, net)
    if sig is None:
        sig = signature_from_log(base)
    trigger_map = identify_trigger_callbacks(app, build_ecg(app), sig)
    ia = instrument(app, url_map, trigger_map, sig, hints)
    # ia, not ia.app: the traced benchmark tells the two runs apart by it
    opt = run_trace(ia, trace, net, seed_url_map=url_map, hints=hints)
    oracle = compute_oracle(ia.app, trace, net, hints)
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


def _write_text(path: str,
                text: str | Callable[[Callable[[str], None]], object]) -> None:
    """Write `text` to `path`: a string, or a producer such as
    `RunLog.canonical_json` that hands its pieces to the sink it is
    called with. Each piece is encoded and written on its own, so the
    encoded artifact never exists whole; a string is one piece.

    The file is overwritten in place, then cut to length. Truncating on
    open makes ext4 free the old blocks and start writeback on close: on a
    2-vCPU VM a pipeline's seven writes took 1.2-2.1 ms that way, varying
    with the disk's load, and a steady 0.3 ms in place. A failed write,
    or a producer that raises, empties the file unless that cut fails
    too; the producer's exception propagates."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            size = 0

            def put(piece: str) -> None:
                nonlocal size
                rest = memoryview(piece.encode("utf-8"))
                size += len(rest)
                while rest:
                    rest = rest[os.write(fd, rest):]

            if isinstance(text, str):
                put(text)
            else:
                text(put)
            _cut(fd, size)
        except BaseException:
            _cut(fd, 0)
            raise
        finally:
            os.close(fd)
    except OSError as e:
        raise FetchaheadError(f"cannot write {path}: {e.strerror or e}") from e


def _cut(fd: int, size: int) -> None:
    """Cut the file to `size` bytes. `ftruncate` fails with EINVAL on
    what is not a regular file, such as /dev/null or a pipe, which has no
    length to cut; an `fstat` to tell them apart would cost every write
    a system call."""
    try:
        os.ftruncate(fd, size)
    except OSError as e:
        if e.errno != errno.EINVAL:
            raise


def _write_json(path: str, obj, tp=None) -> None:
    """The JSON value `obj` as `codec.dumps` writes it: the one form of
    every JSON artifact, so a file that no stage changed is byte-identical
    from run to run. Given the type `tp` whose JSON value `obj` is, the
    writer compiled for `tp` writes the same text faster."""
    _write_text(path, dumps(obj, tp))


def _load_original(path: str) -> App:
    app = _load(path, parse_app, as_json=False)
    if app.is_instrumented:
        raise FetchaheadError("app is already instrumented")
    return app


def _load_net(path: str | None) -> NetModel:
    return _load(path, net_model_from_json_obj) or NetModel()


def _load_hints(path: str | None, app: App) -> Hints:
    hints = _load(path, hints_from_json_obj) or Hints()
    hints.check(app)
    return hints


def _pick_signature(app, args) -> FetchSignature:
    """--signature wins; else profile when a trace is given; else fall
    back to the highest declared latency."""
    if args.signature:
        if not any(m.name == args.signature for m in app.netlib):
            raise FetchaheadError(f"fetch signature '{args.signature}' is not "
                                  "a declared net method")
        return FetchSignature(args.signature)
    if args.trace:
        trace = _load(args.trace, trace_from_json_obj)
        return profile_fetch_signature(app, trace, _load_net(args.net))
    return heuristic_fetch_signature(app)


def _scores_text(m: Metrics) -> str:
    """The scores line of one run pair, as `report` and `pipeline` print it."""
    text = (f"hit rate {m.hit_rate * 100:.1f}%, mean reduction "
            f"{m.latency_reduction_pct.mean:.1f}%")
    if m.precision is not None:
        text += f", precision {m.precision:.3f}, recall {m.recall:.3f}"
    return text + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> tuple[object, str]:
    app = _load_original(args.app)
    url_map = analyze_urls(app)
    sig = _pick_signature(app, args)
    trigger_map = identify_trigger_callbacks(app, build_ecg(app), sig)
    _write_json(args.urlmap_out, url_map_to_json_obj(url_map), UrlMap)
    _write_json(args.triggermap_out, trigger_map_to_json_obj(trigger_map),
                TriggerMap)
    return ({"signature": sig.net_method, "urlmap": args.urlmap_out,
             "triggermap": args.triggermap_out},
            f"signature: {sig.net_method}\n"
            f"wrote {args.urlmap_out} and {args.triggermap_out}\n")


def _cmd_instrument(args) -> tuple[object, str]:
    app = _load_original(args.app)
    url_map = _load(args.urlmap, url_map_from_json_obj)
    url_map.check(app)
    trigger_map = _load(args.triggermap, trigger_map_from_json_obj)
    sig = _pick_signature(app, args)
    hints = _load_hints(args.hints, app)
    check_trigger_map(app, trigger_map, hints)
    ia = instrument(app, url_map, trigger_map, sig, hints)
    _write_text(args.out, print_app(ia.app))
    return {"out": args.out, "signature": sig.net_method}, f"wrote {args.out}\n"


def _cmd_run(args) -> tuple[object, str]:
    app = _load(args.app, parse_app, as_json=False)
    trace = _load(args.trace, trace_from_json_obj)
    net = _load_net(args.net)
    seed = hints = None
    if app.is_instrumented:
        if args.seed_urlmap is None:
            raise FetchaheadError("an instrumented app requires a seed url map")
        seed = _load(args.seed_urlmap, url_map_from_json_obj)
        seed.check(app)
        hints = _load_hints(args.hints, app)
        check_trigger_points(app, hints)
    elif args.oracle_out:
        raise FetchaheadError("--oracle-out requires an instrumented app")
    elif args.seed_urlmap is not None or args.hints is not None:
        raise FetchaheadError("a seed url map or hints need an instrumented app")
    log = run_trace(app, trace, net, seed_url_map=seed, hints=hints)
    _write_text(args.out, log.canonical_json)
    if args.oracle_out:
        _write_json(args.oracle_out,
                    encode(compute_oracle(app, trace, net, hints)), Oracle)
    return ({"out": args.out, "final_ms": log.final_ms},
            f"wrote {args.out} ({len(log.demands())} demands, "
            f"{log.final_ms}ms virtual time)\n")


def _cmd_bench(args) -> tuple[object, str]:
    if args.latency_ms < 1:
        raise UsageError("--latency-ms must be >= 1")
    if args.think_ms < 0:
        raise UsageError("--think-ms must be >= 0")
    report = run_benchmark(args.latency_ms, args.think_ms)
    result = encode(report)
    if not args.out:
        return result, report.to_tsv()
    _write_text(args.out,
                dumps(result) if args.out.endswith(".json") else report.to_tsv())
    return result, f"wrote {args.out}\n"


def _cmd_report(args) -> tuple[object, str]:
    oracles = args.oracle or []
    if len(args.base) != len(args.opt):
        raise UsageError("--base and --opt must be given the same number of times")
    if oracles and len(oracles) != len(args.base):
        raise UsageError("--oracle must be given once per pair (or not at all)")
    pairs = []
    for i, (bpath, opath) in enumerate(zip(args.base, args.opt)):
        base = _load(bpath, run_log_from_json_obj)
        opt = _load(opath, run_log_from_json_obj)
        oracle = _load(oracles[i], oracle_from_json_obj) if oracles else None
        pairs.append(_scored(base, opt, oracle))
    result: dict = {"pairs": [encode(m) for m in pairs]}
    if len(pairs) > 1:
        result["summary"] = summarize_pairs(pairs)
    if args.out:
        _write_json(args.out, result)
    text = "".join(f"pair {i}: {_scores_text(m)}" for i, m in enumerate(pairs))
    if "summary" in result:
        text += format_summary(result["summary"]) + "\n"
    return result, text


def _cmd_pipeline(args) -> tuple[object, str]:
    app = _load_original(args.app)
    trace = _load(args.trace, trace_from_json_obj)
    net = _load_net(args.net)
    hints = _load_hints(args.hints, app)
    sig = _pick_signature(app, args) if args.signature else None
    p = run_pipeline(app, trace, net, hints, sig)
    m = _scored(p.base, p.opt, p.oracle)
    metrics = encode(m)

    # nothing is written unless every stage succeeded
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise FetchaheadError(f"cannot create {outdir}: {e.strerror or e}") from e
    _write_json(str(outdir / "urlmap.json"), url_map_to_json_obj(p.url_map),
                UrlMap)
    _write_json(str(outdir / "triggermap.json"),
                trigger_map_to_json_obj(p.trigger_map), TriggerMap)
    _write_text(str(outdir / "optimized.papp"), print_app(p.ia.app))
    _write_text(str(outdir / "runlog_base.json"), p.base.canonical_json)
    _write_text(str(outdir / "runlog_opt.json"), p.opt.canonical_json)
    _write_json(str(outdir / "oracle.json"), encode(p.oracle), Oracle)
    # the shape `report` writes, so the two are byte-identical
    _write_json(str(outdir / "metrics.json"), {"pairs": [metrics]},
                Mapping[str, tuple[Metrics, ...]])
    return ({"outdir": str(outdir), "metrics": metrics},
            f"pipeline artifacts in {outdir}\n{_scores_text(m)}")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The process's one parser, built on the first `main` call. Reuse is
    safe: argparse keeps no parse state on the parser."""
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
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        result, text = args.fn(args)
        print(dumps(result) if args.json else text, end="")
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except FetchaheadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
