"""In-memory spans around fetchahead's public functions.

For its duration, the traced run replaces the names that the `pipeline`
and `bench` commands of `fetchahead.cli` call, and `RunLog.canonical_json`,
with wrappers that record a span: name, start, end, parent span and
pipeline id. `callback_analysis.run_trace` is wrapped too, so the run
nested inside signature profiling is a child span of the profiling span.
Nothing under `src/` changes.

A span's self time is its duration minus the durations of its children.
The root span of a pipeline is `cli.main`, so the self times of one
pipeline's spans add up exactly to its traced wall time.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _run_span(args) -> str:
    # the CLI passes the original App to the baseline run and the
    # InstrumentedApp wrapper to the optimized run
    return "runtime.run_opt" if hasattr(args[0], "app") else "runtime.run_base"


# (module, attribute, span name or a function of the call's arguments)
WRAPPED = (
    ("fetchahead.cli", "main", "cli.main"),
    ("fetchahead.cli", "parse_app", "app_ir.parse"),
    ("fetchahead.cli", "print_app", "app_ir.print"),
    ("fetchahead.cli", "build_ecg", "app_ir.build_ecg"),
    ("fetchahead.cli", "analyze_urls", "string_analysis.analyze"),
    ("fetchahead.cli", "url_map_to_json_obj", "string_analysis.codec"),
    ("fetchahead.cli", "profile_fetch_signature", "callback_analysis.profile"),
    ("fetchahead.callback_analysis", "run_trace", "runtime.run_profile"),
    ("fetchahead.cli", "identify_trigger_callbacks", "callback_analysis.triggers"),
    ("fetchahead.cli", "trigger_map_to_json_obj", "callback_analysis.codec"),
    ("fetchahead.cli", "instrument", "instrumenter.instrument"),
    ("fetchahead.cli", "run_trace", _run_span),
    ("fetchahead.cli", "trace_from_json_obj", "runtime.codec"),
    ("fetchahead.cli", "net_model_from_json_obj", "runtime.codec"),
    ("fetchahead.runtime.RunLog", "canonical_json", "runtime.codec"),
    ("fetchahead.cli", "compute_oracle", "metrics.oracle"),
    ("fetchahead.cli", "compute_effectiveness", "metrics.effectiveness"),
    ("fetchahead.cli", "compute_accuracy", "metrics.accuracy"),
    ("fetchahead.cli", "run_benchmark", "mbm.bench"),
)

LAYERS = ("app_ir", "string_analysis", "callback_analysis", "instrumenter",
          "runtime", "metrics", "cli")


def _resolve(path: str):
    """A module, or a class inside one (`fetchahead.runtime.RunLog`)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans as [name, start, end, parent index, pipeline id]; parent -1
    marks a root. Set `pipeline` before each call."""

    def __init__(self):
        self.spans: list[list] = []
        self.pipeline: object = None
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0,
                          open_[-1] if open_ else -1, self.pipeline])
            open_.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name in WRAPPED:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "pipeline")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]),
                        encoding="utf-8")
