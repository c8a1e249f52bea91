"""Callback analysis: where to prefetch.

Profiling a run of the original app identifies the fetch signature (the
net-library method that dominates cumulative network time). Every call to
that method is a fetch spot; its enclosing body is a target method; the
callbacks reaching that method in the extended call graph (`build_ecg`)
are target callbacks. Trigger callbacks are the CCFG predecessors of a
target callback separated from it by exactly one wait node, the app's
`index.wait_predecessors`: prefetching at the end of such a callback
exploits the user's think time at the wait node.

The resulting trigger map sends each trigger callback to the URLs that
should be prefetched when it finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from .app_ir import App, NetCall
from .codec import decode, encode, inline
from .errors import AnalysisError
from .runtime import NetModel, RunLog, Trace, run_trace


@dataclass(frozen=True)
class FetchSignature:
    net_method: str


@dataclass(frozen=True)
class TriggerMap:
    """trigger callback -> URL ids to prefetch at its end, in fetch-spot
    program order. JSON form: {callback: [urlIds...]}"""

    entries: Mapping[str, tuple[str, ...]] = inline()


def profile_fetch_signature(app: App, trace: Trace, net: NetModel) -> FetchSignature:
    """Run the original app and pick its fetch signature from the run."""
    if app.is_instrumented:
        raise AnalysisError("profiling runs on the original app")
    return signature_from_log(run_trace(app, trace, net))


def signature_from_log(log: RunLog) -> FetchSignature:
    """The net method with the largest cumulative simulated time in a run
    of the original app; ties break to the lexicographically smaller
    name."""
    totals: dict[str, int] = {}
    for d in log.demands():
        totals[d.method] = totals.get(d.method, 0) + d.response_time_ms
    if not totals:
        raise AnalysisError("nothing to profile: the trace issued no network calls")
    best = min(totals.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return FetchSignature(best)


def heuristic_fetch_signature(app: App) -> FetchSignature:
    """Fallback when no profiling trace is available: the declared-latency
    maximum (ties lexicographic). Matches profiling whenever each method
    is called the same number of times."""
    if not app.netlib:
        raise AnalysisError("app declares no net methods")
    best = min(app.netlib, key=lambda m: (-m.latency_ms, m.name)).name
    return FetchSignature(best)


def _entry_callbacks(app: App, callers: dict[str, list[str]],
                     method: str) -> list[str]:
    """Callbacks that can reach `method` in the call graph given by
    `callers` (callee -> callers), the method itself if it is a callback,
    in declaration order."""
    seen = {method}
    stack = [method]
    while stack:
        node = stack.pop()
        for pred in callers.get(node, ()):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    order = app.index.callback_order
    return sorted((n for n in seen if n in order), key=order.__getitem__)


def identify_trigger_callbacks(
    app: App, callers: dict[str, list[str]], sig: FetchSignature
) -> TriggerMap:
    """Build the trigger map for every fetch spot matching the signature;
    `callers` is `build_ecg(app)`."""
    if app.is_instrumented:
        raise AnalysisError("trigger analysis runs on the original app")
    if not any(m.name == sig.net_method for m in app.netlib):
        raise AnalysisError(f"fetch signature '{sig.net_method}' is not a "
                            "declared net method")
    wait_predecessors = app.index.wait_predecessors
    entries: dict[str, list[str]] = {}
    for container, body in app.containers():
        for st in body:
            if not (isinstance(st, NetCall) and st.method == sig.net_method):
                continue
            for target_cb in _entry_callbacks(app, callers, container):
                for trigger in wait_predecessors.get(target_cb, ()):
                    urls = entries.setdefault(trigger, [])
                    if st.url_id not in urls:
                        urls.append(st.url_id)
    return TriggerMap({k: tuple(v) for k, v in entries.items()})


trigger_map_to_json_obj = encode
trigger_map_from_json_obj = partial(decode, TriggerMap, error=AnalysisError)
