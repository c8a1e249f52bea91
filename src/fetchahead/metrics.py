"""Accuracy and effectiveness measures over run logs.

Accuracy compares what the proxy issued at each trigger point against a
ground-truth oracle. The oracle runs the trace through the runtime's own
statement walk (`runtime.Walk`), so it validates the trace exactly as
`run_trace` does and raises RunError on the same inputs. Its ideal
prefetcher is a `runtime.Proxy` built from the run's app, net model and
hints, told every definition as it runs, in place of the ones the
instrumented app sends, and holding every URL the app fetches;
`Proxy.trigger_prefetch` decides for both which URLs a trigger point
prefetches (known, neither cached nor waiting, at most the net model's
threshold, a hint URL known by its string). So the oracle differs from
the run only in its proxy's seed and in what that proxy is told, and
precision and recall measure what the analyses know.

Effectiveness compares a baseline run against an optimized run of the
same app/trace/network: per-request latency reduction, the hit rate
(cache or waited demands over all demands), and instrumentation overhead.
Both are micro-averaged.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import partial

from .app_ir import App, TriggerPrefetch
from .codec import decode, inline
from .errors import MetricsError
from .instrumenter import Hints
from .runtime import (
    SERVED_CACHE, SERVED_WAITED, Demand, NetModel, Proxy, RunLog, Trace, Walk,
)


@dataclass(frozen=True)
class Reduction:
    per_request: tuple[float, ...]
    mean: float


@dataclass
class Metrics:
    """One run pair's scores, in the shape `codec.encode` writes them."""

    precision: float | None
    recall: float | None
    hit_rate: float
    latency_reduction_pct: Reduction
    overhead_ms: int


# ---------------------------------------------------------------------------
# ground-truth replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefEvent:
    container: str
    stmt_index: int
    var: str
    value: str


@dataclass(frozen=True)
class TriggerPoint:
    callback: str
    prefetchable: tuple[str, ...]


@dataclass(frozen=True)
class Oracle:
    """Per-trigger-point prefetchable sets, aligned with the run log's
    trigger evaluations."""

    points: tuple[TriggerPoint, ...] = inline()


class Replay(Walk):
    """The oracle's walk. Its ideal prefetcher is a `runtime.Proxy` built
    from the run's own app, net model and hints; only its seed differs,
    each URL's literal and resource parts. It hears every definition,
    where the app's proxy hears only the ones the instrumented app sends,
    and holds every URL the app fetches. Its `send_definition` is never
    called, so the hints' rewrite rules never act: the ground truth is the
    URL the app builds. Network statements never change control flow or values,
    so the values match a full run's whatever the cache does."""

    def __init__(self, app: App, net: NetModel | None = None,
                 hints: Hints | None = None):
        super().__init__(app)
        self.trigger_points: list[TriggerPoint] = []
        # var -> (container, stmt index, value) of its last definition; a
        # DefEvent is built only on lookup, which is far rarer than a
        # definition
        self._last: dict[str, tuple[str, int, str]] = {}
        # var -> the (url id, part) slots that read it
        self._slots: dict[str, list[tuple[str, int]]] = {}
        seed: dict[str, list[str | None]] = {}
        for url_id, (_, _, spot) in app.index.url_spots.items():
            parts = seed[url_id] = []
            for m, part in enumerate(spot.parts, start=1):
                if part.kind == "var":
                    parts.append(None)
                    self._slots.setdefault(part.value, []).append((url_id, m))
                else:
                    parts.append(app.static_value(part.kind, part.value))
        self.proxy = Proxy(app, seed, net or NetModel(), hints)

    def last_definition_of(self, var: str) -> DefEvent | None:
        last = self._last.get(var)
        return None if last is None else DefEvent(last[0], last[1], var, last[2])

    def define(self, container: str, stmt_index: int, var: str,
               value: str) -> None:
        self._last[var] = (container, stmt_index, value)
        set_part = self.proxy.set_part
        for url_id, m in self._slots.get(var, ()):
            set_part(url_id, m, value)

    def net_call(self, st, url: str) -> None:
        self.proxy.hold(url)

    fetch_from_proxy = net_call

    def send_definition(self, st, value: str) -> None:
        pass  # define() has told the proxy already

    def trigger_prefetch(self, container: str, st: TriggerPrefetch) -> None:
        ev = self.proxy.trigger_prefetch(container, st.url_ids, 0)[0]
        self.trigger_points.append(TriggerPoint(container, ev.issued))


def replay_trace(app: App, trace: Trace, net: NetModel | None = None,
                 hints: Hints | None = None) -> Replay:
    """Run the trace through the oracle's walk; raises RunError on the
    trace steps that `run_trace` rejects."""
    replay = Replay(app, net, hints)
    for k, step in enumerate(trace.steps):
        replay.run_step(k, step)
    return replay


def compute_oracle(app: App, trace: Trace, net: NetModel | None = None,
                   hints: Hints | None = None) -> Oracle:
    return Oracle(tuple(replay_trace(app, trace, net, hints).trigger_points))


oracle_from_json_obj = partial(decode, Oracle, error=MetricsError)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def accuracy_counts(run_log: RunLog, oracle: Oracle) -> tuple[int, int, int]:
    """(useful, issued, prefetchable) prefetches summed over trigger
    points: useful ones were both issued and prefetchable."""
    evals = run_log.trigger_evals()
    if len(oracle.points) != len(evals):
        raise MetricsError(
            f"oracle covers {len(oracle.points)} trigger points, run log has "
            f"{len(evals)}"
        )
    useful = issued = prefetchable = 0
    for ev, point in zip(evals, oracle.points):
        if point.callback != ev.callback:
            raise MetricsError(
                f"oracle trigger point '{point.callback}' does not match "
                f"run log '{ev.callback}'"
            )
        sent, wanted = set(ev.issued), set(point.prefetchable)
        useful += len(sent & wanted)
        issued += len(sent)
        prefetchable += len(wanted)
    return useful, issued, prefetchable


def precision_recall(useful: int, issued: int,
                     prefetchable: int) -> tuple[float, float]:
    """Micro-averaged (precision, recall) of summed `accuracy_counts`;
    empty denominators count as 1.0."""
    return (useful / issued if issued else 1.0,
            useful / prefetchable if prefetchable else 1.0)


def compute_accuracy(run_log: RunLog, oracle: Oracle) -> tuple[float, float]:
    """(precision, recall) of one run."""
    return precision_recall(*accuracy_counts(run_log, oracle))


# ---------------------------------------------------------------------------
# effectiveness
# ---------------------------------------------------------------------------

def compute_effectiveness(base: RunLog, opt: RunLog) -> Metrics:
    """Compare a baseline run with an optimized run of the same workload.

    The demanded (url id, url) sequences must match exactly; anything else
    means the instrumentation changed the app's behavior. A base log from
    an instrumented app is a swapped pair.
    """
    if base.instrumented:
        raise MetricsError("the base run log is from an instrumented app; "
                           "are the base and optimized logs swapped?")
    base_demands = base.demands()
    opt_demands = opt.demands()
    base_reqs = [(d.url_id, d.url) for d in base_demands]
    opt_reqs = [(d.url_id, d.url) for d in opt_demands]
    if base_reqs != opt_reqs:
        raise MetricsError(
            "request sets differ between runs; behavioral transparency is "
            "violated"
        )
    reductions = []
    for b, o in zip(base_demands, opt_demands):
        if b.response_time_ms > 0:
            reductions.append(
                (b.response_time_ms - o.response_time_ms)
                / b.response_time_ms * 100.0
            )
        else:
            reductions.append(0.0)
    return Metrics(
        precision=None,
        recall=None,
        hit_rate=_hit_rate(opt_demands),
        latency_reduction_pct=Reduction(
            tuple(reductions),
            (sum(reductions) / len(reductions)) if reductions else 0.0),
        overhead_ms=opt.total_overhead_ms(),
    )


def hit_rate(run_log: RunLog) -> float:
    """Cache-or-waited demands over all demands; waited requests count as
    hits (the response still comes from the prefetch)."""
    return _hit_rate(run_log.demands())


def _hit_rate(demands: list[Demand]) -> float:
    if not demands:
        return 0.0
    hits = sum(1 for d in demands
               if d.served_from in (SERVED_CACHE, SERVED_WAITED))
    return hits / len(demands)


# ---------------------------------------------------------------------------
# multi-pair summary (min/max/avg/stddev table)
# ---------------------------------------------------------------------------

def _spread(values: list[float]) -> dict:
    return {
        "min": min(values),
        "max": max(values),
        "avg": sum(values) / len(values),
        "stddev": statistics.pstdev(values) if len(values) > 1 else 0.0,
    }


def summarize_pairs(pairs: list[Metrics]) -> dict:
    """Table-style summary across app/trace pairs; a pair's requests are
    its demands, one reduction each."""
    if not pairs:
        raise MetricsError("nothing to summarize")
    reductions = [m.latency_reduction_pct for m in pairs]
    return {
        "pairs": len(pairs),
        "runtime_requests": _spread([float(len(r.per_request)) for r in reductions]),
        "hit_rate": _spread([m.hit_rate for m in pairs]),
        "latency_reduction_pct": _spread([r.mean for r in reductions]),
    }


def format_summary(summary: dict) -> str:
    """Plain-text rendering of a summarize_pairs() result."""
    # ".1%" writes 100 times the value, with a "%" after it
    rows = [
        ("Runtime Requests", summary["runtime_requests"], ">10.2f"),
        ("Hit Rate", summary["hit_rate"], ">10.1%"),
        ("Latency Reduction",
         {k: v / 100.0 for k, v in summary["latency_reduction_pct"].items()},
         ">10.1%"),
    ]
    lines = [f"{'':18} {'Min.':>10} {'Max.':>10} {'Avg.':>10} {'Std. Dev.':>10}"]
    for label, cells, fmt in rows:
        lines.append(
            f"{label:18} {cells['min']:{fmt}} {cells['max']:{fmt}} "
            f"{cells['avg']:{fmt}} {cells['stddev']:{fmt}}"
        )
    return "\n".join(lines)
