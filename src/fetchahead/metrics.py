"""Accuracy and effectiveness measures over run logs.

Accuracy compares what the proxy issued at each trigger point against a
ground-truth oracle. The oracle runs the trace through the runtime's own
statement walk (`runtime.Walk`), with an ideal prefetcher in place of the
clock and the proxy, so it validates the trace exactly as `run_trace`
does and raises RunError on the same inputs. A URL is prefetchable at a
trigger point iff every part is determined by the definitions executed so
far and an ideal prefetcher would not already hold it (it was neither
ideally prefetched at an earlier trigger nor already demanded); like the
proxy, the ideal prefetcher issues at most the net model's threshold of
URLs per trigger point, and knows a hint URL by its string. Each URL is
built once and kept until a definition of a variable it reads.

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
from .runtime import SERVED_CACHE, SERVED_WAITED, NetModel, RunLog, Trace, Walk


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
    """The oracle's walk. Its ideal cache holds every URL demanded or
    ideally prefetched so far. Network statements never change control
    flow or values, so the values match a full run's whatever the cache
    does."""

    def __init__(self, app: App, net: NetModel | None = None,
                 hints: Hints | None = None):
        super().__init__(app)
        self.threshold = (net or NetModel()).threshold
        self._hint_urls = {h.url_id: h.url
                           for h in (hints or Hints()).extra_static_urls}
        self.trigger_points: list[TriggerPoint] = []
        self._ideal_cache: set[str] = set()
        # var -> (container, stmt index, value) of its last definition; a
        # DefEvent is built only on lookup, which is far rarer than a
        # definition
        self._last: dict[str, tuple[str, int, str]] = {}
        # url id -> its URL under current values (None while a part is
        # unset); define() drops the URLs that read the variable it writes
        self._urls: dict[str, str | None] = {}
        self._readers: dict[str, list[str]] = {}
        for url_id, (_, _, spot) in app.index.url_spots.items():
            for part in spot.parts:
                if part.kind == "var":
                    self._readers.setdefault(part.value, []).append(url_id)

    def last_definition_of(self, var: str) -> DefEvent | None:
        last = self._last.get(var)
        return None if last is None else DefEvent(last[0], last[1], var, last[2])

    def define(self, container: str, stmt_index: int, var: str,
               value: str) -> None:
        self._last[var] = (container, stmt_index, value)
        for url_id in self._readers.get(var, ()):
            self._urls.pop(url_id, None)

    def net_call(self, st, url: str) -> None:
        self._ideal_cache.add(url)

    fetch_from_proxy = net_call

    def send_definition(self, st, value: str) -> None:
        pass  # does not affect ground truth

    def trigger_prefetch(self, container: str, st: TriggerPrefetch) -> None:
        prefetchable = []
        urls, ideal_cache = self._urls, self._ideal_cache
        for uid in st.url_ids:
            if uid in urls:
                concrete = urls[uid]
            else:
                concrete = urls[uid] = self._knowable_url(uid)
            if concrete is None or concrete in ideal_cache:
                continue
            ideal_cache.add(concrete)
            prefetchable.append(uid)
            if len(prefetchable) == self.threshold:
                break
        self.trigger_points.append(
            TriggerPoint(container, tuple(prefetchable))
        )

    def _knowable_url(self, url_id: str) -> str | None:
        """Concrete URL under current values, or None while any part is
        undetermined. A url id the app does not build is a hint URL, known
        by its string, or never knowable."""
        spot = self.app.index.url_spots.get(url_id)
        if spot is None:
            return self._hint_urls.get(url_id)
        variables, static_value = self.variables, self.app.static_value
        values = []
        for part in spot[2].parts:
            if part.kind != "var":
                values.append(static_value(part.kind, part.value))
            elif part.value in variables:
                values.append(variables[part.value])
            else:
                return None
        return "".join(values)


def replay_trace(app_like, trace: Trace, net: NetModel | None = None,
                 hints: Hints | None = None) -> Replay:
    """Run the trace through the oracle's walk; raises RunError on the
    trace steps that `run_trace` rejects."""
    replay = Replay(getattr(app_like, "app", app_like), net, hints)
    for k, step in enumerate(trace.steps):
        replay.run_step(k, step)
    return replay


def compute_oracle(app_like, trace: Trace, net: NetModel | None = None,
                   hints: Hints | None = None) -> Oracle:
    return Oracle(tuple(replay_trace(app_like, trace, net, hints).trigger_points))


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
        hit_rate=hit_rate(opt),
        latency_reduction_pct=Reduction(
            tuple(reductions),
            (sum(reductions) / len(reductions)) if reductions else 0.0),
        overhead_ms=opt.total_overhead_ms(),
    )


def hit_rate(run_log: RunLog) -> float:
    """Cache-or-waited demands over all demands; waited requests count as
    hits (the response still comes from the prefetch)."""
    demands = run_log.demands()
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
    def pct(x: float) -> str:
        return f"{x * 100:.1f}%"

    def num(x: float) -> str:
        return f"{x:.2f}"

    rows = [
        ("Runtime Requests", summary["runtime_requests"], num),
        ("Hit Rate", summary["hit_rate"], pct),
        ("Latency Reduction",
         {k: v / 100.0 for k, v in summary["latency_reduction_pct"].items()},
         pct),
    ]
    lines = [f"{'':18} {'Min.':>10} {'Max.':>10} {'Avg.':>10} {'Std. Dev.':>10}"]
    for label, cells, fmt in rows:
        lines.append(
            f"{label:18} {fmt(cells['min']):>10} {fmt(cells['max']):>10} "
            f"{fmt(cells['avg']):>10} {fmt(cells['stddev']):>10}"
        )
    return "\n".join(lines)
