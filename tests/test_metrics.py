import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appgen import make_app
from fetchahead.app_ir import build_ecg
from fetchahead.callback_analysis import FetchSignature, identify_trigger_callbacks
from fetchahead.cli import run_pipeline
from fetchahead.errors import MetricsError, RunError
from fetchahead.instrumenter import (
    Hints,
    StaticUrlHint,
    TriggerHint,
    apply_hints,
    instrument,
)
from fetchahead.mbm import generate_case
from fetchahead.metrics import (
    DefEvent,
    Metrics,
    Oracle,
    Reduction,
    TriggerPoint,
    compute_accuracy,
    compute_effectiveness,
    compute_oracle,
    format_summary,
    hit_rate,
    replay_trace,
    summarize_pairs,
)
from fetchahead.runtime import (
    NetModel,
    RunLog,
    Trace,
    TraceStep,
    TriggerEval,
    Walk,
    run_trace,
)
from fetchahead.string_analysis import analyze_urls


def _case_pipeline(case_id, latency, think):
    app, trace, net, _ = generate_case(case_id, latency, think)
    return run_pipeline(app, trace, net)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_weather_oracle_and_accuracy(weather_pipeline):
    assert weather_pipeline.oracle == Oracle((
        TriggerPoint("onCreate", ("url1",)),
        TriggerPoint("onItemSelected", ("url2",)),
    ))
    assert compute_accuracy(weather_pipeline.opt, weather_pipeline.oracle) == (1.0, 1.0)


@pytest.mark.parametrize("steps, message", [
    ((TraceStep("ghost"),), "unknown callback 'ghost'"),
    ((TraceStep("onCreate"), TraceStep("onItemSelected", 0, {})),
     "missing input 'citySelection'"),
    ((TraceStep("onClick", 0, {"cityIdText": "1"}),), "not an entry callback"),
], ids=["unknown-event", "missing-input", "unreachable-event"])
def test_oracle_rejects_what_the_runtime_rejects(weather_pipeline, steps, message):
    ia, trace = weather_pipeline.ia, Trace(steps)
    with pytest.raises(RunError, match=message):
        run_trace(ia, trace, NetModel(), seed_url_map=weather_pipeline.url_map)
    with pytest.raises(RunError, match=message):
        compute_oracle(ia, trace)


def test_no_triggers_is_vacuously_perfect():
    log = RunLog("x", True, [], 0, {})
    assert compute_accuracy(log, Oracle(())) == (1.0, 1.0)


def test_zero_issued_with_prefetchable_gives_zero_recall():
    log = RunLog("x", True, [
        TriggerEval("c", 0, ("u",), (), (), ("u",)),
    ], 0, {})
    oracle = Oracle((TriggerPoint("c", ("u",)),))
    precision, recall = compute_accuracy(log, oracle)
    assert precision == 1.0  # nothing issued, nothing wrong
    assert recall == 0.0


def test_oracle_must_cover_every_trigger_point():
    log = RunLog("x", True, [
        TriggerEval("c", 0, ("u",), ("u",), (), ()),
    ], 0, {})
    with pytest.raises(MetricsError, match="trigger point"):
        compute_accuracy(log, Oracle(()))
    with pytest.raises(MetricsError, match="does not match"):
        compute_accuracy(log, Oracle((TriggerPoint("other", ()),)))


@settings(max_examples=30, deadline=None)
@given(st.permutations(["url1", "url2", "url3"]))
def test_accuracy_invariant_under_url_reordering(order):
    log = RunLog("x", True, [
        TriggerEval("c", 0, tuple(order),
                    tuple(u for u in order if u != "url3"), (),
                    tuple(u for u in order if u == "url3")),
    ], 0, {})
    oracle = Oracle((TriggerPoint("c", ("url2", "url1")),))
    assert compute_accuracy(log, oracle) == (1.0, 1.0)


def test_oracle_uses_build_time_urls():
    """A redefinition between the URL spot and the fetch must not confuse
    the oracle: demands resolve at build time, app-side."""
    from fetchahead.app_ir import parse_app

    app = parse_app("""
app rebuild
netmethod fetch latency=100
callback prep {
  let v = input(t1)
}
callback show {
  url u = "http://x/" + v
  let v = input(t2)
  fetch(u)
}
ccfg {
  wait w0
  wait w1
  prep -> w0
  w0 -> show
  show -> w1
  w1 -> show
}
""")
    trace = Trace((
        TraceStep("prep", 0, {"t1": "a"}),
        TraceStep("show", 500, {"t2": "b"}),
        TraceStep("show", 500, {"t2": "c"}),
    ))
    p = run_pipeline(app, trace, NetModel())
    demands = p.opt.demands()
    # both demands hit: each demanded URL was built with the value the
    # previous trigger prefetched under
    assert [d.url for d in demands] == ["http://x/a", "http://x/b"]
    assert all(d.served_from in ("cache", "waited") for d in demands)
    assert compute_accuracy(p.opt, p.oracle) == (1.0, 1.0)


def test_mbm_cases_perfect_accuracy():
    for case_id in (0, 1, 4, 9, 13, 16, 24):
        p = _case_pipeline(case_id, 1000, 2000)
        assert compute_accuracy(p.opt, p.oracle) == (1.0, 1.0), case_id


# ---------------------------------------------------------------------------
# the memoized oracle against one that rebuilds every URL at every trigger
# ---------------------------------------------------------------------------

class RebuildingReplay(Walk):
    """The oracle without its URL memo: every URL is rebuilt from its
    parts at every trigger point, and every definition is kept in a list
    that `last_definition_of` scans backwards."""

    def __init__(self, app):
        super().__init__(app)
        self.definitions = []
        self.trigger_points = []
        self.ideal_cache = set()

    def last_definition_of(self, var):
        for ev in reversed(self.definitions):
            if ev.var == var:
                return ev
        return None

    def define(self, container, stmt_index, var, value):
        self.definitions.append(DefEvent(container, stmt_index, var, value))

    def net_call(self, st, url):
        self.ideal_cache.add(url)

    fetch_from_proxy = net_call

    def send_definition(self, st, value):
        pass

    def trigger_prefetch(self, container, st):
        prefetchable = []
        for uid in st.url_ids:
            url = self.url_of(uid)
            if url is None or url in self.ideal_cache:
                continue
            self.ideal_cache.add(url)
            prefetchable.append(uid)
        self.trigger_points.append((container, tuple(prefetchable)))

    def url_of(self, url_id):
        spot = self.app.index.url_spots.get(url_id)
        if spot is None:
            return f"<static:{url_id}>"
        values = []
        for part in spot[2].parts:
            if part.kind != "var":
                values.append(self.app.static_value(part.kind, part.value))
            elif part.value in self.variables:
                values.append(self.variables[part.value])
            else:
                return None
        return "".join(values)


def _oracle_forms(seed):
    """A random app instrumented, and the same with hints: a hint URL and
    a URL of the app prefetched at launch, every URL at the end of a
    random callback."""
    rng = random.Random(seed)
    app, trace, _ = make_app(rng)
    sig = FetchSignature("fetch")
    tm = identify_trigger_callbacks(app, build_ecg(app), sig)
    ia = instrument(app, analyze_urls(app), tm, sig)
    url_ids = tuple(app.index.url_spots)
    hints = Hints(
        extra_trigger_entries=(
            TriggerHint("cb0", ("hinted", rng.choice(url_ids)), at="launch"),
            TriggerHint(rng.choice(app.callback_names), url_ids),
        ),
        extra_static_urls=(StaticUrlHint("hinted", "http://hint/"),),
    )
    return trace, (app, ia.app, apply_hints(ia, hints).app)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_memoized_oracle_matches_rebuilding_reference(seed):
    trace, apps = _oracle_forms(seed)
    for app in apps:
        replay, reference = replay_trace(app, Trace(())), RebuildingReplay(app)
        variables = sorted(app.index.definitions) + ["no_such_var"]
        for k, step in enumerate(trace.steps):
            replay.run_step(k, step)
            reference.run_step(k, step)
            assert [(tp.callback, tp.prefetchable)
                    for tp in replay.trigger_points] == reference.trigger_points
            for var in variables:
                assert (replay.last_definition_of(var)
                        == reference.last_definition_of(var))


# ---------------------------------------------------------------------------
# effectiveness
# ---------------------------------------------------------------------------

def test_hit_case_full_reduction():
    p = _case_pipeline(1, 1000, 2000)
    m = compute_effectiveness(p.base, p.opt)
    assert m.latency_reduction_pct.per_request == (100.0,)
    assert m.latency_reduction_pct.mean == 100.0
    assert m.hit_rate == 1.0
    assert m.overhead_ms == 0


def test_waited_demand_partial_reduction():
    p = _case_pipeline(1, 1000, 300)
    m = compute_effectiveness(p.base, p.opt)
    # waited 700 of 1000: 30% saved
    assert m.latency_reduction_pct.per_request == (30.0,)
    assert m.hit_rate == 1.0  # waited still counts as a hit


def test_non_prefetchable_zero_reduction():
    p = _case_pipeline(2, 1000, 2000)
    m = compute_effectiveness(p.base, p.opt)
    assert m.latency_reduction_pct.per_request == (0.0,)
    assert m.hit_rate == 0.0


def test_mismatched_logs_rejected(weather_pipeline, weather_trace, weather_net):
    p = weather_pipeline
    shorter = Trace(weather_trace.steps[:2])
    # a different trace demands nothing: request sets differ
    opt = run_trace(p.ia, shorter, weather_net, seed_url_map=p.url_map)
    with pytest.raises(MetricsError, match="request sets differ"):
        compute_effectiveness(p.base, opt)


def test_hit_rate_of_empty_log():
    assert hit_rate(RunLog("x", True, [], 0, {})) == 0.0


def test_hit_rate_invariant_once_think_exceeds_latency(weather_pipeline, weather_net):
    p = weather_pipeline
    rates = []
    for think in (800, 2000, 10_000):
        trace = Trace((
            TraceStep("onCreate", 0, {}),
            TraceStep("onItemSelected", think, {"citySelection": "Oslo"}),
            TraceStep("onClick", think, {"cityIdText": "7"}),
        ))
        log = run_trace(p.ia, trace, weather_net, seed_url_map=p.url_map)
        rates.append(hit_rate(log))
    assert rates == [rates[0]] * len(rates)


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_summarize_pairs_shape():
    pairs = [
        Metrics(None, None, 1 / 13, Reduction((100.0,) + (0.0,) * 12, 7.7), 0),
        Metrics(1.0, 1.0, 1.0, Reduction((100.0,) * 3, 100.0), 0),
    ]
    summary = summarize_pairs(pairs)
    assert summary["pairs"] == 2
    assert (summary["runtime_requests"]["min"],
            summary["runtime_requests"]["max"]) == (3.0, 13.0)
    assert summary["hit_rate"]["min"] == pytest.approx(1 / 13)
    assert summary["hit_rate"]["max"] == 1.0
    text = format_summary(summary)
    assert "Hit Rate" in text and "7.7%" in text


def test_summarize_requires_pairs():
    with pytest.raises(MetricsError):
        summarize_pairs([])
