import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appgen import make_app
from fetchahead.app_ir import (
    App,
    BuildUrl,
    Callback,
    Ccfg,
    DefineDynamic,
    NetCall,
    NetMethodDecl,
    UrlPart,
    build_ecg,
    parse_app,
    validate_app,
)
from fetchahead.callback_analysis import FetchSignature, identify_trigger_callbacks
from fetchahead.cli import run_pipeline
from fetchahead.errors import MetricsError, RunError
from fetchahead.instrumenter import (
    Hints,
    RewriteRule,
    StaticUrlHint,
    TriggerHint,
    instrument,
)
from fetchahead.mbm import generate_case
from fetchahead.metrics import (
    Metrics,
    Oracle,
    Reduction,
    Replay,
    TriggerPoint,
    compute_accuracy,
    compute_effectiveness,
    compute_oracle,
    format_summary,
    hit_rate,
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


# an instrumented app written by hand, with two faults no trace can avoid
_FAULTY_INSTRUMENTED = """
app faulty
netmethod get latency=10
callback early {
  send_definition(v, u, 2)
  let v = input(t)
  url u = "http://x/" + v
  fetch_from_proxy(get, u)
}
callback unbuilt {
  fetch_from_proxy(get, u)
}
ccfg {
}
"""


@pytest.mark.parametrize("source, steps, message", [
    (None, (TraceStep("ghost"),), "unknown callback 'ghost'"),
    (None, (TraceStep("onCreate"), TraceStep("onItemSelected", 0, {})),
     "missing input 'citySelection'"),
    (None, (TraceStep("onClick", 0, {"cityIdText": "1"}),),
     "not an entry callback"),
    (_FAULTY_INSTRUMENTED, (TraceStep("early", 0, {"t": "a"}),),
     "send_definition before 'v' is assigned"),
    (_FAULTY_INSTRUMENTED, (TraceStep("unbuilt"),),
     "url 'u' fetched before being built"),
], ids=["unknown-event", "missing-input", "unreachable-event",
        "send-before-assignment", "proxy-fetch-unbuilt-url"])
def test_oracle_rejects_what_the_runtime_rejects(weather_pipeline, source,
                                                 steps, message):
    """The oracle's walk has no send_definition hook, and still rejects
    a send_definition of an unset variable."""
    assert Replay.send_definition is None
    if source is None:
        app, url_map = weather_pipeline.ia.app, weather_pipeline.url_map
    else:
        app = parse_app(source)
        url_map = analyze_urls(app)
    trace = Trace(steps)
    with pytest.raises(RunError, match=message):
        run_trace(app, trace, NetModel(), seed_url_map=url_map)
    with pytest.raises(RunError, match=message):
        compute_oracle(app, trace)


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


def test_oracle_caps_each_trigger_at_the_threshold():
    """Three knowable URLs at one trigger and a threshold of 2: the proxy
    issues two, so only two are ideal prefetches."""
    app = parse_app("""
app cap
netmethod fetch latency=100
callback a {
}
callback b {
  url u1 = "http://h/1"
  url u2 = "http://h/2"
  url u3 = "http://h/3"
  fetch(u1)
  fetch(u2)
  fetch(u3)
}
ccfg {
  wait w
  a -> w
  w -> b
}
""")
    trace = Trace((TraceStep("a"), TraceStep("b", 500)))
    p = run_pipeline(app, trace, NetModel(threshold=2))
    (ev,) = p.opt.trigger_evals()
    assert ev.considered == ("u1", "u2", "u3")
    assert ev.issued == ("u1", "u2")
    assert p.oracle == Oracle((TriggerPoint("a", ("u1", "u2")),))
    assert compute_accuracy(p.opt, p.oracle) == (1.0, 1.0)


def test_hint_url_with_an_analyzed_urls_string_counts_once(weather_app,
                                                            weather_trace):
    """The proxy keys its cache by URL string, so a hint URL equal to
    url1 is already cached when onCreate's trigger reaches it."""
    hints = Hints(
        extra_trigger_entries=(TriggerHint("onCreate", ("urlHint",)),),
        extra_static_urls=(StaticUrlHint(
            "urlHint", "http://weatherapi/weather?&cityId=123"),),
    )
    p = run_pipeline(weather_app, weather_trace, NetModel(), hints)
    first = p.opt.trigger_evals()[0]
    assert (first.issued, first.skipped_known_cached) == (("url1",), ("urlHint",))
    assert p.oracle.points[0] == TriggerPoint("onCreate", ("url1",))
    assert compute_accuracy(p.opt, p.oracle) == (1.0, 1.0)


def test_mbm_cases_perfect_accuracy():
    for case_id in (0, 1, 4, 9, 13, 16, 24):
        p = _case_pipeline(case_id, 1000, 2000)
        assert compute_accuracy(p.opt, p.oracle) == (1.0, 1.0), case_id


# ---------------------------------------------------------------------------
# the oracle against one that rebuilds every URL at every trigger
# ---------------------------------------------------------------------------

class RebuildingReplay(Walk):
    """An oracle written apart from the proxy: every URL is rebuilt from
    its parts at every trigger point. Like the proxy, it skips the URLs
    over the threshold and knows a hint URL by its string; it applies no
    rewrite rule, since the ground truth is the URL the app builds."""

    def __init__(self, app, net=None, hints=None):
        super().__init__(app)
        self.threshold = (net or NetModel()).threshold
        self.hint_urls = {h.url_id: h.url
                          for h in (hints or Hints()).extra_static_urls}
        self.trigger_points = []
        self.ideal_cache = set()

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
            if len(prefetchable) >= self.threshold:
                continue
            self.ideal_cache.add(url)
            prefetchable.append(uid)
        self.trigger_points.append((container, tuple(prefetchable)))

    def url_of(self, url_id):
        spot = self.app.index.url_spots.get(url_id)
        if spot is None:
            return self.hint_urls.get(url_id)
        values = []
        for part in spot[2].parts:
            if part.kind != "var":
                values.append(self.app.static_value(part.kind, part.value))
            elif part.value in self.variables:
                values.append(self.variables[part.value])
            else:
                return None
        return "".join(values)


def _instrumented(app, hints=None):
    sig = FetchSignature("fetch")
    tm = identify_trigger_callbacks(app, build_ecg(app), sig)
    return instrument(app, analyze_urls(app), tm, sig, hints).app


def _rewriting(app, rng, find, replace):
    """A rewrite rule on a random variable part of the app's URLs (on a
    literal part if none reads a variable)."""
    slots = [(url_id, m) for url_id, (_, _, spot) in app.index.url_spots.items()
             for m, part in enumerate(spot.parts, start=1) if part.kind == "var"]
    url_id, m = rng.choice(slots or [(next(iter(app.index.url_spots)), 1)])
    return RewriteRule(url_id, m, find, replace)


def _oracle_forms(seed):
    """A random app as (app, net, hints): uninstrumented, instrumented,
    and instrumented with hints (a hint URL and a URL of the app
    prefetched at launch, every URL at the end of a random callback, a
    rewrite rule that hits the trace's input values) under a threshold of
    1 to 3."""
    rng = random.Random(seed)
    app, trace, _ = make_app(rng)
    url_ids = tuple(app.index.url_spots)
    hints = Hints(
        extra_trigger_entries=(
            TriggerHint("cb0", ("hinted", rng.choice(url_ids)), at="launch"),
            TriggerHint(rng.choice(app.callback_names), url_ids),
        ),
        extra_static_urls=(StaticUrlHint("hinted", "http://hint/"),),
        # appgen draws every input value as "val<n>"
        rewrite_rules=(_rewriting(app, rng, "val", "img"),),
    )
    net = NetModel(threshold=rng.randint(1, 3))
    return trace, ((app, None, None),
                   (_instrumented(app), None, None),
                   (_instrumented(app, hints), net, hints))


def _assert_oracle_matches_reference(app, trace, net, hints):
    """After every trace step, the same trigger points."""
    replay = Replay(app, net, hints)
    reference = RebuildingReplay(app, net, hints)
    for k, step in enumerate(trace.steps):
        replay.run_step(k, step)
        reference.run_step(k, step)
        assert [(tp.callback, tp.prefetchable)
                for tp in replay.trigger_points] == reference.trigger_points


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_oracle_matches_rebuilding_reference(seed):
    trace, apps = _oracle_forms(seed)
    for app, net, hints in apps:
        _assert_oracle_matches_reference(app, trace, net, hints)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([None, 0, 7, 5000]),
       st.integers(0, 3000))
def test_oracle_does_not_read_latencies(seed, default_latency_ms, fetch_ms):
    """The oracle's proxy prices its prefetches as the run's does, but
    what a trigger point may prefetch never depends on the price."""
    trace, apps = _oracle_forms(seed)
    for app, net, hints in apps:
        net = net or NetModel()
        repriced = dataclasses.replace(
            net, default_latency_ms=default_latency_ms,
            per_method={"fetch": fetch_ms})
        assert (compute_oracle(app, trace, net, hints)
                == compute_oracle(app, trace, repriced, hints))


def _hub_app(screens):
    """home -> wait -> screen i -> wait i -> home. Screen i reads a page
    set at home and its own query, so home's trigger lists every screen's
    URL; even screens also fetch a static URL."""
    bodies = {"home": [DefineDynamic("page", "page")]}
    for i in range(screens):
        parts = (UrlPart("literal", f"http://s{i}/"), UrlPart("var", "page"),
                 UrlPart("literal", "/"), UrlPart("var", f"q{i}"))
        body = [DefineDynamic(f"q{i}", f"q{i}"), BuildUrl(f"u{i}", parts),
                NetCall("fetch", f"u{i}")]
        if i % 2 == 0:
            body += [BuildUrl(f"fixed{i}", (UrlPart("resource", "base"),
                                             UrlPart("literal", f"{i}"))),
                     NetCall("fetch", f"fixed{i}")]
        bodies[f"s{i}"] = body
    edges = [("home", "w")]
    for i in range(screens):
        edges += [("w", f"s{i}"), (f"s{i}", f"w{i}"), (f"w{i}", "home")]
    app = App(
        name="hub",
        resources={"base": "http://static/"},
        callbacks=tuple(Callback(name, tuple(body))
                        for name, body in bodies.items()),
        ccfg=Ccfg(("w", *(f"w{i}" for i in range(screens))), tuple(edges)),
        netlib=(NetMethodDecl("fetch", 100),),
    )
    validate_app(app)
    return app


def test_oracle_matches_rebuilding_reference_on_a_hub():
    """A CCFG cycle whose trigger list (six screens' URLs and three
    static ones) is longer than the threshold, over 300 steps that revisit
    pages and queries."""
    rng = random.Random(3)
    app = _hub_app(6)
    steps = [TraceStep("home", 0, {"page": "p0"})]
    while len(steps) < 300:
        i = rng.randrange(6)
        steps.append(TraceStep(f"s{i}", 100, {f"q{i}": f"val{rng.randrange(3)}"}))
        steps.append(TraceStep("home", 100, {"page": f"p{rng.randrange(20)}"}))
    hints = Hints(rewrite_rules=(RewriteRule("u1", 4, "val", "img"),))
    net = NetModel(threshold=2)
    trace = Trace(tuple(steps))
    _assert_oracle_matches_reference(app, trace, net, None)
    _assert_oracle_matches_reference(_instrumented(app, hints), trace, net,
                                     hints)


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


def test_a_free_base_demand_has_no_reduction():
    """A 0 ms base demand cannot be made faster; it counts as 0%."""
    p = _case_pipeline(1, 0, 2000)
    assert [d.response_time_ms for d in p.base.demands()] == [0]
    m = compute_effectiveness(p.base, p.opt)
    assert m.latency_reduction_pct.per_request == (0.0,)
    assert m.latency_reduction_pct.mean == 0.0


def test_mismatched_logs_rejected(weather_pipeline, weather_trace, weather_net):
    p = weather_pipeline
    shorter = Trace(weather_trace.steps[:2])
    # a different trace demands nothing: request sets differ
    opt = run_trace(p.ia, shorter, weather_net, seed_url_map=p.url_map)
    with pytest.raises(MetricsError, match="request sets differ"):
        compute_effectiveness(p.base, opt)


def test_hit_rate_of_empty_log():
    assert hit_rate(RunLog("x", True, [], 0, {}).demands()) == 0.0


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
        rates.append(hit_rate(log.demands()))
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
