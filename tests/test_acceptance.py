"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; any failure also shows them in the captured output.
"""

import random
import time

import pytest

from appgen import make_app
from fetchahead.app_ir import (
    App,
    BuildUrl,
    Callback,
    Ccfg,
    DefineDynamic,
    NetCall,
    NetMethodDecl,
    SendDefinition,
    TriggerPrefetch,
    UrlPart,
    build_ecg,
)
from fetchahead.callback_analysis import FetchSignature, identify_trigger_callbacks
from fetchahead.cli import run_benchmark, run_pipeline
from fetchahead.instrumenter import instrument
from fetchahead.mbm import (
    ALL_CASES,
    CASE_CONFIGS,
    FIG4_LABELS,
    HIT_CASES,
    Prefetchability,
    classify,
)
from fetchahead.metrics import (
    compute_effectiveness,
    format_summary,
    hit_rate,
    replay_trace,
    summarize_pairs,
)
from fetchahead.runtime import NetModel, Trace, TraceStep, run_trace
from fetchahead.string_analysis import Concrete, DefinitionSpot, Unknown, analyze_urls


def _report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_classification_exhaustiveness():
    start = time.monotonic()
    labels_match = all(
        classify(CASE_CONFIGS[c]) is FIG4_LABELS[c] for c in ALL_CASES
    )
    hits = {c for c in ALL_CASES if classify(CASE_CONFIGS[c]) is Prefetchability.HIT}
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: classify reproduces all 25 labels, "
        f"hit set {sorted(hits)} ({elapsed:.3f}s)",
        labels_match and hits == set(HIT_CASES) and elapsed < 1.0,
    )


def test_criterion_2_accuracy():
    start = time.monotonic()
    report = run_benchmark(1000, 2000)
    elapsed = time.monotonic() - start
    _report(
        f"criterion 2: full benchmark precision={report.accuracy.precision} "
        f"recall={report.accuracy.recall} ({elapsed:.1f}s)",
        report.accuracy.precision == 1.0 and report.accuracy.recall == 1.0
        and elapsed < 5.0,
    )


def test_criterion_3_effectiveness():
    start = time.monotonic()
    report = run_benchmark(1000, 2000)
    hit_ok = all(
        row.reduction_pct == 100.0
        for row in report.rows if row.case_id in HIT_CASES
    )
    np_ok = all(
        row.reduction_pct == 0.0
        for row in report.rows
        if FIG4_LABELS[row.case_id] is Prefetchability.NON_PREFETCHABLE
    )
    # hit rows must reach at least 99.97% reduction; the virtual clock
    # gives exactly 100%
    beats_reference = all(
        row.reduction_pct >= 99.97
        for row in report.rows if row.case_id in HIT_CASES
    )
    elapsed = time.monotonic() - start
    _report(
        "criterion 3: hit rows 100% reduction, non-prefetchable rows 0% "
        f"({elapsed:.1f}s)",
        hit_ok and np_ok and beats_reference and elapsed < 5.0,
    )


def test_criterion_4_wait_semantics():
    from fetchahead.mbm import generate_case

    app, trace, net, _ = generate_case(1, 1000, 300)
    p = run_pipeline(app, trace, net)
    base, opt = p.base, p.opt
    (demand,) = opt.demands()
    origin_fetches = len(opt.prefetches()) + sum(
        1 for d in opt.demands() if d.served_from == "origin"
    )
    metrics = compute_effectiveness(base, opt)
    ok = (
        origin_fetches == 1
        and demand.served_from == "waited"
        and demand.waited_ms == 700
        and metrics.latency_reduction_pct.per_request == (30.0,)
    )
    _report(
        "criterion 4: think=300/latency=1000 gives one origin fetch, "
        f"waited 700ms, reduction {metrics.latency_reduction_pct.per_request[0]}%",
        ok,
    )


def test_criterion_5_worked_example(weather_pipeline):
    url_map, trigger_map = weather_pipeline.url_map, weather_pipeline.trigger_map

    url2_ok = url_map.entries["url2"] == (
        Concrete("http://weatherapi/"),
        Concrete("weather?&cityName="),
        Unknown((DefinitionSpot("onItemSelected", 0, 3, 1),)),
    )
    tm_ok = trigger_map.entries == {
        "onCreate": ("url1", "url2", "url3"),
        "onItemSelected": ("url1", "url2", "url3"),
    }

    bodies = weather_pipeline.ia.app.index.bodies
    on_create = bodies["onCreate"]
    on_item = bodies["onItemSelected"]
    on_click = bodies["onClick"]
    placement_ok = (
        isinstance(on_create[-1], TriggerPrefetch) and len(on_create) == 2
        and on_item[1] == SendDefinition("cityName", "url2", 3)
        and isinstance(on_item[-1], TriggerPrefetch) and len(on_item) == 3
        and on_click[1] == SendDefinition("cityId", "url3", 3)
        and [type(st).__name__ for st in on_click[5:8]] == ["FetchFromProxy"] * 3
        and not any(isinstance(st, TriggerPrefetch) for st in on_click)
    )
    _report(
        "criterion 5: worked example (url map entry, trigger map, "
        "insertion sites) reproduced",
        url2_ok and tm_ok and placement_ok,
    )


def test_criterion_6_cache_transparency_property_suite():
    start = time.monotonic()
    sig = FetchSignature("fetch")
    checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        app, trace, net = make_app(rng)
        url_map = analyze_urls(app)
        tm = identify_trigger_callbacks(app, app.ccfg, build_ecg(app), sig)
        ia = instrument(app, url_map, tm, sig)
        log = run_trace(ia, trace, net, seed_url_map=url_map)

        # demanded payloads always equal the origin payloads
        for d in log.demands():
            assert d.payload == net.payload_for(d.url), seed
        # at most one origin fetch per concrete URL via the proxy
        fetch_counts: dict[str, int] = {}
        for p in log.prefetches():
            fetch_counts[p.url] = fetch_counts.get(p.url, 0) + 1
        for d in log.demands():
            if d.via == "proxy" and d.served_from == "origin":
                fetch_counts[d.url] = fetch_counts.get(d.url, 0) + 1
        assert all(v == 1 for v in fetch_counts.values()), seed
        # byte-identical run logs across two runs
        again = run_trace(ia, trace, net, seed_url_map=url_map)
        assert log.canonical_json() == again.canonical_json(), seed
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        f"criterion 6: {checked} randomized apps transparent, duplicate-free, "
        f"deterministic ({elapsed:.1f}s)",
        checked == 1000 and elapsed < 60.0,
    )


def test_criterion_7_conservative_spot_soundness():
    violations = 0
    for seed in range(1000):
        app, trace, _ = make_app(random.Random(seed))
        url_map = analyze_urls(app)
        replay = replay_trace(app, trace)
        spots_by_var: dict[str, set] = {}
        for url_id, parts in url_map.entries.items():
            spot = app.index.url_spots[url_id]
            for part, state in zip(spot[2].parts, parts):
                if isinstance(state, Unknown):
                    spots_by_var.setdefault(part.value, set()).update(
                        (s.container, s.stmt_index) for s in state.spots
                    )
        for var, spots in spots_by_var.items():
            last = replay.last_definition_of(var)
            if last is not None and (last.container, last.stmt_index) not in spots:
                violations += 1
    _report(
        f"criterion 7: conservative spot soundness, {violations} violations "
        "in 1000 randomized apps",
        violations == 0,
    )


def test_criterion_8_threshold():
    # seven statically known URLs behind one trigger: exactly five issued
    show_body = []
    parts = []
    for i in range(7):
        show_body.append(BuildUrl(f"u{i}", (UrlPart("literal", f"http://x/{i}"),)))
        show_body.append(NetCall("fetch", f"u{i}"))
    app = App(
        name="seven",
        callbacks=(
            Callback("prepare", ()),
            Callback("show", tuple(show_body)),
        ),
        ccfg=Ccfg(("w0",), (("prepare", "w0"), ("w0", "show"))),
        netlib=(NetMethodDecl("fetch", 500),),
    )
    trace = Trace((TraceStep("prepare", 0, {}), TraceStep("show", 1000, {})))
    p = run_pipeline(app, trace, NetModel())
    assert p.trigger_map.entries == {"prepare": tuple(f"u{i}" for i in range(7))}
    log = p.opt
    (trigger,) = log.trigger_evals()
    ok = (
        len(trigger.issued) == 5
        and len(log.prefetches()) == 5
        and len(trigger.considered) == 7
    )
    _report(
        f"criterion 8: 7 known URLs, {len(trigger.issued)} prefetches issued "
        "(default threshold 5)",
        ok,
    )


def _one_hit_in_13_logs():
    """An app fetching 13 URLs on demand: one static, twelve defined only
    inside the target callback (ad-style URLs unknowable at the trigger)."""
    show_body = []
    inputs = {}
    show_body.append(BuildUrl("u0", (UrlPart("literal", "http://ads.example/promo"),)))
    show_body.append(NetCall("fetch", "u0"))
    for i in range(1, 13):
        tag = f"ad{i}"
        inputs[tag] = f"creative-{i}"
        show_body.append(DefineDynamic(f"v{i}", tag))
        show_body.append(BuildUrl(f"u{i}", (
            UrlPart("literal", f"http://ads.example/{i}/"),
            UrlPart("var", f"v{i}"),
        )))
        show_body.append(NetCall("fetch", f"u{i}"))
    app = App(
        name="adwall",
        callbacks=(
            Callback("browse", ()),
            Callback("show", tuple(show_body)),
        ),
        ccfg=Ccfg(("w0",), (("browse", "w0"), ("w0", "show"))),
        netlib=(NetMethodDecl("fetch", 800),),
    )
    trace = Trace((
        TraceStep("browse", 0, {}),
        TraceStep("show", 2000, inputs),
    ))
    p = run_pipeline(app, trace, NetModel())
    return p.base, p.opt


def test_criterion_9_hit_rate_reporting(weather_pipeline):
    base13, opt13 = _one_hit_in_13_logs()
    rate = hit_rate(opt13)
    m13 = compute_effectiveness(base13, opt13)

    opt_w = weather_pipeline.opt
    m_w = compute_effectiveness(weather_pipeline.base, opt_w)

    summary = summarize_pairs([m13, m_w])
    text = format_summary(summary)
    ok = (
        len(opt13.demands()) == 13
        and rate == pytest.approx(1 / 13)
        and summary["hit_rate"]["min"] == pytest.approx(1 / 13)
        and "7.7%" in text
        and "Hit Rate" in text and "Latency Reduction" in text
    )
    _report(
        f"criterion 9: 1-hit-in-13 trace reports {rate * 100:.1f}% hit rate "
        "in a min/max/avg/stddev summary",
        ok,
    )
