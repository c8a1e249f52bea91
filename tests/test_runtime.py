import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appgen import LastDefinitions, make_app, random_hints
from costs import bytecodes, perfbench_gen
from fetchahead import runtime
from fetchahead.app_ir import (
    App,
    BuildUrl,
    Call,
    Callback,
    HelperMethod,
    NetCall,
    UrlPart,
    parse_app,
    print_app,
)
from fetchahead.callback_analysis import FetchSignature
from fetchahead.cli import main, run_benchmark, run_pipeline
from fetchahead.codec import encode
from fetchahead.errors import AnalysisError, ParseError, RunError
from fetchahead.instrumenter import Hints, RewriteRule
from fetchahead.mbm import generate_case
from fetchahead.metrics import compute_oracle
from fetchahead.runtime import (
    Costs,
    Demand,
    DefinitionUpdate,
    NetModel,
    Prefetch,
    Proxy,
    RunLog,
    Trace,
    TraceStep,
    TriggerEval,
    _BATCH,
    run_log_from_json_obj,
    run_trace,
    trace_from_json_obj,
)
from fetchahead.string_analysis import Concrete, UrlMap, analyze_urls
import json


def _case_pipeline(case_id, latency, think):
    app, trace, net, _ = generate_case(case_id, latency, think)
    return run_pipeline(app, trace, net)


# ---------------------------------------------------------------------------
# run_trace timelines
# ---------------------------------------------------------------------------

def test_hit_case_timeline_cache():
    # prefetch at trigger end (t=0), ready at 1000, demand at 2000
    log = _case_pipeline(1, 1000, 2000).opt
    (prefetch,) = log.prefetches()
    assert (prefetch.issued_at, prefetch.ready_at) == (0, 1000)
    (demand,) = log.demands()
    assert demand.at == 2000
    assert demand.served_from == "cache"
    assert demand.response_time_ms == 0


def test_hit_case_timeline_waited():
    # demand at 300 waits until the prefetch lands at 1000
    log = _case_pipeline(1, 1000, 300).opt
    (demand,) = log.demands()
    assert demand.served_from == "waited"
    assert demand.waited_ms == 700
    assert demand.response_time_ms == 700
    # the prefetch is the only origin fetch
    assert len(log.prefetches()) == 1
    assert not [d for d in log.demands() if d.served_from == "origin"]


def test_original_app_all_origin():
    log = _case_pipeline(1, 1000, 2000).base
    assert not log.instrumented
    for d in log.demands():
        assert d.served_from == "origin"
        assert d.response_time_ms == 1000
        assert d.via == "direct"


def test_invalid_trace_step_message(weather_app, weather_net):
    bad = Trace((
        TraceStep("onCreate", 0, {}),
        TraceStep("DisplayActivity.onCreate", 0, {}),  # only via goto
    ))
    with pytest.raises(RunError, match="invalid trace step 1"):
        run_trace(weather_app, bad, weather_net)


def test_trace_must_start_at_entry(weather_app, weather_net):
    bad = Trace((TraceStep("onClick", 0, {"cityIdText": "1"}),))
    with pytest.raises(RunError, match="invalid trace step 0"):
        run_trace(weather_app, bad, weather_net)


def test_goto_moves_current_screen(weather_app, weather_net):
    # after onClick's goto, the app sits on DisplayActivity.onCreate,
    # which has no outgoing wait edges: no further step is valid
    trace = Trace((
        TraceStep("onCreate", 0, {}),
        TraceStep("onClick", 100, {"cityIdText": "1"}),
        TraceStep("onClick", 100, {"cityIdText": "2"}),
    ))
    with pytest.raises(RunError, match="invalid trace step 2"):
        run_trace(weather_app, trace, weather_net)


def test_missing_input_is_an_error(weather_app, weather_net):
    trace = Trace((
        TraceStep("onCreate", 0, {}),
        TraceStep("onClick", 0, {}),
    ))
    with pytest.raises(RunError, match="missing input"):
        run_trace(weather_app, trace, weather_net)


def test_instrumented_requires_seed_map(weather_pipeline, weather_trace,
                                       tmp_path, capsys):
    # `run_trace` trusts its arguments; `run` checks what it reads
    (tmp_path / "optimized.papp").write_text(print_app(weather_pipeline.ia.app))
    (tmp_path / "trace.json").write_text(json.dumps(encode(weather_trace)))
    out = tmp_path / "runlog.json"
    assert main(["run", "--app", str(tmp_path / "optimized.papp"),
                 "--trace", str(tmp_path / "trace.json"),
                 "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "error: an instrumented app requires a seed url map\n")
    assert not out.exists()


def test_unselected_city_defaults_to_empty(weather_app, weather_net):
    # skipping onItemSelected leaves cityName unset; url2 still resolves
    trace = Trace((
        TraceStep("onCreate", 0, {}),
        TraceStep("onClick", 2000, {"cityIdText": "842"}),
    ))
    log = run_trace(weather_app, trace, weather_net)
    urls = [d.url for d in log.demands()]
    assert urls[1] == "http://weatherapi/weather?&cityName="


def test_skipped_selection_scenario(weather_pipeline, weather_net):
    # url1 from cache; url2 and url3 go to the origin
    trace = Trace((
        TraceStep("onCreate", 0, {}),
        TraceStep("onClick", 2000, {"cityIdText": "842"}),
    ))
    log = run_trace(weather_pipeline.ia, trace, weather_net,
                    seed_url_map=weather_pipeline.url_map)
    served = {d.url_id: d.served_from for d in log.demands()}
    assert served == {"url1": "cache", "url2": "origin", "url3": "origin"}


def test_full_weather_scenario(weather_pipeline):
    log = weather_pipeline.opt
    first, second = log.trigger_evals()
    assert first.issued == ("url1",)
    assert first.skipped_unknown == ("url2", "url3")
    assert second.issued == ("url2",)
    assert second.skipped_known_cached == ("url1",)
    served = {d.url_id: d.served_from for d in log.demands()}
    assert served == {"url1": "cache", "url2": "cache", "url3": "origin"}


def test_run_log_json_round_trip(weather_pipeline):
    log = weather_pipeline.opt
    restored = run_log_from_json_obj(json.loads(log.canonical_json()))
    assert restored.canonical_json() == log.canonical_json()


def test_determinism_byte_identical(weather_pipeline, weather_trace, weather_net):
    p = weather_pipeline
    second = run_trace(p.ia, weather_trace, weather_net, seed_url_map=p.url_map)
    assert p.opt.canonical_json() == second.canonical_json()


@pytest.mark.parametrize("event_type",
                         [Prefetch, Demand, DefinitionUpdate, TriggerEval])
def test_run_log_events_keep_their_slots(weather_pipeline, event_type):
    """A long run builds tens of thousands of events: none carries a
    `__dict__`, and an event equals any event with the same fields."""
    event = next(ev for ev in weather_pipeline.opt.events
                 if type(ev) is event_type)
    assert not hasattr(event, "__dict__")
    copy = event_type(**{f.name: getattr(event, f.name)
                         for f in dataclasses.fields(event)})
    assert copy == event and copy is not event


def test_configured_costs_accumulate(weather_pipeline, weather_trace):
    from fetchahead.runtime import Costs

    net = NetModel(costs=Costs(send_definition_ms=1,
                               trigger_prefetch_ms=2,
                               fetch_from_proxy_ms=3))
    log = run_trace(weather_pipeline.ia, weather_trace, net,
                    seed_url_map=weather_pipeline.url_map)
    assert log.overhead_ms == {
        "send_definition": 2,   # cityName, cityId
        "trigger_prefetch": 4,  # onCreate, onItemSelected
        "fetch_from_proxy": 9,  # three demands
    }
    assert log.total_overhead_ms() == 15


# ---------------------------------------------------------------------------
# proxy operations in isolation
# ---------------------------------------------------------------------------

def _weather_proxy(weather_pipeline, hints=None) -> Proxy:
    """Prefetches cost the 800 ms that the app declares."""
    return Proxy(weather_pipeline.ia.app, weather_pipeline.url_map.runtime_seed(),
                 NetModel(), hints)


def _proxy(runtime_map, latency_ms=100, threshold=5, server=None) -> Proxy:
    """A proxy over an app with no statements, seeded with `runtime_map`
    (None for a part not known statically); every origin fetch costs
    `latency_ms`, and every prefetch 0 ms (the app has no
    fetch_from_proxy)."""
    net = NetModel(default_latency_ms=latency_ms, server=server or {},
                   threshold=threshold)
    return Proxy(App("isolated"),
                 {url_id: list(parts) for url_id, parts in runtime_map.items()},
                 net)


def test_send_definition_updates_map(weather_pipeline):
    state = _weather_proxy(weather_pipeline)
    state.send_definition("url2", 3, "Gothenburg", 5)
    assert state.runtime_url_map["url2"] == [
        "http://weatherapi/", "weather?&cityName=", "Gothenburg",
    ]


def test_send_definition_last_write_wins(weather_pipeline):
    state = _weather_proxy(weather_pipeline)
    state.send_definition("url2", 3, "Oslo", 0)
    state.send_definition("url2", 3, "Bergen", 0)
    assert state.runtime_url_map["url2"][2] == "Bergen"


def test_send_definition_applies_rewrite_rules(weather_pipeline):
    rules = (RewriteRule("url2", 3, "small", "large"),)
    state = _weather_proxy(weather_pipeline, hints=Hints(rewrite_rules=rules))
    ev = state.send_definition("url2", 3, "img1_small", 0)
    assert ev.value == "img1_large"
    assert state.runtime_url_map["url2"][2] == "img1_large"


def test_send_definition_unknown_part_errors(weather_pipeline, weather_text):
    """`Proxy.send_definition` trusts its part: neither an app nor a seed
    url map that would send to a part the proxy lacks gets past its
    check. The parser holds each send_definition to a part of an app URL,
    and `UrlMap.check` holds the seed to the app's URLs and part counts."""
    on_item = "  let cityName = input(citySelection)\n"
    for url_id, m, message in (("url2", 9, "url 'url2' has no part 9"),
                               ("ghost", 1, "unresolved url 'ghost'")):
        text = weather_text.replace(
            on_item, f"{on_item}  send_definition(cityName, {url_id}, {m})\n")
        with pytest.raises(ParseError, match=message):
            parse_app(text)
    app, url_map = weather_pipeline.ia.app, weather_pipeline.url_map
    short = UrlMap({**url_map.entries, "url2": url_map.entries["url2"][:2]})
    with pytest.raises(AnalysisError, match="url map gives url 'url2' 2 parts"):
        short.check(app)
    ghost = UrlMap({**url_map.entries, "ghost": (Concrete("http://x/"),)})
    with pytest.raises(AnalysisError, match="url map names unknown url 'ghost'"):
        ghost.check(app)


def test_trigger_prefetch_only_known_uncached(weather_pipeline):
    state = _weather_proxy(weather_pipeline)
    ev, *prefetches = state.trigger_prefetch(
        "onCreate", ("url1", "url2", "url3"), 0)
    assert ev.issued == ("url1",)
    assert ev.skipped_unknown == ("url2", "url3")
    assert len(prefetches) == 1
    assert prefetches[0].ready_at == 800


def test_trigger_prefetch_skips_cached(weather_pipeline):
    state = _weather_proxy(weather_pipeline)
    state.trigger_prefetch("onCreate", ("url1",), 0)
    ev, *prefetches = state.trigger_prefetch("again", ("url1",), 10)
    assert ev.skipped_known_cached == ("url1",)
    assert not prefetches


def test_trigger_prefetch_threshold():
    state = _proxy({f"u{i}": [f"http://x/{i}"] for i in range(7)}, threshold=5)
    ev, *prefetches = state.trigger_prefetch(
        "c", tuple(f"u{i}" for i in range(7)), 0)
    assert len(ev.issued) == 5
    assert len(prefetches) == 5
    assert len(ev.considered) == 7
    assert not ev.skipped_known_cached and not ev.skipped_unknown


def test_same_concrete_url_not_prefetched_twice():
    # two url ids resolving to the same string: one fetch, one skip
    state = _proxy({"a": ["http://x/same"], "b": ["http://x/same"]})
    ev, *prefetches = state.trigger_prefetch("c", ("a", "b"), 0)
    assert ev.issued == ("a",)
    assert ev.skipped_known_cached == ("b",)
    assert len(prefetches) == 1


def _loop_trigger_prefetch(proxy, callback, url_ids, now):
    """`Proxy.trigger_prefetch` as one step per URL: the reference that
    its all-cached early return must match."""
    considered = tuple(url_ids)
    issued, skipped_cached, skipped_unknown, prefetches = [], [], [], []
    for url_id in considered:
        url = proxy.known.get(url_id)
        if url is None:
            skipped_unknown.append(url_id)
        elif url in proxy.cache:
            skipped_cached.append(url_id)
        elif len(issued) < proxy.net.threshold:
            ready_at = now + proxy.prefetch_ms
            proxy.cache[url] = (ready_at, proxy.net.payload_for(url))
            issued.append(url_id)
            prefetches.append(Prefetch(url_id, url, now, ready_at))
    return [TriggerEval(callback, now, considered, tuple(issued),
                        tuple(skipped_cached), tuple(skipped_unknown)),
            *prefetches]


# ids "a" to "e" may be in the map, "z" never is; two ids can share a URL
_trigger_ids = st.sampled_from("abcdez")
_trigger_urls = st.sampled_from(["http://x/1", "http://x/2", "http://x/3"])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from("abcde"),
                       st.one_of(st.none(), _trigger_urls), max_size=5),
       st.lists(_trigger_ids, max_size=8), st.integers(1, 5),
       st.integers(0, 50), st.booleans(), st.data())
def test_trigger_prefetch_is_the_per_url_loop(entries, url_ids, threshold,
                                              now, cache_all, data):
    """Random maps (None for an id whose part is not known yet), caches
    with ready and waiting entries, thresholds of 1 to 5, and trigger
    lists with repeated and unknown ids. With `cache_all`, every known
    URL is cached, so the all-cached evaluations are drawn often."""
    runtime_map = {url_id: [url] for url_id, url in entries.items()}
    cached = data.draw(st.lists(_trigger_urls, unique=True))
    if cache_all:
        cached = [url for url in entries.values() if url is not None]
    ready = {url: (data.draw(st.integers(0, 100)), f"p:{url}")
             for url in cached}
    proxy, reference = (_proxy(runtime_map, threshold=threshold)
                        for _ in range(2))
    for p in (proxy, reference):
        p.cache.update(ready)
        p.prefetch_ms = 40
    considered = tuple(url_ids)
    events = proxy.trigger_prefetch("c", considered, now)
    assert events == _loop_trigger_prefetch(reference, "c", considered, now)
    assert proxy.cache == reference.cache
    ev = events[0]
    if len(ev.skipped_known_cached) == len(considered):
        assert ev.skipped_known_cached is considered


def test_an_all_cached_trigger_point_costs_the_same_for_any_list_length():
    """A trigger point whose URLs are all cached runs no Python step per
    URL: the same bytecodes for 48 ids as for 480."""
    ids = tuple(f"u{i}" for i in range(480))
    proxy = _proxy({url_id: [f"http://x/{url_id}"] for url_id in ids})
    for url_id in ids:
        proxy.hold(proxy.known[url_id])
    counts = [bytecodes(proxy.trigger_prefetch, "c", ids[:n], 0)
              for n in (48, 480)]
    assert counts[0] == counts[1], counts


def _definition_costs(defs: int, sends: int) -> tuple[int, int]:
    """The bytecodes of the optimized run and of the oracle on one step
    of an instrumented app whose callback defines `v` `defs` times, sends
    it `sends` times, then builds and fetches a URL that reads it."""
    body = ["  let v = input(t)"] * defs + ["  send_definition(v, u, 2)"] * sends
    app = parse_app("\n".join([
        "app counted", "netmethod get latency=10", "callback c {", *body,
        '  url u = "http://x/" + v', "  fetch_from_proxy(get, u)", "}",
        "ccfg {", "}", ""]))
    app.index  # built once, outside the counts
    url_map, trace = analyze_urls(app), Trace((TraceStep("c", 0, {"t": "a"}),))
    return (bytecodes(run_trace, app, trace, NetModel(), url_map),
            bytecodes(compute_oracle, app, trace))


def test_a_definition_costs_each_walk_one_hook_call():
    """One more send_definition costs the optimized run at most 104
    bytecodes: the walk's test and variable check, `_Session.send_definition`,
    `Proxy.send_definition`, which writes the part itself, and the event.
    One more definition costs the oracle at most 92: the walk's, then
    `Replay.define`, which keeps no record of its own, and one
    `Proxy.set_parts` call for all its slots. Before the hooks were cut
    (Python 3.11) they cost 142 and 105, with `Proxy.set_part` called once
    per slot and a `send_definition` tested eighth, and the oracle cost 99
    while it kept each variable's last definition; a hop or a store put
    back into either chain fails this."""
    run, oracle = _definition_costs(1, 1)
    assert _definition_costs(1, 2)[0] - run <= 104
    assert _definition_costs(2, 1)[1] - oracle <= 92


def test_fetch_from_proxy_three_ways():
    state = _proxy({"u": ["http://x/"]}, latency_ms=500,
                   server={"http://x/": "P"})

    origin = state.fetch_from_proxy("u", "http://x/", 0, "get")
    assert origin.served_from == "origin"
    assert origin.response_time_ms == 500
    assert origin.payload == "P"

    # cached now (ready at 500); a demand at 200 waits 300
    waited = state.fetch_from_proxy("u", "http://x/", 200, "get")
    assert waited.served_from == "waited"
    assert waited.waited_ms == 300

    cached = state.fetch_from_proxy("u", "http://x/", 600, "get")
    assert cached.served_from == "cache"
    assert cached.response_time_ms == 0


def test_stale_prefetch_misses_on_different_url():
    # prefetched ...v1, demanded ...v2: exact-string keys force a miss
    state = _proxy({"u": ["http://x/", "v1"]})
    state.trigger_prefetch("c", ("u",), 0)
    demand = state.fetch_from_proxy("u", "http://x/v2", 50, "get")
    assert demand.served_from == "origin"


def test_a_prefetch_costs_the_proxy_fetch_method(weather_pipeline):
    for net, ms in ((NetModel(), 800),
                    (NetModel(per_method={"getInputStream": 300}), 300),
                    (NetModel(default_latency_ms=40), 40),
                    (NetModel(per_method={"other": 5}), 800)):
        proxy = Proxy(weather_pipeline.ia.app,
                      weather_pipeline.url_map.runtime_seed(), net)
        assert proxy.prefetch_ms == ms


def test_without_fetch_from_proxy_a_prefetch_is_ready_when_issued():
    """A hand-written instrumented app that prefetches but fetches only
    directly: its demands never read the cache."""
    app = parse_app("""
app direct
netmethod get latency=300
callback c {
  url u = "http://x/"
  trigger_prefetch(u)
  get(u)
}
ccfg {
}
""")
    log = run_trace(app, Trace((TraceStep("c", 7, {}),)), NetModel(),
                    analyze_urls(app))
    (prefetch,) = log.prefetches()
    assert prefetch.ready_at == prefetch.issued_at == 7
    (demand,) = log.demands()
    assert (demand.via, demand.response_time_ms) == ("direct", 300)


def test_an_undeclared_net_method_has_no_latency():
    """Only an app built in code can call a method it does not declare."""
    app = App("a", callbacks=(Callback("c", (
        BuildUrl("u", (UrlPart("literal", "http://x/"),)), NetCall("nope", "u"),
    )),))
    with pytest.raises(RunError,
                       match="^no latency known for net method 'nope'$"):
        run_trace(app, Trace((TraceStep("c"),)), NetModel())


def test_per_method_latency_override():
    app = parse_app("""
app lat
netmethod get latency=500
callback c {
  url u = "http://x/"
  get(u)
}
ccfg {
}
""")
    trace = Trace((TraceStep("c", 0, {}),))
    log = run_trace(app, trace, NetModel(per_method={"get": 50}))
    assert log.demands()[0].response_time_ms == 50
    # a global default sits between per-method overrides and declarations
    log = run_trace(app, trace, NetModel(default_latency_ms=75))
    assert log.demands()[0].response_time_ms == 75


def test_fetch_before_build_is_an_error():
    app = parse_app("""
app early
netmethod get latency=10
callback first {
  get(u)
}
callback second {
  url u = "http://x/"
}
ccfg {
  wait w
  first -> w
  w -> second
}
""")
    trace = Trace((TraceStep("first", 0, {}),))
    with pytest.raises(RunError, match="before being built"):
        run_trace(app, trace, NetModel())


def test_send_definition_before_assignment_is_an_error():
    app = parse_app("""
app weird
netmethod get latency=10
callback c {
  send_definition(v, u, 2)
  let v = input(t)
  url u = "http://x/" + v
  get(u)
}
ccfg {
}
""")
    trace = Trace((TraceStep("c", 0, {"t": "x"}),))
    with pytest.raises(RunError, match="before 'v' is assigned"):
        run_trace(app, trace, NetModel(), seed_url_map=analyze_urls(app))


def _call_chain(calls):
    """Callback `c` reaches m1, m2, ..., m<calls> through nested calls."""
    return App("deep", callbacks=(Callback("c", (Call("m1"),)),), methods=tuple(
        HelperMethod(f"m{i}", (Call(f"m{i + 1}"),) if i < calls else ())
        for i in range(1, calls + 1)
    ))


def test_call_depth_limit():
    # the callback runs at depth 0 and each call adds one, so 64 nested
    # calls are the deepest that run
    trace = Trace((TraceStep("c"),))
    assert run_trace(_call_chain(64), trace).events == ()
    with pytest.raises(RunError, match=r"^call depth exceeded at 'm65'$"):
        run_trace(_call_chain(65), trace)


def test_net_config_validation():
    from fetchahead.runtime import net_model_from_json_obj, net_model_to_json_obj

    with pytest.raises(RunError, match="threshold"):
        net_model_from_json_obj({"threshold": 0})
    with pytest.raises(RunError, match="latency"):
        net_model_from_json_obj({"default_latency_ms": -5})
    net = NetModel(default_latency_ms=250, per_method={"get": 10},
                   server={"http://x/": "p"}, threshold=3)
    assert net_model_from_json_obj(net_model_to_json_obj(net)) == net


@pytest.mark.parametrize("kwargs, name", [
    ({"default_latency_ms": -700}, "default_latency_ms"),
    ({"per_method": {"fetch": 5, "get": -700}}, "per_method.get"),
    ({"costs": Costs(trigger_prefetch_ms=-700)}, "costs.trigger_prefetch_ms"),
], ids=["default", "per-method", "cost"])
def test_negative_net_times_rejected_in_code(kwargs, name):
    # the codec rejects these in a net config file; code that builds the
    # model directly would otherwise get a demand that ends before it starts
    with pytest.raises(RunError, match=rf"^net config {name} must be >= 0, "
                                       rf"got -700$"):
        NetModel(**kwargs)


def test_negative_think_time_rejected_by_the_run_and_the_oracle():
    # case 0 reaches its second step at -4000 ms otherwise
    app, trace, net, _ = generate_case(0, 1000, -5000)
    message = r"^invalid trace step 1: think_ms -5000 is negative$"
    with pytest.raises(RunError, match=message):
        run_trace(app, trace, net)
    with pytest.raises(RunError, match=message):
        compute_oracle(app, trace, net)
    with pytest.raises(RunError, match=message):
        run_benchmark(1000, -5000)


def test_rewrite_rule_turns_non_hit_into_hit():
    """Thumbnail-to-full-image trick: the early definition spot only knows
    the small name; a rewrite rule makes its send warm the large URL that
    the detail page will actually demand."""
    app = parse_app("""
app wallpaper
netmethod fetch latency=400
callback list {
  let img = input(thumb)
}
callback detail {
  let img = input(full)
  url u = "http://pics/" + img
  fetch(u)
}
ccfg {
  wait w
  list -> w
  w -> detail
}
""")
    trace = Trace((
        TraceStep("list", 0, {"thumb": "img1_small.jpg"}),
        TraceStep("detail", 2000, {"full": "img1_large.jpg"}),
    ))
    plain = run_pipeline(app, trace, NetModel())
    (demand,) = plain.opt.demands()
    assert demand.served_from == "origin"  # stale small-name prefetch misses

    hints = Hints(rewrite_rules=(RewriteRule("u", 2, "small", "large"),))
    log = run_pipeline(app, trace, NetModel(), hints).opt
    (demand,) = log.demands()
    assert demand.url == "http://pics/img1_large.jpg"
    assert demand.served_from == "cache"
    assert [p.url for p in log.prefetches()] == ["http://pics/img1_large.jpg"]


# ---------------------------------------------------------------------------
# cache transparency and no-duplicate-fetch over random apps
# ---------------------------------------------------------------------------

def _event_time(ev) -> int:
    return getattr(ev, "at", getattr(ev, "issued_at", 0))


def test_random_apps_cache_transparent_and_deduplicated():
    for seed in range(50):
        app, trace, net = make_app(random.Random(seed))
        log = run_pipeline(app, trace, net, sig=FetchSignature("fetch")).opt
        origin_fetches: dict[str, int] = {}
        for p in log.prefetches():
            origin_fetches[p.url] = origin_fetches.get(p.url, 0) + 1
        for d in log.demands():
            assert d.payload == net.payload_for(d.url)
            if d.served_from == "origin" and d.via == "proxy":
                origin_fetches[d.url] = origin_fetches.get(d.url, 0) + 1
        assert all(count == 1 for count in origin_fetches.values())
        # virtual-clock monotonicity over the event stream
        times = [_event_time(ev) for ev in log.events]
        assert times == sorted(times)
        # zero response time exactly when served from cache
        for d in log.demands():
            assert (d.response_time_ms == 0) == (d.served_from == "cache")


def test_definition_updates_track_last_executed_definition():
    """Write-after-write resolution: the proxy's final value for every
    dynamic part equals the last executed definition of its variable."""
    from fetchahead.runtime import DefinitionUpdate
    from fetchahead.string_analysis import Unknown

    sig = FetchSignature("fetch")
    for seed in range(60):
        app, trace, net = make_app(random.Random(seed))
        p = run_pipeline(app, trace, net, sig=sig)
        url_map, log = p.url_map, p.opt
        last_definitions = LastDefinitions(app, trace).last
        spots = app.index.url_spots
        for url_id, parts in url_map.entries.items():
            for m, (part, state) in enumerate(
                zip(spots[url_id][2].parts, parts), start=1
            ):
                if not isinstance(state, Unknown):
                    continue
                updates = [
                    e.value for e in log.events
                    if isinstance(e, DefinitionUpdate)
                    and e.url_id == url_id and e.part_index == m
                ]
                last = last_definitions.get(part.value)
                if last is not None:
                    assert updates and updates[-1] == last[2]


def _clock_violations(log: RunLog) -> list[str]:
    """Where the virtual clock runs backwards: an event time below the one
    before it or above `final_ms`, or a prefetch ready before it was
    issued."""
    problems = []
    previous = 0
    for k, ev in enumerate(log.events):
        at = _event_time(ev)
        if at < previous or at > log.final_ms:
            problems.append(f"event {k} at {at} after {previous}, "
                            f"final {log.final_ms}")
        previous = at
        if isinstance(ev, Prefetch) and ev.ready_at < ev.issued_at:
            problems.append(f"prefetch {k} ready at {ev.ready_at} before "
                            f"{ev.issued_at}")
    return problems


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([None, 0, 300, 1500]))
def test_virtual_clock_never_runs_backwards(seed, default_latency_ms):
    """Both run logs of a random app, plain and with random hints (a hint
    URL and an app URL at launch, every URL at the end of a random
    callback, and more entries at random)."""
    rng = random.Random(seed)
    app, trace, net = make_app(rng)
    hints = random_hints(rng, app)
    sig = FetchSignature("fetch")
    hinted_net = NetModel(default_latency_ms=default_latency_ms)
    for p in (run_pipeline(app, trace, net, sig=sig),
              run_pipeline(app, trace, hinted_net, hints, sig)):
        assert _clock_violations(p.base) == []
        assert _clock_violations(p.opt) == []


# ---------------------------------------------------------------------------
# canonical_json writes what json.dumps writes
# ---------------------------------------------------------------------------

# any code point, lone surrogates included, with the characters JSON
# escapes drawn often
_texts = st.text(st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from('"\\/\n\t\x00\x7f\u00e9\u2028\U0001f600'),
), max_size=6)
_ints = st.integers(-(2**70), 2**70)
_ids = st.lists(_texts, max_size=4).map(tuple)


@st.composite
def _run_logs(draw):
    """Trigger evaluations take their id tuples from a small pool drawn
    per log, as a trigger statement hands its one tuple to every
    evaluation: a tuple object shared by several events, an equal but
    distinct copy of it, and an evaluation whose skipped tuple is its
    considered tuple, as the proxy's all-cached evaluation is."""
    pool = draw(st.lists(_ids, min_size=1, max_size=3))
    pool += [tuple(list(ids)) for ids in pool]  # equal, distinct if not ()
    shared = st.sampled_from(pool)
    events = st.one_of(
        st.builds(Prefetch, _texts, _texts, _ints, _ints),
        st.builds(Demand, _texts, _texts, _ints, _texts, _ints, _ints,
                  _texts, _texts, _texts),
        st.builds(DefinitionUpdate, _texts, _ints, _texts, _ints),
        st.builds(TriggerEval, _texts, _ints, shared, shared, shared, shared),
        shared.flatmap(lambda ids: st.builds(
            TriggerEval, _texts, _ints, st.just(ids), shared, st.just(ids),
            shared)),
    )
    return RunLog(draw(_texts), draw(st.booleans()),
                  tuple(draw(st.lists(events, max_size=8))), draw(_ints),
                  draw(st.dictionaries(_texts, _ints, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(_run_logs())
def test_canonical_json_is_the_json_dumps_form(log):
    reference = json.dumps(encode(log), sort_keys=True, indent=2) + "\n"
    assert log.canonical_json() == reference


def test_canonical_json_of_an_empty_log():
    log = RunLog("a", False, (), 0, {})
    assert log.canonical_json() == json.dumps(
        encode(log), sort_keys=True, indent=2) + "\n"


_ONE_OF_EACH = (
    Prefetch("url1", "http://a/?q=\"1\"", 0, 40),
    Demand("url1", "http://a/?q=\"1\"", 50, "cache", 0, 0, "get", "proxy",
           "p\u00e9"),
    DefinitionUpdate("url2", 3, "Gothenburg\n", 60),
    TriggerEval("onClick", 70, ("url1", "url2"), ("url2",), ("url1",), ()),
)


@pytest.mark.parametrize("n", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                               2 * _BATCH + 1])
def test_canonical_json_hands_its_sink_one_piece_per_batch(n):
    """A log of n events goes to the sink in ceil(n / _BATCH) pieces, at
    least one, that join to the text `canonical_json()` returns."""
    log = RunLog("a", True, tuple(_ONE_OF_EACH[i % 4] for i in range(n)),
                 n, {"send_definition": 2, "fetch_from_proxy": 1})
    pieces = []
    assert log.canonical_json(pieces.append) is None
    assert len(pieces) == max(1, -(-n // _BATCH))
    reference = json.dumps(encode(log), sort_keys=True, indent=2) + "\n"
    # compared line by line, so that a failure names the first wrong line
    # instead of diffing a megabyte of text
    lines = reference.splitlines(keepends=True)
    assert "".join(pieces).splitlines(keepends=True) == lines
    assert log.canonical_json().splitlines(keepends=True) == lines


def test_canonical_json_writes_a_repeated_trigger_list_once(monkeypatch):
    """Each further evaluation of one trigger statement, all cached, adds
    the same bytecodes to the writer for 48 ids as for 480. The C quoter
    that the compiled id-list writer calls is swapped for a Python one,
    so that writing an id's text again would show as bytecodes."""
    namespace = runtime._ids_json.__globals__
    quote = namespace["_str"]
    monkeypatch.setitem(namespace, "_str", lambda text: quote(text))
    per_eval = []
    for n in (48, 480):
        ids = tuple(f"u{i}" for i in range(n))
        logs = [RunLog("a", True, (TriggerEval("c", 0, ids, (), ids, ()),) * k,
                       0, {}) for k in (10, 20)]
        few, many = (bytecodes(log.canonical_json) for log in logs)
        per_eval.append((many - few) / 10)
    assert per_eval[0] == per_eval[1], per_eval


# ---------------------------------------------------------------------------
# the proxy's known URL strings stay current
# ---------------------------------------------------------------------------

_parts = st.one_of(st.none(), st.text(max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from("abcd"),
                       st.lists(_parts, min_size=1, max_size=3), min_size=1),
       st.data())
def test_known_urls_follow_every_send_definition(runtime_map, data):
    state = _proxy(runtime_map)
    for _ in range(data.draw(st.integers(0, 12))):
        url_id = data.draw(st.sampled_from(sorted(runtime_map)))
        m = data.draw(st.integers(1, len(runtime_map[url_id])))
        state.send_definition(url_id, m, data.draw(st.text(max_size=3)), 0)
        expected = {
            u: "".join(parts) for u, parts in state.runtime_url_map.items()
            if all(p is not None for p in parts)
        }
        assert state.known == expected


def test_run_and_oracle_cost_is_linear_in_trace_length(monkeypatch):
    """The bytecodes of the optimized run, of the oracle, of the trace
    loader on the trace's JSON value and of the optimized run log's
    writer, on `perfbench/gen.py`'s `long_session` with 250, 500 and
    1,000 steps. The app stays the same, so only one-off costs keep a
    ratio under x2: the set-up of the proxy, the session's start, where
    the cache is still filling and a trigger point takes its URLs one by
    one, while later ones find them all cached, and the walk's compile of
    `home` on its 32nd run, at every size; no screen runs 32 times. Each
    doubling measured x1.70 and x1.82 for the run, x1.65 and x1.79 for
    the oracle, x1.80 and x2.00 for the trace loader and x1.93 and x1.97
    for the run log's writer, on Python 3.11. The counts are the same for
    every seed.
    For a cost a*n + b*n*n the ratio is 2 + 2q, where q is the quadratic share
    at the smaller size, so the bound x2.2 fails once a pass quadratic in
    the trace is a tenth of the work, such as a scan of the run log or of
    the cache on every step."""
    gen = perfbench_gen(monkeypatch)
    net = NetModel()
    counts = {"run": [], "oracle": [], "trace-load": [], "run-log-write": []}
    for steps in (250, 500, 1000):
        case = gen.long_session(1, steps=steps)[0]
        p = run_pipeline(case.app, case.trace, net)
        counts["run"].append(bytecodes(run_trace, p.ia, case.trace, net,
                                       p.url_map))
        counts["oracle"].append(bytecodes(compute_oracle, p.ia.app,
                                          case.trace, net))
        counts["trace-load"].append(bytecodes(trace_from_json_obj,
                                              encode(case.trace)))
        counts["run-log-write"].append(bytecodes(p.opt.canonical_json,
                                                 lambda piece: None))
    for stage, (a, b, c) in counts.items():
        assert b / a <= 2.2 and c / b <= 2.2, (stage, a, b, c)


# ---------------------------------------------------------------------------
# the compiled walk against the interpreter
# ---------------------------------------------------------------------------

# a run count that no walk reaches: every body stays interpreted
_NEVER = 1 << 62


def _outcome(run):
    """What `run()` returns, or its RunError as text."""
    try:
        return run()
    except RunError as e:
        return f"RunError: {e}"


def _on_each_path(monkeypatch, run, afters=(1, _NEVER)):
    """`run()` once per compile threshold in `afters`, by default with
    every body compiled at its first run, then with none compiled. Each
    setting but the last must compile some body, the last none."""
    compiles = []
    compile_body = runtime.Walk._compile

    def counted(walk, name):
        compiles.append(name)
        return compile_body(walk, name)

    monkeypatch.setattr(runtime.Walk, "_compile", counted)
    outcomes = []
    for after in afters:
        monkeypatch.setattr(runtime, "_COMPILE_AFTER", after)
        compiles.clear()
        outcomes.append(_outcome(run))
        assert bool(compiles) == (after != _NEVER), after
    return outcomes


def _pipeline_outputs(app, trace, net, hints=None, sig=None):
    p = run_pipeline(app, trace, net, hints, sig)
    return p.base.canonical_json(), p.opt.canonical_json(), p.oracle


@pytest.mark.parametrize("hinted", [False, True], ids=["plain", "hinted"])
def test_compiled_and_interpreted_walks_agree_on_random_apps(monkeypatch,
                                                             hinted):
    """Both run logs byte for byte and the oracle, on `appgen` seeds
    0-299, with every body compiled at its first run and with none."""
    sig = FetchSignature("fetch")
    for seed in range(300):
        rng = random.Random(seed)
        app, trace, net = make_app(rng)
        hints = random_hints(rng, app) if hinted else None
        compiled, interpreted = _on_each_path(
            monkeypatch, lambda: _pipeline_outputs(app, trace, net, hints, sig))
        assert compiled == interpreted, seed


def test_compiled_and_interpreted_walks_agree_on_a_long_session(monkeypatch):
    """The same on `perfbench/gen.py`'s hub app over 300 steps, where
    `home` runs 150 times: at the module's own threshold it is compiled
    in the middle of each walk."""
    case = perfbench_gen(monkeypatch).long_session(1, steps=300)[0]
    outcomes = _on_each_path(
        monkeypatch, lambda: _pipeline_outputs(case.app, case.trace, NetModel()),
        (1, runtime._COMPILE_AFTER, _NEVER))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _loop(body: str, methods: str = "") -> App:
    """An app whose callback `a` may follow itself through wait node `w`."""
    return parse_app(f"""
app looped
netmethod get latency=10
callback a {{
{body}
}}
{methods}
ccfg {{
  wait w
  a -> w
  w -> a
}}
""")


def _walks(app, steps):
    """Run `steps` (event, inputs) pairs through the runtime and through
    the oracle, each to its result or its error; the URL map seeds an
    instrumented app."""
    trace = Trace(tuple(TraceStep(event, 0, inputs) for event, inputs in steps))
    seed = analyze_urls(app) if app.is_instrumented else None
    return (_outcome(lambda: run_trace(app, trace, NetModel(), seed)
                     .canonical_json()),
            _outcome(lambda: compute_oracle(app, trace)))


@pytest.mark.parametrize("app, steps, error", [
    (_loop("  let v = input(t)\n  url u = \"http://x/\" + v\n  get(u)"),
     [("a", {"t": "x"})] * 40 + [("a", {})],
     "missing input 't' while running 'a'"),
    (_loop("  call m\n  send_definition(v, u, 2)\n  url u = \"http://x/\" + v\n"
           "  fetch_from_proxy(get, u)", "method m {\n  let v = input(t)\n}"),
     [("a", {"t": "x"})] * 40 + [("a", {})],
     "missing input 't' while running 'm'"),
    (_loop("  call m\n  get(u)", "method m {\n  url u = \"http://x/\"\n}"),
     [("a", {})] * 40, None),
    (parse_app("app early\nnetmethod get latency=10\ncallback a {\n  get(u)\n"
               "}\ncallback b {\n  url u = \"http://x/\"\n}\n"
               "ccfg {\n  wait w\n  a -> w\n  w -> b\n}\n"),
     [("a", {})], "url 'u' fetched before being built"),
    (_loop("  let v = input(t)\n  call a"), [("a", {"t": "x"})],
     "call depth exceeded at 'a'"),
    (_loop("  send_definition(v, u, 2)\n  call m\n  url u = \"http://x/\" + v\n"
           "  fetch_from_proxy(get, u)", "method m {\n  let v = input(t)\n}"),
     [("a", {})], "send_definition before 'v' is assigned"),
    (_loop("  url u = \"http://x/\"\n  get(u)\n  let v = input(t)"),
     [("a", {"t": "x"})] * 40 + [("a", {})],
     "missing input 't' while running 'a'"),
    (_loop("  call m\n  let v = input(t)",
           "method m {\n  url u = \"http://x/\"\n  get(u)\n}"),
     [("a", {"t": "x"})] * 40 + [("a", {})],
     "missing input 't' while running 'a'"),
], ids=["missing-input", "send-after-nested-call", "fetch-after-nested-call",
        "fetch-of-another-body's-url", "hot-recursion",
        "send-of-an-unset-variable", "missing-input-after-a-hook",
        "missing-input-after-a-nested-call"])
def test_a_compiled_body_fails_as_the_interpreter_does(monkeypatch, app,
                                                       steps, error):
    """A compiled body that finds an input, variable or URL missing runs
    again in the interpreter, so the runtime and the oracle each raise
    the interpreter's exact error, also where the failed read comes after
    a hook call or a nested call, or none where a nested call sets what
    the body reads. At the module's own threshold the looped callback is
    compiled after its 32nd run, and the recursive one in the middle of
    its own recursion."""
    afters = (1, runtime._COMPILE_AFTER, _NEVER) if len(steps) > 32 or \
        error == "call depth exceeded at 'a'" else (1, _NEVER)
    outcomes = _on_each_path(monkeypatch, lambda: _walks(app, steps), afters)
    assert outcomes[1:] == outcomes[:-1]
    if error is not None:
        assert outcomes[0] == (f"RunError: {error}",) * 2


class _FailingFetch(runtime.Walk):
    """A walk that records each URL it fetches and whose `net_call`
    raises KeyError on its `fail_at`-th call."""

    def __init__(self, app, fail_at):
        super().__init__(app)
        self.fetched, self.fail_at = [], fail_at

    def net_call(self, st, url):
        self.fetched.append(url)
        if len(self.fetched) == self.fail_at:
            raise KeyError("raised by the hook")


_FETCH_Y = '  url v = "http://y/"\n  get(v)'


@pytest.mark.parametrize("after", [1, runtime._COMPILE_AFTER])
@pytest.mark.parametrize("second, methods", [
    (_FETCH_Y, ""), ("  call m", f"method m {{\n{_FETCH_Y}\n}}"),
], ids=["in-the-body", "in-a-nested-call"])
def test_a_hooks_key_error_passes_through_a_compiled_body(monkeypatch,
                                                          after, second,
                                                          methods):
    """A KeyError that a hook raises is not a compiled body's own failed
    read: it reaches the caller as raised, and no body runs again, so
    each hook before it ran once. The second fetch of step 40 fails, in
    the body itself or in a method it calls."""
    monkeypatch.setattr(runtime, "_COMPILE_AFTER", after)
    app = _loop(f'  url u = "http://x/"\n  get(u)\n{second}', methods)
    walk = _FailingFetch(app, 2 * 40)
    with pytest.raises(KeyError) as raised:
        for k in range(40):
            walk.run_step(k, TraceStep("a"))
    assert raised.value.args == ("raised by the hook",)
    assert walk.fetched == ["http://x/", "http://y/"] * 40
    assert "a" in walk._compiled


def _second_step_costs(pairs: int) -> tuple[int, int]:
    """The bytecodes of the optimized run and of the oracle on the second
    step of a trace, less those on the first: one step of an app whose
    callback runs `pairs` (let, send_definition) pairs, then builds and
    fetches a URL that reads the variable."""
    body = ["  let v = input(t)", "  send_definition(v, u, 2)"] * pairs
    app = _loop("\n".join(body + ['  url u = "http://x/" + v',
                                  "  fetch_from_proxy(get, u)"]))
    app.index  # built once, outside the counts
    url_map, step = analyze_urls(app), TraceStep("a", 0, {"t": "x"})
    costs = []
    for run in (lambda trace: run_trace(app, trace, NetModel(), url_map),
                lambda trace: compute_oracle(app, trace)):
        one, two = (bytecodes(run, Trace((step,) * n)) for n in (1, 2))
        costs.append(two - one)
    return costs[0], costs[1]


def test_a_definition_pair_costs_a_compiled_body_less(monkeypatch):
    """One more `let v = input(t)` and `send_definition(v, u, 2)` in a
    body costs the optimized run 88 bytecodes and the oracle 64 when the
    body is compiled, against 139 and 113 when it is interpreted (Python
    3.11): the compiled code runs the store and the hook calls only,
    where the interpreter also runs its class tests and its checks of the
    input and the variable. The hooks' own chains are the same on both
    paths; a check or a dispatch put back into the compiled code fails
    the first bound."""
    costs = {}
    for after in (1, _NEVER):
        monkeypatch.setattr(runtime, "_COMPILE_AFTER", after)
        (run1, oracle1), (run2, oracle2) = map(_second_step_costs, (1, 2))
        costs[after] = run2 - run1, oracle2 - oracle1
    (run, oracle), (run_interpreted, oracle_interpreted) = costs.values()
    assert run <= 88 and oracle <= 64, costs
    assert run < run_interpreted and oracle < oracle_interpreted, costs
