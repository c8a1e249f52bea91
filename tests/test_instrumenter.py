import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appgen import make_app, random_hints
from fetchahead.app_ir import (
    BuildUrl,
    DefineDynamic,
    DefineStatic,
    FetchFromProxy,
    NetCall,
    SendDefinition,
    Transition,
    TriggerPrefetch,
    parse_app,
)
from fetchahead.callback_analysis import FetchSignature, TriggerMap
from fetchahead.codec import encode
from fetchahead.cli import run_pipeline
from fetchahead.errors import InstrumentError
from fetchahead.instrumenter import (
    Hints,
    RewriteRule,
    StaticUrlHint,
    TriggerHint,
    hints_from_json_obj,
    instrument,
)
from fetchahead.metrics import compute_effectiveness
from fetchahead.string_analysis import Concrete, DefinitionSpot, Unknown, UrlMap, analyze_urls


def test_weather_insertion_sites(weather_pipeline):
    """Each rewrite lands at its expected position in each callback."""
    ia = weather_pipeline.ia
    app = ia.app

    on_create = app.index.bodies["onCreate"]
    assert isinstance(on_create[0], DefineStatic)
    assert on_create[1] == TriggerPrefetch(("url1", "url2", "url3"))
    assert len(on_create) == 2

    on_item = app.index.bodies["onItemSelected"]
    assert isinstance(on_item[0], DefineDynamic)
    assert on_item[1] == SendDefinition("cityName", "url2", 3)
    assert on_item[2] == TriggerPrefetch(("url1", "url2", "url3"))
    assert len(on_item) == 3

    on_click = app.index.bodies["onClick"]
    assert isinstance(on_click[0], DefineDynamic)
    assert on_click[1] == SendDefinition("cityId", "url3", 3)
    assert all(isinstance(st, BuildUrl) for st in on_click[2:5])
    assert on_click[5:8] == (
        FetchFromProxy("url1", "getInputStream"),
        FetchFromProxy("url2", "getInputStream"),
        FetchFromProxy("url3", "getInputStream"),
    )
    assert isinstance(on_click[8], Transition)
    assert len(on_click) == 9
    # no trigger point in onClick: it is not a trigger callback
    assert not any(isinstance(st, TriggerPrefetch) for st in on_click)


def test_static_app_only_redirects():
    app = parse_app("""
app s
netmethod get latency=5
callback c {
  url u = "http://a/"
  get(u)
}
ccfg {
}
""")
    ia = instrument(app, analyze_urls(app), TriggerMap({}), FetchSignature("get"))
    body = ia.app.index.bodies["c"]
    assert isinstance(body[0], BuildUrl)
    assert body[1] == FetchFromProxy("u", "get")
    assert not any(isinstance(st, (SendDefinition, TriggerPrefetch)) for st in body)


def test_non_signature_netcalls_untouched():
    app = parse_app("""
app two
netmethod open latency=5
netmethod read latency=800
callback c {
  url u = "http://a/"
  open(u)
  read(u)
}
ccfg {
}
""")
    ia = instrument(app, analyze_urls(app), TriggerMap({}), FetchSignature("read"))
    body = ia.app.index.bodies["c"]
    assert body[1] == NetCall("open", "u")
    assert body[2] == FetchFromProxy("u", "read")


def test_one_definition_feeding_two_urls():
    app = parse_app("""
app multi
netmethod get latency=5
callback c {
  let v = input(t)
  url a = "http://a/" + v
  url b = "http://b/" + "x" + v
  get(a)
  get(b)
}
ccfg {
}
""")
    url_map = analyze_urls(app)
    # derived oracle: scan the url map for (url, part) pairs served by v
    served = [
        (url_id, state_idx + 1)
        for url_id, parts in url_map.entries.items()
        for state_idx, state in enumerate(parts)
        if isinstance(state, Unknown)
    ]
    assert served == [("a", 2), ("b", 3)]
    ia = instrument(app, url_map, TriggerMap({}), FetchSignature("get"))
    body = ia.app.index.bodies["c"]
    assert body[1] == SendDefinition("v", "a", 2)
    assert body[2] == SendDefinition("v", "b", 3)


def test_insertion_order_survives_url_map_round_trip():
    """URLs declared out of alphabetical order: a JSON round trip of the
    url map must not change the instrumented output."""
    from fetchahead.string_analysis import url_map_from_json_obj, url_map_to_json_obj
    import json

    app = parse_app("""
app zorder
netmethod get latency=5
callback c {
  let v = input(t)
  url zebra = "http://z/" + v
  url alpha = "http://a/" + v
  get(zebra)
  get(alpha)
}
ccfg {
}
""")
    url_map = analyze_urls(app)
    round_tripped = url_map_from_json_obj(
        json.loads(json.dumps(url_map_to_json_obj(url_map), sort_keys=True))
    )
    assert list(round_tripped.entries) != list(url_map.entries)  # order moved
    sig = FetchSignature("get")
    direct = instrument(app, url_map, TriggerMap({}), sig)
    via_json = instrument(app, round_tripped, TriggerMap({}), sig)
    assert direct.app == via_json.app
    body = direct.app.index.bodies["c"]
    # sends follow URL program order: zebra (part 2) before alpha (part 2)
    assert body[1] == SendDefinition("v", "zebra", 2)
    assert body[2] == SendDefinition("v", "alpha", 2)


def test_double_instrumentation_rejected(weather_pipeline):
    p = weather_pipeline
    with pytest.raises(InstrumentError, match="already instrumented"):
        instrument(p.ia.app, p.url_map, p.trigger_map, p.sig)


def test_trigger_map_with_unknown_callback_rejected(weather_app, weather_pipeline):
    p = weather_pipeline
    with pytest.raises(InstrumentError, match="unknown callback"):
        instrument(weather_app, p.url_map, TriggerMap({"ghost": ("url1",)}), p.sig)


def test_trigger_map_entry_needs_a_url(weather_app, weather_pipeline):
    # an empty entry would write trigger_prefetch(), which the parser rejects
    p = weather_pipeline
    trigger_map = TriggerMap({"onCreate": (), "onItemSelected": ("url1",)})
    with pytest.raises(InstrumentError, match="^trigger map entry 'onCreate' "
                                              "has an empty url list$"):
        instrument(weather_app, p.url_map, trigger_map, p.sig)


@pytest.mark.parametrize("container, stmt", [
    ("ghost", 0), ("onItemSelected", 99), ("onItemSelected", -1),
])
def test_url_map_spot_outside_the_app_rejected(weather_app, weather_pipeline,
                                               container, stmt):
    p = weather_pipeline
    url_map = _with_url2_part3(p.url_map, DefinitionSpot(container, stmt, 3, 1))
    with pytest.raises(InstrumentError, match="is not a definition"):
        instrument(weather_app, url_map, p.trigger_map, p.sig)


def test_url_map_url_outside_the_app_rejected(weather_app, weather_pipeline):
    p = weather_pipeline
    url_map = UrlMap({**p.url_map.entries, "ghost": (Concrete("http://x/"),)})
    with pytest.raises(InstrumentError, match="unknown url 'ghost'"):
        instrument(weather_app, url_map, p.trigger_map, p.sig)


@pytest.mark.parametrize("m", [0, 4, 99])
def test_url_map_spot_part_outside_the_url_rejected(weather_app, weather_pipeline, m):
    # url2 has three parts; without the check the rewritten app holds a
    # send_definition that its own parser rejects
    p = weather_pipeline
    url_map = _with_url2_part3(p.url_map,
                               DefinitionSpot("onItemSelected", 0, m, 1))
    with pytest.raises(InstrumentError, match=rf"missing part url2\[{m}\]"):
        instrument(weather_app, url_map, p.trigger_map, p.sig)


def _with_url2_part3(url_map, spot):
    """The url map with `spot` as the only definition spot of url2's
    third part, so every url keeps its number of parts."""
    parts = url_map.entries["url2"]
    return UrlMap({**url_map.entries, "url2": (*parts[:2], Unknown((spot,)))})


def test_url_map_that_leaves_out_a_url_rejected(weather_app, weather_pipeline):
    p = weather_pipeline
    entries = dict(p.url_map.entries)
    del entries["url1"]
    with pytest.raises(InstrumentError, match="url map leaves out url 'url1'"):
        instrument(weather_app, UrlMap(entries), p.trigger_map, p.sig)


def test_inserted_statements_say_why_they_are_there(weather_pipeline):
    """Each inserted statement names what it serves: the trigger point
    the trigger map's URLs, a send_definition the definition spot's
    (url, part), a redirect the fetch it replaced."""
    p = weather_pipeline
    bodies = p.ia.app.index.bodies
    assert bodies["onCreate"][1] == TriggerPrefetch(p.trigger_map.entries["onCreate"])
    spot = p.url_map.entries["url2"][2].spots[0]
    assert (spot.container, spot.stmt_index) == ("onItemSelected", 0)
    assert bodies["onItemSelected"][1] == SendDefinition("cityName", "url2",
                                                         spot.part_index)
    assert bodies["onClick"][5] == FetchFromProxy("url1", "getInputStream")


def _hinted(weather_app, p, hints):
    return instrument(weather_app, p.url_map, p.trigger_map, p.sig, hints)


def test_launch_hint_inserts_at_position_zero(weather_app, weather_pipeline):
    hints = Hints(
        extra_trigger_entries=(TriggerHint("onCreate", ("urlHome",), at="launch"),),
        extra_static_urls=(StaticUrlHint("urlHome", "http://weatherapi/home"),),
    )
    hinted = _hinted(weather_app, weather_pipeline, hints)
    on_create = hinted.app.index.bodies["onCreate"]
    assert on_create[0] == TriggerPrefetch(("urlHome",))
    # the statements of the unhinted rewrite follow, one further down
    assert on_create[1:] == weather_pipeline.ia.app.index.bodies["onCreate"]
    assert on_create[2] == TriggerPrefetch(("url1", "url2", "url3"))


def test_end_hint_merges_into_trailing_trigger(weather_app, weather_pipeline):
    hints = Hints(
        extra_trigger_entries=(TriggerHint("onItemSelected", ("urlHome", "url1")),),
        extra_static_urls=(StaticUrlHint("urlHome", "http://weatherapi/home"),),
    )
    hinted = _hinted(weather_app, weather_pipeline, hints)
    body = hinted.app.index.bodies["onItemSelected"]
    # the trigger map's URLs first, then the hint's new one
    assert body[-1] == TriggerPrefetch(("url1", "url2", "url3", "urlHome"))
    assert sum(isinstance(st, TriggerPrefetch) for st in body) == 1
    assert body[:-1] == weather_pipeline.ia.app.index.bodies["onItemSelected"][:-1]


def test_hints_on_a_callback_that_is_no_trigger():
    # launch entries go first, the last one first; the end entries share
    # one trailing trigger_prefetch, each URL listed once, also when the
    # first end entry repeats it
    app = parse_app("""
app h
netmethod fetch latency=100
callback a {
}
callback b {
  url u = "http://h/"
  fetch(u)
}
ccfg {
  wait w
  a -> w
  w -> b
}
""")
    hints = Hints(
        extra_trigger_entries=(
            TriggerHint("b", ("x",), at="launch"),
            TriggerHint("b", ("u", "x", "u")),
            TriggerHint("b", ("y",), at="launch"),
            TriggerHint("b", ("x", "y", "y")),
        ),
        extra_static_urls=(StaticUrlHint("x", "http://x/"),
                           StaticUrlHint("y", "http://y/")),
    )
    sig = FetchSignature("fetch")
    ia = instrument(app, analyze_urls(app), TriggerMap({"a": ("u",)}), sig, hints)
    assert ia.app.index.bodies["b"] == (
        TriggerPrefetch(("y",)),
        TriggerPrefetch(("x",)),
        app.index.bodies["b"][0],
        FetchFromProxy("u", "fetch"),
        TriggerPrefetch(("u", "x", "y")),
    )
    # the trigger map's callback keeps its own trigger point
    assert ia.app.index.bodies["a"] == (TriggerPrefetch(("u",)),)


def test_empty_hints_identity(weather_app, weather_pipeline):
    ia = weather_pipeline.ia
    hinted = _hinted(weather_app, weather_pipeline, Hints())
    assert hinted.app == ia.app


def test_hint_unknown_callback_rejected(weather_app, weather_pipeline):
    with pytest.raises(InstrumentError, match="unknown callback"):
        _hinted(weather_app, weather_pipeline, Hints(
            extra_trigger_entries=(TriggerHint("nope", ("url1",)),),
        ))


def test_hint_unknown_url_rejected(weather_app, weather_pipeline):
    with pytest.raises(InstrumentError, match="unknown url"):
        _hinted(weather_app, weather_pipeline, Hints(
            extra_trigger_entries=(TriggerHint("onCreate", ("ghost",)),),
        ))


def test_hint_trigger_entry_needs_a_url(weather_app, weather_pipeline):
    with pytest.raises(InstrumentError,
                       match="^hint trigger entry has an empty url list$"):
        _hinted(weather_app, weather_pipeline, Hints(
            extra_trigger_entries=(TriggerHint("onCreate", ()),),
        ))


def test_hint_url_may_not_shadow_existing(weather_app, weather_pipeline):
    with pytest.raises(InstrumentError, match="already exists"):
        _hinted(weather_app, weather_pipeline, Hints(
            extra_static_urls=(StaticUrlHint("url1", "http://elsewhere/"),),
        ))


def test_rewrite_rule_bounds_checked(weather_app, weather_pipeline):
    with pytest.raises(InstrumentError, match="missing part"):
        _hinted(weather_app, weather_pipeline, Hints(
            rewrite_rules=(RewriteRule("url1", 9, "a", "b"),),
        ))


def test_hints_json_round_trip():
    hints = Hints(
        extra_trigger_entries=(TriggerHint("c", ("u1", "u2"), "launch"),),
        extra_static_urls=(StaticUrlHint("u9", "http://x/"),),
        rewrite_rules=(RewriteRule("u1", 2, "small", "large"),),
    )
    assert hints_from_json_obj(encode(hints)) == hints


def test_behavioral_transparency_on_random_apps():
    """Original and instrumented apps demand the same (url id, url)
    sequence under the same trace."""
    for seed in range(40):
        app, trace, net = make_app(random.Random(seed))
        p = run_pipeline(app, trace, net, sig=FetchSignature("fetch"))
        base, opt = p.base, p.opt
        assert [(d.url_id, d.url) for d in base.demands()] == \
               [(d.url_id, d.url) for d in opt.demands()]
        # compute_effectiveness accepts them (would raise otherwise)
        compute_effectiveness(base, opt)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_trigger_points_of_random_hints(seed):
    """Each callback starts with one trigger_prefetch per launch entry,
    the last entry first. When it has a trailing one, that lists the
    trigger map's URLs, then each end entry's URLs not listed yet. The
    statements between are those of the unhinted rewrite."""
    rng = random.Random(seed)
    app, _, _ = make_app(rng)
    hints = random_hints(rng, app)
    url_ids = list(app.index.url_spots)
    trigger_map = TriggerMap({
        name: tuple(rng.choices(url_ids, k=rng.randint(1, 3)))
        for name in app.callback_names if rng.random() < 0.5
    })
    url_map, sig = analyze_urls(app), FetchSignature("fetch")
    bodies = instrument(app, url_map, trigger_map, sig, hints).app.index.bodies
    plain = instrument(app, url_map, TriggerMap({}), sig).app.index.bodies
    for name in app.callback_names:
        body = bodies[name]
        entries = [e for e in hints.extra_trigger_entries if e.callback == name]
        launches = [TriggerPrefetch(e.url_ids) for e in reversed(entries)
                    if e.at == "launch"]
        assert list(body[:len(launches)]) == launches
        tail = list(trigger_map.entries.get(name, ()))
        for uid in (u for e in entries if e.at == "end" for u in e.url_ids):
            if uid not in tail:
                tail.append(uid)
        if tail:
            assert body[-1] == TriggerPrefetch(tuple(tail))
            body = body[:-1]
        assert body[len(launches):] == plain[name]
