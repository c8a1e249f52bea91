import random

import pytest

from appgen import make_app
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
from fetchahead.cli import run_pipeline
from fetchahead.errors import InstrumentError
from fetchahead.instrumenter import (
    Hints,
    RewriteRule,
    StaticUrlHint,
    TriggerHint,
    apply_hints,
    hints_from_json_obj,
    hints_to_json_obj,
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


@pytest.mark.parametrize("container, stmt", [
    ("ghost", 0), ("onItemSelected", 99), ("onItemSelected", -1),
])
def test_url_map_spot_outside_the_app_rejected(weather_app, weather_pipeline,
                                               container, stmt):
    p = weather_pipeline
    url_map = UrlMap({"url2": (Unknown((DefinitionSpot(container, stmt, 1, 1),)),)})
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
    url_map = UrlMap({**p.url_map.entries, "url2": (
        Unknown((DefinitionSpot("onItemSelected", 0, m, 1),)),
    )})
    with pytest.raises(InstrumentError, match=rf"missing part url2\[{m}\]"):
        instrument(weather_app, url_map, p.trigger_map, p.sig)


def test_provenance_records_insertions(weather_pipeline):
    ia = weather_pipeline.ia
    assert ia.provenance[("onCreate", 1)] == "trigger point"
    assert ia.provenance[("onItemSelected", 1)].startswith("definition spot")
    assert ia.provenance[("onClick", 5)] == "fetch spot redirect"


def test_launch_hint_inserts_at_position_zero(weather_pipeline):
    ia = weather_pipeline.ia
    hints = Hints(
        extra_trigger_entries=(TriggerHint("onCreate", ("urlHome",), at_launch=True),),
        extra_static_urls=(StaticUrlHint("urlHome", "http://weatherapi/home"),),
    )
    hinted = apply_hints(ia, hints)
    on_create = hinted.app.index.bodies["onCreate"]
    assert on_create[0] == TriggerPrefetch(("urlHome",))
    assert hinted.provenance[("onCreate", 0)] == "hint: prefetch at launch"
    # previously recorded provenance shifted down by one
    assert hinted.provenance[("onCreate", 2)] == "trigger point"


def test_end_hint_merges_into_trailing_trigger(weather_pipeline):
    ia = weather_pipeline.ia
    hints = Hints(
        extra_trigger_entries=(TriggerHint("onItemSelected", ("urlHome", "url1")),),
        extra_static_urls=(StaticUrlHint("urlHome", "http://weatherapi/home"),),
    )
    hinted = apply_hints(ia, hints)
    body = hinted.app.index.bodies["onItemSelected"]
    assert body[-1] == TriggerPrefetch(("url1", "url2", "url3", "urlHome"))
    assert sum(isinstance(st, TriggerPrefetch) for st in body) == 1


def test_empty_hints_identity(weather_pipeline):
    ia = weather_pipeline.ia
    assert apply_hints(ia, Hints()).app == ia.app


def test_hint_unknown_callback_rejected(weather_pipeline):
    ia = weather_pipeline.ia
    with pytest.raises(InstrumentError, match="unknown callback"):
        apply_hints(ia, Hints(
            extra_trigger_entries=(TriggerHint("nope", ("url1",)),),
        ))


def test_hint_unknown_url_rejected(weather_pipeline):
    ia = weather_pipeline.ia
    with pytest.raises(InstrumentError, match="unknown url"):
        apply_hints(ia, Hints(
            extra_trigger_entries=(TriggerHint("onCreate", ("ghost",)),),
        ))


def test_hint_url_may_not_shadow_existing(weather_pipeline):
    ia = weather_pipeline.ia
    with pytest.raises(InstrumentError, match="already exists"):
        apply_hints(ia, Hints(
            extra_static_urls=(StaticUrlHint("url1", "http://elsewhere/"),),
        ))


def test_rewrite_rule_bounds_checked(weather_pipeline):
    ia = weather_pipeline.ia
    with pytest.raises(InstrumentError, match="missing part"):
        apply_hints(ia, Hints(
            rewrite_rules=(RewriteRule("url1", 9, "a", "b"),),
        ))


def test_hints_json_round_trip():
    hints = Hints(
        extra_trigger_entries=(TriggerHint("c", ("u1", "u2"), True),),
        extra_static_urls=(StaticUrlHint("u9", "http://x/"),),
        rewrite_rules=(RewriteRule("u1", 2, "small", "large"),),
    )
    assert hints_from_json_obj(hints_to_json_obj(hints)) == hints


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
