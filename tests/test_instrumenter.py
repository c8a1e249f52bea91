import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appgen import make_app, random_hints
from costs import bytecodes, perfbench_gen
from fetchahead.app_ir import (
    BuildUrl,
    DefineDynamic,
    DefineStatic,
    FetchFromProxy,
    NetCall,
    SendDefinition,
    Transition,
    TriggerPrefetch,
    build_ecg,
    parse_app,
    print_app,
)
from fetchahead.callback_analysis import (
    FetchSignature,
    TriggerMap,
    identify_trigger_callbacks,
)
from fetchahead.codec import encode
from fetchahead.cli import _load_original, run_pipeline
from fetchahead.errors import AnalysisError, FetchaheadError, InstrumentError
from fetchahead.instrumenter import (
    Hints,
    RewriteRule,
    StaticUrlHint,
    TriggerHint,
    check_trigger_map,
    hints_from_json_obj,
    instrument,
)
from fetchahead.metrics import compute_effectiveness
from fetchahead.runtime import run_trace
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


# The commands check each input where they read it, so the rejections of
# what `instrument` is given are tests of those checks: the loader's rule
# for the app, `UrlMap.check`, `check_trigger_map` and `Hints.check`.

def test_double_instrumentation_rejected(weather_pipeline, tmp_path):
    path = tmp_path / "optimized.papp"
    path.write_text(print_app(weather_pipeline.ia.app))
    with pytest.raises(FetchaheadError, match="^app is already instrumented$"):
        _load_original(str(path))


def test_trigger_map_with_unknown_callback_rejected(weather_app):
    with pytest.raises(InstrumentError, match="unknown callback"):
        check_trigger_map(weather_app, TriggerMap({"ghost": ("url1",)}), Hints())


def test_trigger_map_entry_needs_a_url(weather_app):
    # an empty entry would write trigger_prefetch(), which the parser rejects
    trigger_map = TriggerMap({"onCreate": (), "onItemSelected": ("url1",)})
    with pytest.raises(InstrumentError, match="^trigger map entry 'onCreate' "
                                              "has an empty url list$"):
        check_trigger_map(weather_app, trigger_map, Hints())


def test_trigger_map_with_unknown_url_rejected(weather_app, weather_pipeline):
    # without the check the app would hold trigger_prefetch(ghost)
    p = weather_pipeline
    trigger_map = TriggerMap({**p.trigger_map.entries, "onCreate": ("ghost",)})
    with pytest.raises(InstrumentError,
                       match="^trigger map names unknown url 'ghost'$"):
        check_trigger_map(weather_app, trigger_map, Hints())


def test_trigger_entries_may_name_a_hint_url_and_repeat_one(
        weather_app, weather_pipeline, weather_trace, weather_net):
    """A trigger map entry follows the hint entries' rule: it may name a
    hint URL. Both kinds may repeat a URL; the proxy skips the repeat as
    already cached."""
    p = weather_pipeline
    hints = Hints(
        extra_trigger_entries=(
            TriggerHint("onItemSelected", ("url1", "url1"), "launch"),),
        extra_static_urls=(StaticUrlHint("urlHome", "http://weatherapi/home"),),
    )
    trigger_map = TriggerMap({**p.trigger_map.entries,
                              "onCreate": ("urlHome", "url1", "url1")})
    check_trigger_map(weather_app, trigger_map, hints)
    ia = instrument(weather_app, p.url_map, trigger_map, p.sig, hints)
    bodies = ia.app.index.bodies
    assert bodies["onCreate"][-1] == TriggerPrefetch(("urlHome", "url1", "url1"))
    assert bodies["onItemSelected"][0] == TriggerPrefetch(("url1", "url1"))
    log = run_trace(ia, weather_trace, weather_net, seed_url_map=p.url_map,
                    hints=hints)
    on_create = log.trigger_evals()[0]
    assert on_create.callback == "onCreate"
    assert on_create.issued == ("urlHome", "url1")
    assert on_create.skipped_known_cached == ("url1",)


@pytest.mark.parametrize("container, stmt", [
    ("ghost", 0), ("onItemSelected", 99), ("onItemSelected", -1),
])
def test_url_map_spot_outside_the_app_rejected(weather_app, weather_pipeline,
                                               container, stmt):
    p = weather_pipeline
    url_map = _with_url2_part3(p.url_map, DefinitionSpot(container, stmt, 3, 1))
    with pytest.raises(AnalysisError, match="is not a definition"):
        url_map.check(weather_app)


def test_url_map_url_outside_the_app_rejected(weather_app, weather_pipeline):
    p = weather_pipeline
    url_map = UrlMap({**p.url_map.entries, "ghost": (Concrete("http://x/"),)})
    with pytest.raises(AnalysisError, match="unknown url 'ghost'"):
        url_map.check(weather_app)


@pytest.mark.parametrize("m", [0, 4, 99])
def test_url_map_spot_part_outside_the_url_rejected(weather_app, weather_pipeline, m):
    # url2 has three parts; without the check the rewritten app holds a
    # send_definition that its own parser rejects
    p = weather_pipeline
    url_map = _with_url2_part3(p.url_map,
                               DefinitionSpot("onItemSelected", 0, m, 1))
    with pytest.raises(AnalysisError, match=rf"missing part url2\[{m}\]"):
        url_map.check(weather_app)


@pytest.mark.parametrize("m", [1, 2])
def test_url_map_spot_that_names_another_part_rejected(weather_app,
                                                       weather_pipeline, m):
    # without the check the rewritten app holds send_definition(cityName,
    # url2, m), which overwrites a resource or literal part at run time
    p = weather_pipeline
    url_map = _with_url2_part3(p.url_map,
                               DefinitionSpot("onItemSelected", 0, m, 1))
    with pytest.raises(AnalysisError,
                       match=rf"^definition spot onItemSelected\[0\] names "
                             rf"part {m} but is listed under url2\[3\]$"):
        url_map.check(weather_app)


@pytest.mark.parametrize("m, read", [(1, "resource domain"),
                                     (2, "literal weather?&cityName=")])
def test_url_map_spot_under_a_part_without_a_variable_rejected(
        weather_app, weather_pipeline, m, read):
    # url2[1] is resource(domain) and url2[2] a literal; no definition
    # feeds them, so a send there would replace the host or the path
    p = weather_pipeline
    parts = list(p.url_map.entries["url2"])
    parts[m - 1] = Unknown((DefinitionSpot("onItemSelected", 0, m, 1),))
    url_map = UrlMap({**p.url_map.entries, "url2": tuple(parts)})
    with pytest.raises(AnalysisError) as raised:
        url_map.check(weather_app)
    assert str(raised.value) == (f"definition spot onItemSelected[0] is not a "
                                 f"definition of url2[{m}] ({read})")


def test_url_map_spot_at_another_variables_definition_rejected(
        weather_app, weather_pipeline):
    # onClick[0] is `let cityId`; without the check the proxy would take
    # the city id for url2's city name
    p = weather_pipeline
    url_map = _with_url2_part3(p.url_map, DefinitionSpot("onClick", 0, 3, 1))
    with pytest.raises(AnalysisError,
                       match=r"^definition spot onClick\[0\] is not a "
                             r"definition of url2\[3\] \(var cityName\)$"):
        url_map.check(weather_app)


def test_url_map_with_only_some_spots_accepted():
    # a map may follow fewer definitions than the analysis lists
    app = parse_app("""
app subset
netmethod get latency=5
callback a {
  let v = input(x)
}
callback b {
  let v = input(y)
  url u = "http://h/" + v
  get(u)
}
ccfg {
}
""")
    full = analyze_urls(app)
    spots = full.entries["u"][1].spots
    assert len(spots) == 2
    url_map = UrlMap({"u": (Concrete("http://h/"), Unknown(spots[1:]))})
    url_map.check(app)
    sig = FetchSignature("get")
    bodies = instrument(app, url_map, TriggerMap({}), sig).app.index.bodies
    assert bodies["a"] == app.index.bodies["a"]
    assert bodies["b"][1] == SendDefinition("v", "u", 2)


def _with_url2_part3(url_map, spot):
    """The url map with `spot` as the only definition spot of url2's
    third part, so every url keeps its number of parts."""
    parts = url_map.entries["url2"]
    return UrlMap({**url_map.entries, "url2": (*parts[:2], Unknown((spot,)))})


def test_url_map_that_leaves_out_a_url_rejected(weather_app, weather_pipeline):
    p = weather_pipeline
    entries = dict(p.url_map.entries)
    del entries["url1"]
    with pytest.raises(AnalysisError, match="url map leaves out url 'url1'"):
        UrlMap(entries).check(weather_app)


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


def test_hint_unknown_callback_rejected(weather_app):
    with pytest.raises(InstrumentError, match="unknown callback"):
        Hints(
            extra_trigger_entries=(TriggerHint("nope", ("url1",)),),
        ).check(weather_app)


def test_hint_unknown_url_rejected(weather_app):
    with pytest.raises(InstrumentError, match="unknown url"):
        Hints(
            extra_trigger_entries=(TriggerHint("onCreate", ("ghost",)),),
        ).check(weather_app)


def test_hint_trigger_entry_needs_a_url(weather_app):
    with pytest.raises(InstrumentError,
                       match="^hint trigger entry has an empty url list$"):
        Hints(
            extra_trigger_entries=(TriggerHint("onCreate", ()),),
        ).check(weather_app)


def test_hint_url_may_not_shadow_existing(weather_app):
    with pytest.raises(InstrumentError, match="already exists"):
        Hints(
            extra_static_urls=(StaticUrlHint("url1", "http://elsewhere/"),),
        ).check(weather_app)


def test_rewrite_rule_bounds_checked(weather_app):
    with pytest.raises(InstrumentError, match="missing part"):
        Hints(
            rewrite_rules=(RewriteRule("url1", 9, "a", "b"),),
        ).check(weather_app)


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


# The changes a hand edit of a url map can make; each seed applies one.
URL_MAP_EDITS = ("move", "renumber", "other variable", "no variable", "subset")


def _edited_url_map(rng, app, url_map, edit):
    """`url_map` with one definition spot moved to another part,
    renumbered, pointed at a statement that defines another variable or
    listed under a URL's first part, a literal (the edit made when the map
    lists no spot), or with spots dropped. A spot's `n` is read by no
    stage, so every new spot has n = 1."""
    entries = {u: list(parts) for u, parts in url_map.entries.items()}
    listed = [(u, m, spot) for u, parts in entries.items()
              for m, state in enumerate(parts, start=1)
              if isinstance(state, Unknown) for spot in state.spots]

    def put(u, m, spot):
        state = entries[u][m - 1]
        spots = state.spots if isinstance(state, Unknown) else ()
        entries[u][m - 1] = Unknown((*spots, spot))

    def take(u, m, spot):
        entries[u][m - 1] = Unknown(tuple(
            s for s in entries[u][m - 1].spots if s != spot))

    if edit == "subset":
        for u, parts in entries.items():
            for m, state in enumerate(parts, start=1):
                if isinstance(state, Unknown):
                    parts[m - 1] = Unknown(tuple(rng.sample(
                        state.spots, rng.randint(0, len(state.spots)))))
    elif edit == "no variable" or not listed:
        u = rng.choice(list(entries))
        definitions = [(c, i) for defs in app.index.definitions.values()
                       for c, i, _ in defs]
        put(u, 1, DefinitionSpot(*rng.choice(definitions), 1, 1))
    else:
        u, m, spot = rng.choice(listed)
        take(u, m, spot)
        if edit == "move":
            u, m = rng.choice([(u2, m2) for u2, parts in entries.items()
                               for m2 in range(1, len(parts) + 1)
                               if (u2, m2) != (u, m)])
            spot = DefinitionSpot(spot.container, spot.stmt_index, m, 1)
        elif edit == "renumber":
            others = [k for k in range(len(entries[u]) + 2) if k != m]
            spot = DefinitionSpot(spot.container, spot.stmt_index,
                                  rng.choice(others), 1)
        else:
            # another variable's definition, else the URL's own spot
            var = app.index.url_spots[u][2].parts[m - 1].value
            others = [(c, i) for v, defs in app.index.definitions.items()
                      if v != var for c, i, _ in defs]
            spot = DefinitionSpot(*rng.choice(others or [app.index.url_spots[u][:2]]),
                                  m, 1)
        put(u, m, spot)
    return UrlMap({u: tuple(parts) for u, parts in entries.items()})


def _sends_and_what_they_follow(body):
    last = None
    for st in body:
        if isinstance(st, SendDefinition):
            yield st, last
        else:
            last = st


def test_every_send_follows_a_definition_of_its_parts_variable():
    """Whatever a url map says, `UrlMap.check` either rejects it or
    `instrument` writes each send_definition(v, u, m) right after a
    definition of v (other sends may stand between), where v is the
    variable that part m of u reads. A map that only drops spots is
    accepted."""
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        app, _, _ = make_app(rng)
        edit = URL_MAP_EDITS[seed % len(URL_MAP_EDITS)]
        url_map = _edited_url_map(rng, app, analyze_urls(app), edit)
        try:
            url_map.check(app)
        except AnalysisError:
            assert edit != "subset", seed
            outcomes.add("rejected")
            continue
        ia = instrument(app, url_map, TriggerMap({}), FetchSignature("fetch"))
        outcomes.add("accepted")
        for _, body in ia.app.containers():
            for send, before in _sends_and_what_they_follow(body):
                part = app.index.url_spots[send.url_id][2].parts[send.part_index - 1]
                assert (part.kind, part.value) == ("var", send.var), seed
                assert isinstance(before, (DefineStatic, DefineDynamic)), seed
                assert before.var == send.var, seed
    assert outcomes == {"accepted", "rejected"}


def test_instrument_cost_is_linear_in_app_size(monkeypatch):
    """`instrument`'s bytecodes on `perfbench/gen.py`'s `large_app` with
    25, 50 and 100 callbacks, the variables scaled with them (175 per 400
    callbacks, as in the benchmark). Each doubling measured x1.95 and
    x2.08 on Python 3.11: fixed costs keep a small app under x2, and the
    generator's random placement moves a ratio by a few percent. For a
    cost a*n + b*n*n the ratio is 2 + 2q, where q is the quadratic share
    at the smaller size, so the bound x2.5 fails once a quadratic pass is
    a quarter of the work, while leaving the measured spread a margin."""
    gen = perfbench_gen(monkeypatch)
    sig = FetchSignature("fetch")
    counts = []
    for callbacks in (25, 50, 100):
        app = gen.large_app(1, callbacks=callbacks,
                            variables=callbacks * 175 // 400)[0].app
        trigger_map = identify_trigger_callbacks(app, build_ecg(app), sig)
        counts.append(bytecodes(instrument, app, analyze_urls(app),
                                trigger_map, sig))
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(r <= 2.5 for r in ratios), (counts, ratios)
