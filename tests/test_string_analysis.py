import random

import pytest

from appgen import LastDefinitions, make_app
from fetchahead.app_ir import DefineDynamic, DefineStatic, parse_app
from fetchahead.errors import AnalysisError, ParseError
from fetchahead.runtime import Trace, TraceStep, Walk
from fetchahead.string_analysis import (
    Concrete,
    DefinitionSpot,
    Unknown,
    analyze_urls,
    static_value_of,
    url_map_from_json_obj,
    url_map_to_json_obj,
)


def test_weather_url_map(weather_app):
    url_map = analyze_urls(weather_app)
    assert url_map.entries["url1"] == (
        Concrete("http://weatherapi/"),
        Concrete("weather?&cityId="),
        Concrete("123"),
    )
    # dynamic city name: one spot, third part, first definition
    assert url_map.entries["url2"] == (
        Concrete("http://weatherapi/"),
        Concrete("weather?&cityName="),
        Unknown((DefinitionSpot("onItemSelected", 0, 3, 1),)),
    )
    assert url_map.entries["url3"][2] == Unknown(
        (DefinitionSpot("onClick", 0, 3, 1),)
    )


def test_all_literal_url_has_no_spots():
    app = parse_app("""
app s
netmethod get latency=1
callback c {
  url u = "http://a/" + "b"
  get(u)
}
ccfg {
}
""")
    assert analyze_urls(app).entries["u"] == (
        Concrete("http://a/"), Concrete("b"),
    )


def _two_defs_app():
    return parse_app("""
app two
netmethod get latency=1
callback first {
  let v = input(t1)
}
callback second {
  let v = input(t2)
  url u = "http://x/" + v
  get(u)
}
ccfg {
  wait w
  first -> w
  w -> second
}
""")


def test_spot_ordinals_follow_program_order():
    # oracle: independent linear scan over all statements
    app = _two_defs_app()
    expected = []
    ordinal = 0
    for name, body in app.containers():
        for idx, stmt in enumerate(body):
            if isinstance(stmt, (DefineStatic, DefineDynamic)) and stmt.var == "v":
                ordinal += 1
                expected.append(DefinitionSpot(name, idx, 2, ordinal))
    state = analyze_urls(app).entries["u"][1]
    assert isinstance(state, Unknown)
    assert list(state.spots) == expected
    assert [s.ordinal for s in state.spots] == [1, 2]


def test_spot_ordinals_dense_on_random_apps():
    for seed in range(60):
        app, _, _ = make_app(random.Random(seed))
        for parts in analyze_urls(app).entries.values():
            for state in parts:
                if isinstance(state, Unknown):
                    assert [s.ordinal for s in state.spots] == list(
                        range(1, len(state.spots) + 1)
                    )


def test_static_value_single_setting(weather_app):
    assert static_value_of(weather_app, "favCityId") == "123"


def test_static_value_dynamic_is_none(weather_app):
    assert static_value_of(weather_app, "cityName") is None


def test_static_value_conflicting_defs_is_none():
    app = parse_app("""
app c
netmethod get latency=1
callback x {
  let v = "a"
  let v = "b"
  url u = "http://x/" + v
  get(u)
}
ccfg {
}
""")
    # oracle by enumeration: the resolved value set has two members
    values = {
        stmt.source
        for _, body in app.containers()
        for stmt in body
        if isinstance(stmt, DefineStatic)
    }
    assert values == {"a", "b"}
    assert static_value_of(app, "v") is None
    # conflicting statics demote the part to Unknown with both spots
    state = analyze_urls(app).entries["u"][1]
    assert isinstance(state, Unknown)
    assert len(state.spots) == 2


def test_static_value_agreeing_defs_is_concrete():
    app = parse_app("""
app c
resource r = "a"
netmethod get latency=1
callback x {
  let v = "a"
  let v = resource(r)
  url u = "http://x/" + v
  get(u)
}
ccfg {
}
""")
    assert static_value_of(app, "v") == "a"
    assert analyze_urls(app).entries["u"][1] == Concrete("a")


def test_undefined_variable_errors():
    app = parse_app("app e\n")
    with pytest.raises(AnalysisError, match="undefined variable"):
        static_value_of(app, "ghost")


def test_missing_setting_key_errors():
    with pytest.raises(ParseError) as err:
        parse_app("""
app m
netmethod get latency=1
callback c {
  let v = setting(absent)
  url u = "http://x/" + v
  get(u)
}
ccfg {
}
""")
    assert err.value.diagnostics == [(5, "unknown setting key 'absent'")]


def test_missing_resource_key_errors():
    with pytest.raises(ParseError) as err:
        parse_app("""
app m
netmethod get latency=1
callback c {
  url u = resource(nope) + "x"
  get(u)
}
ccfg {
}
""")
    assert err.value.diagnostics == [(5, "unknown resource key 'nope'")]


def test_mixed_static_dynamic_is_unknown_with_all_spots():
    app = parse_app("""
app mix
netmethod get latency=1
callback c {
  let v = "static"
  let v = input(t)
  url u = "http://x/" + v
  get(u)
}
ccfg {
}
""")
    state = analyze_urls(app).entries["u"][1]
    assert isinstance(state, Unknown)
    assert [(s.stmt_index, s.ordinal) for s in state.spots] == [(0, 1), (1, 2)]


def test_concrete_parts_are_input_independent():
    # same events, different input values: Concrete parts never move
    for seed in range(30):
        rng = random.Random(seed)
        app, trace, _ = make_app(rng)
        other = Trace(tuple(
            TraceStep(s.event, s.think_ms,
                      {k: v + "_alt" for k, v in s.inputs.items()})
            for s in trace.steps
        ))
        url_map = analyze_urls(app)
        runs = [LastDefinitions(app, t).last for t in (trace, other)]
        for url_id, parts in url_map.entries.items():
            spot = app.index.url_spots[url_id]
            for part, state in zip(spot[2].parts, parts):
                if part.kind != "var" or not isinstance(state, Concrete):
                    continue
                for last_definitions in runs:
                    last = last_definitions.get(part.value)
                    if last is not None:
                        assert last[2] == state.value


def test_conservative_soundness_on_random_apps():
    # the last executed definition of a dynamic part is among its spots
    for seed in range(60):
        app, trace, _ = make_app(random.Random(seed))
        url_map = analyze_urls(app)
        last_definitions = LastDefinitions(app, trace).last
        for url_id, parts in url_map.entries.items():
            spot = app.index.url_spots[url_id]
            for part, state in zip(spot[2].parts, parts):
                if not isinstance(state, Unknown):
                    continue
                last = last_definitions.get(part.value)
                if last is None:
                    continue
                assert last[:2] in {
                    (s.container, s.stmt_index) for s in state.spots
                }


class DefinitionRecorder(Walk):
    """A walk of an uninstrumented app that records each definition it
    runs as (container, stmt index, var)."""

    def __init__(self, app):
        super().__init__(app)
        self.defined = set()

    def define(self, container, stmt_index, var, value):
        self.defined.add((container, stmt_index, var))

    def net_call(self, st, url):
        pass


def test_unknown_parts_are_complete_on_random_apps():
    """Every definition that a run executes of a variable behind an
    `Unknown` part is one of the part's spots, so the instrumented app
    sends it to the proxy."""
    checked = 0
    for seed in range(300):
        app, trace, _ = make_app(random.Random(seed))
        walk = DefinitionRecorder(app)
        for k, step in enumerate(trace.steps):
            walk.run_step(k, step)
        for url_id, parts in analyze_urls(app).entries.items():
            spot = app.index.url_spots[url_id]
            for part, state in zip(spot[2].parts, parts):
                if not isinstance(state, Unknown):
                    continue
                ran = {(c, i) for c, i, var in walk.defined if var == part.value}
                assert ran <= {(s.container, s.stmt_index) for s in state.spots}, \
                    (seed, url_id)
                checked += len(ran)
    assert checked > 100  # not vacuous: 547 definitions over the 300 apps


def test_url_map_json_round_trip(weather_app):
    url_map = analyze_urls(weather_app)
    assert url_map_from_json_obj(url_map_to_json_obj(url_map)) == url_map
