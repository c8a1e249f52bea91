"""The JSON codec behind the seven artifact loaders.

Every loader either returns an object whose fields have their annotated
types or raises its own `FetchaheadError`, whatever JSON value it is
given: values drawn at random, and the weather fixture's artifacts with
one key dropped, one value's type swapped or one number made negative.
Every artifact of a random pipeline survives `decode(T, encode(x))`.
`dumps` writes any JSON value exactly as the standard library's indenting
encoder does, and rejects anything else; given the type whose JSON value
it writes, it writes the same text, and a type it cannot write is refused
before any value is. Its work grows linearly in the values it writes.
"""

import dataclasses
import json
import math
import random
import types
import typing
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from appgen import make_app
from costs import bytecodes
from fetchahead.callback_analysis import (
    FetchSignature,
    TriggerMap,
    trigger_map_from_json_obj,
)
from fetchahead.cli import run_pipeline
from fetchahead.codec import _writer, decode, dumps, encode, writer
from fetchahead.errors import (
    AnalysisError,
    FetchaheadError,
    InstrumentError,
    MetricsError,
    RunError,
)
from fetchahead.instrumenter import (
    Hints,
    RewriteRule,
    StaticUrlHint,
    TriggerHint,
    hints_from_json_obj,
)
from fetchahead.mbm import Accuracy, BenchReport, CaseResult, Prefetchability
from fetchahead.metrics import (
    Metrics,
    Oracle,
    Reduction,
    TriggerPoint,
    oracle_from_json_obj,
    summarize_pairs,
)
from fetchahead.runtime import (
    Costs,
    NetModel,
    RunLog,
    Trace,
    net_model_from_json_obj,
    run_log_from_json_obj,
    trace_from_json_obj,
)
from fetchahead.string_analysis import (
    Concrete,
    DefinitionSpot,
    Unknown,
    UrlMap,
    url_map_from_json_obj,
)
from test_cli_fuzz import _positions

# (loader, the type it returns, its error class)
LOADERS = {
    "trace": (trace_from_json_obj, Trace, RunError),
    "net": (net_model_from_json_obj, NetModel, RunError),
    "hints": (hints_from_json_obj, Hints, InstrumentError),
    "urlmap": (url_map_from_json_obj, UrlMap, AnalysisError),
    "triggermap": (trigger_map_from_json_obj, TriggerMap, AnalysisError),
    "runlog": (run_log_from_json_obj, RunLog, RunError),
    "oracle": (oracle_from_json_obj, Oracle, MetricsError),
}

WEATHER_NET = NetModel(
    default_latency_ms=700, per_method={"getInputStream": 800},
    server={"http://weatherapi/weather?cityId=842": "sunny"}, threshold=2,
    costs=Costs(1, 2, 3),
)
WEATHER_HINTS = Hints(
    extra_trigger_entries=(TriggerHint("onCreate", ("urlHome",), "launch"),),
    extra_static_urls=(StaticUrlHint("urlHome", "http://weatherapi/home"),),
    rewrite_rules=(RewriteRule("url2", 3, "small", "large"),),
)


def conforms(tp, value) -> bool:
    """`value` has the type `tp`, in the codec's terms; written apart from
    the codec as the reference it is checked against."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is int:
        return type(value) is int and value >= 0
    if tp in (str, bool):
        return type(value) is tp
    if origin is typing.Literal:
        return value in args
    if origin is tuple:
        return type(value) is tuple and all(conforms(args[0], x) for x in value)
    if origin is Mapping:
        return isinstance(value, dict) and all(
            type(k) is str and conforms(args[1], x) for k, x in value.items())
    if origin in (typing.Union, types.UnionType):
        return any(value is None if a is type(None) else conforms(a, value)
                   for a in args)
    hints = typing.get_type_hints(tp)
    return type(value) is tp and all(
        conforms(hints[f.name], getattr(value, f.name))
        for f in dataclasses.fields(tp))


def _weather_artifacts(weather_pipeline, weather_trace) -> dict:
    p = weather_pipeline
    values = {
        "trace": weather_trace, "net": WEATHER_NET, "hints": WEATHER_HINTS,
        "urlmap": p.url_map, "triggermap": p.trigger_map, "runlog": p.opt,
        "oracle": p.oracle,
    }
    return {name: json.loads(json.dumps(encode(x)))
            for name, x in values.items()}


_OTHER_TYPES = (None, True, 7, 2.5, "s", [], {})


def _mutated(value, path, how: int):
    """`value` with the value at `path` dropped (a key), made negative (a
    number) or replaced by a value of another JSON type."""
    if not path:
        return _swapped(value, how)
    value = json.loads(json.dumps(value))
    *outer, last = path
    parent = value
    for key in outer:
        parent = parent[key]
    target = parent[last]
    if how == 0 and isinstance(parent, dict):
        del parent[last]
    elif how == 1 and type(target) is int and target > 0:
        parent[last] = -target
    else:
        parent[last] = _swapped(target, how)
    return value


def _swapped(value, how: int):
    others = [x for x in _OTHER_TYPES if type(x) is not type(value)]
    return others[how % len(others)]


def _check_loader(name: str, value) -> None:
    load, tp, error = LOADERS[name]
    try:
        result = load(value)
    except FetchaheadError as e:
        assert type(e) is error, (name, e)
    else:
        assert conforms(tp, result), (name, result)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-1, 1)
    | st.sampled_from(["", "end", "launch", "prefetch", "demand", "url1"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["type", "event", "concrete", "spots", "at", "m",
                         "events", "threshold", "server", "url_id",
                         "callback", "prefetchable"]),
        children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LOADERS)), _json)
def test_loaders_on_any_json_value(name, value):
    _check_loader(name, value)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_on_mutated_weather_artifacts(name, weather_pipeline,
                                              weather_trace):
    """Every position of the artifact, each with all three mutations."""
    valid = _weather_artifacts(weather_pipeline, weather_trace)[name]
    _check_loader(name, valid)
    for path in _positions(valid):
        for how in range(len(_OTHER_TYPES)):
            _check_loader(name, _mutated(valid, path, how))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_every_artifact_round_trips(seed):
    rng = random.Random(seed)
    app, trace, _ = make_app(rng)
    url_ids = tuple(app.index.url_spots)
    hints = Hints(
        extra_trigger_entries=(
            TriggerHint("cb0", ("hinted", rng.choice(url_ids)), "launch"),
            TriggerHint(rng.choice(app.callback_names), url_ids),
        ),
        extra_static_urls=(StaticUrlHint("hinted", "http://hint/"),),
        rewrite_rules=(RewriteRule(url_ids[0], 1, "http", "https"),),
    )
    net = NetModel(
        default_latency_ms=rng.choice([0, 300]),
        per_method={"fetch": rng.randrange(1000)} if rng.random() < 0.5 else {},
        server={"http://hint/": "hinted payload"},
        threshold=rng.randint(1, 6),
        costs=Costs(*(rng.randrange(3) for _ in range(3))),
    )
    p = run_pipeline(app, trace, net, hints, FetchSignature("fetch"))
    unset = dataclasses.replace(net, default_latency_ms=None)
    for tp, x in ((Trace, trace), (NetModel, net), (NetModel, unset),
                  (Hints, hints),
                  (UrlMap, p.url_map), (TriggerMap, p.trigger_map),
                  (RunLog, p.base), (RunLog, p.opt), (Oracle, p.oracle)):
        assert decode(tp, json.loads(json.dumps(encode(x))), RunError) == x
        assert dumps(encode(x), tp) == dumps(encode(x))
    for log in (p.base, p.opt):
        assert decode(RunLog, json.loads(log.canonical_json()), RunError) == log


def _run_log(*events):
    return {"app": "a", "instrumented": True, "final_ms": 0,
            "overhead_ms": {}, "events": list(events)}


@pytest.mark.parametrize("tp, value, message", [
    (RunLog, _run_log({"type": "prefetch", "url_id": "u", "url": "x",
                       "issued_at": 0, "ready_at": 5},
                      {"type": "definition_update", "url_id": "u", "m": 1,
                       "value": "v", "at": -1}),
     "$.events[1].at must be an integer >= 0, got -1"),
    (RunLog, _run_log({"type": "bogus"}),
     '$.events[0].type must be one of "prefetch", "demand", '
     '"definition_update", "trigger_eval", got \'bogus\''),
    (UrlMap, {"u": [{"concrete": "http://x/"}, {}]},
     '$.u[1] must be a JSON object with the key "concrete" or "spots", '
     "got {}"),
    (Trace, [{"event": "e", "inputs": {"a b": 1}}],
     '$[0].inputs["a b"] must be a string, got 1'),
    (NetModel, {"default_latency_ms": True},
     "$.default_latency_ms must be an integer >= 0, got True"),
], ids=["event-field", "event-type", "url-part", "quoted-key", "bool-int"])
def test_errors_name_the_json_path(tp, value, message):
    with pytest.raises(RunError) as e:
        decode(tp, value, RunError)
    assert str(e.value) == message


def test_errors_abbreviate_the_bad_value():
    events = {str(k): k for k in range(10_000)}
    with pytest.raises(RunError) as e:
        decode(RunLog, {**_run_log(), "events": events}, RunError)
    assert str(e.value).startswith("$.events must be a JSON list, got {'0': 0,")
    assert len(str(e.value)) < 200


def test_scores_encode_floats_as_is_and_enums_as_values():
    metrics = Metrics(None, 0.5, 2 / 3, Reduction((100.0, 0.0), 50.0), 7)
    assert encode(metrics) == {
        "precision": None, "recall": 0.5, "hit_rate": 2 / 3,
        "latency_reduction_pct": {"per_request": [100.0, 0.0], "mean": 50.0},
        "overhead_ms": 7,
    }
    row = CaseResult(4, 1, 2, 3, 1000, 0, 99.4, Prefetchability.NON_HIT,
                     Prefetchability.HIT)
    assert encode(BenchReport(1000, 2000, (row,), Accuracy(1.0, 0.75))) == {
        "latency_ms": 1000, "think_ms": 2000,
        "rows": [{"case": 4, "sd_ms": 1, "tp_ms": 2, "ffp_ms": 3,
                  "orig_ms": 1000, "opt_ms": 0, "reduction_pct": 99.4,
                  "expected": "non_hit", "observed": "hit"}],
        "accuracy": {"precision": 1.0, "recall": 0.75},
    }


# every category, lone surrogates (Cs) and control characters (Cc) too
_chars = st.characters(exclude_categories=()) | st.sampled_from(
    ["\x00", "\x1f", "\x7f", '"', "\\", "/", "\u00e9", "\u2028", "\ud800",
     "\udfff", "\U0001f600"])
_text = st.text(_chars, max_size=8)
_writable = st.recursive(
    st.none() | st.booleans() | _text
    | st.integers() | st.sampled_from([-(2**63), 2**64, -(10**30)])
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_writable)
@example([[], {}, [[]], {"": {"": []}}])
@example({"\ud800": "\udfff", "\x00": [-0.0, 5e-324, 1e16, math.nan]})
def test_dumps_is_the_indenting_encoder(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    (1, 2), {1, 2}, object(), {"a": [(1,)]}, [{"a"}], {1: 2}, {"a": 1, 2: 3},
], ids=["tuple", "set", "object", "nested-tuple", "nested-set", "int-key",
        "mixed-keys"])
def test_dumps_rejects_what_is_not_a_json_value(value):
    with pytest.raises(TypeError):
        dumps(value)


def _report(n: int) -> dict:
    """The JSON value `report` writes for two pairs of n requests each."""
    pairs = [Metrics(p, 1.0, 0.5, Reduction(tuple(i / 7 - p for i in range(n)),
                                            1 / 3), 7)
             for p in (0.25, 0.75)]
    return {"pairs": [encode(m) for m in pairs],
            "summary": summarize_pairs(pairs)}


def test_dumps_cost_is_linear_in_the_values_written():
    """The generic writer's bytecodes on a `report` value whose pairs
    hold 1,000, 2,000 and 4,000 requests each. Each doubling measured
    x1.981 and x1.990 on Python 3.11: only the fixed cost of the keys and
    the summary keeps it under x2. For a cost a*n + b*n*n the ratio is
    2 + 2q, where q is the quadratic share at the smaller size, so the
    bound x2.2 fails once a pass quadratic in the values is a tenth of the
    work, such as re-joining the text written so far for every item."""
    counts = [bytecodes(dumps, _report(n)) for n in (1000, 2000, 4000)]
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(r <= 2.2 for r in ratios), (counts, ratios)


def _tuples(items):
    return st.lists(items, max_size=3).map(tuple)


_spots = st.builds(DefinitionSpot, _text, st.integers(0, 10**6),
                   st.integers(0, 9), st.integers(0, 2**70))
_url_maps = st.builds(UrlMap, st.dictionaries(_text, _tuples(
    st.builds(Concrete, _text) | st.builds(Unknown, _tuples(_spots))),
    max_size=3))
_trigger_maps = st.builds(
    TriggerMap, st.dictionaries(_text, _tuples(_text), max_size=3))
_oracles = st.builds(
    Oracle, _tuples(st.builds(TriggerPoint, _text, _tuples(_text))))
_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan,
                                         math.inf, -math.inf])
_scores = _tuples(st.builds(
    Metrics, st.none() | _floats, st.none() | _floats, _floats,
    st.builds(Reduction, _tuples(_floats), _floats), st.integers(0, 2**70)))

# the type of `metrics.json`'s JSON value, whose pairs a tuple of scores is
_PAIRS = Mapping[str, tuple[Metrics, ...]]


@settings(max_examples=300, deadline=None)
@given(_url_maps | _trigger_maps | _oracles | _scores)
@example(UrlMap({}))
@example(UrlMap({"u": (), "v": (Unknown(()), Concrete(""))}))
@example(TriggerMap({}))
@example(TriggerMap({"cb": ()}))
@example(Oracle(()))
@example(Oracle((TriggerPoint("cb", ()), TriggerPoint("\u00e9\"\n", ("\ud800",)))))
@example(())
@example((Metrics(None, None, -0.0, Reduction((), math.nan), 0),
          Metrics(0.5, 1.0, math.inf, Reduction((-math.inf, -0.0, 1e16), 0.0),
                  2**64)))
def test_the_typed_writer_writes_what_dumps_writes(x):
    value, tp = (({"pairs": [encode(m) for m in x]}, _PAIRS)
                 if type(x) is tuple else (encode(x), type(x)))
    assert dumps(value, tp) == dumps(value)
    # and the writer of the instance itself, at an indent
    instance = {"pairs": x} if type(x) is tuple else x
    assert writer(tp, 4)(instance) == dumps(value)[:-1].replace("\n", "\n    ")


def test_the_typed_writer_sorts_the_json_keys_not_the_fields():
    spot = DefinitionSpot("cb", stmt_index=3, part_index=1, ordinal=2)
    assert dumps(encode(UrlMap({"u": (Unknown((spot,)),)})), UrlMap) == """{
  "u": [
    {
      "spots": [
        {
          "container": "cb",
          "m": 1,
          "n": 2,
          "stmt": 3
        }
      ]
    }
  ]
}
"""


@pytest.mark.parametrize("tp", [
    BenchReport, Prefetchability, list[str], dict[str, str], set[str],
    typing.Any, Mapping[str, set[str]], str | int, UrlMap | Prefetchability,
], ids=["enum-field", "enum", "list", "dict", "set", "any", "nested-set",
        "scalar-union", "enum-union"])
def test_the_typed_writer_refuses_a_type_it_cannot_write(tp):
    with pytest.raises(TypeError):
        _writer(tp)


@pytest.mark.parametrize("tp, value", [
    (UrlMap, {"u": [{"spot": []}]}),
    (RunLog, {"app": "a", "instrumented": True, "final_ms": 0,
              "overhead_ms": {}, "events": [{"type": "bogus"}]}),
], ids=["untagged", "tagged"])
def test_the_typed_writer_refuses_a_value_of_no_union_member(tp, value):
    with pytest.raises(TypeError, match="no member of the union"):
        dumps(value, tp)
