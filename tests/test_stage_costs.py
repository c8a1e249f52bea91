"""Linear-cost guards for the static stages, and one exact guard on the
objects analysis and instrumentation build.

Each stage's bytecodes on `perfbench/gen.py`'s `large_app` with 25, 50
and 100 callbacks, the variables scaled with them (175 per 400 callbacks,
as in the benchmark), must grow by at most x2.5 per doubling. Measured
on Python 3.11 from 25 to 200 callbacks, every doubling read x1.949 to
x2.097: parse x2.007-2.022, string analysis x2.006-2.048, trigger
analysis x2.003-2.010, the url map check x1.975-2.021, writing the
url map's JSON value with the writer compiled for `UrlMap` (compiled
before it is counted) x1.949-2.097, instrumentation x1.963-2.059 and
printing the instrumented app x1.967-2.078. The counts are the same for
every seed. For a cost a*n + b*n*n the ratio is 2 + 2q,
where q is the quadratic share at the smaller size, so the bound fails
once a quadratic pass is a quarter of the work, such as a string analysis
that compares every definition with every URL spot.
"""

import pytest

from costs import bytecodes, perfbench_gen
from fetchahead.app_ir import SendDefinition, build_ecg, parse_app, print_app
from fetchahead.callback_analysis import FetchSignature, identify_trigger_callbacks
from fetchahead.codec import dumps, encode
from fetchahead.instrumenter import instrument
from fetchahead.string_analysis import Unknown, UrlMap, analyze_urls


@pytest.fixture(scope="module")
def apps():
    """The app text and the parsed app at each size."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        gen = perfbench_gen(monkeypatch)
        texts = [print_app(gen.large_app(1, callbacks=n,
                                         variables=n * 175 // 400)[0].app)
                 for n in (25, 50, 100)]
    return [(text, parse_app(text)) for text in texts]


def _url_map_write(text, app):
    value = encode(analyze_urls(app))
    dumps(value, UrlMap)  # compiles the writer, once per process
    return dumps, value, UrlMap


def _instrument_args(app):
    sig = FetchSignature("fetch")
    return (instrument, app, analyze_urls(app),
            identify_trigger_callbacks(app, build_ecg(app), sig), sig)


STAGES = {
    "parse": lambda text, app: (parse_app, text),
    "string-analysis": lambda text, app: (analyze_urls, app),
    "trigger-analysis": lambda text, app: (
        identify_trigger_callbacks, app, build_ecg(app), FetchSignature("fetch")),
    "url-map-check": lambda text, app: (analyze_urls(app).check, app),
    "url-map-write": _url_map_write,
    "instrument": lambda text, app: _instrument_args(app),
    "print-instrumented": lambda text, app: (
        print_app, instrument(*_instrument_args(app)[1:]).app),
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_cost_is_linear_in_app_size(apps, stage):
    counts = [bytecodes(*STAGES[stage](text, app)) for text, app in apps]
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(r <= 2.5 for r in ratios), (counts, ratios)


def test_analysis_and_instrumentation_build_one_object_per_slot(apps):
    """A slot, one variable at one URL part position, has one `Unknown`
    state, shared by every URL reading it there, and each (variable, url,
    part) one `send_definition` statement, inserted after each of its
    definition spots. On the 100-callback app: 70 dynamic slots, 329 dynamic
    URL parts and statements, and 2,632 insertions."""
    _, app = apps[-1]
    args = _instrument_args(app)
    url_map = args[2]
    slots = {(part.value, m): state
             for url_id, (_, _, build) in app.index.url_spots.items()
             for m, (part, state) in enumerate(
                 zip(build.parts, url_map.entries[url_id]), start=1)
             if isinstance(state, Unknown)}
    states = [state for parts in url_map.entries.values() for state in parts
              if isinstance(state, Unknown)]
    assert len(set(map(id, states))) == len(slots) < len(states)
    sends = [st for _, body in instrument(*args[1:]).app.containers()
             for st in body if isinstance(st, SendDefinition)]
    assert len(set(map(id, sends))) == len(set(sends)) < len(sends)
