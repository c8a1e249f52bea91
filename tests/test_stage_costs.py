"""Linear-cost guards for the stages before instrumentation.

Each stage's bytecodes on `perfbench/gen.py`'s `large_app` with 25, 50
and 100 callbacks, the variables scaled with them (175 per 400 callbacks,
as in the benchmark), must grow by at most x2.5 per doubling. Measured
on Python 3.11 from 25 to 200 callbacks, every doubling read x1.949 to
x2.097: parse x2.008-2.024, string analysis x1.988-2.034, trigger
analysis x2.003-2.010, the url map check x1.975-2.021, and writing the
url map's JSON value with the writer compiled for `UrlMap` (compiled
before it is counted) x1.949-2.097. The counts are the same for every
seed. For a cost a*n + b*n*n the ratio is 2 + 2q,
where q is the quadratic share at the smaller size, so the bound fails
once a quadratic pass is a quarter of the work, such as a string analysis
that compares every definition with every URL spot.
"""

import pytest

from costs import bytecodes, perfbench_gen
from fetchahead.app_ir import build_ecg, parse_app, print_app
from fetchahead.callback_analysis import FetchSignature, identify_trigger_callbacks
from fetchahead.codec import dumps, encode
from fetchahead.string_analysis import UrlMap, analyze_urls


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


STAGES = {
    "parse": lambda text, app: (parse_app, text),
    "string-analysis": lambda text, app: (analyze_urls, app),
    "trigger-analysis": lambda text, app: (
        identify_trigger_callbacks, app, build_ecg(app), FetchSignature("fetch")),
    "url-map-check": lambda text, app: (analyze_urls(app).check, app),
    "url-map-write": _url_map_write,
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_cost_is_linear_in_app_size(apps, stage):
    counts = [bytecodes(*STAGES[stage](text, app)) for text, app in apps]
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(r <= 2.5 for r in ratios), (counts, ratios)
