"""The CLI's JSON inputs never give a traceback.

Each example takes the valid inputs of a hinted weather pipeline (trace,
net config, hints, url map, trigger map, both run logs and the oracle),
mutates one of them at one position (a key dropped or renamed, a list
shortened, lengthened or emptied, or a value replaced by one of another
JSON type or by the integer -1, 0 or 2**70) and feeds it, in process, to every
subcommand that reads it: `pipeline`, `instrument`, `run` and `report`.
Each call must return 0, 1 or 2; any other exception fails the test.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetchahead.cli import main

TRACE = [
    {"event": "onCreate", "think_ms": 0, "inputs": {}},
    {"event": "onItemSelected", "think_ms": 2000,
     "inputs": {"citySelection": "Gothenburg"}},
    {"event": "onClick", "think_ms": 2000, "inputs": {"cityIdText": "842"}},
]
NET = {
    "default_latency_ms": 700, "per_method": {"getInputStream": 800},
    "server": {"http://weatherapi/weather?cityId=842": "sunny"},
    "threshold": 2,
    "costs": {"send_definition_ms": 1, "trigger_prefetch_ms": 2,
              "fetch_from_proxy_ms": 3},
}
HINTS = {
    "extra_trigger_entries": [
        {"callback": "onCreate", "url_ids": ["urlHome", "url1"],
         "at": "launch"},
        {"callback": "onClick", "url_ids": ["urlHome"]},
    ],
    "extra_static_urls": [{"url_id": "urlHome", "url": "http://weatherapi/home"}],
    "rewrite_rules": [{"url_id": "url2", "m": 3, "find": "Goth",
                       "replace": "Got"}],
}
# input name -> the artifact the pipeline writes for it
ARTIFACTS = {"urlmap": "urlmap.json", "triggermap": "triggermap.json",
             "runlog_base": "runlog_base.json",
             "runlog_opt": "runlog_opt.json", "oracle": "oracle.json"}
INPUTS = ("trace", "net", "hints", *ARTIFACTS)

# the subcommands, each with the inputs it reads
COMMANDS = (
    (("trace", "net", "hints"), lambda f, out: [
        "pipeline", f["app"], "--trace", f["trace"], "--net", f["net"],
        "--hints", f["hints"], "--outdir", str(out / "pipeline")]),
    (("urlmap", "triggermap", "hints"), lambda f, out: [
        "instrument", f["app"], "--urlmap", f["urlmap"],
        "--triggermap", f["triggermap"], "--signature", "getInputStream",
        "--hints", f["hints"], "-o", str(out / "optimized.papp")]),
    (("trace", "net"), lambda f, out: [
        "run", "--app", f["app"], "--trace", f["trace"], "--net", f["net"],
        "--out", str(out / "base.json")]),
    (("trace", "net", "urlmap", "hints"), lambda f, out: [
        "run", "--app", f["optimized"], "--trace", f["trace"],
        "--net", f["net"], "--seed-urlmap", f["urlmap"], "--hints", f["hints"],
        "--out", str(out / "opt.json"), "--oracle-out", str(out / "o.json")]),
    (("runlog_base", "runlog_opt", "oracle"), lambda f, out: [
        "report", "--base", f["runlog_base"], "--opt", f["runlog_opt"],
        "--oracle", f["oracle"], "--out", str(out / "metrics.json")]),
)

HOWS = ("drop", "rename", "lengthen", "shorten", "empty", "other")
_OTHER_VALUES = (None, True, 2.5, "s", "url1", [], {}, -1, 0, 2**70)
_KEYS = ("x", "type", "event", "url_id", "m", "at", "events", "concrete",
         "spots", "callback", "threshold")


def write_valid_inputs(root):
    """Write the valid inputs under `root`: the weather fixture, TRACE,
    NET, HINTS, and the artifacts that a hinted `pipeline` writes for
    them. Returns (the file of each input, the JSON value of each of
    INPUTS)."""
    files = {"app": root / "weather.papp"}
    files["app"].write_text(
        (Path(__file__).parent / "fixtures" / "weather.papp").read_text())
    for name, value in (("trace", TRACE), ("net", NET), ("hints", HINTS)):
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(value))
    if main(["pipeline", str(files["app"]), "--trace", str(files["trace"]),
             "--net", str(files["net"]), "--hints", str(files["hints"]),
             "--outdir", str(root / "valid")]) != 0:
        raise RuntimeError("the valid weather pipeline failed")
    files["optimized"] = root / "valid" / "optimized.papp"
    for name, artifact in ARTIFACTS.items():
        files[name] = root / "valid" / artifact
    values = {name: json.loads(files[name].read_text()) for name in INPUTS}
    return {k: str(v) for k, v in files.items()}, values


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(the files of the valid inputs, their JSON values, a scratch
    directory for each example's outputs)."""
    root = tmp_path_factory.mktemp("fuzz")
    return (*write_valid_inputs(root), root / "mutated")


def _positions(value, path=()):
    """The path of every value nested in a JSON value, itself included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, x in items:
        yield from _positions(x, path + (key,))


def _mutated(value, path, how, other, key):
    """A copy of `value` with the value at `path` changed by `how`, or
    replaced by `other` where `how` is "other" or does not fit."""
    holder = [json.loads(json.dumps(value))]
    parent, last = holder, 0
    for step in path:
        parent, last = parent[last], step
    target = parent[last]
    if how == "drop" and parent is not holder:
        del parent[last]
    elif how == "rename" and isinstance(parent, dict):
        parent[key] = parent.pop(last)
    elif how == "lengthen" and isinstance(target, list) and target:
        target.append(target[-1])
    elif how == "shorten" and isinstance(target, list) and target:
        target.pop()
    elif how == "empty" and isinstance(target, (list, dict)):
        target.clear()
    else:
        parent[last] = other
    return holder[0]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(INPUTS), st.data())
def test_mutated_json_inputs_exit_0_1_or_2(inputs, name, data):
    files, values, out = inputs
    paths = list(_positions(values[name]))
    path = paths[data.draw(st.integers(0, len(paths) - 1), label="position")]
    how = data.draw(st.sampled_from(HOWS))
    other = data.draw(st.sampled_from(_OTHER_VALUES))
    key = data.draw(st.sampled_from(_KEYS))
    out.mkdir(exist_ok=True)
    mutated = out / f"{name}.json"
    mutated.write_text(json.dumps(_mutated(values[name], path, how, other,
                                           key)))
    for reads, argv in COMMANDS:
        if name in reads:
            code = main(argv({**files, name: str(mutated)}, out))
            assert code in (0, 1, 2), (name, path, how)
