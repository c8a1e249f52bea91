"""The traced benchmark (`perfbench/spans.py`) wraps names it looks up by
module and attribute, such as `fetchahead.cli.compute_oracle`; a rename
or a moved import would break its traced run, and a stage called by any
other name would silently read 0 in the per-layer metrics.

`fetchahead.cli` is looked up when a test runs, not imported here: the
benchmark's own tests import the package afresh, and the tracer wraps the
module that `sys.modules` holds at that time."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

WEATHER_TRACE = [
    {"event": "onCreate", "think_ms": 0, "inputs": {}},
    {"event": "onItemSelected", "think_ms": 2000,
     "inputs": {"citySelection": "Gothenburg"}},
    {"event": "onClick", "think_ms": 2000, "inputs": {"cityIdText": "842"}},
]
RUN_SPANS = ("runtime.run_base", "runtime.run_opt")


@pytest.mark.parametrize("path, attr", [(p, a) for p, a, _ in spans.WRAPPED])
def test_wrapped_name_resolves(path, attr):
    assert callable(getattr(spans._resolve(path), attr))


def test_every_wrapped_name_records_a_span(tmp_path, weather_text, capsys):
    app, trace, net = (tmp_path / "weather.papp", tmp_path / "trace.json",
                       tmp_path / "net.json")
    app.write_text(weather_text)
    trace.write_text(json.dumps(WEATHER_TRACE))
    net.write_text(json.dumps({"threshold": 5}))
    commands = {
        "analyze": ["analyze", str(app), "--trace", str(trace), "--net", str(net),
                    "--urlmap-out", str(tmp_path / "urlmap.json"),
                    "--triggermap-out", str(tmp_path / "triggermap.json")],
        "pipeline": ["pipeline", str(app), "--trace", str(trace),
                     "--net", str(net), "--outdir", str(tmp_path / "out")],
        "bench": ["bench", "--out", str(tmp_path / "bench.tsv")],
    }
    cli = importlib.import_module("fetchahead.cli")
    tracer = spans.Tracer()
    with tracer.installed():
        for command, argv in commands.items():
            tracer.pipeline = command
            assert cli.main(argv) == 0, capsys.readouterr().err

    expected = set()
    for _, _, name in spans.WRAPPED:
        expected.update([name] if isinstance(name, str) else RUN_SPANS)
    assert expected == {name for name, *_ in tracer.spans}
    assert len(expected) == 18
    pipeline_runs = [name for name, _, _, _, pid in tracer.spans
                     if pid == "pipeline" and name.startswith("runtime.run_")]
    assert pipeline_runs == list(RUN_SPANS)
