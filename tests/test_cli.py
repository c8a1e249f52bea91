import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import fetchahead
from fetchahead import cli, instrumenter, runtime
from fetchahead.cli import (
    UsageError, _build_parser, _write_text, main, run_pipeline,
)
from fetchahead.errors import FetchaheadError
from fetchahead.instrumenter import Hints
from fetchahead.runtime import (DefinitionUpdate, RunLog, TriggerEval,
                                trace_to_json_obj)
from fetchahead.string_analysis import UrlMap

WEATHER_TRACE = [
    {"event": "onCreate", "think_ms": 0, "inputs": {}},
    {"event": "onItemSelected", "think_ms": 2000,
     "inputs": {"citySelection": "Gothenburg"}},
    {"event": "onClick", "think_ms": 2000, "inputs": {"cityIdText": "842"}},
]


@pytest.fixture()
def workdir(tmp_path, weather_text, monkeypatch):
    (tmp_path / "weather.papp").write_text(weather_text)
    (tmp_path / "trace.json").write_text(json.dumps(WEATHER_TRACE))
    (tmp_path / "net.json").write_text(json.dumps({"threshold": 5}))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_analyze_writes_both_maps(workdir, capsys):
    assert main(["analyze", "weather.papp"]) == 0
    url_map = json.loads((workdir / "urlmap.json").read_text())
    assert set(url_map) == {"url1", "url2", "url3"}
    assert url_map["url2"][2]["spots"] == [
        {"container": "onItemSelected", "stmt": 0, "m": 3, "n": 1}
    ]
    trigger_map = json.loads((workdir / "triggermap.json").read_text())
    assert trigger_map == {
        "onCreate": ["url1", "url2", "url3"],
        "onItemSelected": ["url1", "url2", "url3"],
    }
    assert "getInputStream" in capsys.readouterr().out


def test_analyze_json_flag(workdir, capsys):
    assert main(["analyze", "weather.papp", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["signature"] == "getInputStream"


def test_analyze_signature_bypasses_profiling(workdir, capsys):
    # no trace needed when the signature is given explicitly
    assert main([
        "analyze", "weather.papp", "--signature", "getInputStream", "--json",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["signature"] == "getInputStream"
    trigger_map = json.loads((workdir / "triggermap.json").read_text())
    assert set(trigger_map) == {"onCreate", "onItemSelected"}


@pytest.mark.parametrize("argv, output", [
    (["analyze", "weather.papp", "--triggermap-out", "t2.json"], "t2.json"),
    (["instrument", "weather.papp", "--urlmap", "urlmap.json",
      "--triggermap", "triggermap.json"], "optimized.papp"),
    (["pipeline", "weather.papp", "--trace", "trace.json", "--outdir", "out"],
     "out"),
], ids=["analyze", "instrument", "pipeline"])
def test_undeclared_signature_exits_2(workdir, capsys, argv, output):
    assert main(["analyze", "weather.papp"]) == 0
    capsys.readouterr()
    assert main(argv + ["--signature", "nosuch"]) == 2
    assert ("fetch signature 'nosuch' is not a declared net method"
            in capsys.readouterr().err)
    assert not (workdir / output).exists()


def test_unknown_flag_is_usage_error(workdir, capsys):
    assert main(["analyze", "weather.papp", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_is_run_error(workdir, capsys):
    assert main(["analyze", "missing.papp"]) == 2
    assert "missing.papp" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "malformed JSON: "),
    ("[" * 200_000, "malformed JSON: nested too deeply"),
], ids=["syntax", "nested-too-deeply"])
def test_malformed_json_is_run_error(workdir, capsys, text, message):
    (workdir / "bad.json").write_text(text)
    code = main(["run", "--app", "weather.papp", "--trace", "bad.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bad.json: {message}")


@pytest.mark.parametrize("argv", [
    ["analyze", "bad.bin"],
    ["run", "--app", "weather.papp", "--trace", "bad.bin"],
], ids=["papp", "json"])
def test_non_utf8_input_is_run_error(workdir, capsys, argv):
    (workdir / "bad.bin").write_bytes(b"\xff\xfe")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad.bin: not UTF-8 text")


def test_parse_error_exit_code(workdir, capsys):
    (workdir / "broken.papp").write_text("app x\ncallback c {\n  let = no\n}\n")
    assert main(["analyze", "broken.papp"]) == 2
    assert capsys.readouterr().err.startswith("error: broken.papp: line 3")


def test_instrument_and_run(workdir):
    assert main(["analyze", "weather.papp"]) == 0
    assert main([
        "instrument", "weather.papp", "--urlmap", "urlmap.json",
        "--triggermap", "triggermap.json", "-o", "optimized.papp",
    ]) == 0
    optimized = (workdir / "optimized.papp").read_text()
    assert "send_definition(cityName, url2, 3)" in optimized
    assert "trigger_prefetch(url1, url2, url3)" in optimized
    assert "fetch_from_proxy(getInputStream, url1)" in optimized

    assert main([
        "run", "--app", "optimized.papp", "--trace", "trace.json",
        "--net", "net.json", "--seed-urlmap", "urlmap.json",
        "--out", "runlog.json",
    ]) == 0
    log = json.loads((workdir / "runlog.json").read_text())
    served = {e["url_id"]: e["served_from"] for e in log["events"]
              if e["type"] == "demand"}
    assert served == {"url1": "cache", "url2": "cache", "url3": "origin"}


def test_run_invalid_trace_exits_2(workdir, capsys):
    (workdir / "bad_trace.json").write_text(json.dumps(
        [{"event": "onClick", "think_ms": 0, "inputs": {"cityIdText": "1"}}]
    ))
    code = main(["run", "--app", "weather.papp", "--trace", "bad_trace.json"])
    assert code == 2
    assert "invalid trace step 0" in capsys.readouterr().err


def test_bench_tsv(workdir, capsys):
    assert main(["bench", "--latency-ms", "1000", "--think-ms", "2000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 26
    rows = {int(line.split("\t")[0]): line.split("\t") for line in lines[1:]}
    for case in (0, 1, 3, 6, 10, 16):
        assert rows[case][6] == "100.00%"
    for case in (2, 5, 24):
        assert rows[case][6] == "0.00%"


def test_python_m_fetchahead_runs_without_warnings(tmp_path):
    src = Path(fetchahead.__file__).parent.parent
    out = tmp_path / "bench.tsv"
    done = subprocess.run(
        [sys.executable, "-m", "fetchahead", "bench", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_text().startswith("Case\tSD\tTP")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fetchahead import *", namespace)
    assert [n for n in fetchahead.__all__ if n not in namespace] == []


def test_bench_usage_errors(workdir, capsys):
    assert main(["bench", "--latency-ms", "0"]) == 1
    assert main(["bench", "--think-ms", "-1"]) == 1


def test_bench_file_outputs(workdir):
    assert main(["bench", "--out", "report.tsv"]) == 0
    tsv = (workdir / "report.tsv").read_text()
    assert tsv.startswith("Case\tSD\tTP\tFFP\tOrig\tOpt\tRed/OH")
    assert main(["bench", "--out", "report.json"]) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert len(report["rows"]) == 25
    assert report["accuracy"] == {"precision": 1.0, "recall": 1.0}


def test_instrumenting_twice_exits_2(workdir, capsys):
    assert main(["analyze", "weather.papp"]) == 0
    assert main([
        "instrument", "weather.papp", "--urlmap", "urlmap.json",
        "--triggermap", "triggermap.json", "-o", "optimized.papp",
    ]) == 0
    code = main([
        "instrument", "optimized.papp", "--urlmap", "urlmap.json",
        "--triggermap", "triggermap.json", "-o", "twice.papp",
    ])
    assert code == 2
    assert "already instrumented" in capsys.readouterr().err


def test_report_single_pair(workdir, capsys):
    _run_pipeline_by_hand(workdir)
    capsys.readouterr()  # drain the subcommand chatter
    assert main([
        "report", "--base", "runlog_base.json", "--opt", "runlog_opt.json",
        "--oracle", "oracle.json", "--json",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    (pair,) = out["pairs"]
    assert pair["precision"] == 1.0
    assert pair["recall"] == 1.0
    assert pair["hit_rate"] == pytest.approx(2 / 3)


def test_report_rejects_a_swapped_pair(workdir, capsys):
    _run_pipeline_by_hand(workdir)
    capsys.readouterr()
    assert main([
        "report", "--base", "runlog_opt.json", "--opt", "runlog_base.json",
    ]) == 2
    assert "base run log is from an instrumented app" in capsys.readouterr().err
    # the optimized log need not be instrumented: an app with nothing to
    # rewrite is its own optimized app
    assert main([
        "report", "--base", "runlog_base.json", "--opt", "runlog_base.json",
    ]) == 0


def test_the_one_parser_keeps_no_state_between_calls(workdir, capsys):
    """`main` calls in one process share the parser; no call's lists,
    flags or errors reach the next."""
    assert _build_parser() is _build_parser()
    _run_pipeline_by_hand(workdir)
    pair = ["--base", "runlog_base.json", "--opt", "runlog_opt.json"]
    capsys.readouterr()
    assert main(["report", *pair, *pair, "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["pairs"]) == 2
    assert main(["report", *pair, "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["pairs"]) == 1

    assert main(["bench", "--latency-ms", "0"]) == 1
    assert main(["pipeline", "weather.papp", "--bogus"]) == 1
    # the golden inputs: the weather trace under the default net model
    assert main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--outdir", "out"]) == 0
    golden = json.loads((Path(__file__).parent / "fixtures" / "golden.json")
                        .read_text())["pipeline"]["weather"]["artifacts"]
    assert {name: hashlib.sha256((workdir / "out" / name).read_bytes())
            .hexdigest() for name in golden} == golden

    capsys.readouterr()
    assert main(["analyze", "weather.papp", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["signature"] == "getInputStream"
    assert main(["analyze", "weather.papp"]) == 0
    assert capsys.readouterr().out.startswith("signature: getInputStream\n")


def test_a_rewritten_artifact_is_cut_to_length(tmp_path, monkeypatch):
    """Artifacts are overwritten in place: a shorter text leaves none of
    the longer one behind, and a failed write leaves an empty file."""
    path = str(tmp_path / "a.json")
    _write_text(path, "x" * 10_000)
    _write_text(path, "short\n")
    assert Path(path).read_bytes() == b"short\n"

    def full_disk(fd, data):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(FetchaheadError, match="No space left on device"):
        _write_text(path, "longer than before\n")
    monkeypatch.undo()
    assert Path(path).read_bytes() == b""


def test_run_writes_its_log_to_dev_null_and_to_a_pipe(workdir):
    """What is not a regular file has no length to cut."""
    run = ["run", "--app", "weather.papp", "--trace", "trace.json", "--out"]
    assert main(run + ["runlog.json"]) == 0
    assert main(run + ["/dev/null"]) == 0
    r, w = os.pipe()
    try:
        assert main(run + [f"/dev/fd/{w}"]) == 0
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as pipe:
        assert pipe.read() == (workdir / "runlog.json").read_bytes()


def test_a_write_that_fails_on_the_second_piece_empties_the_file(
        workdir, capsys, monkeypatch):
    monkeypatch.setattr(runtime, "_BATCH", 1)
    (workdir / "runlog.json").write_text("an older run log\n")
    writes = []

    def fail_second(fd, data):
        writes.append(bytes(data))
        if len(writes) == 2:
            raise OSError(28, "No space left on device")
        return len(data)
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", fail_second)
        code = main(["run", "--app", "weather.papp", "--trace", "trace.json",
                     "--out", "runlog.json"])
    assert code == 2
    assert len(writes) == 2
    assert capsys.readouterr().err == (
        "error: cannot write runlog.json: No space left on device\n")
    assert (workdir / "runlog.json").read_bytes() == b""


def test_a_cut_that_fails_exits_2_and_leaves_what_was_written(
        workdir, capsys, monkeypatch):
    """The cut to length fails, and so does the emptying cut after it:
    the file keeps the text written in place."""
    run = ["run", "--app", "weather.papp", "--trace", "trace.json", "--out"]
    assert main(run + ["expected.json"]) == 0
    capsys.readouterr()

    def failing_cut(fd, size):
        raise OSError(errno.EIO, "Input/output error")
    with monkeypatch.context() as patch:
        patch.setattr(os, "ftruncate", failing_cut)
        code = main(run + ["runlog.json"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: cannot write runlog.json: Input/output error\n")
    assert (workdir / "runlog.json").read_bytes() == (
        workdir / "expected.json").read_bytes()


def test_a_producer_that_raises_empties_the_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("an older artifact\n")
    failure = ValueError("no second piece")

    def producer(sink):
        sink("first piece\n")
        raise failure
    with pytest.raises(ValueError) as raised:
        _write_text(str(path), producer)
    assert raised.value is failure
    assert path.read_bytes() == b""


def test_writing_a_run_log_takes_memory_of_one_batch_not_of_the_log(tmp_path):
    """The run log is encoded and written a batch of events at a time, so
    a log four times as long takes no more memory to write. Each trigger
    evaluation here has trigger lists of its own, so the writer's memo of
    their texts must be bounded too."""
    path = str(tmp_path / "runlog.json")
    for event_at in (
            lambda i: DefinitionUpdate(f"url{i % 50}", i % 7, f"value{i}", i),
            lambda i: TriggerEval("c", i, (f"url{i}", f"url{i + 1}"), (),
                                  (f"url{i}",), ())):
        peaks = []
        for n in (20_000, 80_000):
            log = RunLog("a", True, tuple(map(event_at, range(n))), n, {})
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _write_text(path, log.canonical_json)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert Path(path).stat().st_size == len(log.canonical_json())
        assert peaks[1] <= 1.1 * peaks[0], (log.events[0], peaks)
        assert peaks[1] < 2 * 2**20, (log.events[0], peaks)


def _run_pipeline_by_hand(workdir, outdir=None):
    prefix = f"{outdir}/" if outdir else ""
    if outdir:
        (workdir / outdir).mkdir(exist_ok=True)
    assert main([
        "analyze", "weather.papp",
        "--urlmap-out", f"{prefix}urlmap.json",
        "--triggermap-out", f"{prefix}triggermap.json",
    ]) == 0
    assert main([
        "instrument", "weather.papp",
        "--urlmap", f"{prefix}urlmap.json",
        "--triggermap", f"{prefix}triggermap.json",
        "-o", f"{prefix}optimized.papp",
    ]) == 0
    assert main([
        "run", "--app", "weather.papp", "--trace", "trace.json",
        "--net", "net.json", "--out", f"{prefix}runlog_base.json",
    ]) == 0
    assert main([
        "run", "--app", f"{prefix}optimized.papp", "--trace", "trace.json",
        "--net", "net.json", "--seed-urlmap", f"{prefix}urlmap.json",
        "--out", f"{prefix}runlog_opt.json",
        "--oracle-out", f"{prefix}oracle.json",
    ]) == 0
    assert main([
        "report", "--base", f"{prefix}runlog_base.json",
        "--opt", f"{prefix}runlog_opt.json",
        "--oracle", f"{prefix}oracle.json",
        "--out", f"{prefix}metrics.json",
    ]) == 0


def test_pipeline_matches_manual_subcommands(workdir):
    assert main([
        "pipeline", "weather.papp", "--trace", "trace.json",
        "--net", "net.json", "--outdir", "auto",
    ]) == 0
    _run_pipeline_by_hand(workdir, outdir="manual")
    for name in ("urlmap.json", "triggermap.json", "optimized.papp",
                 "runlog_base.json", "runlog_opt.json", "oracle.json",
                 "metrics.json"):
        auto = (workdir / "auto" / name).read_bytes()
        manual = (workdir / "manual" / name).read_bytes()
        assert auto == manual, name


def test_pipeline_metrics_content(workdir):
    assert main([
        "pipeline", "weather.papp", "--trace", "trace.json",
        "--net", "net.json", "--outdir", "out",
    ]) == 0
    (metrics,) = json.loads((workdir / "out" / "metrics.json").read_text())["pairs"]
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["hit_rate"] == pytest.approx(2 / 3)
    assert metrics["latency_reduction_pct"]["per_request"] == [100.0, 100.0, 0.0]


def test_hints_file_flows_through(workdir):
    (workdir / "hints.json").write_text(json.dumps({
        "extra_static_urls": [
            {"url_id": "urlHome", "url": "http://weatherapi/home"}
        ],
        "extra_trigger_entries": [
            {"callback": "onCreate", "url_ids": ["urlHome"], "at": "launch"}
        ],
    }))
    assert main([
        "pipeline", "weather.papp", "--trace", "trace.json",
        "--hints", "hints.json", "--outdir", "hinted",
    ]) == 0
    optimized = (workdir / "hinted" / "optimized.papp").read_text()
    on_create = optimized.split("callback onCreate {")[1].split("}")[0]
    assert on_create.strip().splitlines()[0].strip() == "trigger_prefetch(urlHome)"
    log = json.loads((workdir / "hinted" / "runlog_opt.json").read_text())
    prefetched = [e["url"] for e in log["events"] if e["type"] == "prefetch"]
    assert "http://weatherapi/home" in prefetched
    # the written hinted app parses and runs again (hint url has no URL spot)
    assert main([
        "run", "--app", "hinted/optimized.papp", "--trace", "trace.json",
        "--seed-urlmap", "hinted/urlmap.json",
        "--hints", "hints.json", "--out", "hinted/rerun.json",
    ]) == 0
    rerun = json.loads((workdir / "hinted" / "rerun.json").read_text())
    assert rerun == json.loads(
        (workdir / "hinted" / "runlog_opt.json").read_text()
    )


def test_report_pair_count_mismatch(workdir, capsys):
    _run_pipeline_by_hand(workdir)
    assert main([
        "report", "--base", "runlog_base.json",
        "--opt", "runlog_opt.json", "--opt", "runlog_opt.json",
    ]) == 1
    assert main([
        "report", "--base", "runlog_base.json", "--opt", "runlog_opt.json",
        "--oracle", "oracle.json", "--oracle", "oracle.json",
    ]) == 1


def test_report_multi_pair_prints_summary(workdir, capsys):
    _run_pipeline_by_hand(workdir)
    capsys.readouterr()
    assert main([
        "report",
        "--base", "runlog_base.json", "--opt", "runlog_opt.json",
        "--base", "runlog_base.json", "--opt", "runlog_opt.json",
        "--out", "summary.json",
    ]) == 0
    out = capsys.readouterr().out
    assert "Hit Rate" in out and "Std. Dev." in out
    summary = json.loads((workdir / "summary.json").read_text())["summary"]
    assert summary["pairs"] == 2
    assert summary["hit_rate"]["stddev"] == 0.0


@pytest.mark.parametrize("flags", [
    ["--seed-urlmap", "urlmap.json"],
    ["--hints", "hints.json"],
    ["--seed-urlmap", "urlmap.json", "--hints", "hints.json"],
], ids=["seed-urlmap", "hints", "both"])
def test_run_rejects_proxy_inputs_for_an_uninstrumented_app(workdir, capsys, flags):
    assert main(["analyze", "weather.papp"]) == 0
    (workdir / "hints.json").write_text(json.dumps({}))
    capsys.readouterr()
    code = main(["run", "--app", "weather.papp", "--trace", "trace.json",
                 "--out", "runlog.json", *flags])
    assert code == 2
    assert "instrumented app" in capsys.readouterr().err
    assert not (workdir / "runlog.json").exists()


def test_oracle_out_requires_instrumented_app(workdir, capsys):
    code = main([
        "run", "--app", "weather.papp", "--trace", "trace.json",
        "--oracle-out", "oracle.json", "--out", "runlog.json",
    ])
    assert code == 2
    assert "instrumented" in capsys.readouterr().err
    assert not (workdir / "runlog.json").exists()
    assert not (workdir / "oracle.json").exists()


def test_trace_json_round_trip(weather_trace):
    assert trace_to_json_obj(weather_trace) == WEATHER_TRACE


def _weather_trace_with(**changes):
    step = dict(WEATHER_TRACE[1], **changes)
    return [WEATHER_TRACE[0], {k: v for k, v in step.items() if v is not None},
            WEATHER_TRACE[2]]


@pytest.mark.parametrize("trace, message", [
    (_weather_trace_with(event=None), "$[1].event is missing"),
    (_weather_trace_with(think_ms="x"),
     "$[1].think_ms must be an integer >= 0, got 'x'"),
    (_weather_trace_with(think_ms=-5000),
     "$[1].think_ms must be an integer >= 0, got -5000"),
    (_weather_trace_with(inputs=["citySelection"]),
     "$[1].inputs must be a JSON object, got ['citySelection']"),
], ids=["missing-event", "non-integer-think", "negative-think",
        "non-object-inputs"])
def test_malformed_trace_is_run_error(workdir, capsys, trace, message):
    (workdir / "bad_trace.json").write_text(json.dumps(trace))
    code = main(["run", "--app", "weather.papp", "--trace", "bad_trace.json",
                 "--out", "runlog.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bad_trace.json: {message}")
    assert not (workdir / "runlog.json").exists()


@pytest.mark.parametrize("net, message", [
    ({"threshold": "x"}, "$.threshold must be an integer >= 0, got 'x'"),
    ({"per_method": {"getInputStream": -800}},
     "$.per_method.getInputStream must be an integer >= 0, got -800"),
    ({"costs": {"send_definition_ms": -1}},
     "$.costs.send_definition_ms must be an integer >= 0, got -1"),
    ({"server": {"http://weatherapi/weather?cityId=842": 5}},
     '$.server["http://weatherapi/weather?cityId=842"] must be a string, '
     "got 5"),
], ids=["non-integer-threshold", "negative-latency", "negative-cost",
        "non-string-payload"])
def test_malformed_net_is_run_error(workdir, capsys, net, message):
    (workdir / "bad_net.json").write_text(json.dumps(net))
    code = main(["run", "--app", "weather.papp", "--trace", "trace.json",
                 "--net", "bad_net.json", "--out", "runlog.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bad_net.json: {message}")
    assert not (workdir / "runlog.json").exists()
    code = main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--net", "bad_net.json", "--outdir", "out"])
    assert code == 2
    assert not (workdir / "out").exists()


def test_trigger_map_with_an_empty_entry_is_error(workdir, capsys):
    # the written app would hold trigger_prefetch(), which `run --app`
    # cannot read back
    _run_pipeline_by_hand(workdir)
    (workdir / "triggermap.json").write_text(
        json.dumps({"onCreate": [], "onItemSelected": ["url1"]}))
    capsys.readouterr()
    code = main(["instrument", "weather.papp", "--urlmap", "urlmap.json",
                 "--triggermap", "triggermap.json", "-o", "again.papp"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: trigger map entry 'onCreate' has an empty url list\n")
    assert not (workdir / "again.papp").exists()


def _url2_spot_stmt_as_string(url_map):
    spot = dict(url_map["url2"][2]["spots"][0], stmt="0")
    return {**url_map, "url2": [*url_map["url2"][:2], {"spots": [spot]}]}


@pytest.mark.parametrize("artifact, edit, message", [
    ("urlmap.json", _url2_spot_stmt_as_string,
     "$.url2[2].spots[0].stmt must be an integer >= 0, got '0'"),
    ("triggermap.json", lambda tm: {"onCreate": "url1"},
     "$.onCreate must be a JSON list, got 'url1'"),
    ("runlog_opt.json",
     lambda log: {k: v for k, v in log.items() if k != "events"},
     "$.events is missing"),
    ("oracle.json", lambda oracle: [{"callback": oracle[0]["callback"]}],
     "$[0].prefetchable is missing"),
], ids=["urlmap", "triggermap", "runlog", "oracle"])
def test_malformed_artifact_is_error(workdir, capsys, artifact, edit, message):
    _run_pipeline_by_hand(workdir)
    path = workdir / artifact
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    if artifact in ("urlmap.json", "triggermap.json"):
        code = main([
            "instrument", "weather.papp", "--urlmap", "urlmap.json",
            "--triggermap", "triggermap.json", "--signature", "getInputStream",
            "-o", "again.papp",
        ])
    else:
        code = main([
            "report", "--base", "runlog_base.json", "--opt", "runlog_opt.json",
            "--oracle", "oracle.json",
        ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {artifact}: {message}")


@pytest.mark.parametrize("hints, message", [
    ([], "$ must be a JSON object, got []"),
    ({"extra_static_urls": [{"url": "x"}]},
     "$.extra_static_urls[0].url_id is missing"),
    ({"extra_static_urls": {"url_id": "u", "url": "x"}},
     "$.extra_static_urls must be a JSON list, got {"),
    ({"extra_trigger_entries": [{"callback": "onCreate", "url_ids": "url1"}]},
     "$.extra_trigger_entries[0].url_ids must be a JSON list, got 'url1'"),
    ({"extra_trigger_entries": [
        {"callback": "onCreate", "url_ids": ["url1"], "at": "start"}]},
     '$.extra_trigger_entries[0].at must be one of "launch", "end", '
     "got 'start'"),
    ({"rewrite_rules": [
        {"url_id": "url2", "m": "3", "find": "a", "replace": "b"}]},
     "$.rewrite_rules[0].m must be an integer >= 0, got '3'"),
], ids=["list", "static-url-without-id", "static-urls-object",
        "url-ids-string", "unknown-at", "string-part-index"])
def test_malformed_hints_is_error(workdir, capsys, hints, message):
    (workdir / "h.json").write_text(json.dumps(hints))
    code = main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--hints", "h.json", "--outdir", "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: h.json: {message}")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("m", [0, 99])
def test_url_map_spot_part_outside_the_url_is_error(workdir, capsys, m):
    # the written app would hold send_definition(cityName, url2, m), which
    # the tool's own parser rejects
    _run_pipeline_by_hand(workdir)
    url_map = json.loads((workdir / "urlmap.json").read_text())
    url_map["url2"][2]["spots"][0]["m"] = m
    (workdir / "urlmap.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    code = main([
        "instrument", "weather.papp", "--urlmap", "urlmap.json",
        "--triggermap", "triggermap.json", "--signature", "getInputStream",
        "-o", "again.papp",
    ])
    assert code == 2
    assert f"missing part url2[{m}]" in capsys.readouterr().err
    assert not (workdir / "again.papp").exists()


def _url2_spot_naming_part_2(url_map):
    url_map["url2"][2]["spots"][0]["m"] = 2


def _url2_spot_under_its_resource_part(url_map):
    spot = dict(url_map["url2"][2]["spots"][0], m=1)
    url_map["url2"][0] = {"spots": [spot]}


def _url2_spot_at_the_city_id(url_map):
    url_map["url2"][2]["spots"][0]["container"] = "onClick"


@pytest.mark.parametrize("edit, message", [
    (_url2_spot_naming_part_2,
     "definition spot onItemSelected[0] names part 2 but is listed under url2[3]"),
    (_url2_spot_under_its_resource_part,
     "definition spot onItemSelected[0] is not a definition of url2[1] "
     "(resource domain)"),
    (_url2_spot_at_the_city_id,
     "definition spot onClick[0] is not a definition of url2[3] (var cityName)"),
], ids=["m-of-another-part", "under-a-resource-part", "another-variable"])
def test_url_map_spot_that_does_not_define_its_part_is_error(workdir, capsys,
                                                            edit, message):
    # each map would write a send_definition that makes the proxy prefetch
    # a URL the app never demands: url2 with its literal part overwritten,
    # with "Gothenburg" as its host, or with the city id as the city name
    _run_pipeline_by_hand(workdir)
    url_map = json.loads((workdir / "urlmap.json").read_text())
    edit(url_map)
    (workdir / "urlmap.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    code = main(["instrument", "weather.papp", "--urlmap", "urlmap.json",
                 "--triggermap", "triggermap.json", "-o", "again.papp"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "again.papp").exists()


def test_trigger_map_with_an_unknown_url_is_error(workdir, capsys):
    _run_pipeline_by_hand(workdir)
    (workdir / "triggermap.json").write_text(
        json.dumps({"onCreate": ["ghost"], "onItemSelected": ["url1"]}))
    capsys.readouterr()
    code = main(["instrument", "weather.papp", "--urlmap", "urlmap.json",
                 "--triggermap", "triggermap.json", "-o", "again.papp"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: trigger map names unknown url 'ghost'\n")
    assert not (workdir / "again.papp").exists()


def _extra_part_on_url1(url_map):
    url_map["url1"].append({"concrete": "EXTRA"})


def _last_part_of_url2_dropped(url_map):
    url_map["url2"].pop()


@pytest.mark.parametrize("edit, url_id, given, built", [
    (_extra_part_on_url1, "url1", 4, 3),
    (_last_part_of_url2_dropped, "url2", 2, 3),
], ids=["extra-part", "missing-part"])
@pytest.mark.parametrize("command", ["instrument", "run"])
def test_url_map_with_the_wrong_part_count_is_error(workdir, capsys, command,
                                                    edit, url_id, given, built):
    # an extra concrete part would make the proxy prefetch a URL that the
    # app never builds, so the demand misses the cache
    _run_pipeline_by_hand(workdir)
    url_map = json.loads((workdir / "urlmap.json").read_text())
    edit(url_map)
    (workdir / "bad_urlmap.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    if command == "instrument":
        code = main(["instrument", "weather.papp", "--urlmap", "bad_urlmap.json",
                     "--triggermap", "triggermap.json", "-o", "again.papp"])
    else:
        code = main(["run", "--app", "optimized.papp", "--trace", "trace.json",
                     "--seed-urlmap", "bad_urlmap.json", "--out", "again.json"])
    assert code == 2
    assert (f"url map gives url '{url_id}' {given} parts, but the app builds "
            f"it from {built}") in capsys.readouterr().err
    assert not (workdir / "again.papp").exists()
    assert not (workdir / "again.json").exists()


def test_seed_url_map_with_an_unknown_url_is_error(workdir, capsys):
    _run_pipeline_by_hand(workdir)
    url_map = json.loads((workdir / "urlmap.json").read_text())
    url_map["ghost"] = [{"concrete": "http://ghost/"}]
    (workdir / "bad_urlmap.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    code = main(["run", "--app", "optimized.papp", "--trace", "trace.json",
                 "--seed-urlmap", "bad_urlmap.json", "--out", "again.json"])
    assert code == 2
    assert "url map names unknown url 'ghost'" in capsys.readouterr().err
    assert not (workdir / "again.json").exists()


@pytest.mark.parametrize("url_id, m, value, own", [
    ("url2", 3, "Stockholm", "not static"),
    ("url1", 1, "http://elsewhere/", "'http://weatherapi/'"),
], ids=["variable-part", "resource-part"])
@pytest.mark.parametrize("command", ["instrument", "run"])
def test_url_map_with_a_concrete_part_not_the_apps_is_error(
        workdir, capsys, command, url_id, m, value, own):
    # the proxy would prefetch a URL built with the map's value, which
    # the app never builds, and the app's demand would go to the origin
    _run_pipeline_by_hand(workdir)
    url_map = json.loads((workdir / "urlmap.json").read_text())
    url_map[url_id][m - 1] = {"concrete": value}
    (workdir / "bad_urlmap.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    if command == "instrument":
        code = main(["instrument", "weather.papp", "--urlmap", "bad_urlmap.json",
                     "--triggermap", "triggermap.json", "-o", "again.papp"])
    else:
        code = main(["run", "--app", "optimized.papp", "--trace", "trace.json",
                     "--seed-urlmap", "bad_urlmap.json", "--out", "again.json"])
    assert code == 2
    assert (f"url map gives part {url_id}[{m}] the concrete value {value!r}, "
            f"but the app's is {own}") in capsys.readouterr().err
    assert not (workdir / "again.papp").exists()
    assert not (workdir / "again.json").exists()


def test_run_rejects_a_trigger_url_that_neither_app_nor_hints_have(workdir,
                                                                   capsys):
    # the proxy would log 'ghost' under skipped_unknown and carry on
    _run_pipeline_by_hand(workdir)
    text = (workdir / "optimized.papp").read_text()
    # onCreate's trigger point comes first
    (workdir / "ghost.papp").write_text(text.replace(
        "trigger_prefetch(url1, url2, url3)", "trigger_prefetch(ghost, url1)", 1))
    argv = ["run", "--app", "ghost.papp", "--trace", "trace.json",
            "--seed-urlmap", "urlmap.json", "--out", "ghost.json"]
    capsys.readouterr()
    assert main(argv) == 2
    assert ("trigger_prefetch in 'onCreate' names unknown url 'ghost'"
            in capsys.readouterr().err)
    assert not (workdir / "ghost.json").exists()
    # a hint URL of that id is one the proxy knows
    (workdir / "hints.json").write_text(json.dumps({"extra_static_urls": [
        {"url_id": "ghost", "url": "http://weatherapi/ghost"}]}))
    assert main(argv + ["--hints", "hints.json"]) == 0


@pytest.mark.parametrize("command", ["instrument", "run"])
def test_url_map_that_leaves_out_a_url_is_error(workdir, capsys, command):
    # without url1's entry the proxy never knows url1, so its prefetch at
    # onCreate is lost and the demand goes to the origin
    _run_pipeline_by_hand(workdir)
    url_map = json.loads((workdir / "urlmap.json").read_text())
    del url_map["url1"]
    (workdir / "bad_urlmap.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    if command == "instrument":
        code = main(["instrument", "weather.papp", "--urlmap", "bad_urlmap.json",
                     "--triggermap", "triggermap.json", "-o", "again.papp"])
    else:
        code = main(["run", "--app", "optimized.papp", "--trace", "trace.json",
                     "--seed-urlmap", "bad_urlmap.json", "--out", "again.json"])
    assert code == 2
    assert "url map leaves out url 'url1'" in capsys.readouterr().err
    assert not (workdir / "again.papp").exists()
    assert not (workdir / "again.json").exists()


@pytest.mark.parametrize("hints, message", [
    ({"rewrite_rules": [
        {"url_id": "nope", "m": 1, "find": "a", "replace": "b"}]},
     "rewrite rule names unknown url 'nope'"),
    ({"rewrite_rules": [
        {"url_id": "url1", "m": 9, "find": "a", "replace": "b"}]},
     "rewrite rule names missing part url1[9]"),
    ({"extra_trigger_entries": [{"callback": "ghost", "url_ids": ["url1"]}]},
     "hint names unknown callback 'ghost'"),
], ids=["rule-unknown-url", "rule-missing-part", "entry-unknown-callback"])
def test_run_checks_hints_as_pipeline_does(workdir, capsys, hints, message):
    _run_pipeline_by_hand(workdir)
    (workdir / "h.json").write_text(json.dumps(hints))
    capsys.readouterr()
    assert main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--hints", "h.json", "--outdir", "out"]) == 2
    assert message in capsys.readouterr().err
    code = main(["run", "--app", "optimized.papp", "--trace", "trace.json",
                 "--seed-urlmap", "urlmap.json", "--hints", "h.json",
                 "--out", "again.json"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "again.json").exists()


def test_a_hint_url_id_given_twice_exits_2(workdir, capsys):
    """The last of the two strings used to win without a word."""
    _run_pipeline_by_hand(workdir)
    (workdir / "h.json").write_text(json.dumps({
        "extra_static_urls": [{"url_id": "h", "url": "http://a/"},
                              {"url_id": "h", "url": "http://b/"}],
        "extra_trigger_entries": [{"callback": "onCreate", "url_ids": ["h"]}],
    }))
    (workdir / "n.json").write_text(json.dumps({"default_latency_ms": 100}))
    capsys.readouterr()
    for argv in (
        ["instrument", "weather.papp", "--urlmap", "urlmap.json",
         "--triggermap", "triggermap.json", "--hints", "h.json",
         "-o", "again.papp"],
        ["run", "--app", "optimized.papp", "--trace", "trace.json",
         "--net", "n.json", "--seed-urlmap", "urlmap.json",
         "--hints", "h.json", "--out", "again.json"],
        ["pipeline", "weather.papp", "--trace", "trace.json", "--net", "n.json",
         "--hints", "h.json", "--outdir", "out"],
    ):
        assert main(argv) == 2, argv[0]
        assert "hint url 'h' is given twice" in capsys.readouterr().err
    for name in ("again.papp", "again.json", "out"):
        assert not (workdir / name).exists()


def test_a_hint_url_id_that_is_not_an_identifier_exits_2(workdir, capsys):
    """`instrument` used to write `trigger_prefetch(bad id)`, which the
    parser then rejected in `run`."""
    _run_pipeline_by_hand(workdir)
    (workdir / "h.json").write_text(json.dumps({
        "extra_static_urls": [{"url_id": "bad id", "url": "http://x/"}],
        "extra_trigger_entries": [
            {"callback": "onCreate", "url_ids": ["bad id"], "at": "launch"}],
    }))
    capsys.readouterr()
    for argv in (
        ["instrument", "weather.papp", "--urlmap", "urlmap.json",
         "--triggermap", "triggermap.json", "--hints", "h.json",
         "-o", "again.papp"],
        ["pipeline", "weather.papp", "--trace", "trace.json",
         "--hints", "h.json", "--outdir", "out"],
    ):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == (
            "error: hint url 'bad id' is not an identifier\n")
    for name in ("again.papp", "out"):
        assert not (workdir / name).exists()


HELPER_APP = """app helped
netmethod get latency=500
callback a {
  let x = input(tx)
  call helper
}
method helper {
}
callback b {
  url u = "http://h/" + x
  get(u)
}
ccfg {
  wait w
  a -> w
  w -> b
}
"""


def test_run_takes_a_trigger_point_in_a_helper_method(workdir):
    """`instrument` puts trigger points only in callbacks; one written by
    hand in a helper method runs there, and the run log and the oracle
    both name the method."""
    (workdir / "helped.papp").write_text(HELPER_APP)
    assert main(["analyze", "helped.papp", "--signature", "get"]) == 0
    (workdir / "opt.papp").write_text(HELPER_APP.replace(
        "method helper {\n", "method helper {\n  send_definition(x, u, 2)\n"
        "  trigger_prefetch(u)\n").replace("get(u)", "fetch_from_proxy(get, u)"))
    (workdir / "t.json").write_text(json.dumps([
        {"event": "a", "inputs": {"tx": "1"}},
        {"event": "b", "think_ms": 1000}]))
    assert main(["run", "--app", "opt.papp", "--trace", "t.json",
                 "--seed-urlmap", "urlmap.json", "--out", "opt.json",
                 "--oracle-out", "oracle.json"]) == 0
    assert main(["run", "--app", "helped.papp", "--trace", "t.json",
                 "--out", "base.json"]) == 0
    evals = [e for e in json.loads((workdir / "opt.json").read_text())["events"]
             if e["type"] == "trigger_eval"]
    assert [(e["callback"], e["issued"]) for e in evals] == [
        ("helper", ["u"])]
    assert main(["report", "--base", "base.json", "--opt", "opt.json",
                 "--oracle", "oracle.json", "--out", "m.json"]) == 0
    pair = json.loads((workdir / "m.json").read_text())["pairs"][0]
    assert (pair["hit_rate"], pair["precision"], pair["recall"]) == (1, 1, 1)


def test_recursive_call_exits_2_and_writes_nothing(workdir, capsys):
    (workdir / "loop.papp").write_text(
        'app loop\nnetmethod get latency=10\n'
        'callback start {\n  url u = "http://h/"\n  get(u)\n  call again\n}\n'
        "method again {\n  call again\n}\nccfg {\n}\n"
    )
    (workdir / "start.json").write_text(json.dumps([{"event": "start"}]))
    code = main(["pipeline", "loop.papp", "--trace", "start.json",
                 "--outdir", "out"])
    assert code == 2
    assert "call depth exceeded at 'again'" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_failed_pipeline_writes_nothing(workdir, capsys):
    # the command rejects the hints as it reads them, before any stage runs
    (workdir / "hints.json").write_text(json.dumps({
        "extra_trigger_entries": [{"callback": "ghost", "url_ids": ["url1"]}],
    }))
    (workdir / "out").mkdir()
    code = main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--hints", "hints.json", "--outdir", "out"])
    assert code == 2
    assert "unknown callback 'ghost'" in capsys.readouterr().err
    assert list((workdir / "out").iterdir()) == []


def test_outdir_below_a_regular_file_exits_2(workdir, capsys):
    (workdir / "plain").write_text("not a directory")
    code = main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--outdir", "plain/out"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: cannot create plain/out: " in err
    assert "Traceback" not in err
    assert (workdir / "plain").read_text() == "not a directory"


def test_a_failed_write_leaves_the_files_before_it(workdir, capsys):
    """Every stage succeeds; the oracle's path is a directory, so the
    sixth of the seven writes fails."""
    (workdir / "out" / "oracle.json").mkdir(parents=True)
    code = main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--outdir", "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write out/oracle.json" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in (workdir / "out").iterdir()) == [
        "optimized.papp", "oracle.json", "runlog_base.json",
        "runlog_opt.json", "triggermap.json", "urlmap.json",
    ]


def _hint_for_url3(workdir, net: dict) -> int:
    """A hint URL equal to url3's string, prefetched at the end of
    onItemSelected, 10 ms before onClick demands url3."""
    trace = [dict(step) for step in WEATHER_TRACE]
    trace[2]["think_ms"] = 10
    (workdir / "trace10.json").write_text(json.dumps(trace))
    (workdir / "hint_net.json").write_text(json.dumps(net))
    (workdir / "hints.json").write_text(json.dumps({
        "extra_static_urls": [
            {"url_id": "urlHint", "url": "http://weatherapi/weather?cityId=842"}
        ],
        "extra_trigger_entries": [
            {"callback": "onItemSelected", "url_ids": ["urlHint"], "at": "end"}
        ],
    }))
    return main(["pipeline", "weather.papp", "--trace", "trace10.json",
                 "--net", "hint_net.json", "--hints", "hints.json",
                 "--outdir", "out"])


def _hint_prefetch_ms(workdir) -> int:
    log = json.loads((workdir / "out" / "runlog_opt.json").read_text())
    (hint,) = [e for e in log["events"]
               if e["type"] == "prefetch" and e["url_id"] == "urlHint"]
    return hint["ready_at"] - hint["issued_at"]


def test_hint_url_without_a_net_config_costs_the_declared_latency(workdir):
    """A hint prefetch costs what the proxy's own fetch costs: here
    getInputStream's declared 800 ms."""
    assert _hint_for_url3(workdir, {}) == 0
    assert _hint_prefetch_ms(workdir) == 800


def test_hint_url_is_charged_the_default_latency(workdir):
    assert _hint_for_url3(workdir, {"default_latency_ms": 500}) == 0
    assert _hint_prefetch_ms(workdir) == 500


def test_hint_url_is_charged_the_per_method_latency(workdir):
    net = {"per_method": {"getInputStream": 300}}
    assert _hint_for_url3(workdir, net) == 0
    assert _hint_prefetch_ms(workdir) == 300


def test_hint_url_colliding_with_an_analyzed_url_exits_2(workdir, capsys):
    assert main(["analyze", "weather.papp"]) == 0
    assert main(["instrument", "weather.papp", "--urlmap", "urlmap.json",
                 "--triggermap", "triggermap.json"]) == 0
    (workdir / "hints.json").write_text(json.dumps({
        "extra_static_urls": [{"url_id": "url1", "url": "http://other/"}],
    }))
    capsys.readouterr()
    code = main(["run", "--app", "optimized.papp", "--trace", "trace.json",
                 "--seed-urlmap", "urlmap.json", "--hints", "hints.json"])
    assert code == 2
    assert "hint url 'url1' already exists in the app" in capsys.readouterr().err


@pytest.mark.parametrize("outcome, code", [
    (None, 0), (UsageError("no"), 1), (FetchaheadError("no"), 2),
    (RuntimeError("no"), None),
], ids=["exit-0", "exit-1", "exit-2", "uncaught"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_pauses_the_collector_and_restores_it(workdir, monkeypatch,
                                                   outcome, code, enabled):
    seen = []

    def stage(*args):
        seen.append(gc.isenabled())
        if outcome is not None:
            raise outcome
        return run_pipeline(*args)

    monkeypatch.setattr(cli, "run_pipeline", stage)
    argv = ["pipeline", "weather.papp", "--trace", "trace.json",
            "--outdir", "out"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == code
        assert (seen, gc.isenabled()) == ([False], enabled)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (["pipeline", "weather.papp", "--trace", "trace.json", "--outdir", "out"], 0),
    (["bench"], 0),
    (["pipeline", "weather.papp", "--trace", "negative.json",
      "--outdir", "out"], 2),
], ids=["weather-pipeline", "bench", "exit-2-pipeline"])
def test_a_command_starts_no_collection_and_leaves_no_cycles(workdir, capsys,
                                                             argv, code):
    """No collection starts during a command, even at the lowest
    allocation threshold, and pausing the collector frees nothing less:
    whatever a command builds, reference counting frees. The warm-up call
    builds the parser, whose argparse formatters are the process's one
    cyclic garbage."""
    trace = [dict(step) for step in WEATHER_TRACE]
    trace[1]["think_ms"] = -1
    (workdir / "negative.json").write_text(json.dumps(trace))
    assert main(["bench", "--latency-ms", "0"]) == 1
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    threshold = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(count)
    try:
        assert main(argv) == code
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert collections == []
    assert gc.collect() == 0


HOME_HINTS = {
    "extra_static_urls": [{"url_id": "urlHome", "url": "http://weatherapi/home"}],
    "extra_trigger_entries": [
        {"callback": "onCreate", "url_ids": ["urlHome"], "at": "launch"}],
}


@pytest.mark.parametrize("argv, counts", [
    (["pipeline", "weather.papp", "--trace", "trace.json",
      "--hints", "hints.json", "--outdir", "out"], (0, 1, 0, 0)),
    (["instrument", "weather.papp", "--urlmap", "urlmap.json",
      "--triggermap", "triggermap.json", "--hints", "hints.json",
      "-o", "again.papp"], (1, 1, 1, 0)),
    (["run", "--app", "optimized.papp", "--trace", "trace.json",
      "--seed-urlmap", "urlmap.json", "--hints", "hints.json",
      "--out", "again.json"], (1, 1, 0, 1)),
], ids=["pipeline", "instrument", "run"])
def test_each_command_checks_each_input_once(workdir, monkeypatch, capsys,
                                             argv, counts):
    """The calls of the url map, hints, trigger map and trigger point
    checks: each input is checked once, where the command reads it, and
    `pipeline` checks nothing it built itself."""
    _run_pipeline_by_hand(workdir)
    (workdir / "hints.json").write_text(json.dumps(HOME_HINTS))
    calls: Counter = Counter()

    def count(owner, name, key):
        check = getattr(owner, name)

        def counted(*args):
            calls[key] += 1
            return check(*args)

        monkeypatch.setattr(owner, name, counted)

    count(UrlMap, "check", "url map")
    count(Hints, "check", "hints")
    for module in (cli, instrumenter):
        count(module, "check_trigger_map", "trigger map")
        count(module, "check_trigger_points", "trigger points")
    assert main(argv) == 0, capsys.readouterr().err
    assert tuple(calls[key] for key in (
        "url map", "hints", "trigger map", "trigger points")) == counts


def test_pipeline_rejects_an_instrumented_app(workdir, capsys):
    # `analyze` does the same (tests/test_callback_analysis.py)
    assert main(["pipeline", "weather.papp", "--trace", "trace.json",
                 "--outdir", "out"]) == 0
    capsys.readouterr()
    assert main(["pipeline", "out/optimized.papp", "--trace", "trace.json",
                 "--outdir", "again"]) == 2
    assert capsys.readouterr().err == "error: app is already instrumented\n"
    assert not (workdir / "again").exists()


SHIFTED_APP = """app shifted
netmethod get latency=500
callback a {
  let x = input(tx)
  let y = input(ty)
}
callback b {
  url u = "http://h/" + x + y
  get(u)
}
ccfg {
  wait w
  a -> w
  w -> b
}
"""


def test_run_reads_the_url_map_in_the_positions_of_the_original_app(
        workdir, capsys):
    """`instrument` inserts statements before `let y`, a launch trigger
    point and x's send_definition, so y's definition spot a[1] is a[3]
    in the instrumented app. `run --seed-urlmap` applies the url map's
    spot rule with the positions that the url map names, those of the
    original app, and still rejects a spot that is no definition."""
    (workdir / "shifted.papp").write_text(SHIFTED_APP)
    (workdir / "t.json").write_text(json.dumps([
        {"event": "a", "inputs": {"tx": "1", "ty": "2"}},
        {"event": "b", "think_ms": 1000}]))
    (workdir / "h.json").write_text(json.dumps({
        "extra_static_urls": [{"url_id": "home", "url": "http://h/home"}],
        "extra_trigger_entries": [
            {"callback": "a", "url_ids": ["home"], "at": "launch"}]}))
    assert main(["pipeline", "shifted.papp", "--trace", "t.json",
                 "--hints", "h.json", "--outdir", "out"]) == 0
    optimized = (workdir / "out" / "optimized.papp").read_text()
    assert optimized.index("send_definition(x, u, 2)") < optimized.index("let y")
    argv = ["run", "--app", "out/optimized.papp", "--trace", "t.json",
            "--hints", "h.json", "--out", "rerun.json"]
    assert main(argv + ["--seed-urlmap", "out/urlmap.json"]) == 0
    assert ((workdir / "rerun.json").read_bytes()
            == (workdir / "out" / "runlog_opt.json").read_bytes())
    url_map = json.loads((workdir / "out" / "urlmap.json").read_text())
    assert url_map["u"][2]["spots"][0] == {"container": "a", "stmt": 1,
                                           "m": 3, "n": 1}
    url_map["u"][2]["spots"][0]["stmt"] = 3
    (workdir / "bad.json").write_text(json.dumps(url_map))
    capsys.readouterr()
    assert main(argv + ["--seed-urlmap", "bad.json"]) == 2
    assert capsys.readouterr().err == (
        "error: definition spot a[3] is not a definition of u[3] (var y)\n")
