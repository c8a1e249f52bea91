"""The scripts under `tools/` import names from `tests/test_cli_fuzz.py`,
`perfbench/gen.py` and `perfbench/spans.py`, and `pytest` does not
collect them: these tests build their cases and count one pipeline, so a
rename there fails here rather than in the next comparison."""

import importlib
import importlib.util
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fetchahead import runtime
from test_cli_fuzz import TRACE

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name, monkeypatch):
    """`tools/<name>.py`, imported with `sys.path` put back after the test."""
    monkeypatch.setattr(sys, "path", [str(TOOLS.parent / "perfbench"),
                                      *sys.path])
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_trees_builds_its_cases(tmp_path, monkeypatch):
    tool = _tool("compare_trees", monkeypatch)
    pipelines = tool.pipeline_cases(1, tmp_path / "inputs")
    mutations, papps = tool.mutation_cases(1, 5, tmp_path / "inputs")
    assert len(pipelines) == 408
    argv = {c["name"]: c["argv"] for c in pipelines}
    assert argv.keys() >= {
        "corpus/weather", "hints/weather", "missing-input/long_session"}
    # the cases that reach the untyped JSON writer
    assert argv["json/weather"] == argv["corpus/weather"] + ["--json"]
    assert argv["bench/out"] == ["bench", "--out", "{out}/bench.json"]
    assert argv["bench/json"] == ["bench", "--json"]
    # the last `home` step of the long session, without its inputs
    missing = next(c for c in pipelines
                   if c["name"] == "missing-input/long_session")
    steps = json.loads(Path(missing["argv"][3]).read_text())
    homes = [k for k, step in enumerate(steps) if step["event"] == "home"]
    assert len(homes) > runtime._COMPILE_AFTER
    assert steps[homes[-1]]["inputs"] == {}
    assert all(steps[k]["inputs"] for k in homes[:-1])
    assert {int(c["name"].split()[0]) for c in mutations} == set(range(5))
    for case in pipelines + mutations:
        if case["name"] == "bench/json":  # writes no file
            continue
        assert case["argv"][0] in ("pipeline", "instrument", "run", "report",
                                   "bench")
        assert any(a.startswith("{out}") for a in case["argv"]), case["name"]
    # the .papp cases: each one line-level edit of the weather fixture,
    # run through analyze
    assert len(papps) == tool.PAPP_MUTATIONS
    weather = (tmp_path / "inputs" / "weather.papp").read_text()
    edits = Counter()
    for case in papps:
        assert case["argv"][0] == "analyze"
        assert any(a.startswith("{out}") for a in case["argv"]), case["name"]
        edits[case["name"].split()[2]] += 1
        mutated = Path(case["argv"][1]).read_text()
        assert len(mutated.splitlines()) - len(weather.splitlines()) in range(-1, 9)
    assert set(edits) == {"delete", "copy", "swap"}


def test_stage_bytecodes_counts_only_the_benchmark_spans(
        tmp_path, monkeypatch, weather_text):
    tool = _tool("stage_bytecodes", monkeypatch)
    spans = importlib.import_module("spans")
    (tmp_path / "weather.papp").write_text(weather_text)
    (tmp_path / "trace.json").write_text(json.dumps(TRACE))
    cli = importlib.import_module("fetchahead.cli")
    counts, codes, _ = tool.count_pipelines(cli, [[
        "pipeline", str(tmp_path / "weather.papp"),
        "--trace", str(tmp_path / "trace.json"),
        "--outdir", str(tmp_path / "out")]])
    assert codes == [0]
    runs = {"runtime.run_base", "runtime.run_opt"}
    names = {name for _, _, name in spans.WRAPPED if isinstance(name, str)}
    assert runs <= set(counts) <= names | runs
    assert "cli.main" in names


def test_stage_bytecodes_counts_the_same_with_re_warm_or_cold(
        tmp_path, monkeypatch, weather_text):
    """argparse compiles a pattern, which `re` caches, on the first parse
    of an option with one value; the tool's own options may have compiled
    it already. The count must not depend on that."""
    tool = _tool("stage_bytecodes", monkeypatch)
    (tmp_path / "weather.papp").write_text(weather_text)
    (tmp_path / "trace.json").write_text(json.dumps(TRACE))
    cli = importlib.import_module("fetchahead.cli")
    argvs = [["pipeline", str(tmp_path / "weather.papp"),
              "--trace", str(tmp_path / "trace.json"),
              "--outdir", str(tmp_path / "out")]]
    tool.count_pipelines(cli, argvs)  # builds the parser and the outdir
    warm, _, _ = tool.count_pipelines(cli, argvs)
    re.purge()
    cold, _, _ = tool.count_pipelines(cli, argvs)
    assert warm == cold


def test_stage_bytecodes_splits_one_span_by_function(
        tmp_path, monkeypatch, weather_text):
    """Each bytecode of the span counts against the function running it,
    and no other span's functions show."""
    tool = _tool("stage_bytecodes", monkeypatch)
    (tmp_path / "weather.papp").write_text(weather_text)
    (tmp_path / "trace.json").write_text(json.dumps(TRACE))
    cli = importlib.import_module("fetchahead.cli")
    argvs = [["pipeline", str(tmp_path / "weather.papp"),
              "--trace", str(tmp_path / "trace.json"),
              "--outdir", str(tmp_path / "out")]]
    counts, codes, functions = tool.count_pipelines(cli, argvs, "cli.main")
    assert codes == [0]
    assert sum(functions.values()) == counts["cli.main"]
    assert functions["cli._write_text"] > 0
    assert "app_ir.parse_app" not in functions
    _, _, parse = tool.count_pipelines(cli, argvs, "app_ir.parse")
    assert parse["app_ir.parse_app"] > 0
    assert "cli._write_text" not in parse
    _, _, logs = tool.count_pipelines(cli, argvs, "runtime.codec")
    # each compiled writer under the name of its type
    assert logs["<writer Demand>.<lambda>"] > 0
    assert logs["<writer tuple[str, ...]>.<lambda>"] > 0


@pytest.mark.parametrize("name", sorted(p.stem for p in TOOLS.glob("*.py")))
def test_each_tool_prints_its_help(name):
    done = subprocess.run([sys.executable, str(TOOLS / f"{name}.py"), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
