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
from pathlib import Path

import pytest

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
    mutations = tool.mutation_cases(1, 5, tmp_path / "inputs")
    assert len(pipelines) == 404
    assert {c["name"] for c in pipelines} >= {"corpus/weather", "hints/weather"}
    assert {int(c["name"].split()[0]) for c in mutations} == set(range(5))
    for case in pipelines + mutations:
        assert case["argv"][0] in ("pipeline", "instrument", "run", "report")
        assert any(a.startswith("{out}") for a in case["argv"]), case["name"]


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
