"""Golden hashes of the `pipeline` artifacts and the `bench` TSV.

`fixtures/golden.json` holds, for the weather fixture and for
`appgen.make_app` seeds 0-49 (each with its own trace and net model), the
exit code of `fetchahead pipeline` and the sha256 of each artifact it
wrote, plus the sha256 of the `fetchahead bench` TSV at its default
settings. It also holds the sha256 of what `bench`, `report`,
`pipeline`, `analyze`, `instrument` and `run` write or print as JSON and
text besides those artifacts. The text that `analyze`, `instrument` and
`run` print is keyed by the command and its input alone, and the text
`bench` prints by `bench` and, with `--out`, by `bench --out .tsv`. A
change that alters any of them must say why. To record the fixture
again:

    PYTHONPATH=src python tests/test_golden.py > tests/fixtures/golden.json
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fetchahead  # noqa: E402
from appgen import make_app  # noqa: E402
from fetchahead.app_ir import print_app  # noqa: E402
from fetchahead.cli import main  # noqa: E402
from fetchahead.runtime import (  # noqa: E402
    NetModel,
    Trace,
    TraceStep,
    net_model_to_json_obj,
    trace_to_json_obj,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden.json"
ARTIFACTS = ("urlmap.json", "triggermap.json", "optimized.papp",
             "runlog_base.json", "runlog_opt.json", "oracle.json",
             "metrics.json")
APPGEN_SEEDS = range(50)
# the run-log pairs that `report` reads, and the `pipeline --json` inputs
REPORT_INPUTS = ("weather", "appgen-9")

WEATHER_TRACE = Trace((
    TraceStep("onCreate", 0, {}),
    TraceStep("onItemSelected", 2000, {"citySelection": "Gothenburg"}),
    TraceStep("onClick", 2000, {"cityIdText": "842"}),
))


def _inputs(name: str) -> tuple[str, Trace, NetModel]:
    if name == "weather":
        return (FIXTURES / "weather.papp").read_text(), WEATHER_TRACE, NetModel()
    app, trace, net = make_app(random.Random(int(name.removeprefix("appgen-"))))
    return print_app(app), trace, net


INPUTS = ["weather"] + [f"appgen-{seed}" for seed in APPGEN_SEEDS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet_main(argv: list[str]) -> int:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(argv)


def _stdout_of(argv: list[str]) -> str:
    """What a `main` call that must succeed prints."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue()


def pipeline_digest(name: str, workdir: Path) -> dict:
    """Exit code and artifact hashes of one `pipeline` run."""
    text, trace, net = _inputs(name)
    (workdir / "app.papp").write_text(text)
    (workdir / "trace.json").write_text(json.dumps(trace_to_json_obj(trace)))
    (workdir / "net.json").write_text(json.dumps(net_model_to_json_obj(net)))
    out = workdir / "out"
    code = _quiet_main([
        "pipeline", str(workdir / "app.papp"),
        "--trace", str(workdir / "trace.json"),
        "--net", str(workdir / "net.json"), "--outdir", str(out),
    ])
    return {
        "exit": code,
        "artifacts": {
            a: _sha256((out / a).read_bytes())
            for a in ARTIFACTS if (out / a).exists()
        },
    }


def bench_digest(workdir: Path) -> str:
    tsv = workdir / "bench.tsv"
    assert _quiet_main(["bench", "--out", str(tsv)]) == 0
    return _sha256(tsv.read_bytes())


def _sha_stdout(argv: list[str], inputs: Path) -> str:
    """sha256 of what a `main` call prints, with `inputs` written as
    `<dir>`."""
    return _sha256(_stdout_of(argv).replace(str(inputs), "<dir>").encode())


def stage_digests(name: str, inputs: Path) -> dict:
    """sha256 of what `analyze`, `instrument` and `run` write, and print
    as text and with `--json`, on the inputs of one `pipeline_digest`
    call, with `inputs` written as `<dir>`; `run` executes the
    instrumented app and writes its oracle."""
    profile = ["--trace", str(inputs / "trace.json"),
               "--net", str(inputs / "net.json")]
    urlmap, triggermap = inputs / "urlmap.json", inputs / "triggermap.json"
    app, out = str(inputs / "app.papp"), inputs / "out"
    log, oracle = inputs / "runlog.json", inputs / "oracle.json"
    commands = {
        "analyze": ["analyze", app, *profile, "--urlmap-out", str(urlmap),
                    "--triggermap-out", str(triggermap)],
        "instrument": ["instrument", app, "--urlmap", str(urlmap),
                       "--triggermap", str(triggermap), *profile,
                       "--out", str(inputs / "optimized.papp")],
        "run": ["run", "--app", str(out / "optimized.papp"), *profile,
                "--seed-urlmap", str(out / "urlmap.json"), "--out", str(log),
                "--oracle-out", str(oracle)],
    }
    digests = {}
    for command, argv in commands.items():
        digests[f"{command} {name}"] = _sha_stdout(argv, inputs)
        digests[f"{command} {name} --json"] = _sha_stdout(argv + ["--json"], inputs)
    digests[f"analyze {name} --urlmap-out"] = _sha256(urlmap.read_bytes())
    digests[f"analyze {name} --triggermap-out"] = _sha256(triggermap.read_bytes())
    digests[f"run {name} --oracle-out"] = _sha256(oracle.read_bytes())
    return digests


def output_digests(workdir: Path) -> dict:
    """sha256 of the `bench` JSON and text, the latter with and without
    `--out` (whose path is written as `<dir>`), of the `report` JSON and
    text over one pair (no oracle) and over two pairs (with oracles and a
    summary), of the `pipeline --json` and text stdout, whose temporary
    outdir is written as `<outdir>`, and the `stage_digests` of each
    input."""
    def sha(text: str) -> str:
        return _sha256(text.encode())

    digests = {}
    bench = workdir / "bench.json"
    digests["bench --json"] = sha(_stdout_of(["bench", "--json", "--out", str(bench)]))
    digests["bench --out .json"] = _sha256(bench.read_bytes())
    digests["bench"] = sha(_stdout_of(["bench"]))
    digests["bench --out .tsv"] = _sha_stdout(
        ["bench", "--out", str(workdir / "bench.tsv")], workdir)

    outs = []
    for name in REPORT_INPUTS:
        inputs = workdir / name
        inputs.mkdir()
        assert pipeline_digest(name, inputs)["exit"] == 0
        outs.append(inputs / "out")
        for flag in ("--json", None):
            argv = ["pipeline", str(inputs / "app.papp"),
                    "--trace", str(inputs / "trace.json"),
                    "--net", str(inputs / "net.json"),
                    "--outdir", str(inputs / "again")]
            stdout = _stdout_of(argv + ([flag] if flag else []))
            digests[f"pipeline {name} {flag or 'text'}"] = sha(
                stdout.replace(str(inputs / "again"), "<outdir>"))
        digests.update(stage_digests(name, inputs))

    def pair(out: Path) -> list[str]:
        return ["--base", str(out / "runlog_base.json"),
                "--opt", str(out / "runlog_opt.json")]

    two_pairs = [arg for out in outs
                 for arg in pair(out) + ["--oracle", str(out / "oracle.json")]]
    for label, argv in (("1 pair", pair(outs[0])), ("2 pairs", two_pairs)):
        path = workdir / f"report {label}.json"
        digests[f"report {label} --json"] = sha(
            _stdout_of(["report", *argv, "--json", "--out", str(path)]))
        digests[f"report {label} --out"] = _sha256(path.read_bytes())
        digests[f"report {label} text"] = sha(_stdout_of(["report", *argv]))
    return digests


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", INPUTS)
def test_pipeline_artifacts_unchanged(golden, name, tmp_path):
    assert pipeline_digest(name, tmp_path) == golden["pipeline"][name]


def test_bench_tsv_unchanged(golden, tmp_path):
    assert bench_digest(tmp_path) == golden["bench_tsv"]


def test_cli_outputs_unchanged(golden, tmp_path):
    assert output_digests(tmp_path) == golden["outputs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        record = {"pipeline": {}, "bench_tsv": bench_digest(root)}
        (root / "outputs").mkdir()
        record["outputs"] = output_digests(root / "outputs")
        for name in INPUTS:
            workdir = root / name
            workdir.mkdir()
            record["pipeline"][name] = pipeline_digest(name, workdir)
    print(json.dumps(record, indent=2, sort_keys=True))


# each argument names an input directory; its artifacts go to out/<name>
_PIPELINES = """
import sys
from fetchahead.cli import main
for inputs in sys.argv[1:]:
    name = inputs.rsplit("/", 1)[-1]
    code = main(["pipeline", f"{inputs}/app.papp", "--trace", f"{inputs}/trace.json",
                 "--net", f"{inputs}/net.json", "--outdir", f"out/{name}"])
    print(name, code)
"""


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """`pipeline` writes the same bytes under every PYTHONHASHSEED, so no
    set or dict order of strings reaches an artifact."""
    names = ["weather"] + [f"appgen-{seed}" for seed in range(10)]
    for name in names:
        text, trace, net = _inputs(name)
        inputs = tmp_path / name
        inputs.mkdir()
        (inputs / "app.papp").write_text(text)
        (inputs / "trace.json").write_text(json.dumps(trace_to_json_obj(trace)))
        (inputs / "net.json").write_text(json.dumps(net_model_to_json_obj(net)))
    src = str(Path(fetchahead.__file__).parent.parent)
    runs = []
    for hash_seed in ("0", "1", "12345"):
        cwd = tmp_path / f"hash-{hash_seed}"
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _PIPELINES,
             *(str(tmp_path / name) for name in names)],
            cwd=cwd, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stderr
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs.append((done.stdout, done.stderr, files))
    assert sorted(f for f in runs[0][2] if f.startswith("out/weather/")) == sorted(
        f"out/weather/{a}" for a in ARTIFACTS)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
