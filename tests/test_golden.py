"""Golden hashes of the `pipeline` artifacts and the `bench` TSV.

`fixtures/golden.json` holds, for the weather fixture and for
`appgen.make_app` seeds 0-49 (each with its own trace and net model), the
exit code of `fetchahead pipeline` and the sha256 of each artifact it
wrote, plus the sha256 of the `fetchahead bench` TSV at its default
settings. A change that alters any of them must say why. To record the
fixture again:

    PYTHONPATH=src python tests/test_golden.py > tests/fixtures/golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", INPUTS)
def test_pipeline_artifacts_unchanged(golden, name, tmp_path):
    assert pipeline_digest(name, tmp_path) == golden["pipeline"][name]


def test_bench_tsv_unchanged(golden, tmp_path):
    assert bench_digest(tmp_path) == golden["bench_tsv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        record = {"pipeline": {}, "bench_tsv": bench_digest(root)}
        for name in INPUTS:
            workdir = root / name
            workdir.mkdir()
            record["pipeline"][name] = pipeline_digest(name, workdir)
    print(json.dumps(record, indent=2, sort_keys=True))
