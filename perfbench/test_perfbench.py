"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import hostspeed
import measure
import run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "large_app": {"callbacks": 6, "variables": 6, "defs_per_var": 2},
    "long_session": {"screens": 3, "steps": 12, "vocabulary": 2},
    "corpus": {"apps": 5},
}

# simulated outcomes: the same for every seed and every repetition
DETERMINISTIC = ("hit_rate", "latency_reduction_pct", "wasted_prefetch_ratio",
                 "precision", "recall")


def _run(tmp_path: Path, workload: str, seed: int, traced: bool):
    return measure.run_workload(SRC, tmp_path / f"{workload}-{seed}-{traced}",
                                workload, seed, 0, traced, TINY[workload])


def test_corpus_matches_the_documented_no_net_call_count():
    sys.path.insert(0, str(SRC))
    cases = gen.corpus(1)
    assert len(cases) == 401
    assert sum(c.expect_exit == 2 for c in cases) == 36


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke(tmp_path, workload, traced):
    r = _run(tmp_path, workload, 1, traced)
    assert r.correct, r.failures
    assert r.untraced_s and (r.traced_s if traced else not r.traced_s)
    metrics = run.per_layer(r) if traced else run.end_to_end(r)
    section = "per_layer" if traced else "end_to_end"
    names = {m["name"] for m in BENCHMARK[section]}
    assert set(metrics) == names
    assert not (tmp_path / f"{workload}-1-{traced}").exists()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_outcomes_do_not_depend_on_seed_or_invocation(tmp_path, workload):
    first, again, other = (_run(tmp_path, workload, seed, False)
                           for seed in (1, 1, 2))
    for r in (first, again, other):
        assert r.correct, r.failures
    layer_counts = {k: v for k, v in first.counts.items()
                    if k.startswith(("runtime.", "metrics."))}
    for r in (again, other):
        assert {k: r.counts[k] for k in layer_counts} == layer_counts
        assert ({k: run.end_to_end(r)[k][0] for k in DETERMINISTIC}
                == {k: run.end_to_end(first)[k][0] for k in DETERMINISTIC})


def test_host_speed_scale_uses_the_kernel_median_of_the_interval():
    speed = hostspeed.HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    speed.seconds = [0.001] * 3 + [0.002] * 4
    ref = hostspeed.REFERENCE_KERNEL_S
    assert speed.scale(1.5, 6.5) == ref / 0.002
    # too few samples inside: the nearest ones are borrowed
    assert speed.scale(0.0, 0.5) == ref / 0.001


def test_seed_changes_the_strings(tmp_path):
    sys.path.insert(0, str(SRC))
    a = gen.write_cases(gen.large_app(1, **TINY["large_app"]), tmp_path / "a")
    b = gen.write_cases(gen.large_app(2, **TINY["large_app"]), tmp_path / "b")
    assert a[0].papp.read_bytes() != b[0].papp.read_bytes()
    assert a[0].stmts == b[0].stmts


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
