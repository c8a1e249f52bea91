"""Compare what `fetchahead pipeline` writes in this tree and in another.

    python3 tools/compare_artifacts.py PARENT_SRC [--seed N]

PARENT_SRC is the `src/` directory of the tree to compare against, e.g.
one unpacked with `git archive <commit> | tar -x -C <dir>`. Run the script
from anywhere; it compares against this tree's `src/`.

The inputs are the three benchmark workloads' apps and traces for seed N
(default 7), written by `perfbench/gen.py` (imported, not changed), plus
the weather fixture with and without a fixed hints file. Each tree runs
every input through `fetchahead.cli.main(["pipeline", ...])`, all of them
in one process per tree. The script prints every (input, artifact) pair
whose bytes differ and every difference in exit code, stderr or stdout,
with each tree's output directory replaced by `<outdir>`. It exits 1 on
any difference and 0 when there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The README's example hints, with an end entry merged into a trigger
# callback's trigger point and a rewrite rule on the city name.
WEATHER_HINTS = {
    "extra_static_urls": [{"url_id": "urlHome",
                           "url": "http://weatherapi/home"}],
    "extra_trigger_entries": [
        {"callback": "onCreate", "url_ids": ["urlHome"], "at": "launch"},
        {"callback": "onItemSelected", "url_ids": ["urlHome", "url1"]},
    ],
    "rewrite_rules": [{"url_id": "url2", "m": 3, "find": "o",
                       "replace": "0"}],
}


def write_inputs(seed: int, inputs: Path) -> list[dict]:
    """Write every input; returns one {name, argv} per pipeline, where
    argv is the `pipeline` arguments before `--outdir`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import gen

    cases = []
    for workload, generate in gen.GENERATORS.items():
        for w in gen.write_cases(generate(seed), inputs / workload):
            argv = ["pipeline", str(w.papp), "--trace", str(w.trace)]
            cases.append({"name": f"{workload}/{w.name}", "argv": argv})
            if w.name == "weather":
                hints = inputs / "weather.hints.json"
                hints.write_text(json.dumps(WEATHER_HINTS), encoding="utf-8")
                cases.append({"name": "hints/weather",
                              "argv": argv + ["--hints", str(hints)]})
    return cases


def run_tree(src: Path, cases_file: Path, out: Path) -> None:
    """Run every case with the `fetchahead` under `src`, in this process,
    and write each one's exit code, stdout and stderr to `out`."""
    sys.path.insert(0, str(src))
    from fetchahead import cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fetchahead imported from {cli.__file__}, "
                          f"not from {src}")
    results = {}
    for case in json.loads(cases_file.read_text(encoding="utf-8")):
        outdir = out / case["name"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(case["argv"] + ["--outdir", str(outdir)])
            except Exception:
                code = None
                traceback.print_exc()
        results[case["name"]] = {
            "exit": code,
            "stdout": stdout.getvalue().replace(str(outdir), "<outdir>"),
            "stderr": stderr.getvalue().replace(str(outdir), "<outdir>"),
        }
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(results), encoding="utf-8")


def differences(cases: list[dict], parent: Path, child: Path) -> list[str]:
    found = []
    results = [json.loads((side / "results.json").read_text(encoding="utf-8"))
               for side in (parent, child)]
    for case in cases:
        name = case["name"]
        for key in ("exit", "stdout", "stderr"):
            before, after = (r[name][key] for r in results)
            if before != after:
                found.append(f"{name}: {key} {before!r} -> {after!r}")
        files = [{p.name: p for p in (side / name).glob("*")}
                 if (side / name).is_dir() else {} for side in (parent, child)]
        for artifact in sorted(files[0].keys() | files[1].keys()):
            before, after = (f[artifact].read_bytes() if artifact in f else None
                             for f in files)
            if before != after:
                found.append(f"{name}: {artifact} differs")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tree", nargs=3, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree:  # one tree's side, in its own process
        run_tree(*args.tree)
        return 0
    with tempfile.TemporaryDirectory(prefix="compare_artifacts-") as tmp:
        work = Path(tmp)
        cases = write_inputs(args.seed, work / "inputs")
        cases_file = work / "cases.json"
        cases_file.write_text(json.dumps(cases), encoding="utf-8")
        sides = {"parent": args.parent_src, "child": ROOT / "src"}
        runs = [subprocess.Popen([sys.executable, __file__, str(args.parent_src),
                                  "--tree", str(src), str(cases_file),
                                  str(work / side)])
                for side, src in sides.items()]
        if [run.wait() for run in runs] != [0, 0]:
            print("a tree's run failed", file=sys.stderr)
            return 1
        found = differences(cases, work / "parent", work / "child")
    for line in found:
        print(line)
    print(f"{len(cases)} pipelines, seed {args.seed}: "
          f"{len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
