"""Compare how this tree and another reject mutated JSON inputs.

    python3 tools/compare_rejections.py PARENT_SRC [--seed N] [--count K]

PARENT_SRC is the `src/` directory of the tree to compare against, e.g.
one unpacked with `git archive <commit> | tar -x -C <dir>`. Run the script
from anywhere; it compares against this tree's `src/`.

The inputs are those of `tests/test_cli_fuzz.py`: the weather fixture's
trace, net config and hints, and the url map, trigger map, run logs and
oracle that a hinted `pipeline` writes for them. The script draws K
(default 2,000) mutations with `random.Random(N)` (default seed 1), each
one input changed at one position by the fuzz test's own `_positions` and
`_mutated`, and runs each through every subcommand that reads that input
(the fuzz test's `COMMANDS`). Each tree runs every case with
`fetchahead.cli.main`, all of them in one process per tree. The script
prints every case whose exit code or stderr differs, with each tree's
output directory replaced by `<out>`, then a count of the exit codes. It
exits 1 on any difference and 0 when there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import random
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOWS = ("drop", "rename", "lengthen", "shorten", "empty", "other")


def _fuzz_module():
    """`tests/test_cli_fuzz.py`, imported with this tree's `fetchahead`."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "cli_fuzz", ROOT / "tests" / "test_cli_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return fuzz


def write_cases(seed: int, count: int, work: Path) -> list[dict]:
    """Write the valid inputs and `count` mutated ones under `work`;
    returns one {name, argv} per (mutation, subcommand), where "{out}" in
    argv stands for the running tree's output directory."""
    fuzz = _fuzz_module()
    valid = work / "valid"
    valid.mkdir(parents=True)
    files = {"app": valid / "weather.papp"}
    files["app"].write_text((ROOT / "tests" / "fixtures" / "weather.papp")
                            .read_text(encoding="utf-8"), encoding="utf-8")
    for name, value in (("trace", fuzz.TRACE), ("net", fuzz.NET),
                        ("hints", fuzz.HINTS)):
        files[name] = valid / f"{name}.json"
        files[name].write_text(json.dumps(value), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = fuzz.main(["pipeline", str(files["app"]), "--trace",
                          str(files["trace"]), "--net", str(files["net"]),
                          "--hints", str(files["hints"]),
                          "--outdir", str(valid / "pipeline")])
    if code != 0:
        raise RuntimeError("the valid weather pipeline failed")
    files["optimized"] = valid / "pipeline" / "optimized.papp"
    for name, artifact in fuzz.ARTIFACTS.items():
        files[name] = valid / "pipeline" / artifact
    values = {name: json.loads(files[name].read_text(encoding="utf-8"))
              for name in fuzz.INPUTS}

    rng = random.Random(seed)
    cases = []
    for k in range(count):
        name = rng.choice(fuzz.INPUTS)
        path = rng.choice(list(fuzz._positions(values[name])))
        how = rng.choice(HOWS)
        other = rng.choice(fuzz._OTHER_VALUES)
        key = rng.choice(fuzz._KEYS)
        mutated = work / "mutated" / f"{k}-{name}.json"
        mutated.parent.mkdir(exist_ok=True)
        mutated.write_text(json.dumps(fuzz._mutated(values[name], path, how,
                                                    other, key)),
                           encoding="utf-8")
        inputs = {n: str(f) for n, f in files.items()}
        inputs[name] = str(mutated)
        for j, (reads, argv) in enumerate(fuzz.COMMANDS):
            if name in reads:
                args = argv(inputs, Path("{out}"))
                cases.append({"name": f"{k} {name} {list(path)} {how} "
                                      f"{other!r} {key}: command {j} ({args[0]})",
                              "argv": args})
    return cases


def run_tree(src: Path, cases_file: Path, out: Path) -> None:
    """Run every case with the `fetchahead` under `src`, in this process,
    and write each one's exit code and stderr to `out/results.json`."""
    sys.path.insert(0, str(src))
    from fetchahead import cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fetchahead imported from {cli.__file__}, "
                          f"not from {src}")
    results = {}
    scratch = out / "outputs"
    for case in json.loads(cases_file.read_text(encoding="utf-8")):
        scratch.mkdir(parents=True, exist_ok=True)
        argv = [a.replace("{out}", str(scratch)) for a in case["argv"]]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception:
                code = None
                traceback.print_exc()
        results[case["name"]] = {
            "exit": code,
            "stderr": stderr.getvalue().replace(str(scratch), "<out>"),
        }
    (out / "results.json").write_text(json.dumps(results), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--tree", nargs=3, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree:  # one tree's side, in its own process
        run_tree(*args.tree)
        return 0
    with tempfile.TemporaryDirectory(prefix="compare_rejections-") as tmp:
        work = Path(tmp)
        cases = write_cases(args.seed, args.count, work / "inputs")
        cases_file = work / "cases.json"
        cases_file.write_text(json.dumps(cases), encoding="utf-8")
        sides = {"parent": args.parent_src, "child": ROOT / "src"}
        for side in sides:
            (work / side).mkdir()
        runs = [subprocess.Popen([sys.executable, __file__, str(args.parent_src),
                                  "--tree", str(src), str(cases_file),
                                  str(work / side)])
                for side, src in sides.items()]
        if [run.wait() for run in runs] != [0, 0]:
            print("a tree's run failed", file=sys.stderr)
            return 1
        before, after = (
            json.loads((work / side / "results.json").read_text(encoding="utf-8"))
            for side in sides)
    found = 0
    for case in cases:
        name = case["name"]
        if before[name] != after[name]:
            found += 1
            print(f"{name}\n  exit {before[name]['exit']} -> "
                  f"{after[name]['exit']}\n"
                  f"  stderr {before[name]['stderr']!r}\n"
                  f"      -> {after[name]['stderr']!r}")
    codes = Counter(r["exit"] for r in after.values())
    print(f"{args.count} mutations, seed {args.seed}: {len(cases)} cases, "
          f"exit codes {dict(sorted(codes.items(), key=str))}; "
          f"{found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
