"""Compare what this tree and another do with the same inputs.

    python3 tools/compare_trees.py PARENT_SRC [--seed N] [--count K]

PARENT_SRC is the `src/` directory of the tree to compare against, e.g.
one unpacked with `git archive <commit> | tar -x -C <dir>`. Run the script
from anywhere; it compares against this tree's `src/`.

There are three kinds of case, all for seed N (default 1):
- pipelines: `pipeline` on every benchmark workload's apps and traces,
  written by `perfbench/gen.py` (imported, not changed), on the weather
  fixture with and without a fixed hints file and with `--json`, and on
  `long_session` with its last `home` step's inputs removed, which fails
  in a body the statement walk has compiled; and `bench`, with
  `--out bench.json` and with `--json`, so that both reach the untyped
  JSON writer;
- mutations: K (default 2,000) mutations drawn with `random.Random(N)`
  from `tests/test_cli_fuzz.py`'s valid JSON inputs, each one input
  changed at one position by the fuzz test's own `_positions` and
  `_mutated`, and run through every subcommand that reads that input
  (the fuzz test's `COMMANDS`);
- `.papp` mutations: 200 edits of the weather fixture, drawn after the
  JSON ones from the same `random.Random(N)`, each deleting one line,
  copying a run of up to 8 lines to another place or swapping two lines,
  and run through `analyze`, so that parser diagnostics are compared too.

Each tree runs every case with `fetchahead.cli.main`, all of them in one
process per tree, each in a fresh output directory. It records the exit
code, stdout, stderr and the sha256 of every file the case wrote, with
the output directory's path replaced by `<out>`, then removes the
directory. The script prints every case that differs in any of the
four, then the counts. It exits 1 on any difference and 0 when there is
none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# how many `.papp` mutations a run draws, after the JSON ones
PAPP_MUTATIONS = 200

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


def pipeline_cases(seed: int, inputs: Path) -> list[dict]:
    """Write every pipeline input under `inputs`; returns one {name, argv}
    per pipeline, where "{out}" in argv stands for the output directory.
    Needs this tree's `src/` and `perfbench/` on `sys.path`."""
    import gen

    cases = []
    for workload, generate in gen.GENERATORS.items():
        for w in gen.write_cases(generate(seed), inputs / workload):
            argv = ["pipeline", str(w.papp), "--trace", str(w.trace),
                    "--outdir", "{out}"]
            cases.append({"name": f"{workload}/{w.name}", "argv": argv})
            if w.name == "weather":
                hints = inputs / "weather.hints.json"
                hints.write_text(json.dumps(WEATHER_HINTS), encoding="utf-8")
                cases.append({"name": "hints/weather",
                              "argv": argv + ["--hints", str(hints)]})
                cases.append({"name": "json/weather", "argv": argv + ["--json"]})
            if w.name == "long_session":
                steps = json.loads(w.trace.read_text(encoding="utf-8"))
                last = max(k for k, step in enumerate(steps)
                           if step["event"] == "home")
                steps[last]["inputs"] = {}
                trace = inputs / "long_session.missing-input.trace.json"
                trace.write_text(json.dumps(steps), encoding="utf-8")
                cases.append({"name": "missing-input/long_session",
                              "argv": ["pipeline", str(w.papp), "--trace",
                                       str(trace), "--outdir", "{out}"]})
    return cases + [
        {"name": "bench/out", "argv": ["bench", "--out", "{out}/bench.json"]},
        {"name": "bench/json", "argv": ["bench", "--json"]}]


def mutation_cases(seed: int, count: int,
                   inputs: Path) -> tuple[list[dict], list[dict]]:
    """Write the valid inputs, `count` mutated JSON inputs and
    PAPP_MUTATIONS mutated `.papp` texts under `inputs`; returns one
    {name, argv} per (JSON mutation, subcommand) and one per `.papp`
    mutation, where "{out}" in argv stands for the output directory.
    Needs this tree's `src/` on `sys.path`."""
    spec = importlib.util.spec_from_file_location(
        "cli_fuzz", ROOT / "tests" / "test_cli_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    (inputs / "mutated").mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        files, values = fuzz.write_valid_inputs(inputs)

    rng = random.Random(seed)
    cases = []
    for k in range(count):
        name = rng.choice(fuzz.INPUTS)
        path = rng.choice(list(fuzz._positions(values[name])))
        how = rng.choice(fuzz.HOWS)
        other = rng.choice(fuzz._OTHER_VALUES)
        key = rng.choice(fuzz._KEYS)
        mutated = inputs / "mutated" / f"{k}-{name}.json"
        mutated.write_text(json.dumps(fuzz._mutated(values[name], path, how,
                                                    other, key)),
                           encoding="utf-8")
        for j, (reads, argv) in enumerate(fuzz.COMMANDS):
            if name in reads:
                args = argv({**files, name: str(mutated)}, Path("{out}"))
                cases.append({"name": f"{k} {name} {list(path)} {how} "
                                      f"{other!r} {key}: command {j} ({args[0]})",
                              "argv": args})

    lines = Path(files["app"]).read_text(encoding="utf-8").splitlines(True)
    papps = []
    for k in range(PAPP_MUTATIONS):
        edit, text = papp_mutated(lines, rng)
        mutated = inputs / "mutated" / f"{k}.papp"
        mutated.write_text(text, encoding="utf-8")
        papps.append({"name": f"papp {k} {edit}: analyze",
                      "argv": ["analyze", str(mutated),
                               "--urlmap-out", "{out}/urlmap.json",
                               "--triggermap-out", "{out}/triggermap.json"]})
    return cases, papps


def papp_mutated(lines: list[str], rng: random.Random) -> tuple[str, str]:
    """One seeded edit of a text's `lines`: delete a line, copy a run of
    up to 8 lines to another place, or swap two lines. Returns (what the
    edit did, the edited text)."""
    lines = list(lines)
    how = rng.choice(("delete", "copy", "swap"))
    i = rng.randrange(len(lines))
    if how == "delete":
        del lines[i]
        edit = f"delete line {i + 1}"
    elif how == "copy":
        run = lines[i:i + rng.randint(1, 8)]
        at = rng.randint(0, len(lines))
        lines[at:at] = run
        edit = f"copy lines {i + 1}-{i + len(run)} before line {at + 1}"
    else:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        edit = f"swap lines {i + 1} and {j + 1}"
    return edit, "".join(lines)


def run_tree(src: Path, cases_file: Path, results: Path) -> None:
    """Run every case with the `fetchahead` under `src`, in this process,
    and write what each one did to `results`."""
    sys.path.insert(0, str(src))
    from fetchahead import cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fetchahead imported from {cli.__file__}, "
                          f"not from {src}")
    outcomes = {}
    outdir = results.with_suffix("")  # work/parent for work/parent.json
    for case in json.loads(cases_file.read_text(encoding="utf-8")):
        outdir.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([a.replace("{out}", str(outdir))
                                 for a in case["argv"]])
            except Exception:
                code = None
                traceback.print_exc()
        outcomes[case["name"]] = {
            "exit": code,
            "stdout": stdout.getvalue().replace(str(outdir), "<out>"),
            "stderr": stderr.getvalue().replace(str(outdir), "<out>"),
            "files": {str(p.relative_to(outdir)):
                      hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in outdir.rglob("*") if p.is_file()},
        }
        shutil.rmtree(outdir)
    results.write_text(json.dumps(outcomes), encoding="utf-8")


def differences(before: dict, after: dict) -> list[str]:
    """How one case's result changed, one line per field that differs."""
    found = [f"  {key} {before[key]!r}\n   -> {after[key]!r}"
             for key in ("exit", "stdout", "stderr")
             if before[key] != after[key]]
    files = [name for name in sorted(before["files"].keys()
                                     | after["files"].keys())
             if before["files"].get(name) != after["files"].get(name)]
    if files:
        found.append(f"  files {', '.join(files)} differ")
    return found


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
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory(prefix="compare_trees-") as tmp:
        work = Path(tmp)
        pipelines = pipeline_cases(args.seed, work / "inputs")
        mutations, papps = mutation_cases(args.seed, args.count,
                                          work / "inputs")
        cases_file = work / "cases.json"
        cases_file.write_text(json.dumps(pipelines + mutations + papps),
                              encoding="utf-8")
        sides = {"parent": args.parent_src, "child": ROOT / "src"}
        runs = [subprocess.Popen([sys.executable, __file__, str(args.parent_src),
                                  "--tree", str(src), str(cases_file),
                                  str(work / f"{side}.json")])
                for side, src in sides.items()]
        if [run.wait() for run in runs] != [0, 0]:
            print("a tree's run failed", file=sys.stderr)
            return 1
        before, after = (
            json.loads((work / f"{side}.json").read_text(encoding="utf-8"))
            for side in sides)
    found = 0
    for case in pipelines + mutations + papps:
        changed = differences(before[case["name"]], after[case["name"]])
        if changed:
            found += 1
            print(case["name"], *changed, sep="\n")

    def exit_codes(cases: list[dict]) -> dict:
        codes = Counter(after[case["name"]]["exit"] for case in cases)
        return dict(sorted(codes.items(), key=str))
    print(f"seed {args.seed}: {len(pipelines)} pipelines, {args.count} "
          f"mutations in {len(mutations)} cases (exit codes "
          f"{exit_codes(mutations)}), {len(papps)} .papp mutations (exit "
          f"codes {exit_codes(papps)}); {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
