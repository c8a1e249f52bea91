"""Wall time, minor page faults and system CPU of each pipeline on one
benchmark workload, and the peak memory of the process that ran them.

    python3 tools/pipeline_rusage.py WORKLOAD [--seed N] [--src DIR]

The inputs are the workload's apps and traces for seed N (default 1),
written by `perfbench/gen.py` (imported, not changed). The pipelines run
one after another through `fetchahead.cli.main(["pipeline", ...])` in
one fresh child process, which imports `fetchahead` and nothing of the
generator: its `ru_maxrss` is the peak of the pipelines alone. A
pipeline's minor faults and system CPU are the differences of
`resource.getrusage(RUSAGE_SELF)` around its `main` call. Run it in
alternating pairs against another tree to compare two versions. `--src`
is the `src/` directory of the `fetchahead` to measure, by default this
tree's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pipelines() -> None:
    """The child: read `[src, argvs]` as JSON from stdin, run
    `cli.main(argv)` for each argv and print the measurements as JSON."""
    src, argvs = json.load(sys.stdin)
    sys.path.insert(0, src)
    from fetchahead import cli

    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fetchahead imported from {cli.__file__}, "
                          f"not from {src}")
    rows = []
    for argv in argvs:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        rows.append([code, wall * 1000, after.ru_minflt - before.ru_minflt,
                     (after.ru_stime - before.ru_stime) * 1000])
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"fetchahead": str(Path(cli.__file__).parent), "rows": rows,
               "maxrss_kib": maxrss}, sys.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload",
                        choices=("large_app", "long_session", "corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(args.src))
    import gen

    with tempfile.TemporaryDirectory(prefix="pipeline_rusage-") as tmp:
        work = Path(tmp)
        written = gen.write_cases(gen.GENERATORS[args.workload](args.seed),
                                  work / "inputs")
        argvs = [["pipeline", str(w.papp), "--trace", str(w.trace),
                  "--outdir", str(work / "out" / w.name)] for w in written]
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import pipeline_rusage; pipeline_rusage.run_pipelines()",
             str(Path(__file__).resolve().parent)],
            input=json.dumps([str(args.src.resolve()), argvs]),
            capture_output=True, text=True)
    if child.returncode:
        print(child.stderr, end="", file=sys.stderr)
        return child.returncode
    result = json.loads(child.stdout)
    rows = result["rows"]
    print(f"{args.workload}, seed {args.seed}: {len(written)} pipelines in "
          f"one process, fetchahead from {result['fetchahead']}")
    print(f"  {'pipeline':<24} {'wall ms':>10} {'minor faults':>13} "
          f"{'system ms':>10}")
    for w, (_, wall, faults, system) in zip(written, rows):
        print(f"  {w.name:<24} {wall:>10.1f} {faults:>13,} {system:>10.1f}")
    if len(rows) > 1:
        print(f"  {'total':<24} {sum(r[1] for r in rows):>10.1f} "
              f"{sum(r[2] for r in rows):>13,} "
              f"{sum(r[3] for r in rows):>10.1f}")
    print(f"  ru_maxrss {result['maxrss_kib'] / 1024:.1f} MiB")
    wrong = [(w, row[0]) for w, row in zip(written, rows)
             if row[0] != w.expect_exit]
    for w, code in wrong:
        print(f"{w.name}: exit {code}, expected {w.expect_exit}",
              file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
