"""Count the bytecodes of each pipeline stage on one benchmark workload.

    python3 tools/stage_bytecodes.py WORKLOAD [--seed N] [--src DIR]
                                     [--functions SPAN]

The inputs are the workload's apps and traces for seed N (default 1),
written by `perfbench/gen.py` (imported, not changed). Each one runs
through `fetchahead.cli.main(["pipeline", ...])` under `sys.settrace`
with opcode events, and each bytecode counts against the innermost stage
running at the time. The stages are the traced benchmark's spans: every
name in `perfbench/spans.py`'s `WRAPPED` table, under its span name or
the one its rule gives the run, so a stage's count lines up with the
per-layer metric of that name. What `main` runs outside them counts as
`cli.main` (the metric `cli.self_s`). The `bench` run that opens each benchmark
repetition is left out.

Counts are exact: the same on every run with the same Python, whatever
the host's load. `re`'s pattern cache is emptied before the first
pipeline, so `cli.main`'s count holds the patterns argparse compiles for
it whichever options the tool itself was given. So they show a change's effect, or that it has none,
before its timed pairs are run; they are not times. Counting makes a
pipeline 10-20x slower. `--src` is the `src/` directory of the
`fetchahead` to count, by default this tree's; pointing it at another
tree's gives the before and after of a change. `--functions SPAN` also
prints the ten functions that run the most bytecodes inside the stage
SPAN, each counted without the functions it calls, as
`module.qualified_name`; code built by `eval` shows under the name it
was compiled with, `<string>` by default and `<writer T>` for the
codec's writer of the type T.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def count_pipelines(cli, argvs: list[list[str]], span: str | None = None
                    ) -> tuple[Counter, list[int], Counter]:
    """Bytecodes per stage over `cli.main(argv)` for each argv, the exit
    codes, and the bytecodes per function inside the stage `span`. Needs
    `perfbench/` on `sys.path`."""
    import spans

    counts: Counter = Counter()
    functions: Counter = Counter()
    stack = ["cli.main"]

    def wrap(name, fn):
        def counted(*args, **kwargs):
            stack.append(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return counted

    # neither the wrappers' own bytecodes nor those of a span's naming rule
    skip = {wrap(None, None).__code__}
    skip.update(name.__code__ for _, _, name in spans.WRAPPED
                if not isinstance(name, str))

    def tracer(frame, event, arg):
        if frame.f_code in skip:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            stage = stack[-1]
            counts[stage] += 1
            if stage == span:
                functions[frame.f_code] += 1
        return tracer

    saved = []
    codes = []
    try:
        for path, attr, name in spans.WRAPPED:
            owner = spans._resolve(path)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrap(name, getattr(owner, attr)))
        # `re` caches the patterns that argparse compiles while parsing;
        # whether this process's own options compiled one before must not
        # change `cli.main`'s count, so the first pipeline compiles them all
        re.purge()
        for argv in argvs:
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
            finally:
                sys.settrace(None)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    named: Counter = Counter()
    for code, n in functions.items():
        module = code.co_filename  # `<...>` for compiled code: kept whole
        if not module.startswith("<"):
            module = Path(module).stem
        named[f"{module}.{code.co_qualname}"] += n
    return counts, codes, named


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload",
                        choices=("large_app", "long_session", "corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--functions", metavar="SPAN",
                        help="also print the ten functions that run the "
                             "most bytecodes inside this stage")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    import gen
    from fetchahead import cli

    if args.src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fetchahead imported from {cli.__file__}, "
                          f"not from {args.src}")
    with tempfile.TemporaryDirectory(prefix="stage_bytecodes-") as tmp:
        work = Path(tmp)
        written = gen.write_cases(gen.GENERATORS[args.workload](args.seed),
                                  work / "inputs")
        argvs = [["pipeline", str(w.papp), "--trace", str(w.trace),
                  "--outdir", str(work / "out" / w.name)] for w in written]
        counts, codes, functions = count_pipelines(cli, argvs, args.functions)
    total = sum(counts.values())
    print(f"{args.workload}, seed {args.seed}: {len(written)} pipelines, "
          f"fetchahead from {Path(cli.__file__).parent}")
    for span, n in counts.most_common():
        print(f"  {span:<28} {n:>14,} {100 * n / total:6.2f}%")
    print(f"  {'total':<28} {total:>14,}")
    if args.functions:
        print(f"functions with the most bytecodes in {args.functions}:")
        for name, n in functions.most_common(10):
            print(f"  {n:>14,}  {name}")
    wrong = [(w, code) for w, code in zip(written, codes)
             if code != w.expect_exit]
    for w, code in wrong:
        print(f"{w.name}: exit {code}, expected {w.expect_exit}",
              file=sys.stderr)
    if args.functions and not functions:
        print(f"no bytecodes ran in {args.functions}", file=sys.stderr)
    return 1 if wrong or (args.functions and not functions) else 0


if __name__ == "__main__":
    sys.exit(main())
