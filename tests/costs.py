"""Exact work counts for the linear-cost tests, and the benchmark's input
generator they size."""

import gc
import importlib.util
import sys
from pathlib import Path


def bytecodes(fn, *args):
    """The bytecodes that `fn(*args)` runs: exact, and the same on every
    run and every machine with the same Python. The cyclic garbage
    collector is paused for the call, as `cli.main` pauses it, and the
    caller's setting put back: a collection inside the call would add the
    bytecodes of whatever finalizers it ran."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    enabled = gc.isenabled()
    gc.disable()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
        if enabled:
            gc.enable()
    return count


def perfbench_gen(monkeypatch):
    """`perfbench/gen.py`, imported for the test that calls this."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # for its dataclasses
    spec.loader.exec_module(gen)
    return gen
