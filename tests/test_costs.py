"""The bytecode counter that the linear-cost tests rest on."""

import gc

from costs import bytecodes


class _Cycle:
    """Cyclic garbage that only the collector frees, running `__del__`."""

    def __init__(self):
        self.me = self

    def __del__(self):
        pass


def _lists(n):
    return [[i] for i in range(n)]


def test_bytecodes_do_not_count_a_collection_during_the_call():
    """With a collection due every few allocations and a finalizer
    pending before each count, the counts of one call must not vary."""
    threshold = gc.get_threshold()
    gc.set_threshold(10)
    try:
        counts = set()
        for _ in range(200):
            _Cycle()
            counts.add(bytecodes(_lists, 10))
    finally:
        gc.set_threshold(*threshold)
    assert len(counts) == 1, counts


def test_bytecodes_put_back_the_callers_collector_setting():
    enabled = gc.isenabled()
    try:
        for setting in (gc.enable, gc.disable):
            setting()
            bytecodes(_lists, 1)
            assert gc.isenabled() == (setting is gc.enable)
    finally:
        (gc.enable if enabled else gc.disable)()
