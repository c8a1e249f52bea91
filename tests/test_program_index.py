"""The program index against the linear scans it replaced.

Each reference below is the whole-program scan that the corresponding
lookup used before `App.index` existed; every index table must agree
with it on random apps, their instrumented forms, and forms that
mix plain net calls with proxy fetches or shadow a callback name. The
CCFG tables (`roots`, `wait_predecessors`) are also checked against
brute-force scans of the edge list on arbitrary graphs.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from appgen import make_app
from fetchahead.app_ir import (
    App,
    AsyncCall,
    BuildUrl,
    Call,
    Callback,
    Ccfg,
    DefineDynamic,
    DefineStatic,
    FetchFromProxy,
    HelperMethod,
    NetCall,
    PSEUDO_STMTS,
    build_ecg,
    parse_app,
)
from fetchahead.callback_analysis import (
    FetchSignature,
    _entry_callbacks,
    identify_trigger_callbacks,
)
from fetchahead.instrumenter import instrument
from fetchahead.string_analysis import analyze_urls


def ref_definitions_of(app, var):
    return [
        (name, idx, st)
        for name, body in app.containers()
        for idx, st in enumerate(body)
        if isinstance(st, (DefineStatic, DefineDynamic)) and st.var == var
    ]


def ref_url_spots(app):
    spots = {}
    for name, body in app.containers():
        for idx, st in enumerate(body):
            if isinstance(st, BuildUrl) and st.url_id not in spots:
                spots[st.url_id] = (name, idx, st)
    return spots


def ref_proxy_method(app):
    for _, body in app.containers():
        for st in body:
            if isinstance(st, FetchFromProxy):
                return st.original_method
    return None


def ref_body_of(app, name):
    for n, body in app.containers():
        if n == name:
            return body
    return None


def ref_is_instrumented(app):
    return any(isinstance(st, PSEUDO_STMTS)
               for _, body in app.containers() for st in body)


def ref_successors(ccfg, node):
    return [b for a, b in ccfg.edges if a == node]


def ref_predecessors(ccfg, node):
    return [a for a, b in ccfg.edges if b == node]


def ref_roots(app):
    return tuple(c for c in app.callback_names
                 if all(b != c for _, b in app.ccfg.edges))


def ref_wait_predecessors(app, callback):
    edges = set(app.ccfg.edges)
    return tuple(p for p in app.callback_names
                 if any((p, w) in edges and (w, callback) in edges
                        for w in app.ccfg.wait_nodes))


def ref_entry_callbacks(app, method):
    reverse = {}
    for name, body in app.containers():
        for st in body:
            if isinstance(st, (Call, AsyncCall)):
                reverse.setdefault(st.target, []).append(name)
    seen = {method}
    stack = [method]
    while stack:
        node = stack.pop()
        for pred in reverse.get(node, ()):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    order = {name: i for i, name in enumerate(app.callback_names)}
    return sorted((n for n in seen if n in order), key=order.__getitem__)


def _mixed(app):
    """Every other net call becomes a proxy fetch under another method, so
    a URL can have both kinds of fetch, in either order."""
    flip = [False]

    def rewrite(st):
        if isinstance(st, NetCall):
            flip[0] = not flip[0]
            if flip[0]:
                return FetchFromProxy(st.url_id, "proxied")
        return st

    return replace(app, callbacks=tuple(
        Callback(c.name, tuple(rewrite(st) for st in c.body))
        for c in app.callbacks
    ))


def _forms(seed):
    app, _, _ = make_app(random.Random(seed))
    sig = FetchSignature("fetch")
    tm = identify_trigger_callbacks(app, build_ecg(app), sig)
    # bodies is first-match: a helper named like a callback is shadowed
    shadowed = replace(app, methods=app.methods + (
        HelperMethod(app.callbacks[0].name, ()),
    ))
    ia = instrument(app, analyze_urls(app), tm, sig)
    return app, ia.app, _mixed(app), shadowed


def _check(app):
    variables = {st.var for _, body in app.containers() for st in body
                 if isinstance(st, (DefineStatic, DefineDynamic))}
    index = app.index
    for var in sorted(variables) + ["no_such_var"]:
        assert index.definitions.get(var, []) == ref_definitions_of(app, var)
    assert index.url_spots == ref_url_spots(app)
    assert list(index.url_spots) == list(ref_url_spots(app))
    assert index.proxy_method == ref_proxy_method(app)
    names = [name for name, _ in app.containers()]
    for name in names + ["no_such_body"]:
        assert index.bodies.get(name) == ref_body_of(app, name)
    assert app.is_instrumented == ref_is_instrumented(app)
    nodes = {n for edge in app.ccfg.edges for n in edge}
    for node in sorted(nodes | set(app.ccfg.wait_nodes)) + ["no_such_node"]:
        assert app.ccfg.successors(node) == ref_successors(app.ccfg, node)
        assert app.ccfg.predecessors(node) == ref_predecessors(app.ccfg, node)
    _check_ccfg_tables(app)
    callers = build_ecg(app)
    for name in names:
        assert (_entry_callbacks(app, callers, name)
                == ref_entry_callbacks(app, name))


def _check_ccfg_tables(app):
    index = app.index
    assert index.roots == ref_roots(app)
    for callback in app.callback_names + ["no_such_callback"]:
        assert (index.wait_predecessors.get(callback, ())
                == ref_wait_predecessors(app, callback))
    assert all(index.wait_predecessors.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_index_matches_linear_scans(seed):
    for app in _forms(seed):
        _check(app)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.data())
def test_ccfg_tables_match_linear_scans(n_callbacks, n_waits, data):
    # any graph over the nodes: cycles, self loops, several roots or none,
    # wait -> wait edges and parallel paths through different wait nodes
    callbacks = [f"c{i}" for i in range(n_callbacks)]
    waits = [f"w{i}" for i in range(n_waits)]
    nodes = st.sampled_from(callbacks + waits)
    edges = data.draw(st.lists(st.tuples(nodes, nodes), max_size=16))
    app = App("g", callbacks=tuple(Callback(c, ()) for c in callbacks),
              ccfg=Ccfg(tuple(waits), tuple(edges)))
    _check_ccfg_tables(app)


def test_lookups_hand_out_copies():
    app, _, _ = make_app(random.Random(3))
    succ = app.ccfg.successors("cb0")
    succ.append("bogus")
    assert app.ccfg.successors("cb0") == ref_successors(app.ccfg, "cb0")


def test_rewrite_gets_a_fresh_index():
    app, _, _ = make_app(random.Random(5))
    assert not app.is_instrumented
    ia = instrument(app, analyze_urls(app),
                    identify_trigger_callbacks(app, build_ecg(app),
                                               FetchSignature("fetch")),
                    FetchSignature("fetch"))
    assert ia.app.is_instrumented
    assert not app.is_instrumented
    assert ia.app.index is not app.index


def test_parsed_app_keeps_the_index_validation_built(weather_text):
    app = parse_app(weather_text)
    assert "index" in vars(app)  # analyses read it, no second walk
    _check(app)
