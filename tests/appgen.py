"""Seeded generator of small random apps with valid traces.

Apps have a linear CCFG backbone (cb0 -> w0 -> cb1 -> w1 -> ...) plus
random extra wait edges, variables with multiple scattered definitions,
URLs mixing literal/resource/variable parts, fetches in callbacks and
helpers, and occasionally a goto chain. Traces walk the CCFG supplying
every input tag the step's execution closure needs, so a generated
(app, trace) pair always runs cleanly.
"""

from __future__ import annotations

import random

from fetchahead.app_ir import (
    App,
    AsyncCall,
    BuildUrl,
    Call,
    Callback,
    Ccfg,
    DefineDynamic,
    DefineStatic,
    HelperMethod,
    NetCall,
    NetMethodDecl,
    Transition,
    UrlPart,
    validate_app,
)
from fetchahead.instrumenter import Hints, StaticUrlHint, TriggerHint
from fetchahead.runtime import NetModel, Trace, TraceStep, Walk


def make_app(rng: random.Random) -> tuple[App, Trace, NetModel]:
    n_cb = rng.randint(2, 4)
    cb_names = [f"cb{i}" for i in range(n_cb)]
    n_helpers = rng.randint(0, 2)
    helper_names = [f"helper{i}" for i in range(n_helpers)]
    latency = rng.choice([100, 250, 500, 1000])
    resources = {"base": f"http://host{rng.randrange(50)}/"}
    settings = {"pref": f"pref{rng.randrange(20)}"}
    var_names = [f"v{i}" for i in range(rng.randint(1, 3))]
    n_urls = rng.randint(1, 3)

    bodies: dict[str, list] = {name: [] for name in cb_names + helper_names}

    # variable definitions scattered over callbacks
    for v in var_names:
        for j in range(rng.randint(1, 3)):
            host = rng.choice(cb_names)
            roll = rng.random()
            if roll < 0.35:
                st = DefineStatic(v, "literal", f"{v}lit{j}")
            elif roll < 0.5:
                st = DefineStatic(v, "resource", "base")
            elif roll < 0.6:
                st = DefineStatic(v, "setting", "pref")
            else:
                st = DefineDynamic(v, f"t_{v}_{j}")
            bodies[host].append(st)

    # URLs: one build spot plus adjacent fetches, sometimes in a helper
    for u in range(n_urls):
        uid = f"u{u}"
        parts = [UrlPart("literal", f"http://site{u}/")]
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.6:
                parts.append(UrlPart("var", rng.choice(var_names)))
            else:
                parts.append(UrlPart("literal", f"p{rng.randrange(10)}&"))
        if helper_names and rng.random() < 0.3:
            host = rng.choice(helper_names)
        else:
            host = rng.choice(cb_names)
        bodies[host].append(BuildUrl(uid, tuple(parts)))
        for _ in range(rng.randint(1, 2)):
            bodies[host].append(NetCall("fetch", uid))

    # make every helper reachable from at least one callback
    for helper in helper_names:
        caller = rng.choice(cb_names)
        cls = AsyncCall if rng.random() < 0.4 else Call
        bodies[caller].append(cls(helper))

    # at most one forward goto, as the last statement of its callback
    goto_edge = None
    if n_cb >= 3 and rng.random() < 0.4:
        src = rng.randrange(0, n_cb - 1)
        dst = rng.randrange(src + 1, n_cb)
        bodies[cb_names[src]].append(Transition(cb_names[dst]))
        goto_edge = (cb_names[src], cb_names[dst])

    # CCFG: linear backbone plus random extra wait edges (never into cb0)
    waits = [f"w{i}" for i in range(n_cb - 1)]
    edges = []
    for i in range(n_cb - 1):
        edges.append((cb_names[i], waits[i]))
        edges.append((waits[i], cb_names[i + 1]))
    for _ in range(rng.randint(0, 2)):
        w = rng.choice(waits)
        edges.append((rng.choice(cb_names), w))
        edges.append((w, rng.choice(cb_names[1:])))
    if goto_edge is not None:
        edges.append(goto_edge)
    edges = list(dict.fromkeys(edges))

    app = App(
        name=f"rand{rng.randrange(10**6)}",
        resources=resources,
        settings=settings,
        callbacks=tuple(Callback(n, tuple(bodies[n])) for n in cb_names),
        methods=tuple(HelperMethod(n, tuple(bodies[n])) for n in helper_names),
        ccfg=Ccfg(tuple(waits), tuple(edges)),
        netlib=(NetMethodDecl("fetch", latency),),
    )
    validate_app(app)

    trace = _make_trace(rng, app, bodies, latency)
    return app, trace, NetModel()


class LastDefinitions(Walk):
    """`trace` run on an uninstrumented `app`, keeping the last definition
    of each variable: `last[var]` is (container, stmt index, value)."""

    def __init__(self, app: App, trace: Trace):
        super().__init__(app)
        self.last: dict[str, tuple[str, int, str]] = {}
        for k, step in enumerate(trace.steps):
            self.run_step(k, step)

    def define(self, container: str, stmt_index: int, var: str,
               value: str) -> None:
        self.last[var] = container, stmt_index, value

    def net_call(self, st, url: str) -> None:
        pass


def random_hints(rng: random.Random, app: App) -> Hints:
    """A hint URL, "hinted"; a launch entry on cb0 with it and an app URL;
    an end entry on a random callback with every app URL; then up to three
    entries on random callbacks, at launch or at the end, each drawing
    app and hint URLs with repeats."""
    url_ids = tuple(app.index.url_spots)
    entries = [
        TriggerHint("cb0", ("hinted", rng.choice(url_ids)), at="launch"),
        TriggerHint(rng.choice(app.callback_names), url_ids),
    ]
    for _ in range(rng.randint(0, 3)):
        drawn = rng.choices(url_ids + ("hinted",), k=rng.randint(1, 4))
        entries.append(TriggerHint(rng.choice(app.callback_names),
                                   tuple(drawn), rng.choice(("launch", "end"))))
    return Hints(tuple(entries), (StaticUrlHint("hinted", "http://hint/"),))


def _step_end(bodies: dict[str, list], event: str) -> str:
    """The screen the app is on after running `event`, mirroring the
    runtime's transition tracking."""
    current = event

    def walk(name: str) -> None:
        nonlocal current
        for st in bodies[name]:
            if isinstance(st, Transition):
                current = st.target
                walk(st.target)
            elif isinstance(st, (Call, AsyncCall)):
                walk(st.target)

    walk(event)
    return current


def _tags_needed(bodies: dict[str, list], event: str) -> list[str]:
    tags: list[str] = []

    def walk(name: str) -> None:
        for st in bodies[name]:
            if isinstance(st, DefineDynamic):
                tags.append(st.input_tag)
            elif isinstance(st, (Call, AsyncCall, Transition)):
                walk(st.target)

    walk(event)
    return tags


def _make_trace(rng, app: App, bodies, latency: int) -> Trace:
    waits = set(app.ccfg.wait_nodes)
    thinks = [0, 100, 300, latency, 2 * latency]
    steps = []
    event = "cb0"
    for step_no in range(rng.randint(1, 6)):
        inputs = {
            tag: f"val{rng.randrange(1000)}"
            for tag in _tags_needed(bodies, event)
        }
        steps.append(TraceStep(event, 0 if step_no == 0 else rng.choice(thinks),
                               inputs))
        current = _step_end(bodies, event)
        options = sorted({
            nxt
            for w in app.ccfg.successors(current)
            if w in waits
            for nxt in app.ccfg.successors(w)
        })
        if not options:
            break
        event = rng.choice(options)
    return Trace(tuple(steps))
