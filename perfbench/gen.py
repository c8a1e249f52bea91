"""Seeded inputs for the benchmark's workloads.

Every generator separates structure from strings. A fixed structure
random stream decides the shape of each app and trace: statement layout,
which variables a URL reads, where definitions sit, which screen a trace
visits next and which vocabulary entry an input takes. The `--seed`
stream decides only the strings the program sees: hosts, literals and
input values. Every seed maps equal strings to equal strings and distinct
to distinct, so the simulated outcome (hit rate, precision, every proxy
counter) is the same for every seed while the bytes of every input and
artifact differ.

`fetchahead` is imported inside the functions, not at module level: the
benchmark re-imports the package to time set-up, and module-level names
would keep the classes of the previous import.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

WEATHER_PAPP = Path(__file__).with_name("weather.papp")

# The worked example's user trace: launch, pick a city, tap the button.
WEATHER_TRACE = [
    {"event": "onCreate", "think_ms": 0, "inputs": {}},
    {"event": "onItemSelected", "think_ms": 2000,
     "inputs": {"citySelection": "Gothenburg"}},
    {"event": "onClick", "think_ms": 2000, "inputs": {"cityIdText": "842"}},
]


@dataclass(frozen=True)
class Case:
    """One pipeline input: an app, its trace, and the exit code the
    generator expects from the inputs alone."""

    name: str
    app: object  # fetchahead.app_ir.App
    trace: object  # fetchahead.runtime.Trace
    expect_exit: int

    @property
    def steps(self) -> int:
        return len(self.trace.steps)


@dataclass(frozen=True)
class Written:
    name: str
    papp: Path
    trace: Path
    expect_exit: int
    steps: int
    stmts: int


class Strings:
    """Seeded, injective string source: `token(key)` returns the same
    random word for the same key within one seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"strings-{seed}")
        self._words: dict[object, str] = {}

    def token(self, key: object) -> str:
        word = self._words.get(key)
        if word is None:
            letters = "".join(self._rng.choices(string.ascii_lowercase, k=5))
            word = f"{letters}{len(self._words)}"  # the index keeps it unique
            self._words[key] = word
        return word


# ---------------------------------------------------------------------------
# expected exit code, decided on the generator side
# ---------------------------------------------------------------------------

def reaches_net_call(app, trace) -> bool:
    """True when some trace step executes a net call, following call,
    asynccall and goto edges from the step's callback."""
    from fetchahead.app_ir import AsyncCall, Call, NetCall, Transition

    bodies = dict(app.containers())
    seen: set[str] = set()
    stack = [s.event for s in trace.steps]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        for st in bodies[name]:
            if isinstance(st, NetCall):
                return True
            if isinstance(st, (Call, AsyncCall, Transition)):
                stack.append(st.target)
    return False


def _case(name: str, app, trace) -> Case:
    # A trace that reaches no net call leaves nothing to profile: the CLI
    # reports that as an analysis error, exit code 2.
    return Case(name, app, trace, 0 if reaches_net_call(app, trace) else 2)


# ---------------------------------------------------------------------------
# large_app: one big linear app
# ---------------------------------------------------------------------------

def large_app(seed: int, callbacks: int = 400, variables: int = 175,
              defs_per_var: int = 8) -> list[Case]:
    """A linear CCFG cb0 -> w0 -> cb1 -> ... with two URLs per callback,
    each reading two variables. `variables` x `defs_per_var` definitions
    are scattered over the callbacks; every sixth variable is static (one
    literal everywhere, so its parts are concrete) and two thirds of the
    other definitions are `input()`. The trace visits every callback once
    with a think time above the latency."""
    from fetchahead.app_ir import (
        App, BuildUrl, Callback, Ccfg, DefineDynamic, DefineStatic, NetCall,
        NetMethodDecl, UrlPart,
    )
    from fetchahead.runtime import Trace, TraceStep

    shape = random.Random(1)
    s = Strings(seed)
    defs: list[list] = [[] for _ in range(callbacks)]
    for v in range(variables):
        for k in range(defs_per_var):
            host = shape.randrange(callbacks)
            if v % 6 == 0:
                st = DefineStatic(f"x{v}", "literal", s.token(("static", v)))
            elif k % 3 == 2:
                st = DefineStatic(f"x{v}", "literal", s.token(("lit", v, k)))
            else:
                st = DefineDynamic(f"x{v}", f"t{v}_{k}")
            defs[host].append(st)
    bodies = []
    for i in range(callbacks):
        builds, fetches = [], []
        for p in range(2):
            a, b = shape.sample(range(variables), 2)
            uid = f"u{i}_{p}"
            builds.append(BuildUrl(uid, (
                UrlPart("resource", "host"),
                UrlPart("literal", f"{s.token(('path', i, p))}?a="),
                UrlPart("var", f"x{a}"),
                UrlPart("literal", "&b="),
                UrlPart("var", f"x{b}"),
            )))
            fetches.append(NetCall("fetch", uid))
        bodies.append(Callback(f"cb{i}", tuple(defs[i] + builds + fetches)))
    edges = []
    for i in range(callbacks - 1):
        edges += [(f"cb{i}", f"w{i}"), (f"w{i}", f"cb{i + 1}")]
    app = App(
        name="large",
        resources={"host": f"http://{s.token('host')}.example/"},
        callbacks=tuple(bodies),
        ccfg=Ccfg(tuple(f"w{i}" for i in range(callbacks - 1)), tuple(edges)),
        netlib=(NetMethodDecl("fetch", 300),),
    )
    steps = []
    for i, cb in enumerate(bodies):
        inputs = {st.input_tag: s.token(("in", st.input_tag))
                  for st in cb.body if isinstance(st, DefineDynamic)}
        steps.append(TraceStep(cb.name, 0 if i == 0 else 1000, inputs))
    return [_case("large_app", app, Trace(tuple(steps)))]


# ---------------------------------------------------------------------------
# long_session: a small hub-and-spoke app replayed over a long trace
# ---------------------------------------------------------------------------

HIT, NON_HIT, NON_PREFETCHABLE = "hit", "non_hit", "non_prefetchable"


def long_session(seed: int, screens: int = 24, steps: int = 8000,
                 vocabulary: int = 6) -> list[Case]:
    """`home` leads through wait node `wh` to every screen, and every
    screen leads back to `home` through its own wait node. Screen i's
    dynamic URL is, by construction, a hit (its variable is set in
    `home`), a non-hit (set in `home`, set again in the screen before the
    fetch) or non-prefetchable (set only in the screen); its static URL
    is concrete. The trace alternates `home` and a screen; inputs come
    from a small vocabulary so URLs repeat, and think times fall below
    and above the 400 ms latency."""
    from fetchahead.app_ir import (
        App, BuildUrl, Callback, Ccfg, DefineDynamic, NetCall, NetMethodDecl,
        UrlPart,
    )
    from fetchahead.runtime import Trace, TraceStep

    shape = random.Random(2)
    s = Strings(seed)
    kinds = [(HIT, NON_HIT, NON_PREFETCHABLE)[i % 3] for i in range(screens)]
    home_body = tuple(DefineDynamic(f"s{i}", f"h{i}")
                      for i, k in enumerate(kinds) if k != NON_PREFETCHABLE)
    callbacks = [Callback("home", home_body)]
    for i, kind in enumerate(kinds):
        body = []
        if kind != HIT:
            body.append(DefineDynamic(f"s{i}", f"n{i}"))
        body += [
            BuildUrl(f"d{i}", (UrlPart("resource", "host"),
                               UrlPart("literal", f"{s.token(('dyn', i))}?q="),
                               UrlPart("var", f"s{i}"))),
            BuildUrl(f"c{i}", (UrlPart("resource", "host"),
                               UrlPart("literal", s.token(("static", i))))),
            NetCall("fetch", f"d{i}"),
            NetCall("fetch", f"c{i}"),
        ]
        callbacks.append(Callback(f"screen{i}", tuple(body)))
    waits = ["wh"] + [f"w{i}" for i in range(screens)]
    edges = [("home", "wh")]
    for i in range(screens):
        edges += [("wh", f"screen{i}"), (f"screen{i}", f"w{i}"),
                  (f"w{i}", "home")]
    app = App(
        name="hub",
        resources={"host": f"http://{s.token('host')}.example/"},
        callbacks=tuple(callbacks),
        ccfg=Ccfg(tuple(waits), tuple(edges)),
        netlib=(NetMethodDecl("fetch", 400),),
    )

    def word(role: str, i: int) -> str:
        # a non-hit screen's value in `home` is a draft the screen always
        # replaces, so its prefetch is wasted
        return s.token((role, i, shape.randrange(vocabulary)))

    thinks = (50, 200, 600, 1500)
    trace = []
    for k in range(steps):
        think = 0 if k == 0 else shape.choice(thinks)
        if k % 2 == 0:
            inputs = {f"h{i}": word("draft" if kinds[i] == NON_HIT else "v", i)
                      for i in range(screens) if kinds[i] != NON_PREFETCHABLE}
            trace.append(TraceStep("home", think, inputs))
        else:
            i = shape.randrange(screens)
            inputs = {f"n{i}": word("v", i)} if kinds[i] != HIT else {}
            trace.append(TraceStep(f"screen{i}", think, inputs))
    return [_case("long_session", app, Trace(tuple(trace)))]


# ---------------------------------------------------------------------------
# corpus: many small random apps
# ---------------------------------------------------------------------------

def corpus(seed: int, apps: int = 400) -> list[Case]:
    """Apps 0..apps-1, each shaped by its own stream `random.Random(i)` in
    the style of the test suite's random app generator (2-4 callbacks,
    helpers, asynccall, goto), plus the weather fixture with its worked
    trace. The seed prefixes every string."""
    from fetchahead.app_ir import parse_app
    from fetchahead.runtime import trace_from_json_obj

    salt = Strings(seed).token("salt")
    cases = [_random_app(i, salt) for i in range(apps)]
    weather = parse_app(WEATHER_PAPP.read_text(encoding="utf-8"))
    cases.append(_case("weather", weather, trace_from_json_obj(WEATHER_TRACE)))
    return cases


def _random_app(i: int, salt: str) -> Case:
    from fetchahead.app_ir import (
        App, AsyncCall, BuildUrl, Call, Callback, Ccfg, DefineDynamic,
        DefineStatic, HelperMethod, NetCall, NetMethodDecl, Transition, UrlPart,
    )

    rng = random.Random(i)
    n_cb = rng.randint(2, 4)
    cb_names = [f"cb{k}" for k in range(n_cb)]
    helper_names = [f"helper{k}" for k in range(rng.randint(0, 2))]
    latency = rng.choice([100, 250, 500, 1000])
    resources = {"base": f"http://{salt}host{rng.randrange(50)}/"}
    settings = {"pref": f"{salt}pref{rng.randrange(20)}"}
    var_names = [f"v{k}" for k in range(rng.randint(1, 3))]
    n_urls = rng.randint(1, 3)
    bodies: dict[str, list] = {name: [] for name in cb_names + helper_names}

    for v in var_names:
        for j in range(rng.randint(1, 3)):
            host = rng.choice(cb_names)
            roll = rng.random()
            if roll < 0.35:
                st = DefineStatic(v, "literal", f"{salt}{v}lit{j}")
            elif roll < 0.5:
                st = DefineStatic(v, "resource", "base")
            elif roll < 0.6:
                st = DefineStatic(v, "setting", "pref")
            else:
                st = DefineDynamic(v, f"t_{v}_{j}")
            bodies[host].append(st)

    for u in range(n_urls):
        uid = f"u{u}"
        parts = [UrlPart("literal", f"http://{salt}site{u}/")]
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.6:
                parts.append(UrlPart("var", rng.choice(var_names)))
            else:
                parts.append(UrlPart("literal", f"{salt}p{rng.randrange(10)}&"))
        if helper_names and rng.random() < 0.3:
            host = rng.choice(helper_names)
        else:
            host = rng.choice(cb_names)
        bodies[host].append(BuildUrl(uid, tuple(parts)))
        for _ in range(rng.randint(1, 2)):
            bodies[host].append(NetCall("fetch", uid))

    for helper in helper_names:
        caller = rng.choice(cb_names)
        cls = AsyncCall if rng.random() < 0.4 else Call
        bodies[caller].append(cls(helper))

    goto_edge = None
    if n_cb >= 3 and rng.random() < 0.4:
        src = rng.randrange(0, n_cb - 1)
        dst = rng.randrange(src + 1, n_cb)
        bodies[cb_names[src]].append(Transition(cb_names[dst]))
        goto_edge = (cb_names[src], cb_names[dst])

    waits = [f"w{k}" for k in range(n_cb - 1)]
    edges = []
    for k in range(n_cb - 1):
        edges += [(cb_names[k], waits[k]), (waits[k], cb_names[k + 1])]
    for _ in range(rng.randint(0, 2)):
        w = rng.choice(waits)
        edges += [(rng.choice(cb_names), w), (w, rng.choice(cb_names[1:]))]
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
    return _case(f"app{i}", app, _random_trace(rng, app, bodies, latency, salt))


def _random_trace(rng, app, bodies, latency: int, salt: str):
    """Walk the CCFG from cb0, supplying every input tag each step's
    execution closure needs."""
    from fetchahead.app_ir import AsyncCall, Call, DefineDynamic, Transition
    from fetchahead.runtime import Trace, TraceStep

    def step_end(event: str) -> str:
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

    def tags_needed(event: str) -> list[str]:
        tags: list[str] = []

        def walk(name: str) -> None:
            for st in bodies[name]:
                if isinstance(st, DefineDynamic):
                    tags.append(st.input_tag)
                elif isinstance(st, (Call, AsyncCall, Transition)):
                    walk(st.target)

        walk(event)
        return tags

    waits = set(app.ccfg.wait_nodes)
    thinks = [0, 100, 300, latency, 2 * latency]
    steps = []
    event = "cb0"
    for step_no in range(rng.randint(1, 6)):
        inputs = {tag: f"{salt}val{rng.randrange(1000)}"
                  for tag in tags_needed(event)}
        steps.append(TraceStep(event, 0 if step_no == 0 else rng.choice(thinks),
                               inputs))
        current = step_end(event)
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


# ---------------------------------------------------------------------------
# writing inputs
# ---------------------------------------------------------------------------

GENERATORS = {
    "large_app": large_app,
    "long_session": long_session,
    "corpus": corpus,
}


def write_cases(cases: list[Case], outdir: Path) -> list[Written]:
    """Print each app to `.papp` and its trace to JSON. Each printed app
    must parse back to the generated one."""
    from fetchahead.app_ir import parse_app, print_app
    from fetchahead.runtime import trace_to_json_obj

    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for case in cases:
        text = print_app(case.app)
        if parse_app(text) != case.app:
            raise ValueError(f"{case.name}: printed app does not parse back")
        papp = outdir / f"{case.name}.papp"
        trace = outdir / f"{case.name}.trace.json"
        papp.write_text(text, encoding="utf-8")
        trace.write_text(json.dumps(trace_to_json_obj(case.trace)),
                         encoding="utf-8")
        stmts = sum(len(body) for _, body in case.app.containers())
        written.append(Written(case.name, papp, trace, case.expect_exit,
                               case.steps, stmts))
    return written
