"""Deterministic discrete-event execution of an app over a user trace.

A virtual clock in milliseconds drives a single session. Statements cost
nothing except network operations and any configured instrumentation-call
costs. Prefetches run in the background: issuing one does not consume app
time; its response becomes available at issue time + the latency of the
proxy's own fetch method.

The proxy keeps a runtime URL map (seeded from static analysis, updated
by send_definition) and a cache keyed by the exact concrete URL string.
A cache entry starts in a waiting state until its scheduled ready time;
a demand that arrives earlier blocks until then instead of re-fetching,
so each concrete URL is fetched from the origin at most once per session.
The cache lives for exactly one trace (one session).

Identical inputs produce a byte-identical run log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Mapping, Union

from .app_ir import (
    App,
    AsyncCall,
    BuildUrl,
    Call,
    DefineDynamic,
    DefineStatic,
    FetchFromProxy,
    NetCall,
    SendDefinition,
    Transition,
    TriggerPrefetch,
)
from .codec import decode, encode, inline, renamed, writer
from .errors import RunError
from .string_analysis import UrlMap

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .instrumenter import Hints, InstrumentedApp

_MAX_CALL_DEPTH = 64

# ---------------------------------------------------------------------------
# trace and network model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    """One user event: `think_ms` is the delay before the event fires and
    `inputs` supplies values for every input() executed during the step."""

    event: str
    think_ms: int = 0
    inputs: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...] = inline()


@dataclass(frozen=True)
class Costs:
    """Optional per-call costs of the three instrumentation methods."""

    send_definition_ms: int = 0
    trigger_prefetch_ms: int = 0
    fetch_from_proxy_ms: int = 0


@dataclass(frozen=True)
class NetModel:
    """Origin server model: latency overrides and deterministic payloads.

    Latency precedence: per_method override, then default_latency_ms if
    set, then the latency declared in the app's netlib.
    """

    default_latency_ms: int | None = None
    per_method: Mapping[str, int] = field(default_factory=dict)
    server: Mapping[str, str] = field(default_factory=dict)
    threshold: int = 5
    costs: Costs = field(default_factory=Costs)

    def __post_init__(self):
        if self.threshold < 1:
            raise RunError(f"net config threshold must be >= 1, got "
                           f"{self.threshold}")
        times = {"default_latency_ms": self.default_latency_ms or 0,
                 **{f"per_method.{m}": ms for m, ms in self.per_method.items()},
                 **{f"costs.{k}": ms for k, ms in vars(self.costs).items()}}
        for name, ms in times.items():
            if ms < 0:
                raise RunError(f"net config {name} must be >= 0, got {ms}")

    def latency_for(self, method: str, declared: int | None) -> int:
        if method in self.per_method:
            return self.per_method[method]
        if self.default_latency_ms is not None:
            return self.default_latency_ms
        if declared is not None:
            return declared
        raise RunError(f"no latency known for net method '{method}'")

    def payload_for(self, url: str) -> str:
        return self.server.get(url, f"response:{url}")


# ---------------------------------------------------------------------------
# run log events
# ---------------------------------------------------------------------------

SERVED_CACHE = "cache"
SERVED_WAITED = "waited"
SERVED_ORIGIN = "origin"


# each event's JSON form carries its class's `type`
#
# The events are not frozen. A pipeline on a hub app over 8,000 trace
# steps builds about 95,000 of them, and `frozen=True` makes each field
# an `object.__setattr__` call: building a `DefinitionUpdate` took
# 1.0 us frozen against 0.38 us without (timeit, 200k calls, Python
# 3.11.7 on a 2-vCPU VM). Nothing hashes, puts in a set or mutates an
# event. `slots=True` stays: it keeps a `__dict__` off every event.

@dataclass(slots=True)
class Prefetch:
    type: ClassVar[str] = "prefetch"
    url_id: str
    url: str
    issued_at: int
    ready_at: int


@dataclass(slots=True)
class Demand:
    type: ClassVar[str] = "demand"
    url_id: str
    url: str
    at: int
    served_from: str  # cache | waited | origin
    waited_ms: int
    response_time_ms: int
    method: str
    via: str  # "proxy" for fetch_from_proxy, "direct" for plain net calls
    payload: str


@dataclass(slots=True)
class DefinitionUpdate:
    type: ClassVar[str] = "definition_update"
    url_id: str
    part_index: int = renamed("m")
    value: str
    at: int


@dataclass(slots=True)
class TriggerEval:
    """One trigger point evaluation. `considered` lists every URL handed
    to the proxy; URLs beyond the prefetch threshold appear only there."""

    type: ClassVar[str] = "trigger_eval"
    callback: str
    at: int
    considered: tuple[str, ...]
    issued: tuple[str, ...]
    skipped_known_cached: tuple[str, ...]
    skipped_unknown: tuple[str, ...]


Event = Union[Prefetch, Demand, DefinitionUpdate, TriggerEval]


@dataclass
class RunLog:
    app: str
    instrumented: bool
    events: tuple[Event, ...]
    final_ms: int
    overhead_ms: Mapping[str, int]

    def demands(self) -> list[Demand]:
        return [e for e in self.events if isinstance(e, Demand)]

    def prefetches(self) -> list[Prefetch]:
        return [e for e in self.events if isinstance(e, Prefetch)]

    def trigger_evals(self) -> list[TriggerEval]:
        return [e for e in self.events if isinstance(e, TriggerEval)]

    def total_overhead_ms(self) -> int:
        return sum(self.overhead_ms.values())

    def canonical_json(self, sink: Callable[[str], object] | None = None
                       ) -> str | None:
        """`json.dumps(encode(self), sort_keys=True, indent=2)` plus
        a newline, byte for byte, written without building the JSON form:
        the codec's compiled writers write each event, the id lists and
        `overhead_ms`, and a hand-written frame holds them.

        The text is made in pieces of at most `_BATCH` events, the first
        piece holding the head and the last the tail, so a log of up to
        `_BATCH` events is one piece. With a `sink`, each piece is handed
        to it in order and None is returned: the whole text never exists
        at once. Without one, the text is returned, joined once."""
        pieces: list[str] = []
        put = pieces.append if sink is None else sink
        tail = (f'],\n  "final_ms": {self.final_ms},\n  "instrumented": '
                f'{"true" if self.instrumented else "false"},\n'
                f'  "overhead_ms": {_overhead_json(self.overhead_ms)}\n}}\n')
        events = self.events
        piece = f'{{\n  "app": {_quote(self.app)},\n  "events": ['
        if events:
            piece += "\n    "
            try:
                for start in range(0, len(events), _BATCH):
                    if start:
                        put(piece)
                        piece = ",\n    "
                    piece += ",\n    ".join([_EVENT_JSON[type(ev)](ev) for ev
                                             in events[start:start + _BATCH]])
            finally:  # a key of another log would compare id by id
                _considered_json.cache_clear()
            piece += "\n  "
        put(piece + tail)
        return "".join(pieces) if sink is None else None


# events per piece of `RunLog.canonical_json`: about 450 KB of text on
# `long_session`, where the whole optimized log is 17.8 MB
_BATCH = 2_000


# canonical_json's writers, each at the indent of its place in the log
_overhead_json = writer(Mapping[str, int], 2)
_ids_json = writer(tuple[str, ...], 6)

# Every evaluation of a trigger statement considers the statement's own
# tuple (`tuple()` hands it through), so a log's lookups hit by identity;
# emptied after each log, the cache holds at most a batch's lists.
_considered_json = lru_cache(maxsize=_BATCH)(_ids_json)


def _trigger_eval_json(ev: TriggerEval) -> str:
    # all cached: skipped is considered (write it once), the rest empty
    text, skipped = _considered_json(ev.considered), ev.skipped_known_cached
    return (
        f'{{\n      "at": {ev.at},\n'
        f'      "callback": {_quote(ev.callback)},\n'
        f'      "considered": {text},\n'
        f'      "issued": {_ids_json(ev.issued) if ev.issued else "[]"},\n'
        f'      "skipped_known_cached": '
        f'{text if skipped is ev.considered else _ids_json(skipped)},\n'
        f'      "skipped_unknown": '
        f'{_ids_json(ev.skipped_unknown) if ev.skipped_unknown else "[]"},\n'
        f'      "type": "trigger_eval"\n    }}'
    )


_EVENT_JSON: dict[type, Callable[..., str]] = {
    cls: writer(cls, 4) for cls in (Prefetch, Demand, DefinitionUpdate)}
_EVENT_JSON[TriggerEval] = _trigger_eval_json


# the JSON forms of the run log, the trace and the net config
run_log_from_json_obj = partial(decode, RunLog, error=RunError)
trace_from_json_obj = partial(decode, Trace, error=RunError)
net_model_from_json_obj = partial(decode, NetModel, error=RunError)
trace_to_json_obj = net_model_to_json_obj = encode


# ---------------------------------------------------------------------------
# the proxy
# ---------------------------------------------------------------------------

class Proxy:
    """The proxy library of one session: the runtime URL map, the response
    cache and the three operations the instrumented app calls.

    The map is seeded with each url id's part values, None for a part not
    known yet; the proxy takes the seed's lists over. Each hint URL becomes
    a single-part entry; `Hints.check` holds it apart from the URLs the app
    builds. `known` holds the URL string of every url id whose parts are
    all set, and `set_part`, the map's only writer, keeps it current. The
    app's proxy hears the definitions the instrumented app sends; the
    oracle's (`metrics.Replay`) hears every definition, so which URLs a
    trigger point prefetches is decided here for both.

    The hints' rewrite rules are kept by the part they name. A value sent
    for a part without a rule, the common case, is written as sent, with
    no scan of the rules; a part's rules apply in the hints' order. Only
    `send_definition` rewrites: `set_part` writes what it is given, so the
    oracle, which calls it directly, sees the URLs the app builds.

    A cache entry `(ready_at, payload)` is waiting until `ready_at` and
    ready afterwards. An origin fetch costs its method's latency under
    `NetModel.latency_for`. A prefetch is the proxy's own fetch issued
    early, so every prefetch costs `prefetch_ms`: the latency of the
    method the app's fetch_from_proxy statements carry.
    """

    def __init__(self, app: App, seed: dict[str, list[str | None]],
                 net: NetModel, hints: "Hints | None" = None):
        self.net = net
        self.declared = {m.name: m.latency_ms for m in app.netlib}
        # an app without fetch_from_proxy never reads the cache, so there
        # its prefetches cost 0
        method = app.index.proxy_method
        self.prefetch_ms = (0 if method is None else
                            net.latency_for(method, self.declared.get(method)))
        self.runtime_url_map = seed
        # (url id, m) -> the (find, replace) of each rewrite rule on that
        # part, in the hints' order
        self.rules: dict[tuple[str, int], list[tuple[str, str]]] = {}
        if hints is not None:
            for extra in hints.extra_static_urls:
                self.runtime_url_map[extra.url_id] = [extra.url]
            for rule in hints.rewrite_rules:
                self.rules.setdefault((rule.url_id, rule.part_index), []).append(
                    (rule.find, rule.replace))
        self.known = {url_id: "".join(parts)
                      for url_id, parts in self.runtime_url_map.items()
                      if None not in parts}
        self.cache: dict[str, tuple[int, str]] = {}

    def send_definition(self, url_id: str, m: int, value: str,
                        now: int) -> DefinitionUpdate:
        """Record a value, rewritten by the hints' rules, for URL part m
        (which exists: see `UrlMap.check`); last write wins."""
        if self.rules:
            for find, replace in self.rules.get((url_id, m), ()):
                value = value.replace(find, replace)
        self.set_part(url_id, m, value)
        return DefinitionUpdate(url_id, m, value, now)

    def set_part(self, url_id: str, m: int, value: str) -> None:
        """Write part m of an existing entry as given and keep `known`
        current."""
        parts = self.runtime_url_map[url_id]
        parts[m - 1] = value
        if None not in parts:
            self.known[url_id] = "".join(parts)

    def trigger_prefetch(self, callback: str, url_ids: Iterable[str],
                         now: int) -> list[Event]:
        """Prefetch every known, uncached URL, up to the threshold; the
        trigger's evaluation comes first, then one event per prefetch.

        A waiting entry counts as cached: re-prefetching it would defeat
        the wait's purpose of preventing duplicate fetches.
        """
        considered = tuple(url_ids)
        known, cache = self.known, self.cache
        # In a long session nearly every trigger point finds all its URLs
        # cached: test that in C, with no step per URL. An unknown id
        # maps to None, which is never a cache key. The event is the one
        # the loop builds, its skipped tuple `considered` itself.
        if all(map(cache.__contains__, map(known.get, considered))):
            return [TriggerEval(callback, now, considered, (), considered, ())]
        issued: list[str] = []
        skipped_cached: list[str] = []
        skipped_unknown: list[str] = []
        prefetches: list[Event] = []
        for url_id in considered:
            url = known.get(url_id)
            if url is None:
                skipped_unknown.append(url_id)
                continue
            if url in cache:
                skipped_cached.append(url_id)
                continue
            if len(issued) >= self.net.threshold:
                continue  # over threshold: considered but not acted on
            ready_at = now + self.prefetch_ms
            cache[url] = (ready_at, self.net.payload_for(url))
            issued.append(url_id)
            prefetches.append(Prefetch(url_id, url, now, ready_at))
        return [TriggerEval(callback, now, considered, tuple(issued),
                            tuple(skipped_cached), tuple(skipped_unknown)),
                *prefetches]

    def fetch_from_proxy(self, url_id: str, url: str, now: int,
                         method: str) -> Demand:
        """Serve an on-demand request: cache hit, wait on an in-flight
        prefetch, or fall back to the origin (and cache the response)."""
        entry = self.cache.get(url)
        if entry is not None:
            ready_at, payload = entry
            if ready_at > now:
                waited = ready_at - now
                return Demand(url_id, url, now, SERVED_WAITED, waited, waited,
                              method, "proxy", payload)
            return Demand(url_id, url, now, SERVED_CACHE, 0, 0, method,
                          "proxy", payload)
        latency = self.net.latency_for(method, self.declared.get(method))
        payload = self.net.payload_for(url)
        self.cache[url] = (now + latency, payload)
        return Demand(url_id, url, now, SERVED_ORIGIN, 0, latency, method,
                      "proxy", payload)

    def hold(self, url: str) -> None:
        """Cache `url`, ready since time 0, unless it is cached already:
        the oracle's record of a fetch it does not price."""
        if url not in self.cache:
            self.cache[url] = (0, self.net.payload_for(url))


# ---------------------------------------------------------------------------
# the statement walk
# ---------------------------------------------------------------------------

class Walk:
    """The statement walk of one session; the runtime and the oracle
    subclass it.

    `run_step` validates a trace step (the first event is an entry
    callback, each later one is reached from the current screen through a
    wait node) and runs its callback under a call-depth limit. `goto` runs
    its target at once and moves the current screen there. The walk keeps
    variable values and built URLs and raises RunError on a missing input,
    a fetch of an unbuilt URL or a send_definition of an unset variable.
    A subclass receives only definitions and the four effect statements:

        define(container, stmt_index, var, value)
        net_call(st, url) / fetch_from_proxy(st, url)    url as built
        send_definition(st, value)                       value of st.var
        trigger_prefetch(container, st)
    """

    def __init__(self, app: App):
        self.app = app
        self.variables: dict[str, str] = {}
        self.built: dict[str, str] = {}
        self.current: str | None = None
        self._inputs: Mapping[str, str] = {}

    def run_step(self, k: int, step: TraceStep) -> None:
        """Validate trace step `k` and run its callback."""
        event, index = step.event, self.app.index
        if step.think_ms < 0:
            raise RunError(f"invalid trace step {k}: think_ms "
                           f"{step.think_ms} is negative")
        if event not in index.callback_order:
            raise RunError(f"invalid trace step {k}: unknown callback "
                           f"'{event}'")
        if self.current is None:
            if index.roots and event not in index.roots:
                raise RunError(f"invalid trace step {k}: '{event}' is "
                               f"not an entry callback")
        elif self.current not in index.wait_predecessors.get(event, ()):
            raise RunError(
                f"invalid trace step {k}: no wait-node path from "
                f"'{self.current}' to '{event}'"
            )
        self._inputs = step.inputs
        self.current = event
        self._execute(event, 0)

    def _execute(self, name: str, depth: int) -> None:
        if depth > _MAX_CALL_DEPTH:
            raise RunError(f"call depth exceeded at '{name}'")
        body = self.app.index.bodies[name]  # the parser resolved every name
        app, variables, built = self.app, self.variables, self.built
        inputs, define = self._inputs, self.define
        for idx, st in enumerate(body):
            cls = type(st)  # statements are final classes
            if cls is DefineStatic:
                value = variables[st.var] = app.static_value(st.source_kind,
                                                             st.source)
                define(name, idx, st.var, value)
            elif cls is DefineDynamic:
                if st.input_tag not in inputs:
                    raise RunError(
                        f"missing input '{st.input_tag}' while running '{name}'"
                    )
                value = variables[st.var] = inputs[st.input_tag]
                define(name, idx, st.var, value)
            elif cls is BuildUrl:
                # unset variables read as ""
                built[st.url_id] = "".join([
                    variables.get(p.value, "") if p.kind == "var"
                    else app.static_value(p.kind, p.value)
                    for p in st.parts
                ])
            elif cls is NetCall:
                self.net_call(st, self._built_url(st.url_id))
            elif cls is Call or cls is AsyncCall:
                self._execute(st.target, depth + 1)
            elif cls is Transition:
                self.current = st.target
                self._execute(st.target, depth + 1)
            elif cls is SendDefinition:
                if st.var not in variables:
                    raise RunError(
                        f"send_definition before '{st.var}' is assigned"
                    )
                self.send_definition(st, variables[st.var])
            elif cls is TriggerPrefetch:
                self.trigger_prefetch(name, st)
            elif cls is FetchFromProxy:
                self.fetch_from_proxy(st, self._built_url(st.url_id))
            else:  # pragma: no cover - exhaustive over Stmt
                raise RunError(f"unknown statement {st!r}")

    def _built_url(self, url_id: str) -> str:
        if url_id not in self.built:
            raise RunError(f"url '{url_id}' fetched before being built")
        return self.built[url_id]


# ---------------------------------------------------------------------------
# trace execution
# ---------------------------------------------------------------------------

class _Session(Walk):
    """The runtime's walk: the virtual clock, the overhead and the run log.

    `proxy` is None only for an app without instrumentation, which has
    none of the statements that use it.
    """

    def __init__(self, app: App, net: NetModel, proxy: Proxy | None):
        super().__init__(app)
        self.net = net
        self.costs = net.costs
        self.proxy = proxy
        self.declared = {m.name: m.latency_ms for m in app.netlib}
        self.clock = 0
        self.events: list[Event] = []
        # each call's cost is charged only when it is not 0, the default
        self.overhead = {"send_definition": 0, "trigger_prefetch": 0,
                         "fetch_from_proxy": 0}

    def define(self, container: str, stmt_index: int, var: str,
               value: str) -> None:
        pass  # values reach the run log only through built URLs

    def net_call(self, st: NetCall, url: str) -> None:
        rt = self.net.latency_for(st.method, self.declared.get(st.method))
        self.events.append(Demand(
            st.url_id, url, self.clock, SERVED_ORIGIN, 0, rt, st.method,
            "direct", self.net.payload_for(url),
        ))
        self.clock += rt

    def send_definition(self, st: SendDefinition, value: str) -> None:
        self.events.append(self.proxy.send_definition(
            st.url_id, st.part_index, value, self.clock))
        ms = self.costs.send_definition_ms
        if ms:
            self.overhead["send_definition"] += ms
            self.clock += ms

    def trigger_prefetch(self, container: str, st: TriggerPrefetch) -> None:
        self.events += self.proxy.trigger_prefetch(container, st.url_ids,
                                                   self.clock)
        ms = self.costs.trigger_prefetch_ms
        if ms:
            self.overhead["trigger_prefetch"] += ms
            self.clock += ms

    def fetch_from_proxy(self, st: FetchFromProxy, url: str) -> None:
        demand = self.proxy.fetch_from_proxy(st.url_id, url, self.clock,
                                             st.original_method)
        self.events.append(demand)
        self.clock = demand.at + demand.response_time_ms
        ms = self.costs.fetch_from_proxy_ms
        if ms:
            self.overhead["fetch_from_proxy"] += ms
            self.clock += ms


def run_trace(
    app: "App | InstrumentedApp",
    trace: Trace,
    net: NetModel | None = None,
    seed_url_map: UrlMap | None = None,
    hints: "Hints | None" = None,
) -> RunLog:
    """Execute a trace, checked step by step, and return the complete run
    log. An instrumented app takes a `seed_url_map` and `hints` that pass
    their checks, as its trigger points do; an original app takes neither."""
    app = getattr(app, "app", app)  # accept an InstrumentedApp wrapper
    net = net or NetModel()
    proxy = (Proxy(app, seed_url_map.runtime_seed(), net, hints)
             if app.is_instrumented else None)
    session = _Session(app, net, proxy)
    for k, step in enumerate(trace.steps):
        session.clock += step.think_ms
        session.run_step(k, step)
    return RunLog(app.name, app.is_instrumented, tuple(session.events),
                  session.clock, session.overhead)
