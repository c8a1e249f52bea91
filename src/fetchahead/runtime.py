"""Deterministic discrete-event execution of an app over a user trace.

A virtual clock in milliseconds drives a single session. Statements cost
nothing except network operations and any configured instrumentation-call
costs. Prefetches run in the background: issuing one does not consume app
time; its response becomes available at issue time + latency.

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
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Union

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
from .errors import RunError, expect_json
from .string_analysis import Concrete, UrlMap

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .instrumenter import Hints, InstrumentedApp, RewriteRule

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
    steps: tuple[TraceStep, ...]


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


@dataclass(frozen=True)
class Prefetch:
    url_id: str
    url: str
    issued_at: int
    ready_at: int


@dataclass(frozen=True)
class Demand:
    url_id: str
    url: str
    at: int
    served_from: str  # cache | waited | origin
    waited_ms: int
    response_time_ms: int
    method: str
    via: str  # "proxy" for fetch_from_proxy, "direct" for plain net calls
    payload: str


@dataclass(frozen=True)
class DefinitionUpdate:
    url_id: str
    part_index: int
    value: str
    at: int


@dataclass(frozen=True)
class TriggerEval:
    """One trigger point evaluation. `considered` lists every URL handed
    to the proxy; URLs beyond the prefetch threshold appear only there."""

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
    events: list[Event]
    final_ms: int
    overhead_ms: dict[str, int]

    def demands(self) -> list[Demand]:
        return [e for e in self.events if isinstance(e, Demand)]

    def prefetches(self) -> list[Prefetch]:
        return [e for e in self.events if isinstance(e, Prefetch)]

    def trigger_evals(self) -> list[TriggerEval]:
        return [e for e in self.events if isinstance(e, TriggerEval)]

    def total_overhead_ms(self) -> int:
        return sum(self.overhead_ms.values())

    def to_json_obj(self) -> dict:
        events = []
        for ev in self.events:
            if isinstance(ev, Prefetch):
                events.append({
                    "type": "prefetch", "url_id": ev.url_id, "url": ev.url,
                    "issued_at": ev.issued_at, "ready_at": ev.ready_at,
                })
            elif isinstance(ev, Demand):
                events.append({
                    "type": "demand", "url_id": ev.url_id, "url": ev.url,
                    "at": ev.at, "served_from": ev.served_from,
                    "waited_ms": ev.waited_ms,
                    "response_time_ms": ev.response_time_ms,
                    "method": ev.method, "via": ev.via, "payload": ev.payload,
                })
            elif isinstance(ev, DefinitionUpdate):
                events.append({
                    "type": "definition_update", "url_id": ev.url_id,
                    "m": ev.part_index, "value": ev.value, "at": ev.at,
                })
            else:
                events.append({
                    "type": "trigger_eval", "callback": ev.callback,
                    "at": ev.at, "considered": list(ev.considered),
                    "issued": list(ev.issued),
                    "skipped_known_cached": list(ev.skipped_known_cached),
                    "skipped_unknown": list(ev.skipped_unknown),
                })
        return {
            "app": self.app,
            "instrumented": self.instrumented,
            "events": events,
            "final_ms": self.final_ms,
            "overhead_ms": dict(self.overhead_ms),
        }

    def canonical_json(self) -> str:
        """`json.dumps(self.to_json_obj(), sort_keys=True, indent=2)` plus
        a newline, byte for byte, written from one template per event
        type without building the JSON form."""
        events = ",\n".join([_EVENT_JSON[type(ev)](ev) for ev in self.events])
        overhead = ",\n".join([
            f"    {_quote(call)}: {ms}"
            for call, ms in sorted(self.overhead_ms.items())
        ])
        events = "[\n" + events + "\n  ]" if events else "[]"
        overhead = "{\n" + overhead + "\n  }" if overhead else "{}"
        return (
            f'{{\n  "app": {_quote(self.app)},\n'
            f'  "events": {events},\n'
            f'  "final_ms": {self.final_ms},\n'
            f'  "instrumented": {"true" if self.instrumented else "false"},\n'
            f'  "overhead_ms": {overhead}\n}}\n'
        )


# canonical_json's event writers: keys in sorted order, two-space indent,
# strings escaped by the C encoder that json.dumps itself uses

def _ids_json(ids: tuple[str, ...]) -> str:
    if not ids:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_quote, ids)) + "\n      ]"


_EVENT_JSON: dict[type, Callable[..., str]] = {
    Prefetch: lambda ev: (
        f'    {{\n      "issued_at": {ev.issued_at},\n'
        f'      "ready_at": {ev.ready_at},\n'
        f'      "type": "prefetch",\n'
        f'      "url": {_quote(ev.url)},\n'
        f'      "url_id": {_quote(ev.url_id)}\n    }}'
    ),
    Demand: lambda ev: (
        f'    {{\n      "at": {ev.at},\n'
        f'      "method": {_quote(ev.method)},\n'
        f'      "payload": {_quote(ev.payload)},\n'
        f'      "response_time_ms": {ev.response_time_ms},\n'
        f'      "served_from": {_quote(ev.served_from)},\n'
        f'      "type": "demand",\n'
        f'      "url": {_quote(ev.url)},\n'
        f'      "url_id": {_quote(ev.url_id)},\n'
        f'      "via": {_quote(ev.via)},\n'
        f'      "waited_ms": {ev.waited_ms}\n    }}'
    ),
    DefinitionUpdate: lambda ev: (
        f'    {{\n      "at": {ev.at},\n'
        f'      "m": {ev.part_index},\n'
        f'      "type": "definition_update",\n'
        f'      "url_id": {_quote(ev.url_id)},\n'
        f'      "value": {_quote(ev.value)}\n    }}'
    ),
    TriggerEval: lambda ev: (
        f'    {{\n      "at": {ev.at},\n'
        f'      "callback": {_quote(ev.callback)},\n'
        f'      "considered": {_ids_json(ev.considered)},\n'
        f'      "issued": {_ids_json(ev.issued)},\n'
        f'      "skipped_known_cached": {_ids_json(ev.skipped_known_cached)},\n'
        f'      "skipped_unknown": {_ids_json(ev.skipped_unknown)},\n'
        f'      "type": "trigger_eval"\n    }}'
    ),
}


# run-log event type -> (event class, {JSON key: JSON type} in
# constructor order); the lists hold url ids
_EVENT_FORMS = {
    "prefetch": (Prefetch, {"url_id": str, "url": str, "issued_at": int,
                            "ready_at": int}),
    "demand": (Demand, {"url_id": str, "url": str, "at": int,
                        "served_from": str, "waited_ms": int,
                        "response_time_ms": int, "method": str, "via": str,
                        "payload": str}),
    "definition_update": (DefinitionUpdate, {"url_id": str, "m": int,
                                             "value": str, "at": int}),
    "trigger_eval": (TriggerEval, {"callback": str, "at": int,
                                   "considered": list, "issued": list,
                                   "skipped_known_cached": list,
                                   "skipped_unknown": list}),
}


def _event_field(value, kind: type, what: str):
    value = expect_json(value, kind, what, RunError)
    if kind is list:
        return tuple(expect_json(u, str, what, RunError) for u in value)
    return value


def run_log_from_json_obj(obj: dict) -> RunLog:
    """Validated run log; raises RunError naming the offending key."""
    obj = _object(obj, "run log")
    events: list[Event] = []
    raw = expect_json(obj.get("events"), list, "run log events", RunError)
    for k, e in enumerate(raw):
        e = _object(e, f"run log event {k}")
        if e.get("type") not in _EVENT_FORMS:
            raise RunError(f"run log event {k} has unknown type "
                           f"{e.get('type')!r}")
        cls, form = _EVENT_FORMS[e["type"]]
        events.append(cls(*(
            _event_field(e.get(key), kind, f"run log event {k} {key}")
            for key, kind in form.items()
        )))
    overhead = _object(obj.get("overhead_ms"), "run log overhead_ms")
    for call, ms in overhead.items():
        _count(ms, f"run log overhead_ms {call}")
    return RunLog(
        expect_json(obj.get("app"), str, "run log app", RunError),
        expect_json(obj.get("instrumented"), bool, "run log instrumented",
                    RunError),
        events, _count(obj.get("final_ms"), "run log final_ms"), dict(overhead),
    )


# ---------------------------------------------------------------------------
# trace / net model JSON forms
# ---------------------------------------------------------------------------

def trace_to_json_obj(trace: Trace) -> list:
    return [
        {"event": s.event, "think_ms": s.think_ms, "inputs": dict(s.inputs)}
        for s in trace.steps
    ]


def _count(value, what: str) -> int:
    return expect_json(value, int, what, RunError)


def _object(value, what: str) -> dict:
    return expect_json(value, dict, what, RunError)


def trace_from_json_obj(obj: list) -> Trace:
    """Validated trace; raises RunError naming the offending step."""
    if not isinstance(obj, list):
        raise RunError("trace must be a JSON list of steps")
    steps = []
    for k, s in enumerate(obj):
        s = _object(s, f"trace step {k}")
        if not isinstance(s.get("event"), str):
            raise RunError(f"trace step {k} needs an 'event' string")
        inputs = _object(s.get("inputs", {}), f"trace step {k} inputs")
        for tag, value in inputs.items():
            if not isinstance(value, str):
                raise RunError(f"trace step {k} input '{tag}' must be a string")
        think_ms = _count(s.get("think_ms", 0), f"trace step {k} think_ms")
        steps.append(TraceStep(s["event"], think_ms, dict(inputs)))
    return Trace(tuple(steps))


def net_model_to_json_obj(net: NetModel) -> dict:
    obj: dict = {
        "per_method": dict(net.per_method),
        "server": dict(net.server),
        "threshold": net.threshold,
    }
    if net.default_latency_ms is not None:
        obj["default_latency_ms"] = net.default_latency_ms
    costs = net.costs
    if costs != Costs():
        obj["costs"] = {
            "send_definition_ms": costs.send_definition_ms,
            "trigger_prefetch_ms": costs.trigger_prefetch_ms,
            "fetch_from_proxy_ms": costs.fetch_from_proxy_ms,
        }
    return obj


def net_model_from_json_obj(obj: dict) -> NetModel:
    """Validated net model; raises RunError naming the offending key."""
    obj = _object(obj, "net config")
    threshold = _count(obj.get("threshold", 5), "net config threshold")
    if threshold < 1:
        raise RunError("net config threshold must be >= 1")
    default = obj.get("default_latency_ms")
    if default is not None:
        _count(default, "net config default_latency_ms")
    per_method = _object(obj.get("per_method", {}), "net config per_method")
    for method, ms in per_method.items():
        _count(ms, f"net config latency of '{method}'")
    server = _object(obj.get("server", {}), "net config server")
    costs = _object(obj.get("costs", {}), "net config costs")
    return NetModel(
        default_latency_ms=default,
        per_method=dict(per_method),
        server=dict(server),
        threshold=threshold,
        costs=Costs(**{
            key: _count(costs.get(key, 0), f"net config costs {key}")
            for key in ("send_definition_ms", "trigger_prefetch_ms",
                        "fetch_from_proxy_ms")
        }),
    )


# ---------------------------------------------------------------------------
# proxy state and operations
# ---------------------------------------------------------------------------

@dataclass
class CacheEntry:
    """Waiting until `ready_at_ms`, ready afterwards."""

    ready_at_ms: int
    payload: str


@dataclass
class ProxyState:
    """Runtime URL map plus the response cache for one session.

    `known` holds the URL string of every url id whose parts are all
    set. It is filled from `runtime_url_map` at construction and kept
    current by `on_send_definition`, the map's only writer afterwards.
    """

    runtime_url_map: dict[str, list[str | None]]
    cache: dict[str, CacheEntry] = field(default_factory=dict)
    threshold: int = 5
    known: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.known = {url_id: "".join(parts)
                      for url_id, parts in self.runtime_url_map.items()
                      if None not in parts}


def seed_proxy_state(
    url_map: UrlMap,
    hints: "Hints | None" = None,
    threshold: int = 5,
) -> ProxyState:
    """Proxy state with concrete parts filled in and dynamic parts empty.

    Hint-provided static URLs become additional single-part entries; a
    hint may not shadow a URL the analysis already knows about.
    """
    runtime_map: dict[str, list[str | None]] = {}
    for url_id, parts in url_map.entries.items():
        runtime_map[url_id] = [
            p.value if isinstance(p, Concrete) else None for p in parts
        ]
    if hints is not None:
        for extra in hints.extra_static_urls:
            if extra.url_id in runtime_map:
                raise RunError(
                    f"hint url '{extra.url_id}' collides with an analyzed url"
                )
            runtime_map[extra.url_id] = [extra.url]
    return ProxyState(runtime_map, {}, threshold)


def on_send_definition(
    state: ProxyState,
    url_id: str,
    part_index: int,
    value: str,
    rewrite_rules: Iterable["RewriteRule"] = (),
    now: int = 0,
) -> DefinitionUpdate:
    """Record a runtime value for a URL part; last write wins."""
    parts = state.runtime_url_map.get(url_id)
    if parts is None or not 1 <= part_index <= len(parts):
        raise RunError(f"unknown url part {url_id}[{part_index}]")
    for rule in rewrite_rules:
        if rule.url_id == url_id and rule.part_index == part_index:
            value = value.replace(rule.find, rule.replace)
    parts[part_index - 1] = value
    if None not in parts:
        state.known[url_id] = "".join(parts)
    return DefinitionUpdate(url_id, part_index, value, now)


def on_trigger_prefetch(
    state: ProxyState,
    url_ids: Iterable[str],
    now: int,
    callback: str,
    latency_for_url: Callable[[str], int],
    payload_for: Callable[[str], str],
) -> tuple[TriggerEval, list[Prefetch]]:
    """Issue prefetches for every known, uncached URL, up to the threshold.

    A waiting entry counts as cached: re-prefetching it would defeat the
    wait flag's purpose of preventing duplicate fetches.
    """
    considered = tuple(url_ids)
    issued: list[str] = []
    skipped_cached: list[str] = []
    skipped_unknown: list[str] = []
    prefetches: list[Prefetch] = []
    known, cache = state.known, state.cache
    for url_id in considered:
        url = known.get(url_id)
        if url is None:
            skipped_unknown.append(url_id)
            continue
        if url in cache:
            skipped_cached.append(url_id)
            continue
        if len(issued) >= state.threshold:
            continue  # over threshold: considered but not acted on
        ready_at = now + latency_for_url(url_id)
        cache[url] = CacheEntry(ready_at, payload_for(url))
        issued.append(url_id)
        prefetches.append(Prefetch(url_id, url, now, ready_at))
    ev = TriggerEval(
        callback, now, considered, tuple(issued),
        tuple(skipped_cached), tuple(skipped_unknown),
    )
    return ev, prefetches


def on_fetch_from_proxy(
    state: ProxyState,
    url_id: str,
    url: str,
    now: int,
    origin_latency: int,
    payload_for: Callable[[str], str],
    method: str,
) -> Demand:
    """Serve an on-demand request: cache hit, wait on in-flight prefetch,
    or fall back to the origin (and cache the response)."""
    entry = state.cache.get(url)
    if entry is not None:
        if entry.ready_at_ms > now:
            waited = entry.ready_at_ms - now
            return Demand(url_id, url, now, SERVED_WAITED, waited, waited,
                          method, "proxy", entry.payload)
        return Demand(url_id, url, now, SERVED_CACHE, 0, 0, method, "proxy",
                      entry.payload)
    payload = payload_for(url)
    state.cache[url] = CacheEntry(now + origin_latency, payload)
    return Demand(url_id, url, now, SERVED_ORIGIN, 0, origin_latency, method,
                  "proxy", payload)


# ---------------------------------------------------------------------------
# the statement walk
# ---------------------------------------------------------------------------

def _ccfg_roots(app: App) -> set[str]:
    targets = {b for _, b in app.ccfg.edges}
    return {c for c in app.callback_names if c not in targets}


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
        event, ccfg = step.event, self.app.ccfg
        if event not in self.app.index.callback_order:
            raise RunError(f"invalid trace step {k}: unknown callback "
                           f"'{event}'")
        if self.current is None:
            roots = _ccfg_roots(self.app)
            if roots and event not in roots:
                raise RunError(f"invalid trace step {k}: '{event}' is "
                               f"not an entry callback")
        elif not any(w in ccfg.wait_set and event in ccfg.successors(w)
                     for w in ccfg.successors(self.current)):
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
        body = self.app.index.bodies.get(name)
        if body is None:
            raise RunError(f"unknown callback or method '{name}'")
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
    """The runtime's walk: the virtual clock, the proxy and the run log.

    `proxy` is None only for an app without instrumentation, which has
    none of the statements that use it.
    """

    def __init__(self, app: App, net: NetModel, proxy: ProxyState | None,
                 rewrite_rules: tuple["RewriteRule", ...]):
        super().__init__(app)
        self.net = net
        self.proxy = proxy
        self.rewrite_rules = rewrite_rules
        self.declared = {m.name: m.latency_ms for m in app.netlib}
        self.clock = 0
        self.events: list[Event] = []
        self.overhead = {"send_definition": 0, "trigger_prefetch": 0,
                         "fetch_from_proxy": 0}

    def _latency(self, method: str) -> int:
        return self.net.latency_for(method, self.declared.get(method))

    def _prefetch_latency(self, url_id: str) -> int:
        method = self.app.index.fetch_methods.get(url_id)
        if method is not None:
            return self._latency(method)
        if self.net.default_latency_ms is None:  # e.g. a hint URL
            raise RunError(f"url '{url_id}' has no fetch statement to take a "
                           "latency from; set the net config's default_latency_ms")
        return self.net.default_latency_ms

    def _charge(self, call: str, ms: int) -> None:
        self.overhead[call] += ms
        self.clock += ms

    def define(self, container: str, stmt_index: int, var: str,
               value: str) -> None:
        pass  # values reach the run log only through built URLs

    def net_call(self, st: NetCall, url: str) -> None:
        rt = self._latency(st.method)
        self.events.append(Demand(
            st.url_id, url, self.clock, SERVED_ORIGIN, 0, rt, st.method,
            "direct", self.net.payload_for(url),
        ))
        self.clock += rt

    def send_definition(self, st: SendDefinition, value: str) -> None:
        self.events.append(on_send_definition(
            self.proxy, st.url_id, st.part_index, value, self.rewrite_rules,
            now=self.clock,
        ))
        self._charge("send_definition", self.net.costs.send_definition_ms)

    def trigger_prefetch(self, container: str, st: TriggerPrefetch) -> None:
        ev, prefetches = on_trigger_prefetch(
            self.proxy, st.url_ids, self.clock, container,
            self._prefetch_latency, self.net.payload_for,
        )
        self.events.append(ev)
        self.events.extend(prefetches)
        self._charge("trigger_prefetch", self.net.costs.trigger_prefetch_ms)

    def fetch_from_proxy(self, st: FetchFromProxy, url: str) -> None:
        demand = on_fetch_from_proxy(
            self.proxy, st.url_id, url, self.clock,
            self._latency(st.original_method), self.net.payload_for,
            st.original_method,
        )
        self.events.append(demand)
        self.clock = demand.at + demand.response_time_ms
        self._charge("fetch_from_proxy", self.net.costs.fetch_from_proxy_ms)


def run_trace(
    app: "App | InstrumentedApp",
    trace: Trace,
    net: NetModel | None = None,
    seed_url_map: UrlMap | None = None,
    hints: "Hints | None" = None,
) -> RunLog:
    """Execute a trace and return the complete run log."""
    app = getattr(app, "app", app)  # accept an InstrumentedApp wrapper
    net = net or NetModel()
    proxy: ProxyState | None = None
    if app.is_instrumented:
        if seed_url_map is None:
            raise RunError("an instrumented app requires a seed url map")
        proxy = seed_proxy_state(seed_url_map, hints, net.threshold)
    rewrite_rules = tuple(hints.rewrite_rules) if hints is not None else ()
    session = _Session(app, net, proxy, rewrite_rules)
    for k, step in enumerate(trace.steps):
        session.clock += step.think_ms
        session.run_step(k, step)
    return RunLog(app.name, app.is_instrumented, session.events,
                  session.clock, session.overhead)
