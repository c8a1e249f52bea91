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

import json
from dataclasses import dataclass, field
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
    UrlPart,
)
from .errors import RunError
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
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"


def run_log_from_json_obj(obj: dict) -> RunLog:
    events: list[Event] = []
    for e in obj["events"]:
        kind = e["type"]
        if kind == "prefetch":
            events.append(Prefetch(e["url_id"], e["url"], e["issued_at"], e["ready_at"]))
        elif kind == "demand":
            events.append(Demand(
                e["url_id"], e["url"], e["at"], e["served_from"], e["waited_ms"],
                e["response_time_ms"], e["method"], e["via"], e["payload"],
            ))
        elif kind == "definition_update":
            events.append(DefinitionUpdate(e["url_id"], e["m"], e["value"], e["at"]))
        else:
            events.append(TriggerEval(
                e["callback"], e["at"], tuple(e["considered"]), tuple(e["issued"]),
                tuple(e["skipped_known_cached"]), tuple(e["skipped_unknown"]),
            ))
    return RunLog(obj["app"], obj["instrumented"], events, obj["final_ms"],
                  dict(obj["overhead_ms"]))


# ---------------------------------------------------------------------------
# trace / net model JSON forms
# ---------------------------------------------------------------------------

def trace_to_json_obj(trace: Trace) -> list:
    return [
        {"event": s.event, "think_ms": s.think_ms, "inputs": dict(s.inputs)}
        for s in trace.steps
    ]


def _count(value, what: str) -> int:
    """A JSON integer >= 0; booleans and floats are not integers."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise RunError(f"{what} must be an integer >= 0, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise RunError(f"{what} must be a JSON object, got {value!r}")
    return value


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
    """Runtime URL map plus the response cache for one session."""

    runtime_url_map: dict[str, list[str | None]]
    cache: dict[str, CacheEntry] = field(default_factory=dict)
    threshold: int = 5

    def is_known(self, url_id: str) -> bool:
        parts = self.runtime_url_map.get(url_id)
        return parts is not None and all(p is not None for p in parts)

    def url_string(self, url_id: str) -> str:
        return "".join(self.runtime_url_map[url_id])

    def in_flight(self, now: int) -> int:
        return sum(1 for e in self.cache.values() if e.ready_at_ms > now)


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
    considered: list[str] = []
    issued: list[str] = []
    skipped_cached: list[str] = []
    skipped_unknown: list[str] = []
    prefetches: list[Prefetch] = []
    for url_id in url_ids:
        considered.append(url_id)
        if not state.is_known(url_id):
            skipped_unknown.append(url_id)
            continue
        url = state.url_string(url_id)
        if url in state.cache:
            skipped_cached.append(url_id)
            continue
        if len(issued) >= state.threshold:
            continue  # over threshold: considered but not acted on
        ready_at = now + latency_for_url(url_id)
        state.cache[url] = CacheEntry(ready_at, payload_for(url))
        issued.append(url_id)
        prefetches.append(Prefetch(url_id, url, now, ready_at))
    ev = TriggerEval(
        callback, now, tuple(considered), tuple(issued),
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
# trace execution
# ---------------------------------------------------------------------------

def _ccfg_roots(app: App) -> set[str]:
    targets = {b for _, b in app.ccfg.edges}
    return {c for c in app.callback_names if c not in targets}


def run_trace(
    app: "App | InstrumentedApp",
    trace: Trace,
    net: NetModel | None = None,
    seed_url_map: UrlMap | None = None,
    hints: "Hints | None" = None,
) -> RunLog:
    """Execute a trace and return the complete run log.

    `goto` transitions run their target immediately (no wait node) and
    move the session's current screen there, which is what the next trace
    step is validated against.
    """
    app = getattr(app, "app", app)  # accept an InstrumentedApp wrapper
    net = net or NetModel()
    instrumented = app.is_instrumented
    bodies = dict(app.containers())
    callbacks = set(app.callback_names)
    declared = {m.name: m.latency_ms for m in app.netlib}
    rewrite_rules = tuple(hints.rewrite_rules) if hints is not None else ()

    proxy: ProxyState | None = None
    if instrumented:
        if seed_url_map is None:
            raise RunError("an instrumented app requires a seed url map")
        proxy = seed_proxy_state(seed_url_map, hints, net.threshold)

    def latency_of(method: str) -> int:
        return net.latency_for(method, declared.get(method))

    def prefetch_latency(url_id: str) -> int:
        method = app.fetch_method_for(url_id)
        if method is not None:
            return latency_of(method)
        return net.default_latency_ms or 0

    events: list[Event] = []
    overhead = {"send_definition": 0, "trigger_prefetch": 0, "fetch_from_proxy": 0}
    variables: dict[str, str] = {}
    built: dict[str, str] = {}
    clock = 0
    current: str | None = None
    step_inputs: Mapping[str, str] = {}

    def resolve_part(part: UrlPart) -> str:
        if part.kind == "literal":
            return part.value
        if part.kind == "resource":
            if part.value not in app.resources:
                raise RunError(f"unknown resource key '{part.value}'")
            return app.resources[part.value]
        return variables.get(part.value, "")  # unset variables read as ""

    def static_value(st: DefineStatic) -> str:
        if st.source_kind == "literal":
            return st.source
        table = app.resources if st.source_kind == "resource" else app.settings
        if st.source not in table:
            raise RunError(f"unknown {st.source_kind} key '{st.source}'")
        return table[st.source]

    def built_url(url_id: str) -> str:
        if url_id not in built:
            raise RunError(f"url '{url_id}' fetched before being built")
        return built[url_id]

    def require_proxy() -> ProxyState:
        if proxy is None:
            raise RunError("instrumentation call without a proxy; "
                           "pass a seed url map")
        return proxy

    def execute(name: str, depth: int) -> None:
        nonlocal clock, current
        if depth > _MAX_CALL_DEPTH:
            raise RunError(f"call depth exceeded at '{name}'")
        body = bodies.get(name)
        if body is None:
            raise RunError(f"unknown callback or method '{name}'")
        for st in body:
            if isinstance(st, DefineStatic):
                variables[st.var] = static_value(st)
            elif isinstance(st, DefineDynamic):
                if st.input_tag not in step_inputs:
                    raise RunError(
                        f"missing input '{st.input_tag}' while running '{name}'"
                    )
                variables[st.var] = step_inputs[st.input_tag]
            elif isinstance(st, BuildUrl):
                built[st.url_id] = "".join(resolve_part(p) for p in st.parts)
            elif isinstance(st, NetCall):
                url = built_url(st.url_id)
                rt = latency_of(st.method)
                events.append(Demand(
                    st.url_id, url, clock, SERVED_ORIGIN, 0, rt, st.method,
                    "direct", net.payload_for(url),
                ))
                clock += rt
            elif isinstance(st, (Call, AsyncCall)):
                execute(st.target, depth + 1)
            elif isinstance(st, Transition):
                current = st.target
                execute(st.target, depth + 1)
            elif isinstance(st, SendDefinition):
                state = require_proxy()
                if st.var not in variables:
                    raise RunError(
                        f"send_definition before '{st.var}' is assigned"
                    )
                events.append(on_send_definition(
                    state, st.url_id, st.part_index, variables[st.var],
                    rewrite_rules, now=clock,
                ))
                overhead["send_definition"] += net.costs.send_definition_ms
                clock += net.costs.send_definition_ms
            elif isinstance(st, TriggerPrefetch):
                state = require_proxy()
                ev, prefetches = on_trigger_prefetch(
                    state, st.url_ids, clock, name, prefetch_latency,
                    net.payload_for,
                )
                events.append(ev)
                events.extend(prefetches)
                overhead["trigger_prefetch"] += net.costs.trigger_prefetch_ms
                clock += net.costs.trigger_prefetch_ms
            elif isinstance(st, FetchFromProxy):
                state = require_proxy()
                url = built_url(st.url_id)
                demand = on_fetch_from_proxy(
                    state, st.url_id, url, clock,
                    latency_of(st.original_method), net.payload_for,
                    st.original_method,
                )
                events.append(demand)
                clock = demand.at + demand.response_time_ms
                overhead["fetch_from_proxy"] += net.costs.fetch_from_proxy_ms
                clock += net.costs.fetch_from_proxy_ms
            else:  # pragma: no cover - exhaustive over Stmt
                raise RunError(f"unknown statement {st!r}")

    roots = _ccfg_roots(app)
    waits = set(app.ccfg.wait_nodes)
    for k, step in enumerate(trace.steps):
        if step.event not in callbacks:
            raise RunError(f"invalid trace step {k}: unknown callback "
                           f"'{step.event}'")
        if current is None:
            if roots and step.event not in roots:
                raise RunError(f"invalid trace step {k}: '{step.event}' is "
                               f"not an entry callback")
        else:
            reachable = any(
                w in waits and step.event in app.ccfg.successors(w)
                for w in app.ccfg.successors(current)
            )
            if not reachable:
                raise RunError(
                    f"invalid trace step {k}: no wait-node path from "
                    f"'{current}' to '{step.event}'"
                )
        clock += step.think_ms
        step_inputs = step.inputs
        current = step.event
        execute(step.event, 0)

    return RunLog(app.name, instrumented, events, clock, overhead)
