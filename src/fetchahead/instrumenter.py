"""App instrumentation.

Three rewrites turn an analyzed app into a prefetching-enabled one:

1. a send_definition right after every definition spot of a dynamic URL
   part, so the proxy's runtime URL map stays fresh;
2. a trigger_prefetch appended as the last statement of every trigger
   callback (end-of-callback placement maximizes the chance the URLs are
   already known);
3. every signature net call replaced by fetch_from_proxy, keeping the
   original method for the proxy's cache-miss fallback.

Definition spots are conservative: a spot that never executes is harmless
because the proxy resolves values last-write-wins at runtime.

Hints are data, not code edits: extra static URLs seed the runtime URL
map, extra trigger entries add trigger_prefetch calls (optionally at the
start of a callback, for app-launch prefetching), and rewrite rules
transform values as they are sent to the proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Literal

from .app_ir import (
    App,
    Callback,
    DefineDynamic,
    DefineStatic,
    FetchFromProxy,
    HelperMethod,
    NetCall,
    SendDefinition,
    TriggerPrefetch,
)
from .callback_analysis import FetchSignature, TriggerMap
from .codec import decode, renamed
from .errors import InstrumentError
from .string_analysis import Unknown, UrlMap


@dataclass(frozen=True)
class RewriteRule:
    """Replace `find` with `replace` in values sent for a URL part."""

    url_id: str
    part_index: int = renamed("m")
    find: str
    replace: str


@dataclass(frozen=True)
class TriggerHint:
    """Prefetch `url_ids` at the start ("launch") or end of `callback`."""

    callback: str
    url_ids: tuple[str, ...]
    at: Literal["launch", "end"] = "end"


@dataclass(frozen=True)
class StaticUrlHint:
    url_id: str
    url: str


@dataclass(frozen=True)
class Hints:
    extra_trigger_entries: tuple[TriggerHint, ...] = ()
    extra_static_urls: tuple[StaticUrlHint, ...] = ()
    rewrite_rules: tuple[RewriteRule, ...] = ()

    def check(self, app: App, error: type[Exception]) -> None:
        """Raise `error` unless every name the hints use is one the app
        has: a hint URL id may be neither a URL the app builds nor given
        twice, a rewrite rule names a part of such a URL, and a trigger
        entry names a callback and at least one app or hint URL."""
        url_spots = app.index.url_spots
        extra_urls = set()
        for extra in self.extra_static_urls:
            if extra.url_id in url_spots:
                raise error(f"hint url '{extra.url_id}' already exists in the app")
            if extra.url_id in extra_urls:
                raise error(f"hint url '{extra.url_id}' is given twice")
            extra_urls.add(extra.url_id)
        for rule in self.rewrite_rules:
            if rule.url_id not in url_spots:
                raise error(f"rewrite rule names unknown url '{rule.url_id}'")
            if not 1 <= rule.part_index <= len(url_spots[rule.url_id][2].parts):
                raise error(f"rewrite rule names missing part "
                            f"{rule.url_id}[{rule.part_index}]")
        for entry in self.extra_trigger_entries:
            if entry.callback not in app.index.callback_order:
                raise error(f"hint names unknown callback '{entry.callback}'")
            if not entry.url_ids:
                raise error("hint trigger entry has an empty url list")
            for uid in entry.url_ids:
                if uid not in url_spots and uid not in extra_urls:
                    raise error(f"hint names unknown url '{uid}'")


@dataclass(frozen=True)
class InstrumentedApp:
    """The rewritten app. It stays a wrapper, not the `App` itself, because
    the benchmark's tracer (`perfbench/spans.py`) tells the optimized run
    from the baseline run by its `app` attribute, and
    `tests/test_bench_hooks.py` pins that."""

    app: App


def instrument(
    app: App, url_map: UrlMap, trigger_map: TriggerMap, sig: FetchSignature,
    hints: Hints | None = None,
) -> InstrumentedApp:
    """Apply the three rewrites, with the hints' trigger entries. Rejects
    an already instrumented app, a signature the app does not declare and
    a url map, trigger map or hints that name what the app does not have.

    A launch entry's trigger_prefetch goes first in its callback, the
    last entry first. A callback's trailing trigger_prefetch lists its
    trigger map entry, then each end entry's URLs not listed yet, which
    keeps the trigger point the final statement.
    """
    if app.is_instrumented:
        raise InstrumentError("app is already instrumented")
    if not any(m.name == sig.net_method for m in app.netlib):
        raise InstrumentError(f"fetch signature '{sig.net_method}' is not a "
                              "declared net method")
    url_map.check(app, InstrumentError)
    for trigger, url_ids in trigger_map.entries.items():
        if trigger not in app.index.callback_order:
            raise InstrumentError(f"trigger map names unknown callback '{trigger}'")
        if not url_ids:
            raise InstrumentError(f"trigger map entry '{trigger}' has an "
                                  "empty url list")
    hints = hints or Hints()
    hints.check(app, InstrumentError)

    # (container, stmt index) -> send_definition statements it must be
    # followed by; one definition may feed several (url, part) slots.
    # The URLs are walked in the app's program order, not the url map's
    # dict order, so a JSON round trip of the map cannot change the output.
    insertions: dict[tuple[str, int], list[SendDefinition]] = {}
    bodies = app.index.bodies
    for url_id in app.index.url_spots:
        parts = url_map.entries[url_id]
        for state in parts:
            if not isinstance(state, Unknown):
                continue
            for spot in state.spots:
                if not 1 <= spot.part_index <= len(parts):
                    raise InstrumentError(
                        f"definition spot {spot.container}[{spot.stmt_index}] "
                        f"names missing part {url_id}[{spot.part_index}]"
                    )
                body = bodies.get(spot.container, ())
                st = (body[spot.stmt_index]
                      if 0 <= spot.stmt_index < len(body) else None)
                if not isinstance(st, (DefineStatic, DefineDynamic)):
                    raise InstrumentError(
                        f"definition spot {spot.container}[{spot.stmt_index}] "
                        f"is not a definition"
                    )
                insertions.setdefault((spot.container, spot.stmt_index), []).append(
                    SendDefinition(st.var, url_id, spot.part_index)
                )

    # callback -> its leading trigger_prefetch statements, and the URLs
    # of its trailing one
    launches: dict[str, list[TriggerPrefetch]] = {}
    ends = {name: list(url_ids) for name, url_ids in trigger_map.entries.items()}
    for entry in hints.extra_trigger_entries:
        if entry.at == "launch":
            launches.setdefault(entry.callback, []).insert(
                0, TriggerPrefetch(entry.url_ids))
        else:
            tail = ends.setdefault(entry.callback, [])
            for uid in entry.url_ids:
                if uid not in tail:
                    tail.append(uid)

    def rewrite_body(name, body):
        out = list(launches.get(name, ()))
        for idx, st in enumerate(body):
            if isinstance(st, NetCall) and st.method == sig.net_method:
                st = FetchFromProxy(st.url_id, st.method)
            out.append(st)
            out.extend(insertions.get((name, idx), ()))
        if name in ends:
            out.append(TriggerPrefetch(tuple(ends[name])))
        return tuple(out)

    callbacks = tuple(
        Callback(c.name, rewrite_body(c.name, c.body)) for c in app.callbacks
    )
    methods = tuple(
        HelperMethod(m.name, rewrite_body(m.name, m.body)) for m in app.methods
    )
    return InstrumentedApp(replace(app, callbacks=callbacks, methods=methods))


hints_from_json_obj = partial(decode, Hints, error=InstrumentError)
