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

from dataclasses import dataclass, field, replace
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
    """Rewritten app plus why each inserted statement is there, keyed by
    (container, statement index)."""

    app: App
    provenance: dict[tuple[str, int], str] = field(default_factory=dict)


def instrument(
    app: App, url_map: UrlMap, trigger_map: TriggerMap, sig: FetchSignature,
    hints: Hints | None = None,
) -> InstrumentedApp:
    """Apply the three rewrites, with the hints' trigger entries. Rejects
    an already instrumented app, a signature the app does not declare and
    a url map, trigger map or hints that name what the app does not have.

    A launch entry's trigger_prefetch goes first in its callback, the
    last entry first; an end entry's URLs join the callback's trailing
    trigger_prefetch, which keeps the trigger point the final statement.
    """
    if app.is_instrumented:
        raise InstrumentError("app is already instrumented")
    if not any(m.name == sig.net_method for m in app.netlib):
        raise InstrumentError(f"fetch signature '{sig.net_method}' is not a "
                              "declared net method")
    url_map.check(app, InstrumentError)
    for trigger in trigger_map.entries:
        if trigger not in app.index.callback_order:
            raise InstrumentError(f"trigger map names unknown callback '{trigger}'")
    hints = hints or Hints()
    hints.check(app, InstrumentError)

    # (container, stmt index) -> send_definition statements it must be
    # followed by; one definition may feed several (url, part) slots.
    # Ordered by the app's URL program order, not the url map's dict
    # order, so a JSON round trip of the map cannot change the output.
    insertions: dict[tuple[str, int], list[SendDefinition]] = {}
    bodies = app.index.bodies
    url_order = {uid: i for i, uid in enumerate(app.index.url_spots)}
    for url_id, parts in url_map.entries.items():
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
    for sends in insertions.values():
        sends.sort(key=lambda sd: (url_order[sd.url_id], sd.part_index))

    launches: dict[str, list[tuple[str, ...]]] = {}
    ends: dict[str, list[tuple[str, ...]]] = {}
    for entry in hints.extra_trigger_entries:
        (launches if entry.at == "launch" else ends).setdefault(
            entry.callback, []).append(entry.url_ids)
    provenance: dict[tuple[str, int], str] = {}

    def rewrite_body(name, body):
        out = []
        for url_ids in reversed(launches.get(name, ())):
            out.append(TriggerPrefetch(url_ids))
            provenance[(name, len(out) - 1)] = "hint: prefetch at launch"
        for idx, st in enumerate(body):
            if isinstance(st, NetCall) and st.method == sig.net_method:
                out.append(FetchFromProxy(st.url_id, st.method))
                provenance[(name, len(out) - 1)] = "fetch spot redirect"
            else:
                out.append(st)
            for send in insertions.get((name, idx), ()):
                out.append(send)
                provenance[(name, len(out) - 1)] = (
                    f"definition spot {send.url_id}[{send.part_index}]"
                )
        merged = ends.get(name, [])
        if name in trigger_map.entries:
            tail = list(trigger_map.entries[name])
            why = "trigger point (hint merged)" if merged else "trigger point"
        elif merged:
            tail, merged = list(merged[0]), merged[1:]
            why = "hint: trigger point"
        else:
            return tuple(out)
        for url_ids in merged:
            tail.extend(u for u in url_ids if u not in tail)
        out.append(TriggerPrefetch(tuple(tail)))
        provenance[(name, len(out) - 1)] = why
        return tuple(out)

    callbacks = tuple(
        Callback(c.name, rewrite_body(c.name, c.body)) for c in app.callbacks
    )
    methods = tuple(
        HelperMethod(m.name, rewrite_body(m.name, m.body)) for m in app.methods
    )
    return InstrumentedApp(
        replace(app, callbacks=callbacks, methods=methods), provenance
    )


hints_from_json_obj = partial(decode, Hints, error=InstrumentError)
