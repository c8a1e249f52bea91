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


@dataclass(frozen=True)
class InstrumentedApp:
    """Rewritten app plus why each inserted statement is there, keyed by
    (container, statement index)."""

    app: App
    provenance: dict[tuple[str, int], str] = field(default_factory=dict)


def instrument(
    app: App, url_map: UrlMap, trigger_map: TriggerMap, sig: FetchSignature
) -> InstrumentedApp:
    """Apply the three rewrites. Rejects an already instrumented app."""
    if app.is_instrumented:
        raise InstrumentError("app is already instrumented")

    # (container, stmt index) -> send_definition statements it must be
    # followed by; one definition may feed several (url, part) slots.
    # Ordered by the app's URL program order, not the url map's dict
    # order, so a JSON round trip of the map cannot change the output.
    insertions: dict[tuple[str, int], list[SendDefinition]] = {}
    bodies = app.index.bodies
    url_spots = app.index.url_spots
    url_order = {uid: i for i, uid in enumerate(url_spots)}
    for url_id, parts in url_map.entries.items():
        if url_id not in url_spots:
            raise InstrumentError(f"url map names unknown url '{url_id}'")
        arity = len(url_spots[url_id][2].parts)
        for state in parts:
            if not isinstance(state, Unknown):
                continue
            for spot in state.spots:
                if not 1 <= spot.part_index <= arity:
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
        sends.sort(key=lambda sd: (url_order.get(sd.url_id, -1), sd.part_index))

    provenance: dict[tuple[str, int], str] = {}

    def rewrite_body(name, body):
        out = []
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
        if name in trigger_map.entries:
            out.append(TriggerPrefetch(trigger_map.entries[name]))
            provenance[(name, len(out) - 1)] = "trigger point"
        return tuple(out)

    callbacks = tuple(
        Callback(c.name, rewrite_body(c.name, c.body)) for c in app.callbacks
    )
    methods = tuple(
        HelperMethod(m.name, rewrite_body(m.name, m.body)) for m in app.methods
    )
    for trigger in trigger_map.entries:
        if trigger not in app.index.callback_order:
            raise InstrumentError(f"trigger map names unknown callback '{trigger}'")
    return InstrumentedApp(
        replace(app, callbacks=callbacks, methods=methods), provenance
    )


def apply_hints(ia: InstrumentedApp, hints: Hints) -> InstrumentedApp:
    """Fold developer hints into an instrumented app.

    Launch entries insert a trigger_prefetch at position 0 of the named
    callback; end entries merge into the callback's existing trailing
    trigger_prefetch (or append one), which keeps the trigger point the
    final statement.
    """
    app = ia.app
    url_spots = app.index.url_spots
    extra_urls = {h.url_id for h in hints.extra_static_urls}
    for extra in hints.extra_static_urls:
        if extra.url_id in url_spots:
            raise InstrumentError(
                f"hint url '{extra.url_id}' already exists in the app"
            )
    for rule in hints.rewrite_rules:
        if rule.url_id not in url_spots:
            raise InstrumentError(f"rewrite rule names unknown url '{rule.url_id}'")
        if not 1 <= rule.part_index <= len(url_spots[rule.url_id][2].parts):
            raise InstrumentError(
                f"rewrite rule names missing part {rule.url_id}[{rule.part_index}]"
            )
    for entry in hints.extra_trigger_entries:
        if entry.callback not in app.index.callback_order:
            raise InstrumentError(f"hint names unknown callback '{entry.callback}'")
        if not entry.url_ids:
            raise InstrumentError("hint trigger entry has an empty url list")
        for uid in entry.url_ids:
            if uid not in url_spots and uid not in extra_urls:
                raise InstrumentError(f"hint names unknown url '{uid}'")

    if not hints.extra_trigger_entries:
        return ia

    new_callbacks = list(ia.app.callbacks)
    provenance = dict(ia.provenance)
    index = {c.name: i for i, c in enumerate(new_callbacks)}
    for entry in hints.extra_trigger_entries:
        i = index[entry.callback]
        cb = new_callbacks[i]
        body = list(cb.body)
        if entry.at == "launch":
            body.insert(0, TriggerPrefetch(entry.url_ids))
            provenance = {
                ((c, idx + 1) if c == cb.name else (c, idx)): why
                for (c, idx), why in provenance.items()
            }
            provenance[(cb.name, 0)] = "hint: prefetch at launch"
        elif body and isinstance(body[-1], TriggerPrefetch):
            merged = list(body[-1].url_ids)
            merged.extend(u for u in entry.url_ids if u not in merged)
            body[-1] = TriggerPrefetch(tuple(merged))
            provenance[(cb.name, len(body) - 1)] = "trigger point (hint merged)"
        else:
            body.append(TriggerPrefetch(entry.url_ids))
            provenance[(cb.name, len(body) - 1)] = "hint: trigger point"
        new_callbacks[i] = Callback(cb.name, tuple(body))
    return InstrumentedApp(
        replace(ia.app, callbacks=tuple(new_callbacks)), provenance
    )


hints_from_json_obj = partial(decode, Hints, error=InstrumentError)
