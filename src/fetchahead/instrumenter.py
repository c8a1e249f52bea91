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
    FetchFromProxy,
    HelperMethod,
    NetCall,
    SendDefinition,
    TriggerPrefetch,
    _IDENT_RE,
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

    def check(self, app: App) -> None:
        """Raise InstrumentError unless a hint URL id is an identifier, new
        and given once, a rewrite rule names a part of an app URL, and a
        trigger entry passes `_check_trigger_entry`."""
        url_spots = app.index.url_spots
        extra_urls = set()
        for uid in (extra.url_id for extra in self.extra_static_urls):
            if not _IDENT_RE.fullmatch(uid):
                raise InstrumentError(f"hint url {uid!r} is not an identifier")
            if uid in url_spots:
                raise InstrumentError(f"hint url '{uid}' already exists in the app")
            if uid in extra_urls:
                raise InstrumentError(f"hint url '{uid}' is given twice")
            extra_urls.add(uid)
        for rule in self.rewrite_rules:
            if rule.url_id not in url_spots:
                raise InstrumentError(f"rewrite rule names unknown url "
                                      f"'{rule.url_id}'")
            if not 1 <= rule.part_index <= len(url_spots[rule.url_id][2].parts):
                raise InstrumentError(f"rewrite rule names missing part "
                                      f"{rule.url_id}[{rule.part_index}]")
        for entry in self.extra_trigger_entries:
            _check_trigger_entry(app, extra_urls, entry.callback, entry.url_ids,
                                 "hint", "hint trigger entry")


def _check_trigger_entry(app: App, hint_urls: set[str], callback: str,
                         url_ids: tuple[str, ...], source: str, entry: str) -> None:
    """A trigger map or hint entry, which `instrument` puts in a callback, has
    a known callback and at least one URL, each the app's or a hint's."""
    if callback not in app.index.callback_order:
        raise InstrumentError(f"{source} names unknown callback '{callback}'")
    if not url_ids:
        raise InstrumentError(f"{entry} has an empty url list")
    for uid in url_ids:
        if uid not in app.index.url_spots and uid not in hint_urls:
            raise InstrumentError(f"{source} names unknown url '{uid}'")


def check_trigger_map(app: App, trigger_map: TriggerMap, hints: Hints) -> None:
    """Raise InstrumentError unless each entry passes `_check_trigger_entry`."""
    hint_urls = {extra.url_id for extra in hints.extra_static_urls}
    for callback, url_ids in trigger_map.entries.items():
        _check_trigger_entry(app, hint_urls, callback, url_ids, "trigger map",
                             f"trigger map entry '{callback}'")


def check_trigger_points(app: App, hints: Hints) -> None:
    """Raise InstrumentError unless each URL of each trigger_prefetch in
    `app`, as `instrument` writes them or by hand, is the app's or a hint's.
    A point may sit in any callback or method: the walk runs it there."""
    hint_urls = {extra.url_id for extra in hints.extra_static_urls}
    for name, body in app.containers():
        for st in body:
            if isinstance(st, TriggerPrefetch):
                for uid in st.url_ids:
                    if uid not in app.index.url_spots and uid not in hint_urls:
                        raise InstrumentError(f"trigger_prefetch in '{name}' "
                                              f"names unknown url '{uid}'")


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
    """Apply the three rewrites, with the hints' trigger entries. Assumes
    the original app, a signature it declares, and a url map, trigger map
    and hints that pass `UrlMap.check`, `check_trigger_map` and `Hints.check`.

    A launch entry's trigger_prefetch goes first in its callback, the
    last entry first. A callback's trailing trigger_prefetch lists its
    trigger map entry, then each end entry's URLs not listed yet, which
    keeps the trigger point the final statement.
    """
    hints = hints or Hints()

    # (container, stmt index) -> the send_definition statements after it,
    # one per (url, part) it feeds, in the app's URL program order: a JSON
    # round trip of the url map, which picks the definitions, changes nothing.
    # Each (var, url, part) has one statement, shared by all its spots.
    insertions: dict[tuple[str, int], list[SendDefinition]] = {}
    for url_id, (_, _, build) in app.index.url_spots.items():
        for m, (part, state) in enumerate(
                zip(build.parts, url_map.entries[url_id]), start=1):
            if isinstance(state, Unknown):
                send = SendDefinition(part.value, url_id, m)
                for spot in state.spots:
                    insertions.setdefault((spot.container, spot.stmt_index),
                                          []).append(send)

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
            tail += [uid for uid in dict.fromkeys(entry.url_ids) if uid not in tail]

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

    callbacks = tuple(Callback(c.name, rewrite_body(c.name, c.body))
                      for c in app.callbacks)
    methods = tuple(HelperMethod(m.name, rewrite_body(m.name, m.body))
                    for m in app.methods)
    return InstrumentedApp(replace(app, callbacks=callbacks, methods=methods))


hints_from_json_obj = partial(decode, Hints, error=InstrumentError)
