"""URL string analysis.

Builds the URL map: for every URL spot, each part resolves either to a
concrete string (literals, resource/setting reads, and variables whose
definitions are all static and agree) or to the conservative set of
definition spots for a dynamic part. The runtime later narrows the spot
sets to actual values: last write wins, so false spots are overwritten or
simply never execute.

Static values resolve through `App.static_value`, the resolver the
runtime's statement walk uses too; validation guarantees every resource
and setting key is declared, so no key can be missing here.

Definitions are enumerated whole-program (variables model class fields
shared between callbacks). A variable mixing static and dynamic
definitions is treated as dynamic, with the static definitions included
in the spot set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .app_ir import App, BuildUrl, DefineDynamic
from .errors import AnalysisError, expect_json


@dataclass(frozen=True)
class DefinitionSpot:
    """One assignment feeding part `part_index` (m, 1-based) of a URL.

    `ordinal` is n: the 1-based position of this assignment among the
    variable's definitions in program order (callback declaration order,
    then helper methods, then statement index).
    """

    container: str
    stmt_index: int
    part_index: int
    ordinal: int


@dataclass(frozen=True)
class Concrete:
    value: str


@dataclass(frozen=True)
class Unknown:
    spots: tuple[DefinitionSpot, ...]


UrlPartState = Union[Concrete, Unknown]


@dataclass(frozen=True)
class UrlMap:
    """url id -> per-part states, in URL-spot program order."""

    entries: dict[str, tuple[UrlPartState, ...]]


def static_value_of(app: App, var: str) -> str | None:
    """The variable's statically determined value, if it has one.

    Returns the value iff every definition of `var` is static and all of
    them resolve to the same string; None otherwise. Raises AnalysisError
    for an undefined variable.
    """
    defs = app.index.definitions.get(var)
    if not defs:
        raise AnalysisError(f"undefined variable '{var}'")
    values = set()
    for _, _, st in defs:
        if isinstance(st, DefineDynamic):
            return None
        values.add(app.static_value(st.source_kind, st.source))
    return values.pop() if len(values) == 1 else None


def analyze_urls(app: App) -> UrlMap:
    """Compute the URL map for every URL spot in the app."""
    entries: dict[str, tuple[UrlPartState, ...]] = {}
    for url_id, (_, _, spot) in app.index.url_spots.items():
        entries[url_id] = _analyze_parts(app, spot)
    return UrlMap(entries)


def _analyze_parts(app: App, spot: BuildUrl) -> tuple[UrlPartState, ...]:
    states: list[UrlPartState] = []
    for m, part in enumerate(spot.parts, start=1):
        if part.kind != "var":
            states.append(Concrete(app.static_value(part.kind, part.value)))
        else:
            value = static_value_of(app, part.value)
            if value is not None:
                states.append(Concrete(value))
            else:
                spots = tuple(
                    DefinitionSpot(container, idx, m, ordinal)
                    for ordinal, (container, idx, _) in enumerate(
                        app.index.definitions[part.value], start=1
                    )
                )
                states.append(Unknown(spots))
    return tuple(states)


# ---------------------------------------------------------------------------
# JSON form: {urlId: [{"concrete": s} | {"spots": [{container, stmt, m, n}]}]}
# ---------------------------------------------------------------------------

def url_map_to_json_obj(url_map: UrlMap) -> dict:
    obj: dict[str, list] = {}
    for url_id, parts in url_map.entries.items():
        row = []
        for p in parts:
            if isinstance(p, Concrete):
                row.append({"concrete": p.value})
            else:
                row.append({
                    "spots": [
                        {
                            "container": s.container,
                            "stmt": s.stmt_index,
                            "m": s.part_index,
                            "n": s.ordinal,
                        }
                        for s in p.spots
                    ]
                })
        obj[url_id] = row
    return obj


def _check(value, kind: type, what: str):
    return expect_json(value, kind, f"url map {what}", AnalysisError)


def url_map_from_json_obj(obj: dict) -> UrlMap:
    """Validated url map; raises AnalysisError naming the offending key."""
    entries: dict[str, tuple[UrlPartState, ...]] = {}
    for url_id, row in expect_json(obj, dict, "url map", AnalysisError).items():
        parts: list[UrlPartState] = []
        for m, item in enumerate(_check(row, list, f"'{url_id}'"), start=1):
            where = f"'{url_id}' part {m}"
            item = _check(item, dict, where)
            if "concrete" in item:
                parts.append(Concrete(_check(item["concrete"], str,
                                             f"{where} concrete")))
                continue
            spots = []
            for s in _check(item.get("spots"), list, f"{where} spots"):
                s = _check(s, dict, f"{where} spot")
                spots.append(DefinitionSpot(
                    _check(s.get("container"), str, f"{where} spot container"),
                    *(_check(s.get(key), int, f"{where} spot {key}")
                      for key in ("stmt", "m", "n")),
                ))
            parts.append(Unknown(tuple(spots)))
        entries[url_id] = tuple(parts)
    return UrlMap(entries)
