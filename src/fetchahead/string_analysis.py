"""URL string analysis.

Builds the URL map: for every URL spot, each part resolves either to a
concrete string (literals, resource/setting reads, and variables whose
definitions are all static and agree) or to the conservative set of
definition spots for a dynamic part. The runtime later narrows the spot
sets to actual values: last write wins, so false spots are overwritten or
simply never execute.

Definitions are enumerated whole-program (variables model class fields
shared between callbacks). A variable mixing static and dynamic
definitions is treated as dynamic, with the static definitions included
in the spot set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .app_ir import App, BuildUrl, DefineDynamic, DefineStatic, Stmt
from .errors import AnalysisError


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


def definitions_of(app: App, var: str) -> list[tuple[str, int, Stmt]]:
    """All definitions of `var` in program order."""
    return list(app.index.definitions.get(var, ()))


def resolve_static(app: App, st: DefineStatic) -> str:
    if st.source_kind == "literal":
        return st.source
    if st.source_kind == "resource":
        if st.source not in app.resources:
            raise AnalysisError(f"unknown resource key '{st.source}'")
        return app.resources[st.source]
    if st.source not in app.settings:
        raise AnalysisError(f"unknown setting key '{st.source}'")
    return app.settings[st.source]


def static_value_of(app: App, var: str) -> str | None:
    """The variable's statically determined value, if it has one.

    Returns the value iff every definition of `var` is static and all of
    them resolve to the same string; None otherwise. Raises AnalysisError
    for an undefined variable or a missing resource/setting key.
    """
    defs = app.index.definitions.get(var)
    if not defs:
        raise AnalysisError(f"undefined variable '{var}'")
    values = set()
    for _, _, st in defs:
        if isinstance(st, DefineDynamic):
            return None
        values.add(resolve_static(app, st))
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
        if part.kind == "literal":
            states.append(Concrete(part.value))
        elif part.kind == "resource":
            if part.value not in app.resources:
                raise AnalysisError(f"unknown resource key '{part.value}'")
            states.append(Concrete(app.resources[part.value]))
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


def url_map_from_json_obj(obj: dict) -> UrlMap:
    entries: dict[str, tuple[UrlPartState, ...]] = {}
    for url_id, row in obj.items():
        parts: list[UrlPartState] = []
        for item in row:
            if "concrete" in item:
                parts.append(Concrete(item["concrete"]))
            else:
                parts.append(Unknown(tuple(
                    DefinitionSpot(s["container"], s["stmt"], s["m"], s["n"])
                    for s in item["spots"]
                )))
        entries[url_id] = tuple(parts)
    return UrlMap(entries)
