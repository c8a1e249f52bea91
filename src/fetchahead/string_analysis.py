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
from functools import partial
from typing import Mapping, Union

from .app_ir import (App, DefineDynamic, DefineStatic, SendDefinition,
                     TriggerPrefetch, UrlPart)
from .codec import decode, encode, inline, renamed
from .errors import AnalysisError


@dataclass(frozen=True)
class DefinitionSpot:
    """One assignment feeding part `part_index` (m, 1-based) of a URL.

    `ordinal` is n: the 1-based position of this assignment among the
    variable's definitions in program order (callback declaration order,
    then helper methods, then statement index).
    """

    container: str
    stmt_index: int = renamed("stmt")
    part_index: int = renamed("m")
    ordinal: int = renamed("n")


@dataclass(frozen=True)
class Concrete:
    value: str = renamed("concrete")


@dataclass(frozen=True)
class Unknown:
    spots: tuple[DefinitionSpot, ...]


UrlPartState = Union[Concrete, Unknown]


@dataclass(frozen=True)
class UrlMap:
    """url id -> per-part states, in URL-spot program order. JSON form:
    {urlId: [{"concrete": s} | {"spots": [{container, stmt, m, n}]}]}"""

    entries: Mapping[str, tuple[UrlPartState, ...]] = inline()

    def check(self, app: App) -> None:
        """Raise AnalysisError unless the map gives every URL the app
        builds, and no other, the app's number of parts, each part it calls
        concrete the app's own value (`static_part_value`), and each spot
        under part m a definition of that part's variable, placed as before
        `instrument` inserted statements. A spot's `n` is not checked."""
        url_spots = app.index.url_spots
        defined = set()  # (container, stmt, var) of every definition
        for name, body in app.containers():
            own = [st for st in body
                   if not isinstance(st, (SendDefinition, TriggerPrefetch))]
            defined.update((name, i, st.var) for i, st in enumerate(own)
                           if isinstance(st, (DefineStatic, DefineDynamic)))
        for url_id, parts in self.entries.items():
            if url_id not in url_spots:
                raise AnalysisError(f"url map names unknown url '{url_id}'")
            spot_parts = url_spots[url_id][2].parts
            if len(parts) != len(spot_parts):
                raise AnalysisError(f"url map gives url '{url_id}' {len(parts)} "
                                    f"parts, but the app builds it from "
                                    f"{len(spot_parts)}")
            for m, (state, part) in enumerate(zip(parts, spot_parts), start=1):
                if isinstance(state, Concrete):
                    own = static_part_value(app, part)
                    if state.value != own:
                        raise AnalysisError(
                            f"url map gives part {url_id}[{m}] the concrete "
                            f"value {state.value!r}, but the app's is "
                            + ("not static" if own is None else repr(own)))
                    continue
                for spot in state.spots:
                    if spot.part_index == m and part.kind == "var" and (
                            spot.container, spot.stmt_index, part.value) in defined:
                        continue
                    where = f"definition spot {spot.container}[{spot.stmt_index}]"
                    if not 1 <= spot.part_index <= len(spot_parts):
                        raise AnalysisError(f"{where} names missing part "
                                            f"{url_id}[{spot.part_index}]")
                    if spot.part_index != m:
                        raise AnalysisError(f"{where} names part {spot.part_index}"
                                            f" but is listed under {url_id}[{m}]")
                    raise AnalysisError(f"{where} is not a definition of "
                                        f"{url_id}[{m}] ({part.kind} {part.value})")
        for url_id in url_spots:
            if url_id not in self.entries:
                raise AnalysisError(f"url map leaves out url '{url_id}'")

    def runtime_seed(self) -> dict[str, list[str | None]]:
        """The runtime URL map this map seeds: each part's concrete value,
        None for an unknown part."""
        return {url_id: [p.value if isinstance(p, Concrete) else None
                         for p in parts]
                for url_id, parts in self.entries.items()}


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


def static_part_value(app: App, part: UrlPart) -> str | None:
    """The value of a literal or resource part, or `static_value_of` a
    variable part."""
    if part.kind == "var":
        return static_value_of(app, part.value)
    return app.static_value(part.kind, part.value)


def analyze_urls(app: App) -> UrlMap:
    """Compute the URL map for every URL spot in the app. A slot, one
    variable at one part position, gets its state once: every URL that
    reads the variable at that position shares it."""
    slots: dict[tuple[str, int], UrlPartState] = {}

    def state(m: int, part: UrlPart) -> UrlPartState:
        if part.kind != "var":
            return Concrete(app.static_value(part.kind, part.value))
        slot = (part.value, m)
        if slot not in slots:
            value = static_value_of(app, part.value)
            slots[slot] = Concrete(value) if value is not None else Unknown(
                tuple(DefinitionSpot(container, idx, m, ordinal)
                      for ordinal, (container, idx, _) in enumerate(
                          app.index.definitions[part.value], start=1)))
        return slots[slot]

    return UrlMap({url_id: tuple([state(m, part) for m, part
                                  in enumerate(spot.parts, start=1)])
                   for url_id, (_, _, spot) in app.index.url_spots.items()})


url_map_to_json_obj = encode
url_map_from_json_obj = partial(decode, UrlMap, error=AnalysisError)
