"""The one JSON codec for every artifact the stages hand each other.

`decode(tp, value, error)` checks a JSON value, as `json.loads` returns
it, against the type `tp` and builds it; `encode(value)` gives the JSON
value of a dataclass. Both follow the type hints:

- `str`, `bool`, and `int`, which means an integer >= 0 (booleans are not
  integers);
- `X | None`, `Literal` of strings, `tuple[X, ...]` (a JSON list) and
  `Mapping[str, X]` (a JSON object);
- a dataclass: a JSON object keyed by field name, or by the key given
  with `renamed`; a field with a default may be missing, and unknown keys
  are ignored. A dataclass whose one field is `inline()` is that field;
- a union of dataclasses, told apart by their class attribute `type`,
  kept under the key "type", or else by which member's first key is there.

Two more forms only encode, for scores that are written but never read
back: a `float` as it is, and an `Enum` as its `.value`.

`dumps(value)` writes a JSON value as every JSON artifact is written,
with `json.dumps`: keys sorted, two-space indent, ASCII only, and a
final newline. `dumps(value, tp)` writes the same text for `value`, the
JSON value that `encode` gives for a `tp`, with a writer compiled for
`tp`, as `pipeline` writes every JSON file. Its keys and indents are
constant text, an integer goes into its `%` template as itself, with no
call per integer, and a union's members are told apart as on decoding.
It writes every type above but `Enum`, and raises TypeError on another
up front. `writer(tp, indent)` compiles it for a `tp` itself: fields are
read as attributes, union members told apart by class name, and the text
has no final newline and its lines after the first indented by `indent`
spaces, so it can stand inside a larger text, as each event does in a
run log.

A decode error names the JSON path of the bad value:
`$.events[3].at must be an integer >= 0, got -1`. A dataclass's decoder
is compiled as a writer is, in code named `<decoder T>`: it checks the
required keys first, then each field in order, a `str`, `int` or
`Mapping[str, str]` field inline, calling the field's own decoder only to
raise its error. Each type's decoder, encoder and writer is built once,
on first use, so no value pays for reflection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING
from enum import Enum
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Literal, Union


class _Invalid(Exception):
    """A bad value: (problem, path). A path is () at the root, else a
    (parent path, key or index) pair, built only on the way down."""


def _bad(expected: str, value, path) -> _Invalid:
    # abbreviated: the bad value may be a whole multi-megabyte run log
    return _Invalid(f"must be {expected}, got {reprlib.repr(value)}", path)


def renamed(key: str) -> Any:
    """A dataclass field kept under the JSON key `key`."""
    return dataclasses.field(metadata={"json": key})


def inline() -> Any:
    """The one field of a dataclass that stands for it in JSON."""
    return dataclasses.field(metadata={"inline": True})


def decode(tp, value, error: type[Exception]):
    """`value` as a `tp`; raises `error` naming the first bad value's
    JSON path."""
    try:
        return _decoder(tp)(value, ())
    except _Invalid as e:
        problem, path = e.args
    steps = []
    while path:
        path, step = path
        steps.append(f"[{step}]" if type(step) is int
                     else f".{step}" if step.isidentifier()
                     else f"[{json.dumps(step)}]")
    raise error("$" + "".join(reversed(steps)) + " " + problem)


def encode(value):
    """The JSON value of a dataclass instance."""
    return _encoder(type(value))(value)


def dumps(value, tp=None) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` plus a newline. Given
    `tp`, `value` must be the JSON value that `encode` gives for a `tp`,
    and `_writer(tp)` writes the same text several times as fast: it knows
    each key and indent in advance, so it writes only the scalars."""
    if tp is not None:
        return _writer(tp)(value)
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def writer(tp, indent: int = 0) -> Callable[[Any], str]:
    """The writer of a `tp` itself, as the module docstring says."""
    return _writer(tp, True, "\n" + " " * indent, "")


def _float(f: float) -> str:
    if f != f:
        return "NaN"
    if f == math.inf:
        return "Infinity"
    if f == -math.inf:
        return "-Infinity"
    return float.__repr__(f)


# the typed writer's scalar writers, each named "_" and its type's name
_WRITERS = {str: encode_basestring_ascii, float: _float,
            bool: lambda b: "true" if b else "false"}


def _no_member(v):
    raise TypeError("no member of the union has the JSON value "
                    + reprlib.repr(v))


@cache
def _writer(tp, attrs: bool = False, newline: str = "\n", end: str = "\n"):
    """A lambda compiled from `_writing`, as `_encoder` is from
    `_encoding`: a `tp`'s text and `end` as one string expression, a
    comprehension or a `map` per container, in code named `<writer tp>`."""
    namespace = {f"_{t.__name__}": w for t, w in _WRITERS.items()}
    namespace.update(_no_member=_no_member, _repr=float.__repr__,
                     _isfinite=math.isfinite)
    text = f"lambda v: {_plus(_writing(tp, 'v', newline, attrs) + [end])}"
    name = tp.__name__ if isinstance(tp, type) else tp
    return eval(compile(text, f"<writer {name}>", "eval"), namespace)


def _plus(pieces: list) -> str:
    """One string expression of `pieces`: constant text as a `str`, a
    string expression as `(expr,)`, an integer's as `(expr, int)`. One `%`
    template builds the string once (a chain of `+` builds one per step)
    and writes each integer itself; a lone value, never a tuple, needs none."""
    template = "".join(p.replace("%", "%%") if type(p) is str else "%s"
                       for p in pieces)
    values = [p[0] for p in pieces if type(p) is not str]
    if template == "%s" and len(pieces[0]) == 1:  # a string as it is
        return values[0]
    args = ", ".join(values) + "," * (len(values) > 1)
    return f"{template!r} % ({args})" if values else repr(template)


def _writing(tp, var: str, newline: str, attrs: bool) -> list:
    """The pieces (see `_plus`) of `dumps`'s text for `var`, a `tp` itself
    if `attrs`, else its JSON value, whose lines after the first start
    with `newline`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is int:
        return [(var, int)]
    if origin is Literal:  # of strings
        return [(f"_str({var})",)]
    if tp in _WRITERS:
        return [(f"_{tp.__name__}({var})",)]
    inner = newline + "  "
    x, k = f"x{len(inner)}", f"k{len(inner)}"  # one name per depth

    def write(tp, var: str, newline: str = inner) -> list:
        return _writing(tp, var, newline, attrs)
    if origin is tuple:
        call = _plus(write(args[0], x))
        fn = call.removesuffix(f"({x})")  # a scalar: its writer, mapped in C
        items = (f"map({fn}, {var})" if fn.isidentifier()
                 else f"[{call} for {x} in {var}]")
        if fn == "_float":  # all finite, tested in C: each one's repr
            items = f"map(_repr if all(map(_isfinite, {var})) else _float, {var})"
    elif origin is Mapping:
        item = _plus([(f"_str({k})",), ": ", *write(args[1], x)])
        items = f"[{item} for {k}, {x} in sorted({var}.items())]"
    if origin is tuple or origin is Mapping:
        opening, closing = "[]" if origin is tuple else "{}"
        text = _plus([opening + inner, (f"{',' + inner!r}.join({items})",),
                      newline + closing])
        return [(f"({text} if {var} else {opening + closing!r})",)]
    if origin is Union or origin is types.UnionType:
        # told apart as `_union_decoder` tells them apart, or by class name
        members, optional = _members(tp)
        tagged = any(hasattr(m, "type") for m in members)
        expr = (_plus(write(members[0], var, newline)) if len(members) == 1
                else f"_no_member({var})")
        for m in reversed(members if len(members) > 1 else ()):
            test = (f"type({var}).__name__ == {m.__name__!r}" if attrs
                    else f'{var}.get("type") == {m.type!r}' if tagged
                    else f"{_fields(m)[0][0]!r} in {var}")
            expr = f"{_plus(write(m, var, newline))} if {test} else {expr}"
        return [(f"('null' if {var} is None else {expr})" if optional
                 else f"({expr})",)]
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if fields[0][1].metadata.get("inline"):
            _, f, ftp = fields[0]
            return write(ftp, f"{var}.{f.name}" if attrs else var, newline)
        texts = {key: write(ftp, f"{var}.{f.name}" if attrs
                            else f"{var}[{key!r}]") for key, f, ftp in fields}
        if hasattr(tp, "type"):
            texts["type"] = [encode_basestring_ascii(tp.type)]
        pieces = ["{"]
        for i, key in enumerate(sorted(texts)):
            pieces += ["," * (i > 0) + inner + encode_basestring_ascii(key)
                       + ": ", *texts[key]]
        return pieces + [newline + "}"]
    raise TypeError(f"no JSON text for {tp!r}")


def _fields(cls) -> list[tuple[str, dataclasses.Field, Any]]:
    """(JSON key, field, type) of each constructor field."""
    hints = typing.get_type_hints(cls)
    return [(f.metadata.get("json", f.name), f, hints[f.name])
            for f in dataclasses.fields(cls) if f.init]


def _members(tp) -> tuple[list, bool]:
    """The members of a union other than None, and whether None is one."""
    args = typing.get_args(tp)
    members = [a for a in args if a is not type(None)]
    return members, len(members) < len(args)


def _leaf(kind: type, expected: str, allowed=None):
    """Values of exactly the type `kind`, and in `allowed` if given."""
    def leaf(v, path):
        if type(v) is kind and (allowed is None or v in allowed):
            return v
        raise _bad(expected, v, path)
    return leaf


def _count(v, path):
    if type(v) is int and v >= 0:
        return v
    raise _bad("an integer >= 0", v, path)


_LEAVES = {str: _leaf(str, "a string"), bool: _leaf(bool, "true or false"),
           int: _count}


def _one_of(values) -> str:
    return "one of " + ", ".join(map(json.dumps, values))


@cache
def _decoder(tp):
    """A function of (JSON value, its path) that checks and builds a `tp`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _LEAVES:
        return _LEAVES[tp]
    if origin is Literal:
        return _leaf(str, _one_of(args), args)
    # strings, the common item, are checked at C speed: no call per item
    if origin is tuple:
        item, strings = _decoder(args[0]), args[0] is str

        def sequence(v, path):
            if type(v) is not list:
                raise _bad("a JSON list", v, path)
            if strings and {*map(type, v)} <= {str}:
                return tuple(v)
            return tuple([item(x, (path, i)) for i, x in enumerate(v)])
        return sequence
    if origin is Mapping:
        item = _decoder(args[1])

        def mapping(v, path):
            if type(v) is not dict:
                raise _bad("a JSON object", v, path)
            return {k: item(x, (path, k)) for k, x in v.items()}
        return mapping
    if origin is Union or origin is types.UnionType:
        members, optional = _members(tp)
        inner = (_decoder(members[0]) if len(members) == 1
                 else _union_decoder(members))
        if optional:
            return lambda v, path: None if v is None else inner(v, path)
        return inner
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    raise TypeError(f"no JSON form for {tp!r}")


# the (test, value) expressions of a field's JSON value `x` that a
# compiled decoder checks inline, by the field type's (origin, args)
_INLINE = {(str, ()): ("type(x) is str", "x"),
           (int, ()): ("type(x) is int and x >= 0", "x"),
           (Mapping, (str, str)): (
               "type(x) is dict and {*map(type, x.values())} <= {str}",
               "dict(x)")}


def _dataclass_decoder(cls):
    """A function compiled as `_writer` is, in code named `<decoder cls>`,
    with no call per `_INLINE` field: the field's own decoder is called
    only to raise, with the message and path it always gives."""
    fields = _fields(cls)
    if fields[0][1].metadata.get("inline"):
        field = _decoder(fields[0][2])
        return lambda v, path: cls(field(v, path))
    optional = {key for key, f, _ in fields if f.default is not MISSING
                or f.default_factory is not MISSING}
    lines = ["def decoder(v, path):", "  if type(v) is not dict:",
             "    raise _bad('a JSON object', v, path)", "  kw = {}"]
    lines += [f"  if {key!r} not in v: raise _Invalid('is missing', "
              f"(path, {key!r}))" for key, _, _ in fields if key not in optional]
    namespace = {"_cls": cls, "_bad": _bad, "_Invalid": _Invalid}
    for i, (key, f, tp) in enumerate(fields):
        namespace[f"_f{i}"] = _decoder(tp)
        value = f"_f{i}(x, (path, {key!r}))"
        inline = _INLINE.get((typing.get_origin(tp) or tp, typing.get_args(tp)))
        if inline is not None:
            value = f"{inline[1]} if {inline[0]} else {value}"
        pad = "  "
        if key in optional:
            lines.append(f"  if {key!r} in v:")
            pad = "    "
        lines += [f"{pad}x = v[{key!r}]", f"{pad}kw[{f.name!r}] = {value}"]
    exec(compile("\n".join(lines + ["  return _cls(**kw)"]),
                 f"<decoder {cls.__name__}>", "exec"), namespace)
    return namespace["decoder"]


def _union_decoder(members):
    tags = {m.type: _decoder(m) for m in members if hasattr(m, "type")}
    keyed = [(_fields(m)[0][0], _decoder(m)) for m in members]
    keys = " or ".join(json.dumps(key) for key, _ in keyed)

    def union(v, path):
        if type(v) is not dict:
            raise _bad("a JSON object", v, path)
        if tags:
            tag = v.get("type")
            if type(tag) is str and tag in tags:
                return tags[tag](v, path)
            raise _bad(_one_of(tags), tag, (path, "type"))
        for key, member in keyed:
            if key in v:
                return member(v, path)
        raise _bad(f"a JSON object with the key {keys}", v, path)
    return union


@cache
def _encoder(tp):
    """A lambda compiled from `_encoding`: a dict display per dataclass
    and a comprehension per container, as one would write it by hand.
    A closure per field took three times as long on large url maps."""
    namespace: dict = {}
    return eval(f"lambda v: {_encoding(tp, 'v', namespace, 0)}", namespace)


def _encoding(tp, var: str, namespace: dict, depth: int) -> str:
    """A Python expression for the JSON value of `var`, a `tp`; it binds
    the classes it tests for in `namespace`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _LEAVES or tp is float or origin is Literal:
        return var
    if isinstance(tp, type) and issubclass(tp, Enum):
        return f"{var}.value"
    x, k = f"x{depth}", f"k{depth}"
    if origin is tuple:
        item = _encoding(args[0], x, namespace, depth + 1)
        return f"list({var})" if item == x else f"[{item} for {x} in {var}]"
    if origin is Mapping:
        item = _encoding(args[1], x, namespace, depth + 1)
        if item == x:
            return f"dict({var})"
        return f"{{{k}: {item} for {k}, {x} in {var}.items()}}"
    if origin is Union or origin is types.UnionType:
        members, optional = _members(tp)
        expr = _encoding(members[-1], var, namespace, depth)
        for m in reversed(members[:-1]):
            namespace[m.__name__] = m
            expr = (f"({_encoding(m, var, namespace, depth)} "
                    f"if type({var}) is {m.__name__} else {expr})")
        return f"(None if {var} is None else {expr})" if optional else expr
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if fields[0][1].metadata.get("inline"):
            return _encoding(fields[0][2], f"{var}.{fields[0][1].name}",
                             namespace, depth)
        items = [f"{json.dumps(key)}: "
                 + _encoding(ftp, f"{var}.{f.name}", namespace, depth)
                 for key, f, ftp in fields]
        if hasattr(tp, "type"):
            items.append(f'"type": {json.dumps(tp.type)}')
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"no JSON form for {tp!r}")
