"""Declarative app model: statement types, `.papp` parser/printer, call graph.

An app stands in for an event-driven GUI program. Callbacks and helper
methods have flat statement bodies (no expressions or branching); the
callback control-flow graph (CCFG) is declared in the source, with wait
nodes marking the points where a user action decides the next callback.

`.papp` format (UTF-8, line oriented, `#` comments):

    app <name>
    resource <key> = "<value>"
    setting <key> = "<value>"
    netmethod <name> latency=<ms>
    callback <name> { <stmts> }
    method <name> { <stmts> }
    ccfg { wait <name> ; <node> -> <node> ; ... }

Statements:

    let <var> = "<lit>" | resource(<key>) | setting(<key>) | input(<tag>)
    url <id> = <part> + <part> + ...      # part: "<lit>" | resource(<key>) | <var>
    <netmethod>(<urlId>)
    call <method>
    asynccall <method>
    goto <callback>

plus the three pseudo-statements emitted by the instrumenter:

    send_definition(<var>, <urlId>, <m>)
    trigger_prefetch(<u1>, <u2>, ...)
    fetch_from_proxy(<netmethod>, <urlId>)

String literals may not contain double quotes or line breaks; there are
no escapes.

Every `App` carries a `ProgramIndex` (`App.index`): the lookup tables that
analysis, instrumentation and the runtime consult (definitions by
variable, URL spot by url id, body by name, the proxy's fetch method,
whether the app is instrumented, callback declaration order, the CCFG's
roots and wait-node predecessors), built on first use and cached.
The index needs no invalidation: an `App` is frozen and its bodies are
tuples of frozen statements, so the program it indexes cannot change, and
every rewrite (`dataclasses.replace`) makes a new `App` with a fresh
index. `Ccfg` caches its adjacency the same way on its own instance.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Union

from .errors import ParseError


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefineStatic:
    """`let var = ...` with a statically known source."""

    var: str
    source_kind: str  # "literal" | "resource" | "setting"
    source: str


@dataclass(frozen=True)
class DefineDynamic:
    """`let var = input(tag)`: the value arrives from the user trace."""

    var: str
    input_tag: str


@dataclass(frozen=True)
class UrlPart:
    kind: str  # "literal" | "resource" | "var"
    value: str


@dataclass(frozen=True)
class BuildUrl:
    """The unique statement constructing the URL string for `url_id`."""

    url_id: str
    parts: tuple[UrlPart, ...]


@dataclass(frozen=True)
class NetCall:
    """Network request for a built URL through a declared net method."""

    method: str
    url_id: str


@dataclass(frozen=True)
class Call:
    target: str


@dataclass(frozen=True)
class AsyncCall:
    """Framework-mediated call (worker-style); same runtime semantics and
    call-graph edge as Call."""

    target: str


@dataclass(frozen=True)
class Transition:
    """`goto`: switches to another callback immediately, with no wait node."""

    target: str


# Pseudo-statements inserted by the instrumenter.

@dataclass(frozen=True)
class SendDefinition:
    """Report a freshly assigned value for part `part_index` (1-based) of a
    URL to the proxy."""

    var: str
    url_id: str
    part_index: int


@dataclass(frozen=True)
class TriggerPrefetch:
    url_ids: tuple[str, ...]


@dataclass(frozen=True)
class FetchFromProxy:
    """Replaces a signature NetCall; keeps the original method for the
    cache-miss fallback to the origin."""

    url_id: str
    original_method: str


Stmt = Union[
    DefineStatic, DefineDynamic, BuildUrl, NetCall, Call, AsyncCall,
    Transition, SendDefinition, TriggerPrefetch, FetchFromProxy,
]

PSEUDO_STMTS = (SendDefinition, TriggerPrefetch, FetchFromProxy)


# ---------------------------------------------------------------------------
# containers and the app
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Callback:
    name: str
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class HelperMethod:
    name: str
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class NetMethodDecl:
    name: str
    latency_ms: int


@dataclass(frozen=True)
class Ccfg:
    """Declared callback control-flow graph.

    Nodes are callback names plus wait nodes; an edge a->b means b can be
    invoked after a. Wait nodes must have at least one incoming and one
    outgoing edge. Cycles are allowed.
    """

    wait_nodes: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()

    def successors(self, node: str) -> list[str]:
        return list(self._adjacency[0].get(node, ()))

    def predecessors(self, node: str) -> list[str]:
        return list(self._adjacency[1].get(node, ()))

    @cached_property
    def wait_set(self) -> frozenset[str]:
        return frozenset(self.wait_nodes)

    @cached_property
    def _adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """(successors, predecessors) by node, each list in edge order."""
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
            pred.setdefault(b, []).append(a)
        return succ, pred


@dataclass(frozen=True)
class ProgramIndex:
    """Whole-program lookup tables of one App (see the module docstring).

    The tables are shared by every caller and must not be mutated.
    """

    # name -> body of the first container with that name, in program order
    bodies: dict[str, tuple[Stmt, ...]]
    # var -> (container, stmt index, definition) for each definition, in
    # program order
    definitions: dict[str, list[tuple[str, int, Stmt]]]
    # url id -> (container, stmt index, BuildUrl) of its first URL spot
    url_spots: dict[str, tuple[str, int, BuildUrl]]
    # the original method of the first fetch_from_proxy, which `instrument`
    # writes into all of them; None in an app without one
    proxy_method: str | None
    instrumented: bool
    # callback name -> position in declaration order
    callback_order: dict[str, int]
    # callbacks that no ccfg edge enters, in declaration order
    roots: tuple[str, ...]
    # callback -> the callbacks p with ccfg edges p -> wait node -> it, in
    # declaration order; the relation behind both trigger analysis and the
    # trace's event order
    wait_predecessors: dict[str, tuple[str, ...]]


def _build_index(app: "App") -> ProgramIndex:
    bodies: dict[str, tuple[Stmt, ...]] = {}
    definitions: dict[str, list[tuple[str, int, Stmt]]] = {}
    url_spots: dict[str, tuple[str, int, BuildUrl]] = {}
    proxy_method: str | None = None
    instrumented = False
    for name, body in app.containers():
        bodies.setdefault(name, body)
        for idx, st in enumerate(body):
            if isinstance(st, (DefineStatic, DefineDynamic)):
                definitions.setdefault(st.var, []).append((name, idx, st))
            elif isinstance(st, BuildUrl):
                url_spots.setdefault(st.url_id, (name, idx, st))
            elif isinstance(st, PSEUDO_STMTS):
                instrumented = True
                if isinstance(st, FetchFromProxy) and proxy_method is None:
                    proxy_method = st.original_method
    order = {c.name: i for i, c in enumerate(app.callbacks)}
    ccfg = app.ccfg
    targets = {b for _, b in ccfg.edges}
    preds: dict[str, set[str]] = {}
    for p, w in ccfg.edges:
        if p in order and w in ccfg.wait_set:
            for b in ccfg.successors(w):
                if b in order:
                    preds.setdefault(b, set()).add(p)
    return ProgramIndex(
        bodies=bodies,
        definitions=definitions,
        url_spots=url_spots,
        proxy_method=proxy_method,
        instrumented=instrumented,
        callback_order=order,
        roots=tuple(c for c in order if c not in targets),
        wait_predecessors={b: tuple(sorted(ps, key=order.__getitem__))
                           for b, ps in preds.items()},
    )


@dataclass(frozen=True)
class App:
    name: str
    resources: dict[str, str] = field(default_factory=dict)
    settings: dict[str, str] = field(default_factory=dict)
    callbacks: tuple[Callback, ...] = ()
    methods: tuple[HelperMethod, ...] = ()
    ccfg: Ccfg = field(default_factory=Ccfg)
    netlib: tuple[NetMethodDecl, ...] = ()

    # -- lookups -----------------------------------------------------------

    @property
    def callback_names(self) -> list[str]:
        return [c.name for c in self.callbacks]

    @property
    def method_names(self) -> list[str]:
        return [m.name for m in self.methods]

    def containers(self) -> Iterator[tuple[str, tuple[Stmt, ...]]]:
        """(name, body) pairs in program order: callbacks first, then
        helper methods, each in declaration order."""
        for c in self.callbacks:
            yield c.name, c.body
        for m in self.methods:
            yield m.name, m.body

    @cached_property
    def index(self) -> ProgramIndex:
        """The program's lookup tables, built on first use."""
        return _build_index(self)

    @property
    def is_instrumented(self) -> bool:
        return self.index.instrumented

    def static_value(self, kind: str, value: str) -> str:
        """The value of a literal (`kind` "literal") or of a `resource(key)`
        or `setting(key)` read. Validation guarantees every key is
        declared."""
        if kind == "literal":
            return value
        return (self.resources if kind == "resource" else self.settings)[value]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"

# a string token consumes any '#' inside it, so `#` starts a comment only
# outside string literals
_TOKEN = rf'"[^"]*"|->|{_IDENT}|\d+|[={{}}()+,;]'
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
# the longest run of tokens, then the character that starts none: `#`
# opens a comment, any other is illegal; `(.?)` lets the match never
# fail, so it never backtracks into the tokens
_STOP_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*(.?)")

# a token's kind by its first character; a token starting with any other
# character is a number (`\d` also matches non-ASCII digits)
_KIND = {'"': "str", "-": "arrow", **dict.fromkeys("={}()+,;", "sym"),
         **dict.fromkeys(string.ascii_letters + "_", "ident")}


def _tokenize(line: str) -> list[str]:
    """The token texts up to any comment; raises ValueError on an illegal
    character."""
    stop = _STOP_RE.match(line)
    if stop[1] and stop[1] != "#":
        raise ValueError(f"unexpected character {stop[1]!r}")
    return _TOKEN_RE.findall(line, 0, stop.start(1))


class _Cursor:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def next(self) -> str:
        try:
            t = self.tokens[self.pos]
        except IndexError:
            raise ValueError("unexpected end of line") from None
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> str:
        """The next token, which must be `text` if given, else of `kind`."""
        try:
            t = self.tokens[self.pos]
        except IndexError:
            raise ValueError("unexpected end of line") from None
        self.pos += 1
        if (t != text) if text else (_KIND.get(t[0], "num") != kind):
            raise ValueError(f"expected {text or kind!r}, found {t!r}")
        return t

    def args(self, *kinds: str) -> list[str]:
        """The texts of an argument list `( a , b , ... )`, one argument of
        each kind."""
        self.expect("sym", "(")
        out = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect("sym", ",")
            out.append(self.expect(kind))
        self.expect("sym", ")")
        return out

    def accept(self, text: str) -> bool:
        if self.pos < len(self.tokens) and self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _unquote(text: str) -> str:
    return text[1:-1]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# words that start a statement (or a definition source), so a net method
# with one of these names would not parse back as a net call
_STATEMENT_KEYWORDS = frozenset({
    "let", "url", "call", "asynccall", "goto", "send_definition",
    "trigger_prefetch", "fetch_from_proxy", "resource", "setting", "input",
})


def _parse_stmt(cur: _Cursor) -> Stmt:
    text = cur.next()
    if _KIND.get(text[0]) != "ident":
        raise ValueError(f"bad statement start {text!r}")
    if text == "let":
        var = cur.expect("ident")
        cur.expect("sym", "=")
        t = cur.next()
        if t[0] == '"':
            return DefineStatic(var, "literal", _unquote(t))
        if t in ("resource", "setting", "input"):
            (key,) = cur.args("ident")
            return DefineDynamic(var, key) if t == "input" else DefineStatic(var, t, key)
        raise ValueError(f"bad definition source {t!r}")
    if text == "url":
        url_id = cur.expect("ident")
        cur.expect("sym", "=")
        parts = [_parse_url_part(cur)]
        while cur.accept("+"):
            parts.append(_parse_url_part(cur))
        return BuildUrl(url_id, tuple(parts))
    if text == "call":
        return Call(cur.expect("ident"))
    if text == "asynccall":
        return AsyncCall(cur.expect("ident"))
    if text == "goto":
        return Transition(cur.expect("ident"))
    if text == "send_definition":
        var, url_id, m = cur.args("ident", "ident", "num")
        return SendDefinition(var, url_id, int(m))
    if text == "trigger_prefetch":
        cur.expect("sym", "(")
        urls = [cur.expect("ident")]
        while cur.accept(","):
            urls.append(cur.expect("ident"))
        cur.expect("sym", ")")
        return TriggerPrefetch(tuple(urls))
    if text == "fetch_from_proxy":
        method, url_id = cur.args("ident", "ident")
        return FetchFromProxy(url_id, method)
    # bare `<name>(<urlId>)` is a network call
    if text in _STATEMENT_KEYWORDS:
        raise ValueError(f"{text!r} cannot start a statement")
    return NetCall(text, *cur.args("ident"))


def _parse_url_part(cur: _Cursor) -> UrlPart:
    t = cur.next()
    if t[0] == '"':
        return UrlPart("literal", _unquote(t))
    if t == "resource":
        return UrlPart("resource", *cur.args("ident"))
    if _KIND.get(t[0]) == "ident":
        return UrlPart("var", t)
    raise ValueError(f"bad url part {t!r}")


def parse_app(text: str) -> App:
    """Parse `.papp` source into a validated App.

    Raises ParseError carrying (line, message) diagnostics for every
    problem found, both syntactic and structural.
    """
    diags: list[tuple[int, str]] = []
    name: str | None = None
    resources: dict[str, str] = {}
    settings: dict[str, str] = {}
    netlib: list[NetMethodDecl] = []
    # (declaration word, name, body) of each callback and method
    containers: list[tuple[str, str, list[Stmt]]] = []
    wait_nodes: list[str] = []
    ccfg_edges: list[tuple[str, str]] = []
    stmt_lines: dict[tuple[str, int], int] = {}
    decl_lines: dict[str, int] = {}
    # the open { } block as (its line, container name, body); the ccfg
    # block has no body
    block: tuple[int, str, list[Stmt] | None] | None = None

    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            toks = _tokenize(line)
        except ValueError as e:
            diags.append((lineno, str(e)))
            continue
        if not toks:
            continue
        cur = _Cursor(toks)
        if block is not None:
            if toks == ["}"]:
                block = None
                continue
            _, cname, body = block
            while not cur.done():
                try:
                    if body is not None:
                        body.append(_parse_stmt(cur))
                        stmt_lines[(cname, len(body) - 1)] = lineno
                    elif cur.accept("wait"):
                        wait_nodes.append(cur.expect("ident"))
                    else:
                        a = cur.expect("ident")
                        cur.expect("arrow")
                        ccfg_edges.append((a, cur.expect("ident")))
                except ValueError as e:
                    diags.append((lineno, str(e)))
                    break
                if not cur.done() and not cur.accept(";"):
                    what = "edge" if body is None else "statement"
                    diags.append((lineno, f"trailing tokens after {what}"))
                    break
            continue
        head = cur.next()
        try:
            if head == "app":
                if name is not None:
                    raise ValueError("duplicate app declaration")
                name = cur.expect("ident")
            elif head in ("resource", "setting"):
                key = cur.expect("ident")
                cur.expect("sym", "=")
                value = _unquote(cur.expect("str"))
                table = resources if head == "resource" else settings
                if key in table:
                    raise ValueError(f"duplicate {head} key '{key}'")
                table[key] = value
            elif head == "netmethod":
                mname = cur.expect("ident")
                cur.expect("ident", "latency")
                cur.expect("sym", "=")
                netlib.append(NetMethodDecl(mname, int(cur.expect("num"))))
            elif head in ("callback", "method", "ccfg"):
                cname = "" if head == "ccfg" else cur.expect("ident")
                cur.expect("sym", "{")
                if not cur.done():
                    what = "edges" if head == "ccfg" else "statements"
                    diags.append((lineno, f"{what} must start on the next line"))
                body = None
                if head != "ccfg":
                    body = []
                    containers.append((head, cname, body))
                    decl_lines.setdefault(cname, lineno)
                block = (lineno, cname, body)
                continue
            else:
                raise ValueError(f"unknown declaration '{head}'")
            if not cur.done():
                raise ValueError("trailing tokens after declaration")
        except ValueError as e:
            diags.append((lineno, str(e)))
    if block is not None:
        diags.append((block[0], "unterminated block"))

    if name is None:
        diags.append((1, "missing app declaration"))
        name = "_"  # never returned; keeps the name check from repeating this

    app = App(
        name=name,
        resources=resources,
        settings=settings,
        callbacks=tuple(Callback(n, tuple(b)) for h, n, b in containers
                        if h == "callback"),
        methods=tuple(HelperMethod(n, tuple(b)) for h, n, b in containers
                      if h == "method"),
        ccfg=Ccfg(tuple(wait_nodes), tuple(ccfg_edges)),
        netlib=tuple(netlib),
    )
    for loc, msg in _structural_problems(app):
        if loc is None:
            diags.append((0, msg))
        else:
            line = stmt_lines.get(loc, decl_lines.get(loc[0], 0))
            diags.append((line, msg))
    if diags:
        raise ParseError(sorted(diags))
    return app


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# what a `.papp` string literal cannot hold: it has no escapes, and the
# parser splits its input with str.splitlines()
_UNPRINTABLE_RE = re.compile('["\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]')


def _printable(value: str) -> bool:
    return _UNPRINTABLE_RE.search(value) is None


def _unprintable(value: str) -> str:
    return f"string {value!r} contains a double quote or a line break"


_IDENT_RE = re.compile(_IDENT)


# The names a statement reads, each of which must be declared: (field,
# what it names) per statement class, in the order of their messages.
_READS = {
    NetCall: (("method", "netmethod"), ("url_id", "url")),
    FetchFromProxy: (("original_method", "netmethod"), ("url_id", "url")),
    Call: (("target", "call target"),),
    AsyncCall: (("target", "call target"),),
    Transition: (("target", "callback"),),
    SendDefinition: (("url_id", "url"), ("var", "variable")),
}


def _structural_problems(app: App) -> list[tuple[tuple[str, int] | None, str]]:
    """Structural defects as ((container, stmt_index) | None, message)."""
    problems: list[tuple[tuple[str, int] | None, str]] = []

    def check_name(loc, name: str, what: str, reserved=()) -> None:
        """Names must print as one identifier token; a reserved word
        would be read back as the keyword it spells ("wait" in the ccfg
        block, a variable "resource" in a URL, a statement keyword as a
        net method)."""
        if not _IDENT_RE.fullmatch(name):
            problems.append((loc, f"{what} {name!r} is not an identifier"))
        elif name in reserved:
            problems.append((loc, f"{what} '{name}' is a reserved word"))

    check_name(None, app.name, "app name")
    netmethods: set[str] = set()
    for m in app.netlib:
        if m.name in netmethods:
            problems.append((None, f"duplicate netmethod '{m.name}'"))
            continue
        netmethods.add(m.name)
        check_name(None, m.name, "netmethod", _STATEMENT_KEYWORDS)
        if m.latency_ms < 0:
            problems.append((None, f"netmethod '{m.name}' has a negative "
                                   f"latency {m.latency_ms}"))
    names: set[str] = set()
    for cname in list(app.callback_names) + list(app.method_names):
        if cname in names:
            problems.append((None, f"duplicate name '{cname}'"))
        names.add(cname)
    for c in app.callbacks:
        check_name(None, c.name, "callback", ("wait",))
    for m in app.methods:
        check_name(None, m.name, "method")
    callbacks = set(app.callback_names)
    # built here, the index is the one a parsed App's analyses read
    url_spots, defined_vars = app.index.url_spots, app.index.definitions
    # url ids whose first spot the walk has passed: a later spot is a
    # duplicate, also in a second container of the same name
    spotted: set[str] = set()
    declared = {"netmethod": netmethods, "url": url_spots, "variable":
                defined_vars, "call target": names, "callback": callbacks}

    for name, body in app.containers():
        for idx, st in enumerate(body):
            loc, cls = (name, idx), type(st)  # statements are final classes
            if cls in _READS:
                if cls is SendDefinition:  # a part of its url, if that resolves
                    spot = url_spots.get(st.url_id)
                    if spot and not 1 <= st.part_index <= len(spot[2].parts):
                        problems.append((loc, f"url '{st.url_id}' has no "
                                              f"part {st.part_index}"))
                for field_name, what in _READS[cls]:
                    read = getattr(st, field_name)
                    if read not in declared[what]:
                        problems.append((loc, f"unresolved {what} '{read}'"))
            elif cls is BuildUrl:
                if st.url_id in spotted:
                    problems.append((loc, f"duplicate url spot for '{st.url_id}'"))
                spotted.add(st.url_id)
                check_name(loc, st.url_id, "url id")
                if not st.parts:
                    problems.append((loc, f"url '{st.url_id}' has no parts"))
                for part in st.parts:
                    if part.kind not in ("literal", "resource", "var"):
                        problems.append((loc, f"url part kind '{part.kind}' is "
                                              "not literal, resource or var"))
                    elif part.kind == "var" and part.value not in defined_vars:
                        problems.append(
                            (loc, f"unresolved variable '{part.value}'")
                        )
                    elif part.kind == "literal" and not _printable(part.value):
                        problems.append((loc, _unprintable(part.value)))
                    elif part.kind == "resource" and part.value not in app.resources:
                        problems.append(
                            (loc, f"unknown resource key '{part.value}'")
                        )
            elif cls is DefineStatic:
                check_name(loc, st.var, "variable", ("resource",))
                table = app.resources if st.source_kind == "resource" else app.settings
                if st.source_kind not in ("literal", "resource", "setting"):
                    problems.append((loc, f"static source kind '{st.source_kind}' "
                                          "is not literal, resource or setting"))
                elif st.source_kind == "literal":
                    if not _printable(st.source):
                        problems.append((loc, _unprintable(st.source)))
                elif st.source not in table:
                    problems.append(
                        (loc, f"unknown {st.source_kind} key '{st.source}'")
                    )
            elif cls is DefineDynamic:
                check_name(loc, st.var, "variable", ("resource",))
                check_name(loc, st.input_tag, "input tag")
            elif cls is TriggerPrefetch:
                # url ids here may be hint URLs: `run` checks them with the hints
                if not st.url_ids:
                    problems.append((loc, "trigger_prefetch needs at least one url"))
                for url_id in st.url_ids:
                    check_name(loc, url_id, "url id")

    for kind, table in (("resource", app.resources), ("setting", app.settings)):
        for key, value in table.items():
            check_name(None, key, f"{kind} key")
            if not _printable(value):
                problems.append((None, f"{kind} '{key}': {_unprintable(value)}"))

    ccfg_nodes = callbacks | app.ccfg.wait_set
    for a, b in app.ccfg.edges:
        for endpoint in (a, b):
            if endpoint not in ccfg_nodes:
                problems.append((None, f"unknown ccfg node '{endpoint}'"))
    waits: set[str] = set()
    for w in app.ccfg.wait_nodes:
        if w in waits:
            problems.append((None, f"duplicate wait node '{w}'"))
            continue
        waits.add(w)
        check_name(None, w, "wait node", ("wait",))
        if w in names:
            problems.append((None, f"wait node '{w}' collides with a callback or method name"))
        if not app.ccfg.predecessors(w):
            problems.append((None, f"wait node '{w}' has no incoming edge"))
        if not app.ccfg.successors(w):
            problems.append((None, f"wait node '{w}' has no outgoing edge"))
    return problems


def validate_app(app: App) -> None:
    """Validate a programmatically built App; raises ParseError (line 0)."""
    problems = _structural_problems(app)
    if problems:
        raise ParseError([(0, msg) for _, msg in problems])


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def _print_part(part: UrlPart) -> str:
    if part.kind == "literal":
        return f'"{part.value}"'
    if part.kind == "resource":
        return f"resource({part.value})"
    return part.value


# print_app's statement lines, one template per statement class
_STMT_TEXT: dict[type, Callable[..., str]] = {
    DefineStatic: lambda st: (
        f'  let {st.var} = "{st.source}"' if st.source_kind == "literal"
        else f"  let {st.var} = {st.source_kind}({st.source})"),
    DefineDynamic: lambda st: f"  let {st.var} = input({st.input_tag})",
    BuildUrl: lambda st: (f"  url {st.url_id} = "
                          + " + ".join(map(_print_part, st.parts))),
    NetCall: lambda st: f"  {st.method}({st.url_id})",
    Call: lambda st: f"  call {st.target}",
    AsyncCall: lambda st: f"  asynccall {st.target}",
    Transition: lambda st: f"  goto {st.target}",
    SendDefinition: lambda st: (
        f"  send_definition({st.var}, {st.url_id}, {st.part_index})"),
    TriggerPrefetch: lambda st: f"  trigger_prefetch({', '.join(st.url_ids)})",
    FetchFromProxy: lambda st: (
        f"  fetch_from_proxy({st.original_method}, {st.url_id})"),
}


def print_app(app: App) -> str:
    """Canonical `.papp` text; parse_app(print_app(a)) == a."""
    out = [f"app {app.name}"]
    for key, value in app.resources.items():
        out.append(f'resource {key} = "{value}"')
    for key, value in app.settings.items():
        out.append(f'setting {key} = "{value}"')
    for m in app.netlib:
        out.append(f"netmethod {m.name} latency={m.latency_ms}")
    for kind, items in (("callback", app.callbacks), ("method", app.methods)):
        for c in items:
            out.append(f"{kind} {c.name} {{")
            out += [_STMT_TEXT[type(st)](st) for st in c.body]
            out.append("}")
    out.append("ccfg {")
    for w in app.ccfg.wait_nodes:
        out.append(f"  wait {w}")
    for a, b in app.ccfg.edges:
        out.append(f"  {a} -> {b}")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# extended call graph
# ---------------------------------------------------------------------------

def build_ecg(app: App) -> dict[str, list[str]]:
    """The extended call graph (ECG, after Yang et al., ICSE 2015) of
    Call and AsyncCall statements, reversed: callee -> its callers, each
    list in first-encounter order."""
    callers: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    for name, body in app.containers():
        for st in body:
            if isinstance(st, (Call, AsyncCall)) and (name, st.target) not in seen:
                seen.add((name, st.target))
                callers.setdefault(st.target, []).append(name)
    return callers
