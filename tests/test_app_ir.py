import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fetchahead
from appgen import make_app
from fetchahead.app_ir import (
    App,
    AsyncCall,
    BuildUrl,
    Call,
    Callback,
    Ccfg,
    DefineDynamic,
    DefineStatic,
    FetchFromProxy,
    NetCall,
    NetMethodDecl,
    SendDefinition,
    Transition,
    TriggerPrefetch,
    UrlPart,
    _tokenize,
    build_ecg,
    parse_app,
    print_app,
    validate_app,
)
from fetchahead.errors import ParseError


def test_weather_app_structure(weather_app):
    assert weather_app.name == "weather"
    assert weather_app.callback_names == [
        "onCreate", "onItemSelected", "onClick", "DisplayActivity.onCreate",
    ]
    assert weather_app.ccfg.wait_nodes == ("wn1",)
    assert ("onCreate", "wn1") in weather_app.ccfg.edges
    assert ("onClick", "DisplayActivity.onCreate") in weather_app.ccfg.edges
    on_click = weather_app.index.bodies["onClick"]
    assert isinstance(on_click[0], DefineDynamic)
    assert [st.url_id for st in on_click if isinstance(st, BuildUrl)] == [
        "url1", "url2", "url3",
    ]
    assert [st.url_id for st in on_click if isinstance(st, NetCall)] == [
        "url1", "url2", "url3",
    ]
    assert isinstance(on_click[-1], Transition)


def test_empty_app():
    app = parse_app("app empty\n")
    assert app.callbacks == ()
    assert app.index.url_spots == {}


def test_unresolved_url_is_reported():
    src = """
app bad
netmethod get latency=10
callback c {
  get(u1)
}
ccfg {
}
"""
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert any("unresolved url 'u1'" in msg for _, msg in err.value.diagnostics)
    # the diagnostic points at the offending line
    assert any(ln == 5 for ln, _ in err.value.diagnostics)


def test_duplicate_names_rejected():
    src = """
app dup
callback c {
}
method c {
}
ccfg {
}
"""
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert any("duplicate name 'c'" in msg for _, msg in err.value.diagnostics)


def test_duplicate_url_spot_rejected():
    src = """
app dup
callback a {
  url u = "x"
}
callback b {
  url u = "y"
}
ccfg {
}
"""
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert any("duplicate url spot" in msg for _, msg in err.value.diagnostics)


def test_duplicate_url_spot_in_a_same_named_container_rejected():
    body = (BuildUrl("u", (UrlPart("literal", "http://h/"),)), NetCall("get", "u"))
    app = App("dup", callbacks=(Callback("a", body), Callback("a", body)),
              netlib=(NetMethodDecl("get", 5),))
    with pytest.raises(ParseError) as err:
        validate_app(app)
    assert [msg for _, msg in err.value.diagnostics] == [
        "duplicate name 'a'", "duplicate url spot for 'u'"]


def test_wait_node_needs_edges():
    src = """
app w
callback a {
}
ccfg {
  wait lonely
  a -> lonely
}
"""
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert any("no outgoing edge" in msg for _, msg in err.value.diagnostics)


def test_syntax_error_line_numbers():
    src = "app x\ncallback c {\n  let = broken\n}\nccfg {\n}\n"
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert any(ln == 3 for ln, _ in err.value.diagnostics)


def test_comments_and_semicolons():
    src = """
# leading comment
app tiny
resource r = "http://x/#notacomment"
callback c {
  let a = resource(r)  # trailing comment
  url u = "s" + a; get(u)
}
netmethod get latency=1
ccfg {
}
"""
    app = parse_app(src)
    assert app.resources["r"] == "http://x/#notacomment"
    assert len(app.index.bodies["c"]) == 3


# the tokenizer as it was written before it took two regex calls a line:
# one match object per token, its kind from the group that matched
_REFERENCE_TOKEN_RE = re.compile(
    r'\s*(?:(?P<str>"[^"]*")'
    r"|(?P<arrow>->)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<num>\d+)"
    r"|(?P<sym>[={}()+,;])"
    r"|(?P<comment>#.*)"
    r"|(?P<bad>\S))"
)


def _reference_tokenize(line: str) -> list[str]:
    toks = []
    for m in _REFERENCE_TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind == "bad":
            raise ValueError(f"unexpected character {m.group(kind)!r}")
        toks.append(m.group(kind))
    return toks


def _tokens_or_error(tokenize, line: str):
    try:
        return tokenize(line)
    except ValueError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=list(
    'abzAZ_09.\"#->={}()+,;@ \t' + "\xe9\u0663\xa0\u3000"), max_size=30))
@example('let v = "a # b" # c')
@example('url u = "x" + ab.c_1 + resource(k) @')
@example('"unterminated')
@example("a - > b")
@example("n = \u0663\u0664 \xa0 x\u3000y ")
def test_tokenize_is_the_reference_tokenizer(line):
    assert (_tokens_or_error(_tokenize, line)
            == _tokens_or_error(_reference_tokenize, line))


@pytest.mark.parametrize("tail, printed", [
    ("@", "unexpected character '@'"), ("", "2500 tokens")])
def test_tokenize_takes_linear_time_on_a_long_line(tail, printed):
    """A 20,000-character line of identifiers, with and without an illegal
    last character, tokenized in a subprocess: a pattern that backtracks
    into the tokens, splitting identifiers, takes time exponential in the
    line and fails here at the timeout instead of hanging the run."""
    code = ("import sys\n"
            "from fetchahead.app_ir import _tokenize\n"
            "try:\n"
            "    print(len(_tokenize('ab.cd_9 ' * 2500 + sys.argv[1])), 'tokens')\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    src = Path(fetchahead.__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code, tail], capture_output=True, text=True,
        timeout=5, env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout, done.stderr) == (0, printed + "\n", "")


@pytest.mark.parametrize("text, diagnostics", [
    ("app a\nresource r = \"x\" $\n", [(2, "unexpected character '$'")]),
    ("app a\nresource r =\n", [(2, "unexpected end of line")]),
    ('app a\nresource r "x"\n', [(2, "expected '=', found '\"x\"'")]),
    ("app a\ncallback c {\n  let v = 5\n}\n", [(3, "bad definition source '5'")]),
    ("app a\ncallback c {\n  url u = 5\n}\n", [(3, "bad url part '5'")]),
    ("app a\ncallback c {\n  = c\n}\n", [(3, "bad statement start '='")]),
    ("app a\ncallback c {\n  input(t)\n}\n",
     [(3, "'input' cannot start a statement")]),
    ("app a\ncallback c {\n  goto c c\n}\n", [(3, "trailing tokens after statement")]),
    ("app a\ncallback c {\n}\nccfg {\n  c -> c c\n}\n",
     [(5, "trailing tokens after edge")]),
    ("app a b\n", [(1, "trailing tokens after declaration")]),
    ("app a\ncallback c { goto c\n}\n",
     [(2, "statements must start on the next line")]),
    ("app a\ncallback c {\n}\nccfg { c -> c\n}\n",
     [(4, "edges must start on the next line")]),
    ("app a\ncallback c {\n  goto c\n", [(2, "unterminated block")]),
    ("app a\nscreen s\n", [(2, "unknown declaration 'screen'")]),
    ("app a\napp b\n", [(2, "duplicate app declaration")]),
    ('app a\nresource r = "x"\nresource r = "y"\nsetting k = "x"\nsetting k = "y"\n',
     [(3, "duplicate resource key 'r'"), (5, "duplicate setting key 'k'")]),
    ('resource r = "x"\n', [(1, "missing app declaration")]),
    ('app a\nresource r = "x#y" z  # a comment\n',
     [(2, "trailing tokens after declaration")]),
    ("app a\nnetmethod get latency=5\ncallback c {\n  get(u)\n}\n"
     "callback c {\n  goto c\n}\n",
     [(0, "duplicate name 'c'"), (4, "unresolved url 'u'")]),
    ("app a\nnetmethod get latency=5\ncallback c {\n  get(u)\n}\n"
     "method c {\n  goto c\n}\n",
     [(0, "duplicate name 'c'"), (4, "unresolved url 'u'")]),
    ("app a\ncallback c {\n}\nccfg {\n  wait w\n  w -> c\n}\n",
     [(0, "wait node 'w' has no incoming edge")]),
    ("app a\ncallback c {\n}\nccfg {\n  wait w\n  c -> w\n}\n",
     [(0, "wait node 'w' has no outgoing edge")]),
    ("app a\ncallback c {\n}\nccfg {\n  c -> x\n}\n",
     [(0, "unknown ccfg node 'x'")]),
    ("app a\ncallback c {\n  let w = input(t)\n  let v =\n}\n",
     [(4, "unexpected end of line")]),
    ('app a\ncallback c {\n  let w = input(t)\n  url u = "http://x/" +\n}\n',
     [(4, "unexpected end of line")]),
], ids=["unexpected-character", "end-of-line", "expected-found",
        "definition-source", "url-part", "statement-start", "keyword-statement",
        "trailing-statement", "trailing-edge", "trailing-declaration",
        "statements-on-brace-line", "edges-on-brace-line", "unterminated-block",
        "unknown-declaration", "duplicate-app", "duplicate-keys", "missing-app",
        "hash-in-string", "same-name-callbacks", "same-name-method",
        "wait-without-incoming", "wait-without-outgoing", "unknown-ccfg-node",
        "definition-without-source", "url-ending-in-plus"])
def test_parser_diagnostics(text, diagnostics):
    with pytest.raises(ParseError) as err:
        parse_app(text)
    assert err.value.diagnostics == diagnostics


def test_weather_round_trip(weather_app):
    assert parse_app(print_app(weather_app)) == weather_app


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_apps(seed):
    app, _, _ = make_app(random.Random(seed))
    assert parse_app(print_app(app)) == app


# texts to mutate: the weather fixture and a few printed random apps
_PAPP_TEXTS = [(Path(__file__).parent / "fixtures" / "weather.papp").read_text()] + [
    print_app(make_app(random.Random(seed))[0]) for seed in range(4)]
# what an insertion adds: arbitrary text, or text made of the format's own
# characters and words
_INSERTS = st.one_of(st.text(max_size=6), st.lists(
    st.sampled_from(['\n', ' ', '{', '}', '#', '"', ';', ',', '(', ')', '->', '=',
                     '+', '7', 'wait ', 'app a', 'netmethod get latency=5\n',
                     'callback ', 'ccfg', 'let ', 'url ', 'resource']),
    max_size=4).map("".join))


@st.composite
def _papp_inputs(draw) -> str:
    """Arbitrary text, or a `.papp` text after random insertions, deletions
    and copied spans."""
    text = draw(st.one_of(st.text(), st.sampled_from(_PAPP_TEXTS)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 80)))
        edit = draw(st.sampled_from(["insert", "delete", "copy"]))
        if edit == "insert":
            text = text[:at] + draw(_INSERTS) + text[at:]
        elif edit == "delete":
            text = text[:start] + text[end:]
        else:
            text = text[:at] + text[start:end] + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(_papp_inputs())
def test_parse_app_returns_a_valid_app_or_raises_parse_error(text):
    try:
        app = parse_app(text)
    except ParseError:
        return
    validate_app(app)
    assert parse_app(print_app(app)) == app


def _app_holding(value: str, where: str) -> App:
    """A small app that carries `value` as one kind of string literal or
    as one kind of name."""
    def at(position: str, default: str) -> str:
        return value if where == position else default

    lit, part = at("let", "x"), at("url", "http://x/")
    rkey, var, url_id = at("resource key", "r"), at("variable", "v"), at("url id", "u")
    method, wait = at("netmethod", "get"), at("wait node", "w")
    return App(
        name=at("app", "s"),
        resources={rkey: at("resource", "r")},
        settings={at("setting key", "k"): at("setting", "k")},
        callbacks=(
            Callback(at("callback", "c"), (
                DefineStatic(var, "literal", lit),
                DefineStatic("rv", "resource", rkey),
                DefineDynamic("d", at("input tag", "t")),
                BuildUrl(url_id, (UrlPart("literal", part), UrlPart("var", var))),
                NetCall(method, url_id),
            )),
            Callback("c2", ()),
        ),
        ccfg=Ccfg((wait,), ((at("callback", "c"), wait), (wait, "c2"))),
        netlib=(NetMethodDecl(method, 5),),
    )


# words the parser gives a meaning in some position
_KEYWORDS = ("let", "url", "call", "asynccall", "goto", "send_definition",
             "trigger_prefetch", "fetch_from_proxy", "resource", "setting",
             "input", "wait", "app", "callback", "method", "netmethod",
             "ccfg", "latency")
# what validate_app may object to in such an app
_REJECTIONS = ("double quote or a line break", "is not an identifier",
               "is a reserved word", "duplicate", "collides", "no incoming edge")


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(), st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*", fullmatch=True),
              st.sampled_from(_KEYWORDS)),
    st.sampled_from(["let", "url", "resource", "setting", "app", "resource key",
                     "setting key", "callback", "netmethod", "variable",
                     "url id", "input tag", "wait node"]),
)
@example('say "hi"', "let")
@example('a"b', "url")
@example('"', "resource")
@example('x"', "setting")
@example("two\nlines", "let")
@example("a b", "callback")
@example("let", "netmethod")
@example("wait", "callback")
@example("resource", "variable")
def test_every_valid_app_round_trips(value, where):
    app = _app_holding(value, where)
    try:
        validate_app(app)
    except ParseError as e:
        assert any(reason in str(e) for reason in _REJECTIONS), str(e)
        return
    assert parse_app(print_app(app)) == app


def _fetching_app(*stmts, latency_ms: int = 5,
                  part: UrlPart = UrlPart("literal", "http://x/")) -> App:
    """One callback: `stmts`, then a fetch of `u`, built from `part`."""
    return App("a", settings={"k": "v"}, callbacks=(Callback("c", (
        *stmts, BuildUrl("u", (part,)), NetCall("get", "u"),
    )),), netlib=(NetMethodDecl("get", latency_ms),))


@pytest.mark.parametrize("app, message", [
    (App("a", callbacks=(Callback("a b", ()),)), "not an identifier"),
    (App("a", callbacks=(Callback("c", (
        BuildUrl("u", (UrlPart("literal", "http://x/"),)), NetCall("let", "u"),
    )),), netlib=(NetMethodDecl("let", 5),)), "reserved word"),
    (App("a", callbacks=(Callback("c", (BuildUrl("u", ()),)),)),
     "url 'u' has no parts"),
    (_fetching_app(latency_ms=-5), "netmethod 'get' has a negative latency -5"),
    (_fetching_app(part=UrlPart("setting", "k")),
     "url part kind 'setting' is not literal, resource or var"),
    (_fetching_app(DefineStatic("v", "input", "k")),
     "static source kind 'input' is not literal, resource or setting"),
    (App("a", callbacks=(Callback("c", (
        BuildUrl("u", (UrlPart("literal", "http://x/"),)), NetCall("get", "u"),
    )),), netlib=(NetMethodDecl("get", 5), NetMethodDecl("get", 7))),
     "^line 0: duplicate netmethod 'get'$"),
    (App("a", callbacks=(Callback("c", ()),),
         ccfg=Ccfg(("w", "w"), (("c", "w"), ("w", "c")))),
     "^line 0: duplicate wait node 'w'$"),
    (_fetching_app(NetCall("nope", "u")),
     "^line 0: unresolved netmethod 'nope'$"),
    (_fetching_app(NetCall("get", "ghost")),
     "^line 0: unresolved url 'ghost'$"),
    (App("a", callbacks=(Callback("c", (Call("nowhere"),)),)),
     "^line 0: unresolved call target 'nowhere'$"),
    (App("a", callbacks=(Callback("c", (AsyncCall("nowhere"),)),)),
     "^line 0: unresolved call target 'nowhere'$"),
    (_fetching_app(FetchFromProxy("u", "nope")),
     "^line 0: unresolved netmethod 'nope'$"),
    (_fetching_app(FetchFromProxy("ghost", "get")),
     "^line 0: unresolved url 'ghost'$"),
    (_fetching_app(DefineStatic("v", "literal", "x"),
                   SendDefinition("v", "ghost", 1)),
     "^line 0: unresolved url 'ghost'$"),
    (_fetching_app(DefineStatic("v", "literal", "x"),
                   SendDefinition("v", "u", 2)),
     "^line 0: url 'u' has no part 2$"),
    (_fetching_app(SendDefinition("nov", "u", 1)),
     "^line 0: unresolved variable 'nov'$"),
    (_fetching_app(SendDefinition("nov", "u", 2)),
     "^line 0: url 'u' has no part 2; line 0: unresolved variable 'nov'$"),
    (_fetching_app(TriggerPrefetch(())),
     "^line 0: trigger_prefetch needs at least one url$"),
    (App("a", callbacks=(Callback("c", (Transition("nowhere"),)),)),
     "^line 0: unresolved callback 'nowhere'$"),
    (App("a", callbacks=(Callback("c", ()), Callback("w", ())),
         ccfg=Ccfg(("w",), (("c", "w"), ("w", "c")))),
     "^line 0: wait node 'w' collides with a callback or method name$"),
], ids=["space-in-callback-name", "netmethod-named-let", "url-without-parts",
        "negative-latency", "setting-url-part", "input-static-source",
        "duplicate-netmethod", "duplicate-wait-node",
        "net-call-unknown-method", "net-call-unknown-url",
        "call-unknown-target", "async-call-unknown-target",
        "proxy-fetch-unknown-method", "proxy-fetch-unknown-url",
        "send-definition-unknown-url", "send-definition-missing-part",
        "send-definition-undefined-variable",
        "send-definition-missing-part-then-variable", "empty-trigger-prefetch",
        "goto-unknown-callback", "wait-node-named-like-a-callback"])
def test_names_that_do_not_round_trip_are_rejected(app, message):
    with pytest.raises(ParseError, match=message):
        validate_app(app)


@pytest.mark.parametrize("src, message", [
    ("app g\ncallback c {\n  goto nowhere\n}\n",
     "line 3: unresolved callback 'nowhere'"),
    ("app w\ncallback c {\n}\nmethod w {\n}\n"
     "ccfg {\n  wait w\n  c -> w\n  w -> c\n}\n",
     "line 0: wait node 'w' collides with a callback or method name"),
], ids=["goto-unknown-callback", "wait-node-named-like-a-method"])
def test_parse_reports_a_goto_to_nowhere_and_a_wait_node_named_like_a_method(
        src, message):
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert str(err.value) == message


def test_parse_reports_each_unresolved_proxy_fetch_at_its_line():
    src = ('app p\nnetmethod get latency=5\ncallback c {\n'
           '  url u = "http://x/"\n  fetch_from_proxy(nope, u)\n'
           '  fetch_from_proxy(get, ghost)\n}\nccfg {\n}\n')
    with pytest.raises(ParseError) as err:
        parse_app(src)
    assert err.value.diagnostics == [(5, "unresolved netmethod 'nope'"),
                                     (6, "unresolved url 'ghost'")]


def test_round_trip_instrumented(weather_pipeline):
    ia = weather_pipeline.ia
    assert parse_app(print_app(ia.app)) == ia.app


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_instrumented_apps(seed):
    from fetchahead.callback_analysis import FetchSignature, identify_trigger_callbacks
    from fetchahead.instrumenter import instrument
    from fetchahead.string_analysis import analyze_urls

    app, _, _ = make_app(random.Random(seed))
    ia = instrument(
        app, analyze_urls(app),
        identify_trigger_callbacks(app, build_ecg(app),
                                   FetchSignature("fetch")),
        FetchSignature("fetch"),
    )
    assert parse_app(print_app(ia.app)) == ia.app


def test_ecg_direct_and_framework_edges():
    src = """
app g
netmethod get latency=5
callback onClick {
  call doFetch
  asynccall worker
}
method doFetch {
  url u = "x"
  get(u)
}
method worker {
}
ccfg {
}
"""
    app = parse_app(src)
    assert build_ecg(app) == {"doFetch": ["onClick"], "worker": ["onClick"]}


def test_ecg_no_calls_is_edgeless(weather_app):
    assert build_ecg(weather_app) == {}


def test_ecg_deterministic():
    rng = random.Random(7)
    app, _, _ = make_app(rng)
    first = build_ecg(app)
    assert all(build_ecg(app) == first for _ in range(3))


def test_every_netcall_has_one_url_spot():
    for seed in range(40):
        app, _, _ = make_app(random.Random(seed))
        spots = app.index.url_spots
        for _, body in app.containers():
            for stmt in body:
                if isinstance(stmt, NetCall):
                    assert stmt.url_id in spots
