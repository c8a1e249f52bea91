import json
import random
from dataclasses import replace

import pytest

from appgen import make_app
from fetchahead.app_ir import (
    AsyncCall, Call, Ccfg, NetCall, build_ecg, parse_app, print_app,
)
from fetchahead.callback_analysis import (
    FetchSignature,
    heuristic_fetch_signature,
    identify_trigger_callbacks,
    profile_fetch_signature,
    trigger_map_from_json_obj,
    trigger_map_to_json_obj,
)
from fetchahead.cli import main
from fetchahead.errors import AnalysisError
from fetchahead.runtime import NetModel, Trace, TraceStep, trace_to_json_obj


def _profiling_app():
    return parse_app("""
app prof
netmethod open latency=5
netmethod read latency=800
callback main {
  url u = "http://x/"
  open(u)
  read(u)
}
ccfg {
}
""")


def test_profile_picks_most_time_consuming():
    app = _profiling_app()
    trace = Trace((TraceStep("main", 0, {}),))
    sig = profile_fetch_signature(app, trace, NetModel())
    # derived oracle: cumulative times are open=5, read=800
    assert sig == FetchSignature("read")


def test_profile_single_method(weather_app, weather_trace, weather_net):
    sig = profile_fetch_signature(weather_app, weather_trace, weather_net)
    assert sig.net_method == "getInputStream"


def test_profile_tie_breaks_lexicographically():
    app = parse_app("""
app tie
netmethod beta latency=100
netmethod alpha latency=50
callback main {
  url u = "http://x/"
  beta(u)
  alpha(u)
  alpha(u)
}
ccfg {
}
""")
    trace = Trace((TraceStep("main", 0, {}),))
    # both methods accumulate 100ms
    assert profile_fetch_signature(app, trace, NetModel()) == FetchSignature("alpha")


def test_profile_nothing_to_profile():
    app = parse_app("""
app idle
netmethod get latency=5
callback quiet {
  let x = "y"
}
callback fetcher {
  url u = "http://x/"
  get(u)
}
ccfg {
  wait w
  quiet -> w
  w -> fetcher
}
""")
    trace = Trace((TraceStep("quiet", 0, {}),))
    with pytest.raises(AnalysisError, match="nothing to profile"):
        profile_fetch_signature(app, trace, NetModel())


def test_heuristic_signature_max_declared_latency():
    app = _profiling_app()
    assert heuristic_fetch_signature(app) == FetchSignature("read")


def test_heuristic_signature_needs_a_net_method():
    app = parse_app("app bare\ncallback c {\n}\nccfg {\n}\n")
    with pytest.raises(AnalysisError, match="^app declares no net methods$"):
        heuristic_fetch_signature(app)


def _analyze_instrumented(tmp_path, pipeline, *flags) -> int:
    """`analyze` of the pipeline's instrumented app: profiling and trigger
    analysis trust their app, so the command rejects it as it reads it."""
    (tmp_path / "optimized.papp").write_text(print_app(pipeline.ia.app))
    return main(["analyze", str(tmp_path / "optimized.papp"), *flags,
                 "--urlmap-out", str(tmp_path / "urlmap.json"),
                 "--triggermap-out", str(tmp_path / "triggermap.json")])


def test_profiling_rejects_an_instrumented_app(weather_pipeline, weather_trace,
                                               tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(trace_to_json_obj(weather_trace)))
    assert _analyze_instrumented(tmp_path, weather_pipeline,
                                 "--trace", str(trace)) == 2
    assert capsys.readouterr().err == "error: app is already instrumented\n"
    assert not (tmp_path / "urlmap.json").exists()


def test_weather_trigger_map(weather_pipeline):
    trigger_map = weather_pipeline.trigger_map
    assert trigger_map.entries == {
        "onCreate": ("url1", "url2", "url3"),
        "onItemSelected": ("url1", "url2", "url3"),
    }


def test_no_wait_node_means_no_trigger(weather_pipeline):
    # onClick -> DisplayActivity.onCreate has no wait node between them,
    # so onClick never becomes a trigger for anything.
    trigger_map = weather_pipeline.trigger_map
    assert "onClick" not in trigger_map.entries


def test_helper_reached_from_two_callbacks():
    app = parse_app("""
app h
netmethod get latency=10
callback a {
}
callback b {
  call shared
}
callback c {
  call shared
}
method shared {
  url u = "http://x/"
  get(u)
}
ccfg {
  wait w1
  wait w2
  a -> w1
  w1 -> b
  b -> w2
  w2 -> c
  c -> w2
}
""")
    tm = identify_trigger_callbacks(app, build_ecg(app), FetchSignature("get"))
    # brute-force oracle over the 5-node fixture: target callbacks of
    # `shared` are b and c; wait-separated predecessors: a -> w1 -> b,
    # b -> w2 -> c, c -> w2 -> c.
    assert tm.entries == {"a": ("u",), "b": ("u",), "c": ("u",)}


def test_fetch_reached_through_helper_chain():
    app = parse_app("""
app chainy
netmethod get latency=10
callback home {
}
callback screen {
  call outer
}
method outer {
  call inner
}
method inner {
  url u = "http://x/"
  get(u)
}
ccfg {
  wait w
  home -> w
  w -> screen
}
""")
    tm = identify_trigger_callbacks(
        app, build_ecg(app), FetchSignature("get")
    )
    assert tm.entries == {"home": ("u",)}


def test_target_method_that_is_callback_is_its_own_target():
    app = parse_app("""
app t
netmethod get latency=10
callback first {
}
callback fetcher {
  url u = "http://x/"
  get(u)
}
ccfg {
  wait w
  first -> w
  w -> fetcher
}
""")
    tm = identify_trigger_callbacks(
        app, build_ecg(app), FetchSignature("get")
    )
    assert tm.entries == {"first": ("u",)}


def test_self_trigger_through_wait_loop():
    app = parse_app("""
app loop
netmethod get latency=10
callback pager {
  url u = "http://x/page"
  get(u)
}
ccfg {
  wait w
  pager -> w
  w -> pager
}
""")
    tm = identify_trigger_callbacks(
        app, build_ecg(app), FetchSignature("get")
    )
    assert tm.entries == {"pager": ("u",)}


def test_direct_predecessor_of_target_excluded():
    # `menu` reaches `viewer` both directly (goto-style edge) and through
    # a wait node; only the wait-separated path makes it a trigger, and
    # `splash` (direct edge only) is never one.
    app = parse_app("""
app direct
netmethod get latency=10
callback splash {
  goto viewer
}
callback menu {
}
callback viewer {
  url u = "http://x/"
  get(u)
}
ccfg {
  wait w
  menu -> w
  w -> viewer
  splash -> viewer
  menu -> viewer
}
""")
    tm = identify_trigger_callbacks(
        app, build_ecg(app), FetchSignature("get")
    )
    assert tm.entries == {"menu": ("u",)}


def test_two_chained_wait_nodes_do_not_trigger():
    app = parse_app("""
app chain
netmethod get latency=10
callback a {
}
callback b {
  url u = "http://x/"
  get(u)
}
ccfg {
  wait w1
  wait w2
  a -> w1
  w1 -> b
  a -> w2
  w2 -> w1
}
""")
    tm = identify_trigger_callbacks(
        app, build_ecg(app), FetchSignature("get")
    )
    # only the length-2 path a -> w1 -> b counts; a -> w2 -> w1 -> b does not
    assert tm.entries == {"a": ("u",)}


def test_trigger_paths_have_length_two(weather_app, weather_pipeline):
    app, trigger_map = weather_app, weather_pipeline.trigger_map
    waits = set(app.ccfg.wait_nodes)
    targets = {"onClick"}
    for trigger in trigger_map.entries:
        assert any(
            w in waits and t in app.ccfg.successors(w)
            for w in app.ccfg.successors(trigger)
            for t in targets
        )


def _trigger_pairs_by_search(app, method):
    """Every (trigger, url id) with ccfg edges trigger -> wait node -> c,
    where callback c reaches a `method` fetch of the url through call and
    asynccall statements; found by breadth-first search over the
    app's own edges and bodies, not its program index."""
    bodies = {c.name: c.body for c in app.callbacks + app.methods}
    callbacks = {c.name for c in app.callbacks}
    waits = set(app.ccfg.wait_nodes)
    successors = {}
    for a, b in app.ccfg.edges:
        successors.setdefault(a, []).append(b)

    def fetched_from(start):
        seen, queue, urls = {start}, [start], set()
        for name in queue:
            for st in bodies.get(name, ()):
                if isinstance(st, NetCall) and st.method == method:
                    urls.add(st.url_id)
                elif isinstance(st, (Call, AsyncCall)) and st.target not in seen:
                    seen.add(st.target)
                    queue.append(st.target)
        return urls

    return {
        (trigger, url_id)
        for trigger in callbacks
        for w in successors.get(trigger, ()) if w in waits
        for target in successors.get(w, ()) if target in callbacks
        for url_id in fetched_from(target)
    }


def test_trigger_pairs_are_real_on_random_apps():
    """Both ways: every pair in the trigger map has a trigger -> wait ->
    fetching callback path, and every such path is in the map."""
    for seed in range(300):
        app, _, _ = make_app(random.Random(seed))
        tm = identify_trigger_callbacks(app, build_ecg(app), FetchSignature("fetch"))
        pairs = {(t, u) for t, urls in tm.entries.items() for u in urls}
        assert pairs == _trigger_pairs_by_search(app, "fetch"), seed


def test_monotonic_under_added_ccfg_edge(weather_app, weather_pipeline):
    sig, before = weather_pipeline.sig, weather_pipeline.trigger_map
    extended = Ccfg(
        weather_app.ccfg.wait_nodes,
        weather_app.ccfg.edges + (("DisplayActivity.onCreate", "wn1"),),
    )
    app = replace(weather_app, ccfg=extended)
    after = identify_trigger_callbacks(app, build_ecg(app), sig)
    for callback, urls in before.entries.items():
        assert set(urls) <= set(after.entries[callback])
    assert "DisplayActivity.onCreate" in after.entries


def test_url_order_follows_fetch_spot_program_order(weather_pipeline):
    trigger_map = weather_pipeline.trigger_map
    assert trigger_map.entries["onCreate"] == ("url1", "url2", "url3")


def test_trigger_map_json_round_trip(weather_pipeline):
    tm = weather_pipeline.trigger_map
    assert trigger_map_from_json_obj(trigger_map_to_json_obj(tm)) == tm


def test_analysis_rejects_instrumented_app(weather_pipeline, tmp_path, capsys):
    assert _analyze_instrumented(tmp_path, weather_pipeline) == 2
    assert capsys.readouterr().err == "error: app is already instrumented\n"
    assert not (tmp_path / "urlmap.json").exists()
    assert not (tmp_path / "triggermap.json").exists()
