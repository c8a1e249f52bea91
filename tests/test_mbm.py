import itertools

import pytest

from fetchahead.cli import run_benchmark
from fetchahead.errors import FetchaheadError
from fetchahead.mbm import (
    AFTER,
    ALL_CASES,
    BEFORE,
    CASE_CONFIGS,
    FIG4_LABELS,
    HIT_CASES,
    CaseConfig,
    Prefetchability,
    classify,
    generate_case,
    observed_outcome,
)


def oracle_classify(cfg: CaseConfig) -> Prefetchability:
    """Brute-force restatement of the formal definitions, evaluated
    directly from the quantifiers."""
    if cfg.k == 0:
        return Prefetchability.HIT
    before = {
        (i, j)
        for i, spots in enumerate(cfg.placements)
        for j, p in enumerate(spots)
        if p == BEFORE
    }
    after = {
        (i, j)
        for i, spots in enumerate(cfg.placements)
        for j, p in enumerate(spots)
        if p == AFTER
    }
    prefetchable = all(
        any((i, j) in before for j in range(len(cfg.placements[i])))
        for i in range(cfg.k)
    )
    if not prefetchable:
        return Prefetchability.NON_PREFETCHABLE
    if after:
        return Prefetchability.NON_HIT
    return Prefetchability.HIT


def test_pinned_labels():
    assert FIG4_LABELS[1] is Prefetchability.HIT
    assert FIG4_LABELS[2] is Prefetchability.NON_PREFETCHABLE
    assert FIG4_LABELS[13] is Prefetchability.NON_HIT
    assert FIG4_LABELS[16] is Prefetchability.HIT


def test_classify_matches_frozen_labels():
    for case_id in ALL_CASES:
        assert classify(CASE_CONFIGS[case_id]) is FIG4_LABELS[case_id], case_id


def test_classify_matches_brute_force_oracle_exhaustively():
    # every configuration with k <= 2 and d_i <= 2, not just the 24 drawn
    options1 = [(BEFORE,), (AFTER,)]
    options2 = [p for p in itertools.product((BEFORE, AFTER), repeat=2)]
    all_value_shapes = options1 + options2
    configs = [CaseConfig(())]
    configs += [CaseConfig((a,)) for a in all_value_shapes]
    configs += [
        CaseConfig((a, b))
        for a in all_value_shapes
        for b in all_value_shapes
    ]
    for cfg in configs:
        assert classify(cfg) is oracle_classify(cfg), cfg


def test_classify_symmetric_under_value_swap():
    # which value is "first" never matters, only spot placement
    shapes = [(BEFORE,), (AFTER,), (BEFORE, BEFORE), (BEFORE, AFTER),
              (AFTER, AFTER)]
    for a in shapes:
        for b in shapes:
            assert classify(CaseConfig((a, b))) is classify(CaseConfig((b, a)))


def test_hit_set():
    hits = {c for c in ALL_CASES if FIG4_LABELS[c] is Prefetchability.HIT}
    assert hits == set(HIT_CASES) == {0, 1, 3, 6, 10, 16}


def test_case_configs_distinct_and_grouped():
    seen = set()
    for case_id in range(1, 25):
        cfg = CASE_CONFIGS[case_id]
        assert cfg.placements not in seen
        seen.add(cfg.placements)
        if case_id <= 5:
            assert cfg.k == 1
        elif case_id <= 9:
            assert cfg.d == (1, 1)
        elif case_id <= 15:
            assert sorted(cfg.d) == [1, 2]
        else:
            assert cfg.d == (2, 2)


def test_case_configs_cover_all_placement_patterns():
    def multiset(spots):
        return tuple(sorted(spots))

    one_value = {CASE_CONFIGS[c].placements[0] for c in range(1, 6)}
    assert one_value == {(BEFORE,), (AFTER,), (BEFORE, BEFORE),
                         (BEFORE, AFTER), (AFTER, AFTER)}
    pairs_11 = {CASE_CONFIGS[c].placements for c in range(6, 10)}
    assert pairs_11 == set(itertools.product(
        [(BEFORE,), (AFTER,)], repeat=2,
    ))
    mixed = {
        (CASE_CONFIGS[c].placements[0], multiset(CASE_CONFIGS[c].placements[1]))
        for c in range(10, 16)
    }
    assert mixed == set(itertools.product(
        [(BEFORE,), (AFTER,)],
        [("after", "after"), ("after", "before"), ("before", "before")],
    ))
    two_two = {
        tuple(multiset(s) for s in CASE_CONFIGS[c].placements)
        for c in range(16, 25)
    }
    assert len(two_two) == 9


def test_generate_case_structure():
    app, trace, _, expected = generate_case(1)
    assert expected is Prefetchability.HIT
    assert app.callback_names == ["prepare", "show"]
    assert app.ccfg.edges == (("prepare", "w0"), ("w0", "show"))
    assert trace.steps[0].event == "prepare"
    assert trace.steps[1].event == "show"


def test_generate_case_0_all_static():
    app, _, _, expected = generate_case(0)
    assert expected is Prefetchability.HIT
    spot = app.index.url_spots["u"][2]
    assert all(p.kind == "literal" for p in spot.parts)


def test_generate_case_after_spots_use_distinct_values():
    # case 4: before-value v11, after-value v12; a stale prefetch misses
    _, trace, _, _ = generate_case(4)
    assert trace.steps[0].inputs == {"in1_1": "v11"}
    assert trace.steps[1].inputs == {"in1_2": "v12"}


def test_generate_case_rejects_bad_id():
    with pytest.raises(FetchaheadError):
        generate_case(25)


def test_generated_cases_reclassify_to_their_labels():
    for case_id in ALL_CASES:
        _, _, _, expected = generate_case(case_id)
        assert classify(CASE_CONFIGS[case_id]) is expected


@pytest.mark.parametrize("think_ms", [0, 300, 2000])
def test_simulated_outcome_matches_classification(think_ms):
    # waited demands count as hits, so the label holds for any think time
    for row in run_benchmark(1000, think_ms).rows:
        assert row.observed is FIG4_LABELS[row.case_id], (row.case_id, think_ms)


def test_benchmark_report_contents():
    report = run_benchmark(1000, 2000)
    assert len(report.rows) == 25
    assert report.accuracy.precision == 1.0
    assert report.accuracy.recall == 1.0
    for row in report.rows:
        assert row.expected is row.observed
        assert row.orig_ms == 1000
        if row.case_id in HIT_CASES:
            assert row.reduction_pct == 100.0
            assert row.opt_ms == 0
        else:
            assert row.reduction_pct == 0.0
            assert row.opt_ms == 1000
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].split("\t") == [
        "Case", "SD", "TP", "FFP", "Orig", "Opt", "Red/OH",
        "Expected", "Observed",
    ]
    assert len(tsv.strip().splitlines()) == 26


def test_benchmark_rejects_nonpositive_latency():
    with pytest.raises(FetchaheadError):
        run_benchmark(0, 100)


def test_observed_outcome_requires_a_demand():
    from fetchahead.runtime import RunLog

    with pytest.raises(FetchaheadError):
        observed_outcome(RunLog("x", True, [], 0, {}))
