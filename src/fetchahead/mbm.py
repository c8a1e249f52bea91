"""Prefetchability microbenchmark: 25 canonical cases.

Whether a request is prefetchable is driven by three factors: how many
dynamic values its URL has (k, here 0..2), how many definition spots each
dynamic value has (d_i, here 1..2), and whether each spot sits before or
after the trigger point. With M the spots before the trigger point and N
the spots after it (inside the target callback):

    prefetchable        every dynamic value has a spot in M
    hit                 prefetchable and every spot is in M
    non-hit             prefetchable and some spot is in N
    non-prefetchable    some dynamic value has all spots in N

Case 0 is the all-static URL. Cases 1..24 cover the dynamic
configurations: 1-5 a single dynamic value, 6-9 two values with one spot
each, 10-15 one value with one spot and one with two, 16-24 two values
with two spots each. For a value with two spots, the spot before the
trigger point is its first definition in program order. Each generated
app gives every definition spot a distinct value, so a redefinition after
the trigger point provably demands a different URL than was prefetched.

This module generates the cases and scores each from its two run logs;
`cli.run_benchmark` runs them through the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .app_ir import (
    App,
    BuildUrl,
    Callback,
    Ccfg,
    DefineDynamic,
    NetCall,
    NetMethodDecl,
    UrlPart,
)
from .errors import FetchaheadError
from .runtime import NetModel, RunLog, Trace, TraceStep

BEFORE = "before"
AFTER = "after"


class Prefetchability(Enum):
    HIT = "hit"
    NON_HIT = "non_hit"
    NON_PREFETCHABLE = "non_prefetchable"


@dataclass(frozen=True)
class CaseConfig:
    """Per dynamic value, the placement of each of its definition spots
    relative to the trigger point, in spot order."""

    placements: tuple[tuple[str, ...], ...]

    @property
    def k(self) -> int:
        return len(self.placements)

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.placements)


def classify(cfg: CaseConfig) -> Prefetchability:
    """Apply the formal taxonomy to a configuration. k=0 is a hit."""
    if cfg.k == 0:
        return Prefetchability.HIT
    prefetchable = all(BEFORE in spots for spots in cfg.placements)
    if not prefetchable:
        return Prefetchability.NON_PREFETCHABLE
    if any(AFTER in spots for spots in cfg.placements):
        return Prefetchability.NON_HIT
    return Prefetchability.HIT


_B = (BEFORE,)
_A = (AFTER,)
_BB = (BEFORE, BEFORE)
_BA = (BEFORE, AFTER)
_AA = (AFTER, AFTER)

# Case layout. The group boundaries (1-5, 6-9, 10-15, 16-24) and the
# labels of cases 1, 2, 3, 6, 10, 13, 16 are fixed; the remaining slots
# follow a systematic placement enumeration within each group.
CASE_CONFIGS: dict[int, CaseConfig] = {
    0: CaseConfig(()),
    # one dynamic value
    1: CaseConfig((_B,)),
    2: CaseConfig((_A,)),
    3: CaseConfig((_BB,)),
    4: CaseConfig((_BA,)),
    5: CaseConfig((_AA,)),
    # two dynamic values, one spot each
    6: CaseConfig((_B, _B)),
    7: CaseConfig((_B, _A)),
    8: CaseConfig((_A, _B)),
    9: CaseConfig((_A, _A)),
    # two dynamic values, one spot and two spots
    10: CaseConfig((_B, _BB)),
    11: CaseConfig((_A, _BB)),
    12: CaseConfig((_A, _BA)),
    13: CaseConfig((_B, _BA)),
    14: CaseConfig((_B, _AA)),
    15: CaseConfig((_A, _AA)),
    # two dynamic values, two spots each
    16: CaseConfig((_BB, _BB)),
    17: CaseConfig((_BB, _BA)),
    18: CaseConfig((_BB, _AA)),
    19: CaseConfig((_BA, _BB)),
    20: CaseConfig((_BA, _BA)),
    21: CaseConfig((_BA, _AA)),
    22: CaseConfig((_AA, _BB)),
    23: CaseConfig((_AA, _BA)),
    24: CaseConfig((_AA, _AA)),
}

FIG4_LABELS: dict[int, Prefetchability] = {
    0: Prefetchability.HIT,
    1: Prefetchability.HIT,
    2: Prefetchability.NON_PREFETCHABLE,
    3: Prefetchability.HIT,
    4: Prefetchability.NON_HIT,
    5: Prefetchability.NON_PREFETCHABLE,
    6: Prefetchability.HIT,
    7: Prefetchability.NON_PREFETCHABLE,
    8: Prefetchability.NON_PREFETCHABLE,
    9: Prefetchability.NON_PREFETCHABLE,
    10: Prefetchability.HIT,
    11: Prefetchability.NON_PREFETCHABLE,
    12: Prefetchability.NON_PREFETCHABLE,
    13: Prefetchability.NON_HIT,
    14: Prefetchability.NON_PREFETCHABLE,
    15: Prefetchability.NON_PREFETCHABLE,
    16: Prefetchability.HIT,
    17: Prefetchability.NON_HIT,
    18: Prefetchability.NON_PREFETCHABLE,
    19: Prefetchability.NON_HIT,
    20: Prefetchability.NON_HIT,
    21: Prefetchability.NON_PREFETCHABLE,
    22: Prefetchability.NON_PREFETCHABLE,
    23: Prefetchability.NON_PREFETCHABLE,
    24: Prefetchability.NON_PREFETCHABLE,
}

HIT_CASES = (0, 1, 3, 6, 10, 16)

ALL_CASES = tuple(range(25))


def generate_case(
    case_id: int, latency_ms: int = 1000, think_ms: int = 2000
) -> tuple[App, Trace, NetModel, Prefetchability]:
    """Minimal app, trace, and net model realizing one benchmark case.

    The app has one URL demanded in `show` (the target callback) and a
    trigger callback `prepare` one wait node upstream. Spots placed
    before the trigger point sit in `prepare`; spots after it sit in
    `show`, ahead of the fetch.
    """
    if case_id not in CASE_CONFIGS:
        raise FetchaheadError(f"unknown benchmark case {case_id}")
    cfg = CASE_CONFIGS[case_id]
    prepare_body = []
    show_body = []
    prepare_inputs: dict[str, str] = {}
    show_inputs: dict[str, str] = {}
    for i, spots in enumerate(cfg.placements, start=1):
        for j, placement in enumerate(spots, start=1):
            tag = f"in{i}_{j}"
            value = f"v{i}{j}"
            stmt = DefineDynamic(f"v{i}", tag)
            if placement == BEFORE:
                prepare_body.append(stmt)
                prepare_inputs[tag] = value
            else:
                show_body.append(stmt)
                show_inputs[tag] = value
    parts = [UrlPart("literal", f"http://bench.example/c{case_id}?q=")]
    parts += [UrlPart("var", f"v{i}") for i in range(1, cfg.k + 1)]
    show_body.append(BuildUrl("u", tuple(parts)))
    show_body.append(NetCall("fetch", "u"))
    app = App(
        name=f"case{case_id}",
        callbacks=(
            Callback("prepare", tuple(prepare_body)),
            Callback("show", tuple(show_body)),
        ),
        ccfg=Ccfg(("w0",), (("prepare", "w0"), ("w0", "show"))),
        netlib=(NetMethodDecl("fetch", latency_ms),),
    )
    trace = Trace((
        TraceStep("prepare", 0, prepare_inputs),
        TraceStep("show", think_ms, show_inputs),
    ))
    return app, trace, NetModel(), FIG4_LABELS[case_id]


def observed_outcome(opt_log: RunLog, url_id: str = "u") -> Prefetchability:
    """Classify what actually happened to a URL in an optimized run."""
    demands = [d for d in opt_log.demands() if d.url_id == url_id]
    if not demands:
        raise FetchaheadError(f"url '{url_id}' was never demanded")
    if any(d.served_from in ("cache", "waited") for d in demands):
        return Prefetchability.HIT
    if any(p.url_id == url_id for p in opt_log.prefetches()):
        return Prefetchability.NON_HIT
    return Prefetchability.NON_PREFETCHABLE


@dataclass
class CaseResult:
    case_id: int
    sd_ms: int
    tp_ms: int
    ffp_ms: int
    orig_ms: int
    opt_ms: int
    reduction_pct: float
    expected: Prefetchability
    observed: Prefetchability

    def to_json_obj(self) -> dict:
        return {
            "case": self.case_id,
            "sd_ms": self.sd_ms,
            "tp_ms": self.tp_ms,
            "ffp_ms": self.ffp_ms,
            "orig_ms": self.orig_ms,
            "opt_ms": self.opt_ms,
            "reduction_pct": self.reduction_pct,
            "expected": self.expected.value,
            "observed": self.observed.value,
        }


@dataclass
class BenchReport:
    latency_ms: int
    think_ms: int
    rows: list[CaseResult]
    precision: float
    recall: float

    def to_json_obj(self) -> dict:
        return {
            "latency_ms": self.latency_ms,
            "think_ms": self.think_ms,
            "rows": [r.to_json_obj() for r in self.rows],
            "accuracy": {"precision": self.precision, "recall": self.recall},
        }

    def to_tsv(self) -> str:
        header = "Case\tSD\tTP\tFFP\tOrig\tOpt\tRed/OH\tExpected\tObserved"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.case_id}\t{r.sd_ms}\t{r.tp_ms}\t{r.ffp_ms}\t{r.orig_ms}"
                f"\t{r.opt_ms}\t{r.reduction_pct:.2f}%"
                f"\t{r.expected.value}\t{r.observed.value}"
            )
        return "\n".join(lines) + "\n"


def score_case(case_id: int, base: RunLog, opt: RunLog) -> CaseResult:
    """One report row from a case's baseline and optimized run logs."""
    orig_ms = next(d for d in base.demands() if d.url_id == "u").response_time_ms
    opt_ms = next(d for d in opt.demands() if d.url_id == "u").response_time_ms
    overhead = opt.total_overhead_ms()
    reduction = ((orig_ms - opt_ms - overhead) / orig_ms * 100.0) if orig_ms else 0.0
    return CaseResult(
        case_id=case_id,
        sd_ms=opt.overhead_ms["send_definition"],
        tp_ms=opt.overhead_ms["trigger_prefetch"],
        ffp_ms=opt.overhead_ms["fetch_from_proxy"],
        orig_ms=orig_ms,
        opt_ms=opt_ms,
        reduction_pct=reduction,
        expected=FIG4_LABELS[case_id],
        observed=observed_outcome(opt),
    )
