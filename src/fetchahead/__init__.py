"""Static-analysis-driven HTTP prefetching for event-driven app models.

The pipeline: parse a declarative app, analyze its URL strings and
callback flow to decide what to prefetch and when, rewrite the app with
proxy calls, then execute it on a deterministic virtual clock against a
simulated origin server and measure what prefetching bought.
"""

from .app_ir import App, Ccfg, build_ecg, parse_app, print_app, validate_app
from .callback_analysis import (
    FetchSignature,
    TriggerMap,
    identify_trigger_callbacks,
    profile_fetch_signature,
)
from .errors import (
    AnalysisError,
    FetchaheadError,
    InstrumentError,
    MetricsError,
    ParseError,
    RunError,
)
from .instrumenter import Hints, InstrumentedApp, instrument
from .cli import Pipeline, run_benchmark, run_pipeline
from .mbm import Prefetchability, classify, generate_case
from .metrics import compute_accuracy, compute_effectiveness, compute_oracle
from .runtime import NetModel, RunLog, Trace, TraceStep, run_trace
from .string_analysis import UrlMap, analyze_urls, static_value_of

__version__ = "0.1.0"

__all__ = [
    "App", "Ccfg", "build_ecg", "parse_app", "print_app", "validate_app",
    "FetchSignature", "TriggerMap", "identify_trigger_callbacks",
    "profile_fetch_signature",
    "AnalysisError", "FetchaheadError", "InstrumentError", "MetricsError",
    "ParseError", "RunError",
    "Hints", "InstrumentedApp", "instrument",
    "Pipeline", "run_benchmark", "run_pipeline",
    "Prefetchability", "classify", "generate_case",
    "compute_accuracy", "compute_effectiveness", "compute_oracle",
    "NetModel", "RunLog", "Trace", "TraceStep", "run_trace",
    "UrlMap", "analyze_urls", "static_value_of",
    "__version__",
]
