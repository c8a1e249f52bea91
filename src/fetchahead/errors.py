"""Shared exception types. The CLI maps any of these to exit code 2."""


class FetchaheadError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FetchaheadError):
    """Source failed to parse or validate.

    Carries one (line, message) diagnostic per problem found; line 0 means
    the problem is not tied to a single source line (e.g. an App built
    programmatically).
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        text = "; ".join(f"line {ln}: {msg}" for ln, msg in self.diagnostics)
        super().__init__(text or "parse error")


class AnalysisError(FetchaheadError):
    """Static analysis cannot produce a result (e.g. missing resource key)."""


class InstrumentError(FetchaheadError):
    """Invalid instrumentation input (e.g. a hint naming an unknown URL)."""


class RunError(FetchaheadError):
    """Trace execution failed (invalid trace step, missing input, ...)."""


class MetricsError(FetchaheadError):
    """Metric computation over inconsistent inputs (mismatched run logs)."""
