"""The traced benchmark (`perfbench/spans.py`) wraps names it looks up by
module and attribute, such as `fetchahead.cli.compute_oracle`; a rename
or a moved import would break its traced run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("path, attr", [(p, a) for p, a, _ in spans.WRAPPED])
def test_wrapped_name_resolves(path, attr):
    assert callable(getattr(spans._resolve(path), attr))
