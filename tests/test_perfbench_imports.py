"""The benchmark (`perfbench/`) imports names from `fetchahead` inside its
functions, so a renamed or deleted name breaks only a benchmark run.
Every `from fetchahead... import name` in `perfbench/*.py` must resolve."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "fetchahead"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = sorted(set(_imports()))


def test_perfbench_imports_from_fetchahead():
    assert any(name == "trace_to_json_obj" for _, _, name in IMPORTS)


@pytest.mark.parametrize("file, module, name", IMPORTS,
                         ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS])
def test_perfbench_import_resolves(file, module, name):
    assert hasattr(importlib.import_module(module), name)
