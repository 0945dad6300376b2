"""The benchmark's tracer reaches lgnet functions by module and attribute name.

A rename or a moved import would leave ``perfbench/tracing.py`` wrapping
nothing, or fail only inside a traced benchmark run. These checks read the
tracer's tables and resolve every site against the current package.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from source, so no bytecode cache is written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
FUNCTION_SITES = sorted({site for sites, _ in tracing.FUNCTIONS.values() for site in sites})


@pytest.mark.parametrize("module_name, attr", FUNCTION_SITES, ids=[".".join(s) for s in FUNCTION_SITES])
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, cls_name, attr", sorted(tracing.METHODS.values()),
                         ids=[".".join(s) for s in sorted(tracing.METHODS.values())])
def test_traced_method_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    # the tracer replaces the attribute in the class's own namespace
    assert attr in cls.__dict__
