"""The traced benchmark pass names its spans by (module, attribute) in
``bench/tracing.py``; every such target must still exist in the package."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    # executed from its source text, so nothing is written under bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


TARGETS = _tracing_module().TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}:{t[1]}" for t in TARGETS]
)
def test_trace_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))

