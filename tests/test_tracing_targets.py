"""The benchmark's tracer wraps toursid functions by name (`TARGETS` in
`perfbench/tracing.py`). `perfbench/` lies outside the test paths, so this
checks here that every name it wraps still exists, without wrapping any."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t.module}:{t.attr}")
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        # the tracer replaces the method in the class's own namespace
        cls_name, meth = target.attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, target.attr))
