"""Every function the benchmark's traced run wraps still exists in pitkit.

The traced run looks each target up by name when it installs its wrappers,
so a renamed or deleted target would only fail inside a full benchmark run.
This resolves the same names without running a workload.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: t.name)
def test_traced_target_resolves(target):
    home = importlib.import_module(f"pitkit.{target.module}")
    head, _, method = target.attr.partition(".")
    obj = getattr(home, head)
    if inspect.isclass(obj):
        # the tracer wraps the method (or __init__) defined on the class itself
        assert callable(obj.__dict__[method or "__init__"])
    else:
        assert not method
        assert callable(obj)
