"""Every function the benchmark's traced run wraps still exists in pitkit,
and the CLI calls all but a pinned few of them.

The traced run looks each target up by name when it installs its wrappers,
so a renamed or deleted target would only fail inside a full benchmark run.
This resolves the same names without running a workload.  A target that
still exists but that production no longer calls reads 0 in every traced
pass; one tiny pass of each workload finds those.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# targets no workload's CLI calls reach; a change that stops calling one
# more, or starts calling one of these, moves it here or out of here
UNREACHED = {
    "algebra.MatPoly.__mul__",
    "algebra.RowSpan.add",
    "algebra.mat_mul",
    "concentrate.LagrangeCurve.eval_at",
    "depth3.Depth3Circuit.eval_at",
    "isolate.construct_isolating_weights",
    "isolate.greedy_basis",
    "kron.PairSet",
    "kron.separating_weights",
    "roabp.Roabp.expand",
    "verify.oracle_is_zero",
}


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


def test_workloads_reach_all_but_the_pinned_targets(tmp_path):
    tracer = Tracer(layers.TARGETS)
    for name in run.WORKLOADS:
        workload = workloads.build(name, 7, tmp_path / name, tiny=True)
        with tracer:
            result = run.run_pass(workload, tracer)
        assert not result.failures, name
    assert {t.name for t in layers.TARGETS if not tracer.calls[t.name]} == UNREACHED
