"""Tiny-size runs of every workload: each named metric is emitted, no call
fails, and the same seed gives the same exact counts."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload(name, tmp_path):
    plain = run.run_workload(name, 7, 0, trace=False, tiny=True, workdir=tmp_path / "a")
    assert plain.correct and plain.failed == 0 and plain.record["fail_rate"] == 0
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == {
        (k, unit) for k, (_, unit) in plain.metrics.items()
    }

    traced = [
        run.run_workload(name, 7, 0, trace=True, tiny=True, workdir=tmp_path / d)
        for d in ("b", "c")
    ]
    for result in traced:
        assert result.correct and result.failed == 0
        assert list(result.metrics) == [m["name"] for m in SPEC["per_layer"]]
        assert result.record["points_total"] == plain.metrics["points_total"][0]
        assert result.record["points_max"] == plain.metrics["points_max"][0]
    exact = [
        {k: v for k, (v, unit) in r.metrics.items() if unit in ("count", "bytes")}
        for r in traced
    ]
    assert exact[0] == exact[1]
    assert any(v for v in exact[0].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_values_not_shape(name, tmp_path):
    import workloads

    built = [workloads.build(name, seed, tmp_path / str(seed), tiny=True) for seed in (7, 8)]
    assert built[0].strata == built[1].strata and built[0].cases == built[1].cases
    assert [c.argv[:2] for c in built[0].calls] == [c.argv[:2] for c in built[1].calls]
    circuits = [
        [Path(c.argv[c.argv.index("--input") + 1]).read_text() for c in b.calls]
        for b in built
    ]
    assert circuits[0] != circuits[1]
