"""Which pitkit functions the traced run wraps, and the per-layer metrics
computed from its spans, counters and the CLI output.

Hot functions are aggregated without spans (``agg``, or ``leaf`` for
kernels that call no other target).  ``algebra.mat_mul`` keeps only its
exact call count (``count``) and no time: it costs about a microsecond per
call, so a timer around it would inflate the traced pass by more than the
kernel's own cost.
"""

from __future__ import annotations

from tracer import Target, Tracer


def _pointset(tracer: Tracer, args, kwargs, result) -> None:
    points = args[0].points
    tracer.counts["roabp.PointSet.points"] += len(points)
    tracer.counts["roabp.PointSet.distinct"] += len(set(points))


def _pairs(tracer: Tracer, args, kwargs, result) -> None:
    pair_set = args[2] if len(args) > 2 else kwargs["pair_set"]
    tracer.counts["kron.separating_weights.pairs"] += len(pair_set)


def _prime(tracer: Tracer, args, kwargs, value) -> None:
    tracer.counts["kron.iter_primes.yielded"] += 1


def _candidate(tracer: Tracer, args, kwargs, value) -> None:
    tracer.counts["isolate.enumerate_candidate_weights.yielded"] += 1
    tracer.distinct[("isolate.enumerate_candidate_weights", args)].add(value.weights)


TARGETS = [
    Target("io_cli", "load_instance", "span"),
    Target("io_cli", "save_points", "span"),
    Target("io_cli", "load_points", "span"),
    Target("algebra", "Field", "leaf"),
    Target("algebra", "mat_mul", "count"),
    Target("algebra", "MatPoly.__mul__", "leaf"),
    Target("algebra", "RowSpan.add", "leaf"),
    Target("algebra", "det_poly", "leaf"),
    Target("roabp", "PointSet", "leaf", _pointset),
    Target("roabp", "Roabp.expand", "span"),
    Target("roabp", "Roabp.evaluate", "leaf"),
    Target("kron", "separating_weights", "span", _pairs),
    Target("kron", "PairSet", "span"),
    Target("kron", "iter_primes", "agg", _prime),
    Target("isolate", "roabp_hitting_set", "span"),
    Target("isolate", "construct_isolating_weights", "span"),
    Target("isolate", "greedy_basis", "agg"),
    Target("isolate", "enumerate_candidate_weights", "agg", _candidate),
    Target("concentrate", "find_concentrating_shift", "span"),
    Target("concentrate", "factorize_width2", "span"),
    Target("concentrate", "low_support_hitting_set", "span"),
    Target("concentrate", "LagrangeCurve.eval_at", "leaf"),
    Target("concentrate", "invertible_hitting_set_params", "span"),
    Target("depth3", "sum_sml_whitebox_test", "span"),
    Target("depth3", "decompose_base_sets", "span"),
    Target("depth3", "Depth3Circuit.eval_at", "leaf"),
    Target("verify", "verify_hitting_property", "span"),
    Target("verify", "oracle_is_zero", "span"),
]

# (metric, unit, better); the traced run emits all of them on every workload,
# 0 where the workload does not reach the layer.
PER_LAYER = [
    ("io_cli.load_instance.s", "s", "lower"),
    ("io_cli.save_points.s", "s", "lower"),
    ("io_cli.load_points.s", "s", "lower"),
    ("io_cli.point_file_bytes", "bytes", "lower"),
    ("algebra.Field.s", "s", "lower"),
    ("algebra.mat_mul.calls", "count", "lower"),
    ("algebra.MatPoly.__mul__.s", "s", "lower"),
    ("algebra.MatPoly.__mul__.calls", "count", "lower"),
    ("algebra.RowSpan.add.s", "s", "lower"),
    ("algebra.RowSpan.add.calls", "count", "lower"),
    ("algebra.det_poly.s", "s", "lower"),
    ("roabp.PointSet.s", "s", "lower"),
    ("roabp.PointSet.points", "count", "lower"),
    ("roabp.PointSet.distinct_ratio", "ratio", "higher"),
    ("roabp.Roabp.expand.s", "s", "lower"),
    ("roabp.Roabp.expand.calls", "count", "lower"),
    ("roabp.Roabp.evaluate.s", "s", "lower"),
    ("roabp.Roabp.evaluate.calls", "count", "lower"),
    ("kron.separating_weights.s", "s", "lower"),
    ("kron.separating_weights.calls", "count", "lower"),
    ("kron.separating_weights.pairs", "count", "lower"),
    ("kron.separating_weights.primes_tried", "count", "lower"),
    ("kron.PairSet.s", "s", "lower"),
    ("kron.iter_primes.s", "s", "lower"),
    ("kron.iter_primes.yielded", "count", "lower"),
    ("isolate.roabp_hitting_set.s", "s", "lower"),
    ("isolate.roabp_hitting_set.self_s", "s", "lower"),
    ("isolate.construct_isolating_weights.s", "s", "lower"),
    ("isolate.construct_isolating_weights.calls", "count", "lower"),
    ("isolate.greedy_basis.s", "s", "lower"),
    ("isolate.enumerate_candidate_weights.s", "s", "lower"),
    ("isolate.enumerate_candidate_weights.yielded", "count", "lower"),
    ("isolate.enumerate_candidate_weights.distinct_ratio", "ratio", "higher"),
    ("isolate.route.round_combined", "count", "higher"),
    ("isolate.route.verified_separator", "count", "lower"),
    ("concentrate.find_concentrating_shift.s", "s", "lower"),
    ("concentrate.find_concentrating_shift.calls", "count", "lower"),
    ("concentrate.find_concentrating_shift.expands_per_call", "count/call", "lower"),
    ("concentrate.factorize_width2.s", "s", "lower"),
    ("concentrate.low_support_hitting_set.s", "s", "lower"),
    ("concentrate.LagrangeCurve.eval_at.s", "s", "lower"),
    ("concentrate.LagrangeCurve.eval_at.calls", "count", "lower"),
    ("concentrate.invertible_hitting_set_params.s", "s", "lower"),
    ("depth3.sum_sml_whitebox_test.s", "s", "lower"),
    ("depth3.decompose_base_sets.s", "s", "lower"),
    ("depth3.Depth3Circuit.eval_at.s", "s", "lower"),
    ("depth3.Depth3Circuit.eval_at.calls", "count", "lower"),
    ("depth3.base_sets", "count", "lower"),
    ("verify.verify_hitting_property.s", "s", "lower"),
    ("verify.oracle_is_zero.s", "s", "lower"),
    ("verify.oracle_is_zero.calls", "count", "lower"),
    ("verify.evals_to_witness", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer(tracer: Tracer, output_counts: dict, point_file_bytes: int,
              overhead_s: float) -> dict:
    """Metric name -> value for one traced pass."""
    values = {}
    counts = tracer.counts
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "s":
            values[name] = tracer.inclusive.get(base, 0.0)
        elif stat == "self_s":
            values[name] = tracer.self_time.get(base, 0.0)
        elif stat == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif name in output_counts:
            values[name] = output_counts[name]
        else:
            values[name] = counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values["io_cli.point_file_bytes"] = point_file_bytes
    values["roabp.PointSet.distinct_ratio"] = ratio(
        counts.get("roabp.PointSet.distinct", 0), counts.get("roabp.PointSet.points", 0))
    distinct = sum(len(v) for v in tracer.distinct.values())
    values["isolate.enumerate_candidate_weights.distinct_ratio"] = ratio(
        distinct, counts.get("isolate.enumerate_candidate_weights.yielded", 0))
    values["kron.separating_weights.primes_tried"] = tracer.calls_by_parent.get(
        ("kron.iter_primes", "kron.separating_weights"), 0)
    values["concentrate.find_concentrating_shift.expands_per_call"] = ratio(
        tracer.calls_by_parent.get(("roabp.Roabp.expand", "concentrate.find_concentrating_shift"), 0),
        tracer.calls.get("concentrate.find_concentrating_shift", 0))
    values["trace.overhead_s"] = overhead_s
    return values


def family_breakdown(tracer: Tracer) -> dict:
    """Per CLI family: its calls' total time ("cli") and the inclusive time
    of each span name under them, from the root spans "cli.<command>.<family>"."""
    by_id = {span[0]: span for span in tracer.spans}
    family_of: dict = {}

    def family(span_id):
        if span_id not in family_of:
            _, name, _, _, parent, _ = by_id[span_id]
            family_of[span_id] = (
                name.rsplit(".", 1)[1] if parent is None else family(parent)
            )
        return family_of[span_id]

    out: dict = {}
    for span_id, name, start, end, parent, _ in tracer.spans:
        fam = out.setdefault(family(span_id), {})
        key = "cli" if parent is None else name
        fam[key] = fam.get(key, 0.0) + (end - start)
    return out
