#!/usr/bin/env python3
"""pitkit benchmark: four workloads through the real CLI entry point.

    python3 perfbench/run.py --workload roabp-p31 --seed 1 --seconds 10 --trace 0

Run from a checkout root (the directory holding src/pitkit).  Set-up builds
the workload's circuit files from the seed; then whole passes over its CLI
calls (`pitkit.io_cli.main(argv)` in this process, stdout captured, exit
code and output checked) run until --seconds have passed, after one
untimed warm-up pass.  Timings are the process's CPU time (user + system),
scaled to a nominal host speed by a fixed reference kernel that runs after
every call; raw CPU and wall-clock figures go to the run record.  With
--trace 1 one more pass runs with every layer wrapped (see layers.py) and
the per-layer metrics replace the end-to-end ones.  Every metric is printed
as "name value unit"; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Files go to .perfbench/<workload>/
in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REF_ROWS = 100
REF_NOMINAL_S = 0.002  # the reference kernel's CPU time at the nominal speed
REF_WINDOW = 6  # a call is scaled by the reference runs within this many calls of it
WORKLOADS = ("roabp-p31", "small-field", "sml-depth3", "blackbox")


@dataclass
class PassResult:
    latencies: list  # wall seconds, one per call
    cpu_latencies: list  # CPU seconds, one per call
    scaled_latencies: list  # CPU seconds at the nominal speed, one per call
    references: list  # the reference kernel's CPU seconds after each call
    failures: list  # (call index, reason)
    points: list  # points emitted per call (hs) or sweep size (whitebox)
    counts: dict  # named counts parsed from the CLI output
    file_bytes: int
    digest: str  # hash of every call's exit code and output

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu_latencies)

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled_latencies)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    record: dict


def _call(main, argv) -> tuple[int | str, str]:
    """One in-process CLI call: exit code (or the exception's name) and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed call, not a crashed run
            code = type(exc).__name__
    return code, out.getvalue()


def reference_s() -> float:
    """CPU time of a fixed pure-Python kernel in the mix pitkit spends its
    time on: modular powers, int/str conversion, tuples in a dict, a sort.

    On a shared VM the speed of this process's CPU swings by a quarter
    within seconds.  Run after every call, the kernel's times follow those
    swings, and dividing by them scales each call to the nominal speed at
    which the kernel takes REF_NOMINAL_S.  The collector is paused so that
    no collection of pitkit's objects is charged to the kernel; the
    kernel's own objects die by reference count."""
    gc.disable()
    try:
        t0 = time.process_time()
        rnd = random.Random(5)
        p = 2**31 - 1
        rows = [",".join(str(pow(rnd.randrange(1, p), k + 3, p)) for k in range(6))
                for _ in range(REF_ROWS)]
        seen: dict = {}
        for row in rows:
            key = tuple(int(x) for x in row.split(","))
            seen[key] = seen.get(key, 0) + 1
        sorted(seen, key=lambda t: (t[1], t[0]))
        return time.process_time() - t0
    finally:
        gc.enable()


def speed(references: list) -> float:
    """The host's speed relative to nominal, from reference kernel times."""
    return REF_NOMINAL_S * len(references) / sum(references)


def run_pass(workload, tracer=None) -> PassResult:
    """Run every call of the workload in order, each followed by the
    reference kernel; outputs are checked after the pass, so checking is
    not timed."""
    from pitkit import io_cli

    latencies, cpu_latencies, references, outputs = [], [], [], []
    for call in workload.calls:
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            outputs.append(_call(io_cli.main, call.argv))
        else:
            with tracer.root(f"cli.{call.command}.{call.family}"):
                outputs.append(_call(io_cli.main, call.argv))
        cpu_latencies.append(time.process_time() - c0)
        latencies.append(time.perf_counter() - t0)
        references.append(reference_s())
    scaled = [
        cpu * speed(references[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i, cpu in enumerate(cpu_latencies)
    ]

    failures, points = [], []
    counts: dict = {}
    file_bytes = 0
    digest = hashlib.sha256()
    for index, (call, (code, out)) in enumerate(zip(workload.calls, outputs)):
        digest.update(f"{code}\n{out}".encode())
        try:
            outcome = None if isinstance(code, str) else call.check(code, out)
        except (ValueError, KeyError, TypeError, OSError):  # unparsable output
            outcome = None
        if outcome is None or not outcome.ok:
            failures.append((index, f"{call.argv[:2]}: {code} {outcome.why if outcome else ''}"))
            points.append(0)
            continue
        points.append(outcome.points)
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
        if call.point_file:
            file_bytes += os.path.getsize(call.point_file)
    return PassResult(latencies, cpu_latencies, scaled, references, failures, points,
                      counts, file_bytes, digest.hexdigest())


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _import_seconds() -> tuple[float, float]:
    """Interpreter start-up plus `import pitkit`, in a fresh process: its
    CPU time and its wall time."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pitkit"
    c0, t0 = _children_cpu_s(), time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return _children_cpu_s() - c0, time.perf_counter() - t0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return f"unknown ({ref[5:]})"
    return ref


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, workdir: Path | None = None) -> RunResult:
    import layers
    import workloads
    from tracer import Tracer

    workdir = workdir or ROOT / ".perfbench" / name

    # set-up, repeated; setup_s is the median of its CPU times, scaled by
    # the reference runs after each import and each build.  Run back to
    # back, the kernel finds its caches warm and runs twice as fast, so it
    # is interleaved with the work here as in a pass.
    setups_cpu, setups_wall, setup_references = [], [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        cpu_import, wall_import = _import_seconds()
        setup_references.append(reference_s())
        c0, t0 = time.process_time(), time.perf_counter()
        workload = workloads.build(name, seed, workdir, tiny=tiny)
        setups_cpu.append(cpu_import + time.process_time() - c0)
        setups_wall.append(wall_import + time.perf_counter() - t0)
        setup_references.append(reference_s())
    setup_s = statistics.median(setups_cpu) * speed(setup_references)

    passes = [run_pass(workload)]  # warm-up: caches, lazy set-up, file cache
    # timed passes; none starts that would end after --seconds by the
    # length of the one before it
    timed = []
    t_end = time.perf_counter() + seconds
    last = 0.0
    while not timed or time.perf_counter() + last <= t_end:
        t0 = time.perf_counter()
        timed.append(run_pass(workload))
        last = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes += timed

    wall_s = statistics.median(p.wall_s for p in timed)
    cpu_s = statistics.median(p.scaled_s for p in timed)
    metrics: dict = {}
    record_extra: dict = {}
    if trace:
        tracer = Tracer(layers.TARGETS)
        with tracer:
            traced = run_pass(workload, tracer)
        passes.append(traced)
        tracer.write_spans(workdir / "spans.json")
        overhead = traced.scaled_s - cpu_s
        values = layers.per_layer(tracer, traced.counts, traced.file_bytes, overhead)
        metrics = {n: (values[n], unit) for n, unit, _ in layers.PER_LAYER}
        breakdown = layers.family_breakdown(tracer)
        record_extra = {
            "traced_cpu_s": traced.scaled_s,
            "untraced_cpu_s": cpu_s,
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": wall_s,
            "family_shares": {
                f: b["cli"] / traced.wall_s for f, b in sorted(breakdown.items())
            },
            "family_breakdown_s": breakdown,
            "spans": len(tracer.spans),
            "count_only_kernels": [t.name for t in layers.TARGETS if t.mode == "count"],
            "kernels_without_spans": [
                t.name for t in layers.TARGETS if t.mode in ("agg", "leaf")
            ],
        }
    else:
        # one sample per call: its median latency over the timed passes
        latencies = [statistics.median(c) for c in zip(*(p.scaled_latencies for p in timed))]
        raw = [statistics.median(c) for c in zip(*(p.cpu_latencies for p in timed))]
        walls = [statistics.median(w) for w in zip(*(p.latencies for p in timed))]
        p90 = _percentile(latencies, 90)
        metrics = {
            "pass_cpu_s": (cpu_s, "s"),
            "call_cpu_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "call_cpu_ms_p90": (p90 * 1e3, "ms"),
            "points_total": (sum(passes[-1].points), "count"),
            "points_max": (max(passes[-1].points), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        record_extra = {
            "call_samples": len(latencies),
            "samples_beyond_p90": sum(1 for x in latencies if x > p90),
            "wall_s": wall_s,
            "call_ms_p50": statistics.median(walls) * 1e3,
            "call_ms_p90": _percentile(walls, 90) * 1e3,
            "raw_cpu_s": statistics.median(p.cpu_s for p in timed),
            "raw_call_cpu_ms_p50": statistics.median(raw) * 1e3,
            "raw_call_cpu_ms_p90": _percentile(raw, 90) * 1e3,
            "pass_cpu_s": [p.scaled_s for p in timed],
            "pass_raw_cpu_s": [p.cpu_s for p in timed],
            "pass_wall_s": [p.wall_s for p in timed],
            "setup_runs_raw_cpu_s": setups_cpu,
            "setup_runs_wall_s": setups_wall,
            "setup_host_speed": speed(setup_references),
        }

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    deterministic = len({p.digest for p in passes}) == 1
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "moduli": workload.moduli,
        "calls_per_pass": len(workload.calls),
        "cases_per_pass": workload.cases,
        "strata": workload.strata,
        "timed_passes": len(timed),
        "reference_nominal_s": REF_NOMINAL_S,
        "host_speed_per_pass": [speed(p.references) for p in passes],
        "fail_rate": len(failures) / attempted,
        "failures": failures[:20],
        "outputs_identical_across_passes": deterministic,
        "points_total": sum(passes[-1].points),
        "points_max": max(passes[-1].points),
        **record_extra,
    }
    return RunResult(not failures and deterministic, attempted, len(failures), metrics, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pitkit" / "__init__.py").is_file():
        print(f"error: no pitkit sources at {SRC}; run from a pitkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".perfbench" / args.workload
    out_path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    payload = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    out_path.write_text(json.dumps({"record": result.record, **payload}, indent=2) + "\n")

    rec = result.record
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec['cases_per_pass']} cases, {rec['calls_per_pass']} calls per pass, "
          f"{rec['timed_passes']} timed passes, python {rec['python']}, nproc {rec['nproc']}")
    print(f"fail_rate {rec['fail_rate']:.6g} (failed {result.failed} of {result.attempted} calls)")
    for failure in rec["failures"]:
        print(f"  failed call {failure[0]}: {failure[1]}")
    if args.trace:
        print(f"trace overhead {rec['traced_cpu_s'] - rec['untraced_cpu_s']:.4f} s scaled CPU "
              f"(traced pass {rec['traced_cpu_s']:.4f} s, untraced {rec['untraced_cpu_s']:.4f} s; "
              f"wall {rec['traced_wall_s']:.4f} s and {rec['untraced_wall_s']:.4f} s); "
              f"count-only kernels, time not measured: {', '.join(rec['count_only_kernels'])}")
    else:
        print(f"call latency samples {rec['call_samples']} "
              f"({rec['samples_beyond_p90']} beyond p90); wall clock: "
              f"wall_s {rec['wall_s']:.6g} s, call_ms_p50 {rec['call_ms_p50']:.6g} ms, "
              f"call_ms_p90 {rec['call_ms_p90']:.6g} ms")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
