"""Runs one workload and computes its end-to-end or per-layer metrics.

The load is closed-loop: a single caller in a single thread starts the next
op only after the previous one returned.  Ops run in whole passes (see
``workloads``) until the time budget is spent, so a run measures at least
``--seconds``.  Pass 0 warms the library's caches: its ops are run and
checked but not timed.  Op latency is the wall time of ``Op.run``; input
preparation and the result checks are outside it.

The end-to-end timings are calibrated to a reference machine speed (see
``calibrate``): the untraced run times a reference kernel between ops and
scales each latency by it; each cold set-up is scaled by kernel samples
taken right before it and, in its own process, right after it.  The raw wall times go to the details file.

An untraced run reports the end-to-end metrics.  A traced run alternates
untraced and traced passes of its workload for its budget, which gives the
tracing overhead, then traces one pass of every other workload, so every
per-layer metric is measured in every traced run.
"""

import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from . import ROOT, layers, workloads
from .calibrate import REFERENCE_MS, Calibrator, time_kernel
from .trace import NullTracer, Tracer, instrument

SETUP_REPEATS = 5
SETUP_KERNEL_RUNS = 5  # kernel samples before each set-up; as many follow it
SETUP_TIMEOUT_S = 120
SETUP_GRAPHS = {"T": [12, 24, 12], "O": [24, 48, 24], "I": [60, 120, 60]}
PROBE = ROOT / "bench" / "setup_probe.py"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


class Stats:
    """Latencies of the timed ops of one phase, pass by pass, and the
    failures of all its ops.  With a calibrator, each timed op also keeps
    the index of the kernel sample taken just before it."""

    def __init__(self, calibrator=None):
        self.passes = []
        self.marks = []
        self.attempted = 0
        self.failures = []
        self.calibrator = calibrator

    def add(self, seconds, reason, timed=True, mark=None):
        self.attempted += 1
        if timed:
            self.passes[-1].append(seconds)
            self.marks[-1].append(mark)
        if reason is not None:
            self.failures.append(reason)


def run_op(op, tracer, stats, timed=True):
    mark = stats.calibrator.mark() if timed and stats.calibrator else None
    if tracer is not None:
        tracer.begin("op", op.attrs)
    start = perf_counter()
    try:
        result = op.run(tracer or NullTracer)
        reason = None
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        result, reason = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end()
    if reason is None:
        try:
            reason = op.check(result)
            if reason is None and tracer is not None and op.extra is not None:
                with tracer.span("extra", op.attrs):
                    op.extra(tracer, result)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    stats.add(seconds, reason, timed, mark)


def warm_up(workload, seed, stats):
    """Pass 0, untimed and untraced; returns the first pass to time."""
    for spec in workload.make_pass(seed, 0):
        for op in workload.prepare(spec):
            run_op(op, None, stats, timed=False)
    return 1


def run_passes(workload, seed, first_pass, budget, phases):
    """Rounds of one whole pass per phase ``(tracer or None, stats)``, from
    ``first_pass`` on, until ``budget`` seconds have passed (at least one
    round); returns the next pass index."""
    start = perf_counter()
    index = first_pass
    while True:
        for tracer, stats in phases:
            stats.passes.append([])
            stats.marks.append([])
            with instrument(tracer, workload.nested if tracer else ()):
                for spec in workload.make_pass(seed, index):
                    for op in workload.prepare(spec):
                        run_op(op, tracer, stats)
            index += 1
        if perf_counter() - start >= budget:
            return index


def setup_probe():
    """Wall time of one cold set-up process, less the calibration it runs
    at its end, with the spans and kernel times it recorded."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE)], cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=False,
    )
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["graphs"] != SETUP_GRAPHS:
        raise RuntimeError(f"set-up built graphs {out['graphs']}, expected {SETUP_GRAPHS}")
    return seconds - out["tail_s"], out["spans"], out["kernel_s"]


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, check=False,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def timing(lat):
    p50, p90 = np.percentile(lat, [50, 90])
    return {
        "ops_per_s": len(lat) / float(lat.sum()),
        "op_p50_ms": 1e3 * float(p50),
        "op_p90_ms": 1e3 * float(p90),
        "samples_beyond_p90": int(np.sum(lat > p90)),
    }


def latency_summary(stats):
    """Timing of the timed ops: calibrated when the phase has a calibrator,
    with the raw wall-time figures alongside."""
    lat = np.concatenate(stats.passes)
    summary = {
        "passes": len(stats.passes),
        "timed_ops": len(lat),
        "attempted": stats.attempted,
        "failed": len(stats.failures),
    }
    raw = timing(lat)
    if stats.calibrator is None:
        return {**summary, **raw}
    cal = stats.calibrator
    scales = np.array([cal.scale(m) for m in np.concatenate(stats.marks).astype(int)])
    return {
        **summary,
        **timing(lat * scales),
        "raw": raw,
        "scale_median": float(np.median(scales)),
        "kernel_samples": len(cal.samples),
    }


def setup_runs(tracer):
    """``SETUP_REPEATS`` cold set-ups; returns their calibrated and raw
    times.  Each set-up is scaled by the median of the kernel times taken
    here right before it and by its own process right after it."""
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = [time_kernel() for _ in range(SETUP_KERNEL_RUNS)]
        wall, spans, after = setup_probe()
        raw.append(wall)
        calibrated.append(wall * REFERENCE_MS / (1e3 * median(before + after)))
        if tracer is not None:
            tracer.extend(spans)
    return calibrated, raw


def run(workload, seed, seconds, trace):
    """One benchmark run; returns a dict with the result line and details."""
    tracer = Tracer() if trace else None
    setup_seconds, setup_raw = setup_runs(tracer)
    suite = workloads.suite(workloads.catalog_cones())
    chosen = suite[workload]
    details = {
        "environment": environment(workload, seed, seconds, trace),
        "setup_runs_s": setup_seconds,
        "setup_raw_s": setup_raw,
    }

    if not trace:
        stats = Stats(Calibrator())
        run_passes(chosen, seed, warm_up(chosen, seed, stats), seconds, [(None, stats)])
        stats.calibrator.sample()  # every op then has samples after it
        summary = latency_summary(stats)
        values = {
            "setup_s": float(np.median(setup_seconds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": summary["ops_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_p90_ms": summary["op_p90_ms"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        details.update(summary=summary, failures=stats.failures[:20])
        all_stats = [stats]
    else:
        untraced, traced, side = Stats(), Stats(), Stats()
        index = warm_up(chosen, seed, untraced)
        run_passes(chosen, seed, index, seconds, [(None, untraced), (tracer, traced)])
        for other in suite.values():
            if other is not chosen:
                run_passes(other, seed, warm_up(other, seed, side), 0.0, [(tracer, side)])
        # Untraced and traced passes alternate; compare each pair's mean op time.
        pairs = np.array([(np.mean(u), np.mean(t)) for u, t in zip(untraced.passes, traced.passes)])
        base = np.median(pairs[:, 0])
        overhead = np.median(pairs[:, 1] - pairs[:, 0])
        values = layers.layer_values(tracer.spans)
        values["trace.overhead_ms"] = 1e3 * float(overhead)
        values["trace.overhead_pct"] = 100.0 * float(overhead / base)
        units = [(m.name, m.unit) for m in layers.layer_metrics()] + list(layers.OVERHEAD_METRICS)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
        details.update(
            untraced=latency_summary(untraced),
            traced=latency_summary(traced),
            layers=layers.table(tracer.spans),
            failures=(untraced.failures + traced.failures + side.failures)[:20],
        )
        all_stats = [untraced, traced, side]

    attempted = sum(s.attempted for s in all_stats)
    failed = sum(len(s.failures) for s in all_stats)
    details["failed_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "details": details, "spans": tracer.spans if tracer else None}
