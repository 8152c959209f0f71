"""Closed-loop measurement of one workload through ``curvspec.cli.main``.

One client runs one operation at a time, in this process, until the run's
time is spent.  Untraced runs report the end-to-end metrics; traced runs
alternate untraced and traced operations and report the per-layer metrics,
including the tracing overhead.  Every operation is checked against the
references, and a failed check counts the operation as failed.
"""

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from tracer import LAYERS, Tracer

SETUP_REPEATS = 5
WORK_DIR = ".bench_work"   # under the checkout root; inputs, records, spans

# a fresh interpreter times its own import of curvspec
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import curvspec\n"
    "print(time.perf_counter() - t0)\n"
)


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def environment(blas_threads):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
    }


def _fresh_import_seconds(src):
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload, workdir, seed, src, repeats):
    """Import curvspec in a fresh process and build the inputs, ``repeats``
    times; returns the seconds of each repeat."""
    samples = []
    for _ in range(repeats):
        import_s = _fresh_import_seconds(src)
        t0 = time.perf_counter()
        workloads.build_inputs(workload, workdir, seed)
        samples.append(import_s + time.perf_counter() - t0)
    return samples


class Runner:
    """Runs and checks operations of one workload."""

    def __init__(self, workload, references, workdir, seed):
        from curvspec import cli

        self.cli = cli
        self.workload = workload
        self.refs = references["cases"]
        self.tolerances = references["tolerances"]
        self.workdir = workdir
        self.seed = seed
        self.out = os.path.join(workdir, "report.json")

    def _command(self, argv):
        """Run one CLI command.

        Returns (seconds, cpu seconds, exit code, untyped error, stderr).
        """
        if os.path.exists(self.out):
            os.remove(self.out)
        argv = [os.path.join(self.workdir, a) if a.endswith(".off") else a
                for a in argv]
        argv += ["--seed", str(self.seed), "-o", self.out]
        sink = io.StringIO()
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(sink):
                exit_code = self.cli.main(argv)
        except Exception:   # an untyped escape is a failure
            exit_code, error = None, traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return wall, cpu, exit_code, error, sink.getvalue()

    def warm_up(self):
        """Tiny verify and bs-scan commands, unchecked, so lazy imports and
        first-call paths are paid before timing starts."""
        for _, argv in workloads.SELFTEST.cases:
            self._command(argv)

    def operation(self):
        """One operation: every case once.  Returns a dict of its outcome."""
        wall = cpu = 0.0
        problems, notes = [], []
        crossings = 0
        for case, argv in self.workload.cases:
            w, c, exit_code, error, stderr = self._command(argv)
            wall += w
            cpu += c
            if error is not None:
                problems.append(f"{case}: untyped exception {error}")
                continue
            try:
                with open(self.out, encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                report = None
            p, n, x = workloads.check_case(
                self.refs[case], self.tolerances, exit_code, report)
            if p and stderr.strip():
                p.append("stderr: " + stderr.strip().splitlines()[-1])
            problems += [f"{case}: {m}" for m in p]
            notes += [f"{case}: {m}" for m in n]
            crossings += x
        return {"wall_s": wall, "cpu_s": cpu, "problems": problems,
                "notes": notes, "crossings": crossings}


def _layer_metrics(summaries, traced, untraced):
    """Per-layer metrics from the tracer's per-operation summaries.

    Self time is given as a percentage of the traced operation's wall time,
    with that wall time as ``trace.wall_s``: a layer a workload never enters
    then reads 0 %, not a time of exactly 0 s.
    """
    def mean_count(layer, counter):
        return statistics.fmean(s["counters"].get(layer, {}).get(counter, 0)
                                for s in summaries)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = statistics.fmean(
            s["calls"].get(layer, 0) for s in summaries)
        m[f"{layer}.self_pct"] = statistics.median(
            100.0 * s["self_s"].get(layer, 0.0) / op["wall_s"]
            for s, op in zip(summaries, traced))
    m["curvature.calls_per_mesh"] = ratio(
        sum(s["curvature_calls"] for s in summaries),
        sum(s["meshes"] for s in summaries))
    for layer in ("identities", "birman", "eigen"):
        for counter in ("factorizations", "solves", "eigsh_calls"):
            m[f"{layer}.{counter}"] = mean_count(layer, counter)
    m["birman.factorizations_per_crossing"] = ratio(
        m["birman.factorizations"],
        statistics.fmean(op["crossings"] for op in traced))
    m["eigen.solves_per_eigsh"] = ratio(m["eigen.solves"], m["eigen.eigsh_calls"])
    m["eigen.fill_nnz"] = ratio(mean_count("eigen", "fill_nnz"),
                                m["eigen.factorizations"])
    m["eigen.dense_calls"] = mean_count("eigen", "dense_calls")
    m["eigen.dense_pct"] = statistics.median(
        100.0 * ratio(s["counters"].get("eigen", {}).get("dense_s", 0.0),
                      s["self_s"].get("eigen", 0.0))
        for s in summaries)
    for counter in ("factorizations", "solves", "eigsh_calls"):
        m[f"total.{counter}"] = sum(
            mean_count(layer, counter) for layer in LAYERS)
    m["trace.spans"] = statistics.fmean(s["spans"] for s in summaries)
    m["trace.wall_s"] = statistics.median(op["wall_s"] for op in traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(
        op["wall_s"] for op in untraced)
    return m


def _layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def run(workload, seed, seconds, trace, root, blas_threads, references=None):
    """Measure one workload; returns the full result record.

    Untraced runs time every operation.  Traced runs alternate an untraced
    and a traced operation, so both sides of ``trace.overhead_s`` see the
    same machine state.
    """
    name = workload.name
    references = references or workloads.load_references()
    base = os.path.join(root, WORK_DIR)
    workdir = os.path.join(base, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_before = _loadavg()
    tracer = Tracer() if trace else None
    ops, summaries = [], []
    try:
        setup_samples = setup(workload, workdir, seed, os.path.join(root, "src"),
                              1 if trace else SETUP_REPEATS)
        runner = Runner(workload, references, workdir, seed)
        runner.warm_up()
        t_start = time.perf_counter()
        while len(ops) < (2 if trace else 1) or \
                time.perf_counter() - t_start < seconds:
            if trace and len(ops) % 2 == 1:
                tracer.op = len(ops)
                tracer.install("curvspec")
                try:
                    op = runner.operation()
                finally:
                    tracer.uninstall()
                op["traced"] = True
                summaries.append(tracer.op_summary(tracer.op))
            else:
                op = runner.operation()
            ops.append(op)
        if trace:
            tracer.dump(os.path.join(base, f"trace-{name}-seed{seed}.json"),
                        {"workload": name, "seed": seed})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        traced = [op for op in ops if op.get("traced")]
        untraced = [op for op in ops if not op.get("traced")]
        metrics = _layer_metrics(summaries, traced, untraced)
        units = {k: _layer_unit(k) for k in metrics}
        samples = {k: len(summaries) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in ops),
            "cpu_s": statistics.median(op["cpu_s"] for op in ops),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        samples = {"wall_s": len(ops), "cpu_s": len(ops),
                   "setup_s": len(setup_samples), "peak_rss_mb": 1}
    failed = sum(1 for op in ops if op["problems"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "metrics": metrics,
        "units": units,
        "samples": samples,
        "op_walls_s": [op["wall_s"] for op in ops],
        "problems": sorted({p for op in ops for p in op["problems"]}),
        "notes": sorted({n for op in ops for n in op["notes"]}),
        "environment": {**environment(blas_threads),
                        "loadavg_before": load_before,
                        "loadavg_after": _loadavg()},
    }
