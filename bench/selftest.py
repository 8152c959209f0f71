"""Self-test of the benchmark itself.  From the root of a checkout:

    python3 bench/selftest.py

1. Runs a tiny traced pass (subdiv-2 verify and bs-scan) twice and requires
   every per-layer count to match exactly, then checks that the wrappers
   are gone afterwards.
2. Runs the same pass against a deliberately wrong reference and requires
   every operation to fail, so ``error_rate`` is non-zero.

Exits 0 when both hold.
"""

import copy
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported
import harness
import workloads
from tracer import LAYERS, Tracer


def _counts(summary):
    """The exact-count part of a tracer summary (times dropped)."""
    counters = {layer: {k: v for k, v in c.items() if not k.endswith("_s")}
                for layer, c in summary["counters"].items()}
    return (summary["calls"], counters, summary["spans"],
            summary["curvature_calls"], summary["meshes"])


def check_trace_repeats(workdir):
    import scipy.sparse.linalg
    from curvspec import cli, eigen, verify

    originals = (scipy.sparse.linalg.splu, verify.smallest_eigenpairs, cli.main)
    runner = harness.Runner(workloads.SELFTEST, workloads.load_references(),
                            workdir, seed=0)
    runner.warm_up()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.op = 0
        tracer.install("curvspec")
        try:
            op = runner.operation()
        finally:
            tracer.uninstall()
        if op["problems"]:
            raise SystemExit(f"tiny pass failed its checks: {op['problems']}")
        counts.append(_counts(tracer.op_summary(0)))
    if counts[0] != counts[1]:
        raise SystemExit(f"traced counts differ between runs:\n{counts[0]}\n{counts[1]}")
    calls, counters = counts[0][0], counts[0][1]
    for layer in LAYERS:
        if not calls.get(layer):
            raise SystemExit(f"no spans recorded for layer {layer}")
    if not counters.get("birman", {}).get("factorizations"):
        raise SystemExit("no factorization charged to birman")
    if (scipy.sparse.linalg.splu, verify.smallest_eigenpairs, cli.main) != originals \
            or verify.smallest_eigenpairs is not eigen.smallest_eigenpairs:
        raise SystemExit("tracer left wrappers installed")
    print(f"trace counts repeat exactly: {calls}")


def check_wrong_reference_fails():
    refs = copy.deepcopy(workloads.load_references())
    refs["cases"]["tiny-verify-r1"]["lambda_2"] += 1e-3
    result = harness.run(workloads.SELFTEST, 0, 0.01, False, run.ROOT,
                         run.BLAS_THREADS, references=refs)
    if result["error_rate"] == 0 or result["failed"] != result["attempted"]:
        raise SystemExit(f"wrong reference not caught: {result['problems']}")
    print(f"wrong reference gives error_rate {result['error_rate']:g}: "
          f"{result['problems'][0]}")


def main():
    src = os.path.join(run.ROOT, "src")
    sys.path.insert(0, src)
    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check_trace_repeats(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_wrong_reference_fails()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
