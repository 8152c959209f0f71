"""curvspec benchmark: one workload, closed loop, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-ellipsoid-10k --seed 1 \
        --seconds 20 --trace 0

Imports curvspec from the checkout's ``src`` and drives ``curvspec.cli.main``
in-process, one command at a time, with BLAS and OpenMP pinned to one
thread.  Human-readable lines (each metric with unit and sample count, the
environment, any failed check) precede the last line, which is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The full record, and for traced runs the spans, go to
``.bench_work/``.
"""

import argparse
import json
import os
import sys

BLAS_THREADS = 1
# must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import harness  # noqa: E402  (after the thread pinning above)
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "curvspec", "__init__.py")):
        print(f"bench: no curvspec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    result = harness.run(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), ROOT, BLAS_THREADS)
    record = os.path.join(
        ROOT, harness.WORK_DIR,
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['attempted']} operations, "
          f"{result['failed']} failed, error_rate {result['error_rate']:.4g}")
    for name, value in result["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {result['units'][name]:<6} "
              f"n={result['samples'][name]}")
    for line in result["problems"]:
        print(f"  FAILED {line}")
    for line in result["notes"]:
        print(f"  note {line}")
    print(f"  environment {json.dumps(result['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
