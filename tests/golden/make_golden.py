"""Write the golden `verify` and `bs-scan` reports.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/make_golden.py [COMMAND ...]

With no arguments every fixture under tests/golden/ is rewritten; naming
commands (for example `bs-scan`) rewrites only theirs.

Each fixture holds the argv it was made with, the exit code, the report
(written with --no-embed-timings --seed 0) and the tolerance that
tests/test_golden.py applies to every float in it; every other value is
compared exactly.  Regenerating a fixture is a behaviour change and must be
recorded in CHANGES.md.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# floats are compared with |got - want| <= atol + rtol * |want|; atol covers
# values that sit at round-off (the sphere's Minkowski residual and
# domination slack, and the symmetric axes' raw orthogonality), rtol the
# BLAS-threading and ARPACK start-vector noise
RTOL = 1e-10
ATOL = 1e-12

SHAPES = {
    "sphere": ["--shape", "sphere"],
    "ellipsoid": ["--shape", "ellipsoid", "--a", "2", "--b", "1", "--c", "1"],
    "bumped": ["--shape", "bumped"],
    "torus": ["--shape", "torus", "--major-radius", "2",
              "--minor-radius", "0.5"],
}

# (shape, subdiv, r); subdiv 3 is V=642, the torus at subdiv 1 V=512, and
# ellipsoid subdiv 4 V=2562
ANALYSIS_CASES = (
    ("sphere", 3, 0), ("sphere", 3, 1),
    ("ellipsoid", 3, 0), ("ellipsoid", 3, 1),
    ("bumped", 3, 0), ("bumped", 3, 1),
    ("torus", 1, 0),
    ("ellipsoid", 4, 1),
)

# the scan is the slow command: one V=642 case per order and the V=2562
# case of the bs-scan benchmark workload
SCAN_CASES = (
    ("sphere", 3, 0), ("ellipsoid", 3, 1),
    ("ellipsoid", 4, 0),
)

# (command, shape, subdiv, r)
CASES = tuple(("verify", *case) for case in ANALYSIS_CASES) + tuple(
    ("bs-scan", *case) for case in SCAN_CASES)


def fixture_name(command, shape, subdiv, r):
    return f"{command}-{shape}-s{subdiv}-r{r}.json"


def case_argv(command, shape, subdiv, r):
    return [command, *SHAPES[shape], "--subdiv", str(subdiv), "--r", str(r),
            "--seed", "0", "--no-embed-timings", "-o", "report.json"]


def run_case(argv, workdir):
    """Run the CLI with relative output rebased into ``workdir``."""
    from curvspec import cli

    old = os.environ.get("CURVSPEC_OUTDIR")
    os.environ["CURVSPEC_OUTDIR"] = workdir
    try:
        code = cli.main(argv)
    finally:
        if old is None:
            del os.environ["CURVSPEC_OUTDIR"]
        else:
            os.environ["CURVSPEC_OUTDIR"] = old
    with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
        return code, json.load(fh)


def main(commands=()):
    with tempfile.TemporaryDirectory() as workdir:
        for command, shape, subdiv, r in CASES:
            if commands and command not in commands:
                continue
            argv = case_argv(command, shape, subdiv, r)
            code, report = run_case(argv, workdir)
            blob = {"argv": argv, "exit_code": code, "rtol": RTOL,
                    "atol": ATOL, "report": report}
            path = os.path.join(HERE, fixture_name(command, shape, subdiv, r))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(blob, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path} (exit {code})", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
