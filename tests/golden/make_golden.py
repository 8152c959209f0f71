"""Write the golden `verify` and `bs-scan` reports.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/make_golden.py [--out DIR] [COMMAND ...]
    python tests/golden/make_golden.py --compare OLD_DIR NEW_DIR

With no arguments every fixture under tests/golden/ is rewritten; naming
commands (for example `bs-scan`) rewrites only theirs.  `--out DIR` writes
the fixtures to DIR instead, so two checkouts' reports can be compared:
run this script against each checkout's `src` with its own DIR, then
`--compare` the two.  It prints every float that moved by more than
REPORT_REL relative, with both values, and every other difference (an
integer, a string, a flag, a list length, a key set or a missing
fixture), and exits 1 if there is one of the latter.

Each fixture holds the argv it was made with, the exit code, the report
(written with --no-embed-timings --seed 0) and the tolerance that
tests/test_golden.py applies to every float in it; every other value is
compared exactly.  Regenerating a fixture is a behaviour change and must be
recorded in CHANGES.md.
"""

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# floats are compared with |got - want| <= atol + rtol * |want|; atol covers
# values that sit at round-off (the sphere's Minkowski residual and the
# symmetric axes' raw orthogonality), rtol the BLAS-threading and ARPACK
# start-vector noise
RTOL = 1e-10
ATOL = 1e-12

# --compare prints the floats that moved by more than this, relative
REPORT_REL = 1e-14

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


def main(commands=(), out=HERE):
    with tempfile.TemporaryDirectory() as workdir:
        for command, shape, subdiv, r in CASES:
            if commands and command not in commands:
                continue
            argv = case_argv(command, shape, subdiv, r)
            code, report = run_case(argv, workdir)
            blob = {"argv": argv, "exit_code": code, "rtol": RTOL,
                    "atol": ATOL, "report": report}
            path = os.path.join(out, fixture_name(command, shape, subdiv, r))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(blob, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path} (exit {code})", file=sys.stderr)


def differences(old, new, path):
    """(path, old, new, rel) of each leaf of two JSON values that differs:
    rel is the relative difference of two floats, None for any other
    difference (a value, a type, a list length or a key set)."""
    if isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            yield f"{path} keys", sorted(old), sorted(new), None
        for key in sorted(set(old) & set(new)):
            yield from differences(old[key], new[key], f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif type(old) is float and type(new) is float:
        if old != new:
            yield path, old, new, abs(old - new) / max(abs(old), abs(new))
    elif type(old) is not type(new) or old != new:
        yield path, old, new, None


def compare(old_dir, new_dir):
    """Print how the fixtures of new_dir differ from old_dir's; the exit
    code, 1 if anything but a float differs."""
    names = sorted({name for d in (old_dir, new_dir) for name in os.listdir(d)
                    if name.endswith(".json")})
    code = 0
    for name in names:
        paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
        missing = [path for path in paths if not os.path.exists(path)]
        if missing:
            print(f"{name}: no {missing[0]}")
            code = 1
            continue
        blobs = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                blobs.append(json.load(fh))
        for path, old, new, rel in differences(*blobs, name):
            if rel is None:
                print(f"{path}: {old!r} -> {new!r}")
                code = 1
            elif rel > REPORT_REL:
                print(f"{path}: {old!r} -> {new!r} (rel {rel:.2e})")
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="rewrite only these commands' fixtures")
    parser.add_argument("--out", default=HERE,
                        help="directory to write to (default: %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="compare two --out directories instead")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    os.makedirs(args.out, exist_ok=True)
    main(args.commands, args.out)
