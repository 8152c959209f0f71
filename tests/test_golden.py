"""Golden `verify` and `bs-scan` reports under --no-embed-timings.

Every float is compared under the rtol/atol recorded inside its fixture;
every other value (verdicts, counts, flags, the config block, key sets)
must match exactly.  The fixtures are written by tests/golden/make_golden.py.
"""

import glob
import json
import math
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN)

from make_golden import CASES, fixture_name, run_case  # noqa: E402

from curvspec import cli  # noqa: E402

FIXTURES = sorted(glob.glob(os.path.join(GOLDEN, "*.json")))


def mismatches(got, want, rtol, atol, path="report"):
    """List of human-readable differences between two JSON values."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [
            f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{path}: {got} != {want}"]
        if math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
            return []
        return [f"{path}: {got!r} != {want!r} (rtol={rtol}, atol={atol})"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, rtol, atol, f"{path}[{i}]")
        return out
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                f" != {sorted(want)}"]
    out = []
    for key in sorted(want):
        out += mismatches(got[key], want[key], rtol, atol, f"{path}.{key}")
    return out


def test_fixtures_present():
    # exactly one fixture per case, each of a command that still exists
    assert {os.path.basename(p) for p in FIXTURES} == {
        fixture_name(*case) for case in CASES}
    for path in FIXTURES:
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["argv"][0] in cli._COMMANDS, path


@pytest.mark.parametrize("path", FIXTURES, ids=os.path.basename)
def test_report_matches_golden(path, tmp_path):
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    code, report = run_case(blob["argv"], str(tmp_path))
    assert code == blob["exit_code"]
    diff = mismatches(report, blob["report"], blob["rtol"], blob["atol"])
    assert not diff, "\n".join(diff)


def test_comparison_is_strict():
    want = {"a": [1.0, 2], "b": "x", "c": True}
    assert not mismatches({"a": [1.0 + 1e-12, 2], "b": "x", "c": True},
                          want, 1e-9, 0.0)
    assert mismatches({"a": [1.1, 2], "b": "x", "c": True}, want, 1e-9, 0.0)
    assert mismatches({"a": [1.0, 3], "b": "x", "c": True}, want, 1e-9, 0.0)
    assert mismatches({"a": [1.0, 2], "b": "y", "c": True}, want, 1e-9, 0.0)
    assert mismatches({"a": [1.0, 2], "b": "x", "c": 1}, want, 1e-9, 0.0)
    assert mismatches({"a": [1.0, 2], "b": "x"}, want, 1e-9, 0.0)
