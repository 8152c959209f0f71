"""Workload definitions, input generation and the per-operation output gate.

One operation is one CLI command (``verify`` or ``bs-scan``) or, for
``batch-small-mixed``, one pass over its case list.  Every command gets the
workload seed as ``--seed`` and writes its JSON report to a file that is read
back, outside the timed region, and compared with ``references.json``.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

ELLIPSOID = ["--shape", "ellipsoid", "--a", "2", "--b", "1", "--c", "1"]

# warnings the bs-scan may emit that are information, not failures: the
# grid-ambiguity note is expected until the scan refines its own grid
INFO_WARNINGS = ("all cross 1 between",)


@dataclass(frozen=True)
class Workload:
    name: str
    # (case name, argv without --seed/-o); argv may name files in the workdir
    cases: tuple
    # OFF inputs written by build_inputs: file name -> (shape, params, subdiv)
    meshes: tuple = ()
    # file name of a sphere written with a seeded half of its faces flipped
    flipped: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-ellipsoid-10k",
        cases=(("ellipsoid-s5-r1",
                ["verify", *ELLIPSOID, "--subdiv", "5", "--r", "1"]),),
    ),
    Workload(
        name="bs-scan-ellipsoid-2k",
        cases=(("ellipsoid-s4-r0-scan",
                ["bs-scan", *ELLIPSOID, "--subdiv", "4", "--r", "0",
                 "--steps", "32", "--scan-k", "3"]),),
    ),
    Workload(
        name="batch-small-mixed",
        cases=(
            ("sphere-s3-r0", ["verify", "--mesh", "sphere-s3.off", "--r", "0"]),
            ("sphere-s3-r1", ["verify", "--mesh", "sphere-s3.off", "--r", "1"]),
            ("ellipsoid-s3-r0", ["verify", "--mesh", "ellipsoid-s3.off", "--r", "0"]),
            ("ellipsoid-s3-r1", ["verify", "--mesh", "ellipsoid-s3.off", "--r", "1"]),
            ("bumped-s3-r0", ["verify", "--mesh", "bumped-s3.off", "--r", "0"]),
            ("bumped-s3-r1", ["verify", "--mesh", "bumped-s3.off", "--r", "1"]),
            ("torus-s1-r0", ["verify", "--mesh", "torus-s1.off", "--r", "0"]),
            ("torus-s1-r1", ["verify", "--mesh", "torus-s1.off", "--r", "1"]),
            ("sphere-s5-flipped-r0",
             ["verify", "--mesh", "sphere-s5-flipped.off", "--r", "0"]),
        ),
        meshes=(
            ("sphere-s3.off", "sphere", {"radius": 1.0}, 3),
            ("ellipsoid-s3.off", "ellipsoid", {"a": 2.0, "b": 1.0, "c": 1.0}, 3),
            ("bumped-s3.off", "bumped",
             {"radius": 1.0, "amplitude": 0.05, "frequency": 3}, 3),
            ("torus-s1.off", "torus",
             {"major_radius": 2.0, "minor_radius": 0.5}, 1),
        ),
        flipped=(("sphere-s5-flipped.off", 5),),
    ),
)}

# a tiny pass over both commands, used by the self-test only
SELFTEST = Workload(
    name="selftest-tiny",
    cases=(
        ("tiny-verify-r1", ["verify", *ELLIPSOID, "--subdiv", "2", "--r", "1"]),
        ("tiny-scan-r0", ["bs-scan", *ELLIPSOID, "--subdiv", "2", "--r", "0",
                          "--steps", "8", "--scan-k", "2"]),
    ),
)


def load_references(path=None):
    with open(path or os.path.join(HERE, "references.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _write_off(path, vertices, faces):
    # same layout as curvspec.mesh.write_off; written here so a mesh with
    # flipped faces never has to pass through the program's constructor
    n_edges = 3 * len(faces) // 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(vertices)} {len(faces)} {n_edges}\n")
        fh.writelines("%.17g %.17g %.17g\n" % tuple(v) for v in vertices)
        fh.writelines("3 %d %d %d\n" % tuple(f) for f in faces)


def build_inputs(workload, workdir, seed):
    """Write the workload's OFF files into ``workdir``.

    The seed picks which half of the flipped sphere's faces are reversed;
    the clean meshes do not depend on it.
    """
    from curvspec import surfaces

    for fname, shape, params, subdiv in workload.meshes:
        mesh = surfaces.generate(surfaces.from_params(shape, **params),
                                 subdiv=subdiv)
        _write_off(os.path.join(workdir, fname), mesh.vertices, mesh.faces)
    for fname, subdiv in workload.flipped:
        mesh = surfaces.generate(surfaces.Sphere(1.0), subdiv=subdiv)
        faces = mesh.faces.copy()
        rng = np.random.default_rng(seed)
        flip = rng.permutation(len(faces))[: len(faces) // 2]
        faces[flip] = faces[flip][:, ::-1]
        _write_off(os.path.join(workdir, fname), mesh.vertices, faces)


def _close(value, ref, tol):
    return abs(value - ref) <= tol["atol"] + tol["rtol"] * abs(ref)


def check_case(ref, tolerances, exit_code, report):
    """Compare one command's exit code and report with its reference.

    Returns (problems, notes, crossings): problems make the operation fail,
    notes are information only.
    """
    problems, notes = [], []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit']}")
        return problems, notes, 0
    if report is None:
        return ["no JSON report written"], notes, 0
    if "error" in ref:
        got = (report.get("error") or {}).get("type")
        if got != ref["error"]:
            problems.append(f"refused with {got}, expected {ref['error']}")
        return problems, notes, 0
    if "verdict" in ref:
        theorem = report["verdicts"]["theorem"]
        if theorem["verdict"] != ref["verdict"]:
            problems.append(f"verdict {theorem['verdict']}, expected {ref['verdict']}")
        if not _close(theorem["lambda_2"], ref["lambda_2"], tolerances["lambda_2"]):
            problems.append(f"lambda_2 {theorem['lambda_2']!r}, "
                            f"expected {ref['lambda_2']!r}")
    crossings = 0
    if "crossings_mu0" in ref:
        scan = report["birman_schwinger"]
        got = sorted(c["mu0"] for c in scan["crossings"])
        crossings = len(got)
        if len(got) != len(ref["crossings_mu0"]):
            problems.append(f"{len(got)} crossings, expected {len(ref['crossings_mu0'])}")
        else:
            for mu0, want in zip(got, ref["crossings_mu0"]):
                if not _close(mu0, want, tolerances["mu0"]):
                    problems.append(f"crossing mu0 {mu0!r}, expected {want!r}")
        worst = max((c["match_error"] for c in scan["crossings"]), default=0.0)
        if worst > tolerances["match_error_max"]:
            problems.append(f"match_error {worst:.3g} above "
                            f"{tolerances['match_error_max']:.3g}")
        for text in scan["warnings"]:
            if any(marker in text for marker in INFO_WARNINGS):
                notes.append(text)
            else:
                problems.append(f"scan warning: {text}")
    return problems, notes, crossings
