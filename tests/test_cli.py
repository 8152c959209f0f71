"""Command line driver: flags, config files, exit codes, JSON reports."""

import dataclasses
import gc
import importlib
import json
import logging
import os
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

import scipy.linalg as sla
import scipy.sparse.linalg as spla

from curvspec import assemble, birman, cli, eigen, identities, mesh as mesh_mod, verify
from curvspec.mesh import TriMesh, load_mesh, write_off

from conftest import get_mesh, raw_off


def run(argv):
    return cli.main(argv)


def module_env():
    """The environment in which `python -m curvspec` imports this
    checkout's src."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestGenerate:
    def test_sphere_off(self, tmp_path):
        out = tmp_path / "s.off"
        assert run(["generate", "--shape", "sphere", "--subdiv", "3", "-o", str(out)]) == 0
        mesh = load_mesh(out)
        assert mesh.n_vertices == 642

    def test_torus_grid_flags(self, tmp_path):
        # generate spells the torus radii as the analysis commands do
        out = tmp_path / "t.off"
        code = run([
            "generate", "--shape", "torus", "--major-radius", "2",
            "--minor-radius", "0.5", "--nu", "64", "--nv", "32", "-o", str(out),
        ])
        assert code == 0
        mesh = load_mesh(out)
        assert mesh.n_vertices == 64 * 32
        assert mesh.euler_characteristic == 0
        for old in ("--R", "--r"):
            assert run(["generate", "--shape", "torus", old, "1",
                        "-o", str(out)]) == 64

    def test_refused_mesh_exits_3_without_a_file(self, tmp_path, capsys):
        # a bump this large pinches a face of the subdiv-2 mesh to zero
        # area; generate refuses it as verify --mesh would refuse the file
        out = tmp_path / "g.off"
        assert run(["generate", "--shape", "bumped", "--amplitude", "1",
                    "--frequency", "2", "--subdiv", "2", "-o", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: face 16 has (near-)zero area"]
        assert not out.exists()

    def test_requires_shape_and_output(self, tmp_path, capsys):
        assert run(["generate", "-o", str(tmp_path / "x.off")]) == 64
        assert run(["generate", "--shape", "sphere"]) == 64
        err = capsys.readouterr().err
        assert "generate" in err


class TestVerifyCommand:
    def test_sphere_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run([
            "verify", "--shape", "sphere", "--subdiv", "2", "--r", "1",
            "-o", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["schema_version"] == "1"
        assert set(blob) == {
            "birman_schwinger", "config", "curvature_summary", "identities",
            "mesh_stats", "schema_version", "spectrum", "timings", "verdicts",
        }
        assert blob["verdicts"]["theorem"]["verdict"] == "SphereLike"
        assert blob["verdicts"]["theorem"]["multiplicity"] == 3
        assert blob["mesh_stats"]["n_vertices"] == 162
        assert blob["config"]["command"] == "verify"
        # every judged number sits next to the threshold it was judged by
        assert "tol_sphere" in blob["verdicts"]["theorem"]
        assert set(blob["verdicts"]["corollary"]) == {"lambda_2_t_upper"}
        assert "thresholds" in blob["verdicts"]["lemma"]
        # the pencil solve's residuals, and the certified rung it ran at,
        # which lies below lambda_1
        spec = blob["spectrum"]
        assert len(spec["eigenvalues"]) == len(spec["residuals"]) == spec["k"]
        assert all(res < 1e-9 for res in spec["residuals"])
        assert spec["shift"] < spec["eigenvalues"][0]

    def test_mesh_file_input(self, tmp_path):
        off = tmp_path / "e.off"
        run(["generate", "--shape", "ellipsoid", "--a", "2", "--b", "1",
             "--c", "1", "--subdiv", "2", "-o", str(off)])
        out = tmp_path / "rep.json"
        code = run(["verify", "--mesh", str(off), "--r", "0", "-o", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["verdicts"]["theorem"]["verdict"] == "StrictlyNegative"

    def test_torus_gate_exit_3(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run([
            "verify", "--shape", "torus", "--subdiv", "1", "--r", "1",
            "-o", str(out),
        ])
        assert code == 3
        blob = json.loads(out.read_text())
        assert "error" in blob
        assert "vertex" in blob["error"]["message"]
        assert blob["error"]["type"] == "CurvaturePositivityError"

    def test_h_next_positive_reported(self, tmp_path):
        # r = 0 needs no sign of H_1, so a fat torus, whose inner rim has
        # H_1 < 0, runs through and reports it; the unit sphere reports true
        def summary(*shape):
            out = tmp_path / "rep.json"
            argv = ["verify", *shape, "--subdiv", "1", "--r", "0", "-o", str(out)]
            assert run(argv) == 0
            return json.loads(out.read_text())["curvature_summary"]

        torus = summary("--shape", "torus", "--major-radius", "2",
                        "--minor-radius", "1.2")
        assert torus["h_next_positive"] is False
        assert torus["h_next_min"] == pytest.approx(-0.144, abs=1e-3)
        sphere = summary("--shape", "sphere")
        assert sphere["h_next_positive"] is True
        assert sphere["h_next_min"] == pytest.approx(1.0, rel=1e-12)

    def test_refusal_releases_mesh_without_gc(self, tmp_path):
        # a refusal must not leave the mesh in a reference cycle that only
        # the cyclic collector can free
        def meshes():
            return {id(o) for o in gc.get_objects() if isinstance(o, TriMesh)}

        gc.collect()
        gc.disable()
        try:
            before = meshes()
            code = run([
                "verify", "--shape", "torus", "--subdiv", "1", "--r", "1",
                "-o", str(tmp_path / "rep.json"),
            ])
            leaked = meshes() - before
        finally:
            gc.enable()
        assert code == 3
        assert not leaked

    def test_torus_r0_completes(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run([
            "verify", "--shape", "torus", "--subdiv", "1", "--r", "0",
            "-o", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["verdicts"]["theorem"]["lambda_2"] < 0

    def test_violation_exit_2(self, tmp_path, monkeypatch):
        real = verify.run

        def doctored(*args):
            done = real(*args)
            return dataclasses.replace(done, theorem=dataclasses.replace(
                done.theorem, verdict=verify.VIOLATION))

        monkeypatch.setattr(verify, "run", doctored)
        out = tmp_path / "rep.json"
        code = run([
            "verify", "--shape", "sphere", "--subdiv", "1", "--r", "0",
            "-o", str(out),
        ])
        assert code == 2
        blob = json.loads(out.read_text())
        assert blob["verdicts"]["theorem"]["verdict"] == "Violation"


class TestRefusals:
    """Inputs the pipeline refuses with exit 3 and a JSON error block."""

    @staticmethod
    def refused(argv, tmp_path):
        out = tmp_path / "rep.json"
        assert run([*argv, "-o", str(out)]) == 3
        return json.loads(out.read_text())["error"]

    def test_k_equal_to_vertex_count(self, tmp_path):
        # shift-invert returns at most V - 1 pairs: k = V = 12 is refused,
        # never truncated to 11
        argv = ["verify", "--shape", "sphere", "--subdiv", "0"]
        err = self.refused([*argv, "--k", "12"], tmp_path)
        assert err["type"] == "EigenSolveError"
        assert "k=12" in err["message"] and "V=12" in err["message"]
        out = tmp_path / "ok.json"
        assert run([*argv, "--k", "11", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["spectrum"]["eigenvalues"]) == 11

    @pytest.mark.parametrize("argv,error,filled", [
        # refused by the curvature gate: no field, so no summary
        (["--shape", "torus", "--subdiv", "1", "--r", "1"],
         "CurvaturePositivityError", {"mesh_stats"}),
        # refused by the pencil eigensolve: the summary is made before it
        (["--shape", "sphere", "--subdiv", "0", "--k", "12"],
         "EigenSolveError", {"mesh_stats", "curvature_summary"}),
    ], ids=["curvature", "eigensolve"])
    def test_refused_report_shape(self, tmp_path, argv, error, filled):
        out = tmp_path / "rep.json"
        assert run(["verify", *argv, "--no-embed-timings", "-o", str(out)]) == 3
        blob = json.loads(out.read_text())
        assert blob["error"]["type"] == error
        blocks = ("mesh_stats", "curvature_summary", "spectrum",
                  "identities", "verdicts", "birman_schwinger", "timings")
        assert {key for key in blocks if blob[key] is not None} == filled

    @pytest.mark.parametrize("fault,error", [
        ("non-utf8", "MeshLoadError"), ("zero-normal", "DegenerateGeometryError"),
    ])
    def test_refused_load_report_shape(self, tmp_path, fault, error):
        # refused by load_mesh: no mesh, so no mesh_stats, but the load
        # that ran is timed
        off = tmp_path / "bad.off"
        if fault == "non-utf8":
            off.write_bytes(b"OFF\n4 4 6\n\xff\n")
        else:
            # a flat triangle, front and back: every weighted normal cancels
            off.write_text(raw_off([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]],
                                   [[0, 1, 2], [0, 2, 1]]))
        out = tmp_path / "rep.json"
        assert run(["verify", "--mesh", str(off), "-o", str(out)]) == 3
        blob = json.loads(out.read_text())
        assert blob["error"]["type"] == error
        blocks = ("mesh_stats", "curvature_summary", "spectrum",
                  "identities", "verdicts", "birman_schwinger")
        assert all(blob[key] is None for key in blocks)
        assert set(blob["timings"]) == {"mesh_s", "total_s"}
        assert blob["timings"]["mesh_s"] <= blob["timings"]["total_s"]

    def test_tetrahedron_default_k(self, tmp_path):
        off = tmp_path / "tet.off"
        off.write_text("OFF\n4 4 6\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
                       "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n")
        err = self.refused(["verify", "--mesh", str(off), "--r", "0"], tmp_path)
        assert err["type"] == "EigenSolveError"
        assert "k=5" in err["message"] and "V=4" in err["message"]

    def test_non_utf8_mesh_file(self, tmp_path):
        off = tmp_path / "latin.off"
        off.write_bytes(b"OFF\n4 4 6\n\xff\n")
        err = self.refused(["verify", "--mesh", str(off), "--r", "0"], tmp_path)
        assert err["type"] == "MeshLoadError"

    def test_scan_k_equal_to_vertex_count(self, tmp_path):
        # the kernel eigensolve shares the pencil's k refusal
        err = self.refused(["bs-scan", "--shape", "sphere", "--subdiv", "0",
                            "--scan-k", "12"], tmp_path)
        assert err["type"] == "EigenSolveError"
        assert "k=12" in err["message"] and "V=12" in err["message"]

    @pytest.mark.parametrize("command", ["verify", "bs-scan"])
    def test_two_disjoint_spheres(self, tmp_path, command):
        # closed and oriented, but K's kernel holds one constant per
        # component: every command stops at load, before any check
        ico = get_mesh("sphere", 1)
        off = tmp_path / "pair.off"
        off.write_text(raw_off(
            np.vstack([ico.vertices, ico.vertices + [3.0, 0.0, 0.0]]),
            np.vstack([ico.faces, ico.faces + ico.n_vertices])))
        err = self.refused([command, "--mesh", str(off), "--r", "0"], tmp_path)
        assert err == {"type": "DisconnectedMeshError",
                       "message": "mesh has 2 connected components; a single "
                                  "connected surface is required"}

    def test_overflowing_coordinates_one_stderr_line(self, tmp_path):
        # one vertex scaled by 1e155: the squared norms of its faces'
        # cross products overflow, and the refusal names the first such
        # face with no numpy warning before it (a fresh interpreter, so
        # stderr is the program's own)
        ico = get_mesh("sphere", 1)
        vertices = ico.vertices.copy()
        vertices[0] *= 1e155
        off = tmp_path / "big.off"
        off.write_text(raw_off(vertices, ico.faces))
        face = int(np.nonzero((ico.faces == 0).any(axis=1))[0][0])
        proc = subprocess.run(
            [sys.executable, "-m", "curvspec", "verify", "--mesh", str(off),
             "-o", str(tmp_path / "rep.json")],
            capture_output=True, text=True, env=module_env())
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"error: face {face} has non-finite area"]

    @pytest.mark.parametrize("counts,tail,message", [
        ("3 0 0", "", ": faces must be a (F, 3) array of vertex indices"),
        ("3 2 0", "# no faces\n\n", ":5: expected 2 face lines"),
    ], ids=["zero-faces", "blank-face-block"])
    def test_empty_face_block_one_stderr_line(self, tmp_path, counts, tail,
                                              message):
        # numpy's reader warns "input contained no data" on an empty block;
        # the refusal is the one line on stderr all the same
        off = tmp_path / "flat.off"
        off.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n{tail}")
        proc = subprocess.run(
            [sys.executable, "-m", "curvspec", "verify", "--mesh", str(off),
             "-o", str(tmp_path / "rep.json")],
            capture_output=True, text=True, env=module_env())
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"error: {off}{message}"]

    def test_method_flag_is_gone(self):
        assert run(["verify", "--shape", "sphere", "--method", "dense"]) == 64


class TestBadInput:
    """Out-of-range analysis input is a usage error, from a flag or from a
    config file alike, and writes no report."""

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("shape,key,value", [
        ("sphere", "subdiv", "-1"),
        ("torus", "nu", "2"),
        # a zero grid is refused, not read as the default grid
        ("torus", "nu", "0"),
        ("torus", "nv", "0"),
        ("sphere", "r", "2"),
        ("sphere", "r", "-1"),
        # --mu and --trials are gone: an unknown flag and an unknown
        # config key are usage errors too
        ("sphere", "mu", "0"),
        ("sphere", "trials", "0"),
        # a config file's values reach argparse as strings, so the flag's
        # type refuses them as it refuses the same flag
        ("sphere", "subdiv", "1.5"),
        ("sphere", "trials", "2.5"),
        ("sphere", "k", "2.0"),
        # a boolean word is a boolean only for a switch
        ("sphere", "subdiv", "yes"),
        ("sphere", "k", "off"),
    ])
    def test_exit_64(self, tmp_path, capsys, shape, key, value, via):
        out = tmp_path / "rep.json"
        argv = ["verify", "--shape", shape, "-o", str(out)]
        if key != "subdiv":
            argv += ["--subdiv", "1"]
        if via == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and key in err
        assert not out.exists()


    @pytest.mark.parametrize("command,flag,value", [
        ("verify", "seed", "-1"),
        ("verify", "tol-sphere-factor", "-1"),
        ("verify", "tol-sphere-factor", "nan"),
        ("bs-scan", "mu-min", "0"), ("bs-scan", "mu-min", "nan"),
        ("bs-scan", "mu-max", "inf"), ("bs-scan", "mu-max", "nan"),
        ("bs-scan", "steps", "1"),
    ])
    def test_range_refused_before_any_work(self, tmp_path, capsys,
                                           monkeypatch, command, flag, value):
        err = self.refused_before_any_work(tmp_path, capsys, monkeypatch,
                                           command, [f"--{flag}", value])
        assert err.startswith(f"usage error: argument --{flag}: must be ")

    # verify reads lambda_2, so it needs two pairs; every count needs one
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", [
        ("verify", "k", "1"), ("verify", "k", "0"),
        ("bs-scan", "scan-k", "0"),
    ])
    def test_eigenpair_count_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flag, value, via):
        err = self.refused_before_any_work(
            tmp_path, capsys, monkeypatch, command,
            self.given(tmp_path, flag, value, via))
        assert err.startswith(f"usage error: argument --{flag}: must be ")

    # each command takes only the flags it reads; these in-range values
    # are refused because the command would ignore them, and verify reads
    # no solver tolerance and no lemma threshold
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", [
        ("bs-scan", "k", "3"), ("bs-scan", "eig-tol", "1e-8"),
        ("bs-scan", "tol-sphere-factor", "0.1"),
        ("bs-scan", "tol-identity", "0.1"),
        ("verify", "eig-tol", "1e-8"), ("verify", "tol-identity", "0.1"),
    ])
    def test_unread_flag_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flag, value, via):
        err = self.refused_before_any_work(
            tmp_path, capsys, monkeypatch, command,
            self.given(tmp_path, flag, value, via))
        named = f"--{flag}" if via == "flag" else repr(flag.replace("-", "_"))
        assert err.startswith("usage error: ") and named in err

    @staticmethod
    def given(tmp_path, flag, value, via):
        """The argv that passes ``flag`` as a flag or as a config key."""
        if via == "flag":
            return [f"--{flag}", value]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        return ["--config", str(cfg)]

    @staticmethod
    def refused_before_any_work(tmp_path, capsys, monkeypatch, command, extra):
        """Exit 64 with no curvature computed and no report written; returns
        the one stderr line."""
        calls = []
        monkeypatch.setattr(cli, "compute_curvature",
                            lambda *a, **k: calls.append(a))
        out = tmp_path / "rep.json"
        assert run([command, "--shape", "sphere", "--subdiv", "1", *extra,
                    "-o", str(out)]) == 64
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert not out.exists()
        return err[0]


class TestUnwritableOutput:
    """An output path in a missing directory, or one that is a directory,
    is a usage error: exit 64 and one stderr line, not a traceback."""

    SHAPE = ["--shape", "sphere", "--subdiv", "1"]

    @pytest.mark.parametrize("argv", [
        ["verify", *SHAPE, "-o", "{missing}/rep.json"],
        ["bs-scan", *SHAPE, "--steps", "4", "-o", "{missing}/rep.json"],
        ["bs-scan", *SHAPE, "--steps", "4", "--csv", "{missing}/scan.csv"],
        ["generate", *SHAPE, "-o", "{missing}/sphere.off"],
    ])
    def test_exit_64(self, tmp_path, capsys, monkeypatch, argv):
        # refused before the mesh is analyzed, not after the whole run
        calls = []
        monkeypatch.setattr(cli, "compute_curvature",
                            lambda *a, **k: calls.append(a))
        missing = tmp_path / "missing"
        assert run([a.format(missing=missing) for a in argv]) == 64
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error: cannot write output: ")
        assert str(missing) in err[0]
        assert not missing.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", *SHAPE, "-o", "{dir}"],
        ["bs-scan", *SHAPE, "--steps", "4", "-o", "{dir}"],
        ["bs-scan", *SHAPE, "--steps", "4", "--csv", "{dir}"],
        ["generate", *SHAPE, "-o", "{dir}"],
    ])
    def test_directory_exit_64(self, tmp_path, capsys, monkeypatch, argv):
        # an output path that is an existing directory is refused up front
        calls = []
        monkeypatch.setattr(cli, "compute_curvature",
                            lambda *a, **k: calls.append(a))
        assert run([a.format(dir=tmp_path) for a in argv]) == 64
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == [f"usage error: cannot write output: {str(tmp_path)!r} "
                       "is a directory"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output,csv", [
        ("same.out", "same.out"),
        ("same.out", "./same.out"),
        ("{dir}/same.out", "same.out"),
    ], ids=["equal", "dot-slash", "absolute-and-rebased"])
    def test_json_and_csv_on_one_file_exit_64(self, tmp_path, capsys,
                                              monkeypatch, output, csv):
        # the JSON would overwrite the CSV; both paths are compared after
        # CURVSPEC_OUTDIR rebases them, before any work
        monkeypatch.setenv("CURVSPEC_OUTDIR", str(tmp_path))
        calls = []
        monkeypatch.setattr(cli, "compute_curvature",
                            lambda *a, **k: calls.append(a))
        assert run(["bs-scan", *self.SHAPE, "--steps", "4",
                    "-o", output.format(dir=tmp_path), "--csv", csv]) == 64
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error: cannot write output: -o and "
                                 "--csv both name ")
        assert list(tmp_path.iterdir()) == []


class TestJsonable:
    def test_dataclasses_arrays_and_numpy_scalars(self):
        @dataclasses.dataclass(frozen=True)
        class Block:
            rows: np.ndarray
            crossings: tuple
            count: np.int64
            flag: np.bool_

        crossing = birman.Crossing(mu0=1.5, branch=0, eig_error=1e-13,
                                   matched_eigenvalue=-1.5, match_error=2e-9,
                                   evaluations=3)
        block = Block(rows=np.arange(6.0).reshape(2, 3),
                      crossings=(crossing, crossing),
                      count=np.int64(7), flag=np.bool_(True))
        out = cli._jsonable({"block": block, "empty": None})
        assert out == {"block": {
            "rows": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
            "crossings": [dataclasses.asdict(crossing)] * 2,
            "count": 7, "flag": True,
        }, "empty": None}
        blk = out["block"]
        assert type(blk["count"]) is int and type(blk["flag"]) is bool
        assert all(type(v) is float for row in blk["rows"] for v in row)
        assert json.loads(json.dumps(out)) == out


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "rep.json"
        argv = [
            "verify", "--shape", "sphere", "--subdiv", "2", "--r", "0",
            "-o", str(out), "--no-embed-timings",
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_log_level_leaves_report_unchanged(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        argv = [
            "bs-scan", "--shape", "ellipsoid", "--a", "2", "--b", "1",
            "--c", "1", "--subdiv", "2", "--r", "0", "-o", str(out),
            "--no-embed-timings",
        ]
        assert run(argv) == 0
        plain = out.read_bytes()
        assert capsys.readouterr().err == ""
        assert run(argv + ["--log-level", "debug"]) == 0
        assert out.read_bytes() == plain
        lines = capsys.readouterr().err.splitlines()
        branch = [ln for ln in lines
                  if ln.startswith("DEBUG curvspec.birman: branch ")]
        # the Newton iterates on the reduced basis log on their own lines
        reduced = [ln for ln in lines
                   if ln.startswith("DEBUG curvspec.birman: reduced branch ")]
        assert branch and reduced and all(
            ln.startswith("DEBUG curvspec.eigen: ")
            for ln in lines if ln not in branch + reduced)
        assert sum(c["evaluations"] for c in json.loads(plain)[
            "birman_schwinger"]["crossings"]) == len(branch)

    def test_debug_log_names_the_layout_and_each_factor(self, tmp_path,
                                                        caplog):
        # one band layout per mesh, one line per factorization with its shift
        out = tmp_path / "rep.json"
        with caplog.at_level(logging.DEBUG, logger="curvspec.eigen"):
            assert run([
                "bs-scan", "--shape", "ellipsoid", "--a", "2", "--b", "1",
                "--c", "1", "--subdiv", "2", "--r", "0", "--steps", "8",
                "--scan-k", "2", "--no-embed-timings", "-o", str(out),
            ]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "curvspec.eigen"]
        layout = [ln for ln in lines if ln.startswith("band layout: ")]
        assert len(layout) == 1
        assert layout[0].startswith("band layout: V=162 bw=")
        factors = [ln for ln in lines if ln.startswith("factor a + ")]
        assert len(factors) == len(lines) - 1
        newton = sum(c["evaluations"] for c in json.loads(out.read_text())[
            "birman_schwinger"]["crossings"])
        # one per grid point, one per Newton step, the pencil match
        assert len(factors) == 8 + newton + 1
        assert "error" not in json.loads(out.read_text())

    def test_timings_embedded_by_default(self, tmp_path):
        out = tmp_path / "rep.json"
        run(["verify", "--shape", "sphere", "--subdiv", "1", "--r", "0", "-o", str(out)])
        blob = json.loads(out.read_text())
        assert blob["timings"] and blob["timings"]["total_s"] > 0


    @staticmethod
    def split_timings(tmp_path, monkeypatch, command, *extra):
        """Run ``command`` on the subdiv-1 sphere with a pencil assembly
        slowed by 0.2 s; return the report's timings."""
        def slow_pencil(*args, _fn=assemble.assemble_pencil, **kwargs):
            time.sleep(0.2)
            return _fn(*args, **kwargs)

        for module in (cli, verify):
            monkeypatch.setattr(module, "assemble_pencil", slow_pencil)
        out = tmp_path / "rep.json"
        assert run([command, "--shape", "sphere", "--subdiv", "1", "--r", "0",
                    *extra, "-o", str(out)]) == 0
        return json.loads(out.read_text())["timings"]

    @staticmethod
    def assert_split(timings, stages):
        # the keys are the README table's for the command, and each counts
        # its own stage alone: the slow pencil assembly lands in curvature_s
        assert set(timings) == {"mesh_s", "curvature_s", "total_s"} | stages
        assert timings["curvature_s"] >= 0.2
        assert all(timings[key] < 0.2 for key in stages | {"mesh_s"})
        assert sum(v for k, v in timings.items() if k != "total_s") \
            <= timings["total_s"]

    def test_timings_split_by_stage(self, tmp_path, monkeypatch):
        self.assert_split(
            self.split_timings(tmp_path, monkeypatch, "verify"),
            {"spectrum_s", "corollary_s", "lemma_s", "identities_s"})

    def test_bs_scan_timings_split_by_stage(self, tmp_path, monkeypatch):
        self.assert_split(
            self.split_timings(tmp_path, monkeypatch, "bs-scan",
                               "--steps", "4"),
            {"scan_s"})


class TestWorkCounts:
    @staticmethod
    def counters(monkeypatch):
        """Count curvature fields, eigsh runs and the operator applications
        of each, the package's factorizations (the refused ones also on
        their own) and band orderings, scipy's shift-invert factorizations,
        and the zero-mean factors R0 with their solves."""
        counts = {"curvature": 0, "eigsh": 0, "cholesky_banded": 0,
                  "refused": 0, "reverse_cuthill_mckee": 0,
                  "arpack_splu": 0, "r0_factors": 0, "r0_solves": 0}
        applications = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def cholesky_banded(*args, _fn=sla.cholesky_banded, **kwargs):
            counts["cholesky_banded"] += 1
            try:
                return _fn(*args, **kwargs)
            except sla.LinAlgError:
                counts["refused"] += 1
                raise

        def eigsh(op, _fn=spla.eigsh, **kwargs):
            counts["eigsh"] += 1
            applications.append(0)
            run = len(applications) - 1

            def matvec(x):
                applications[run] += 1
                return op.matvec(x)
            return _fn(spla.LinearOperator(op.shape, matvec=matvec,
                                           dtype=op.dtype), **kwargs)

        def zero_mean_resolvent(pencil, _fn=identities.zero_mean_resolvent):
            counts["r0_factors"] += 1
            return counted("r0_solves", _fn(pencil))

        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        monkeypatch.setattr(cli, "compute_curvature",
                            counted("curvature", cli.compute_curvature))
        monkeypatch.setattr(spla, "eigsh", eigsh)
        monkeypatch.setattr(sla, "cholesky_banded", cholesky_banded)
        monkeypatch.setattr(eigen, "reverse_cuthill_mckee",
                            counted("reverse_cuthill_mckee",
                                    eigen.reverse_cuthill_mckee))
        # the LU eigsh(sigma=...) would make for itself when given no OPinv
        monkeypatch.setattr(arpack, "splu", counted("arpack_splu", arpack.splu))
        monkeypatch.setattr(identities, "zero_mean_resolvent",
                            zero_mean_resolvent)
        return counts, applications

    VERIFY_ELLIPSOID_S4_R1 = [
        "verify", "--shape", "ellipsoid", "--a", "2", "--b", "1", "--c", "1",
        "--subdiv", "4", "--r", "1",
    ]

    def test_verify_computes_each_object_once(self, tmp_path, monkeypatch):
        counts, _ = self.counters(monkeypatch)
        code = run(self.VERIFY_ELLIPSOID_S4_R1 + ["-o", str(tmp_path / "rep.json")])
        assert code == 0
        assert counts == {
            "curvature": 1,
            "eigsh": 1,             # the pencil; T_r is bounded, not solved
            # R0 and the pencil's second rung: the first lies above
            # lambda_1, and the ladder's Ritz bound drops it unfactored
            "cholesky_banded": 2,
            "refused": 0,
            "reverse_cuthill_mckee": 1,   # one band layout, shared by all
            "arpack_splu": 0,       # ARPACK runs on the package's own factors
            "r0_factors": 1,        # one R0 serves the d_i alone
            "r0_solves": 3,         # one per test function, read by every check
        }

    def test_bs_scan_bound_drops_the_refused_rung(self, tmp_path,
                                                  monkeypatch):
        # the crossing-match solve's first rung lies above lambda_1 here;
        # the ladder's Ritz bound drops it, so nothing is refused
        counts, _ = self.counters(monkeypatch)
        argv = ["bs-scan", *self.VERIFY_ELLIPSOID_S4_R1[1:],
                "-o", str(tmp_path / "rep.json")]
        assert run(argv) == 0
        assert json.loads((tmp_path / "rep.json").read_text())[
            "birman_schwinger"]["crossings"]
        assert counts["refused"] == 0

    @pytest.mark.parametrize("source", ["mesh", "shape"])
    def test_mesh_gate_runs_once(self, tmp_path, monkeypatch, source):
        # the TriMesh constructor is the one gate, and its last step, the
        # connectivity count, runs once per command, loaded or generated
        off = tmp_path / "s.off"
        write_off(get_mesh("sphere", 2), off)
        calls = []

        def counted(*args, _fn=mesh_mod.connected_components, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mesh_mod, "connected_components", counted)
        given = (["--mesh", str(off)] if source == "mesh"
                 else ["--shape", "sphere", "--subdiv", "2"])
        assert run(["verify", *given, "-o", str(tmp_path / "rep.json")]) == 0
        assert len(calls) == 1

    def test_certified_shifts_cut_the_applications(self, tmp_path,
                                                   monkeypatch):
        # at the floor shift the pencil solve took 92 operator applications
        # here; a target near lambda_1 separates the wanted eigenvalues
        # better
        _, applications = self.counters(monkeypatch)
        code = run(self.VERIFY_ELLIPSOID_S4_R1 + ["-o", str(tmp_path / "rep.json")])
        assert code == 0
        pencil, = applications
        assert pencil <= 65

    @pytest.mark.parametrize("command,factors,eigsh", [
        # the pencil and R0; the pencil eigensolve
        ("verify", 2, 1),
    ])
    def test_solver_work_per_command(self, tmp_path, monkeypatch, command,
                                     factors, eigsh):
        # only the solves a verdict or an identity reads: no lam1(K, M)
        # eigensolve and no resolvent trials
        counts, _ = self.counters(monkeypatch)
        assert run([command, "--shape", "ellipsoid", "--a", "2", "--b", "1",
                    "--c", "1", "--subdiv", "3", "--r", "1",
                    "-o", str(tmp_path / "rep.json")]) == 0
        assert (counts["cholesky_banded"], counts["eigsh"]) == (factors, eigsh)

    def test_bs_scan_factors_only_through_eigen(self, tmp_path, monkeypatch):
        counts, _ = self.counters(monkeypatch)
        out = tmp_path / "rep.json"
        code = run([
            "bs-scan", "--shape", "ellipsoid", "--a", "2", "--b", "1", "--c", "1",
            "--subdiv", "2", "--r", "0", "--steps", "32", "--scan-k", "3",
            "--no-embed-timings", "-o", str(out),
        ])
        assert code == 0
        scan = json.loads(out.read_text())["birman_schwinger"]
        crossings = scan["crossings"]
        assert crossings
        confirm = sum(c["evaluations"] for c in crossings)
        assert counts["arpack_splu"] == 0
        # one per snapshot (not per grid point), one per full evaluation
        # confirming a crossing, the pencil match at the first rung of its
        # ladder; no zero-mean factor
        assert len(scan["snapshots"]) == 8
        assert counts["cholesky_banded"] == 8 + confirm + 1
        # two eigsh at mu_min, the kernel's and the W-restricted top, one
        # per full evaluation and one for the pencil match; the later
        # snapshots take Krylov steps on the reduced pencil
        assert counts["eigsh"] == 2 + confirm + 1
        assert counts["refused"] == 0
        assert counts["reverse_cuthill_mckee"] == 1
        assert (counts["r0_factors"], counts["r0_solves"]) == (0, 0)


class TestConfigFile:
    def test_values_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subdiv = 2\nr = 1\nshape = sphere\nseed = 7\n")
        out = tmp_path / "rep.json"
        code = run(["verify", "--config", str(cfg), "--r", "0", "-o", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["config"]["subdiv"] == 2      # from file
        assert blob["config"]["r"] == 0           # flag wins
        assert blob["config"]["seed"] == 7

    @pytest.mark.parametrize("word,embedded", [
        ("yes", False), ("On", False), ("false", True), ("no", True)])
    def test_switch_takes_a_boolean_word(self, tmp_path, word, embedded):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape = sphere\nsubdiv = 1\nno-embed-timings = {word}\n")
        out = tmp_path / "rep.json"
        assert run(["verify", "--config", str(cfg), "-o", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert (blob["timings"] is not None) == embedded

    def test_switch_refuses_another_word(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape = sphere\nno-embed-timings = 2\n")
        assert run(["verify", "--config", str(cfg)]) == 64
        assert "no_embed_timings" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape = sphere\nwibble = 3\n")
        assert run(["verify", "--config", str(cfg)]) == 64
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize("text,flag", [
        ("log_level = bogus", "--log-level"),
        ("log-level = DEBUG", "--log-level"),
        ("shape = cube", "--shape"),
    ])
    def test_value_outside_choices_refused(self, tmp_path, capsys, text,
                                           flag):
        # a file value is parsed as its flag, so the flag's choices hold
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"subdiv = 0\n{text}\n")
        out = tmp_path / "rep.json"
        assert run(["verify", "--config", str(cfg), "-o", str(out)]) == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: argument {flag}: "
                                 "invalid choice: ")
        assert not out.exists()

    def test_non_utf8_file_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"shape = sph\xffre\n")
        assert run(["verify", "--config", str(cfg)]) == 64
        assert capsys.readouterr().err.startswith(
            "usage error: cannot read config file: ")

    def test_outdir_rebase(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVSPEC_OUTDIR", str(tmp_path))
        code = run([
            "verify", "--shape", "sphere", "--subdiv", "1", "--r", "0",
            "-o", "nested.json",
        ])
        assert code == 0
        assert (tmp_path / "nested.json").exists()


class TestOtherCommands:
    def test_bs_scan(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run([
            "bs-scan", "--shape", "ellipsoid", "--a", "2", "--b", "1", "--c", "1",
            "--subdiv", "2", "--r", "1", "--steps", "16", "-o", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        scan = blob["birman_schwinger"]
        assert len(scan["mu_grid"]) == 16
        assert len(scan["crossings"]) == 2

    @pytest.mark.parametrize("window", [["--mu-min", "1000"],
                                        ["--mu-max", "1e-9"]])
    def test_bs_scan_window_refused_before_the_pencil(self, tmp_path, capsys,
                                                      monkeypatch, window):
        # the default bound on the other side comes from max(W^2), so the
        # window is checked on the curvature field, before assembly
        calls = []
        monkeypatch.setattr(cli, "assemble_pencil",
                            lambda *a, **k: calls.append(a))
        out = tmp_path / "rep.json"
        assert run(["bs-scan", "--shape", "sphere", "--subdiv", "1",
                    *window, "-o", str(out)]) == 64
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error: need 0 < mu_min < mu_max, got ")
        assert not out.exists()

    def test_bs_scan_huge_mu_max(self, tmp_path):
        # at mu_max = 1e80 the Krylov steps at the top snapshots underflow
        # to zero columns; they span nothing, and the crossings are those
        # of the default window
        base = ["bs-scan", "--shape", "ellipsoid", "--a", "2", "--subdiv", "2"]
        mu0 = {}
        for mu_max in (None, "1e80", "1e300"):
            out = tmp_path / f"{mu_max}.json"
            extra = [] if mu_max is None else ["--mu-max", mu_max]
            assert run(base + extra + ["-o", str(out)]) == 0
            scan = json.loads(out.read_text())["birman_schwinger"]
            mu0[mu_max] = [c["mu0"] for c in scan["crossings"]]
        assert len(mu0[None]) == 2
        for mu_max in ("1e80", "1e300"):
            np.testing.assert_allclose(mu0[mu_max], mu0[None], rtol=1e-12)

    def test_bs_scan_empty_window(self, capsys, tmp_path):
        code = run([
            "bs-scan", "--shape", "sphere", "--subdiv", "1", "--r", "0",
            "--mu-min", "5", "--mu-max", "1", "-o", str(tmp_path / "x.json"),
        ])
        assert code == 64

    def test_usage_errors(self, capsys):
        assert run(["verify", "--shape", "dodecahedron"]) == 64
        capsys.readouterr()
        # no command, or an unknown one, is refused naming the commands;
        # verify reports what spectrum and identities did
        assert list(cli._COMMANDS) == ["generate", "verify", "bs-scan"]
        for argv in (["frobnicate"], [], ["--config", "x"], ["spectrum"],
                     ["identities", "--shape", "sphere"]):
            assert run(argv) == 64
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("usage error: ")
            assert all(name in err[0] for name in cli._COMMANDS)


def readme_commands():
    """Every `curvspec ...` line inside a README code block, continuations joined."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    blocks = text.split("```")[1::2]
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("curvspec ")]


class TestReadme:
    def test_command_examples_parse(self):
        commands = readme_commands()
        assert len(commands) >= 8
        for line in commands:
            command, *flags = shlex.split(line)[1:]
            assert command in cli._COMMANDS, line
            try:
                cli.build_parser(command).parse_args(flags)
            except cli.UsageError as exc:
                pytest.fail(f"README example {line!r}: {exc}")


class TestEntryPoints:
    def test_module_execution(self, tmp_path):
        out = tmp_path / "rep.json"
        proc = subprocess.run(
            [sys.executable, "-m", "curvspec", "verify", "--shape", "sphere",
             "--subdiv", "1", "--r", "0", "-o", str(out)],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["verdicts"]["theorem"]["verdict"] == "SphereLike"

    def test_help(self):
        # the top level lists every command; a command lists its own flags
        def helped(*argv):
            proc = subprocess.run([sys.executable, "-m", "curvspec", *argv],
                                  capture_output=True, text=True,
                                  env=module_env())
            assert (proc.returncode, proc.stderr) == (0, "")
            return proc.stdout

        listing = helped("--help")
        assert all(f"  {name} " in listing for name in cli._COMMANDS)
        text = helped("verify", "--help")
        assert "--tol-sphere-factor" in text and "--tol-sphere " not in text

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_in_process(self, capsys, command):
        # help returns 0 to an in-process caller, never raises SystemExit
        argv = ["--help"] if command is None else [command, "--help"]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: curvspec ")
        if command is not None:
            assert f"curvspec {command}" in out

    @pytest.mark.parametrize("with_config", [False, True])
    def test_one_parser_per_call(self, tmp_path, monkeypatch, with_config):
        # only the command's own parser is built, and a config file is
        # parsed again by that same parser
        built = []
        init = cli._Parser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        argv = ["generate", "--shape", "sphere", "-o", str(tmp_path / "s.off")]
        if with_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("subdiv = 0\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--subdiv", "0"]
        assert run(argv) == 0
        assert built == ["curvspec generate"]
        assert load_mesh(tmp_path / "s.off").n_vertices == 12

    def test_package_import_leaves_cli_unloaded(self):
        # a fresh `import curvspec` (what the benchmark's setup time
        # measures) does not pay for argparse and the command table
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, curvspec; print('curvspec.cli' in sys.modules)"],
            capture_output=True, text=True, env=module_env())
        assert (proc.returncode, proc.stdout) == (0, "False\n")
