"""Command line entry point and report emission.

Subcommands: generate, verify, spectrum, bs-scan, identities.  Reports are
JSON with a fixed top-level key set (config, mesh_stats, curvature_summary,
identities, spectrum, birman_schwinger, verdicts, timings, schema_version);
keys a command does not compute are null.  A block is the fields of the
report dataclass that fills it (verify's TheoremReport, identities'
IdentityReport, mesh's ValidationReport, ...), serialized by one converter.
Every judged numeric travels with the threshold it was judged against, and
the resolved configuration is embedded verbatim so a report is
reproducible from itself.

Exit codes: 0 success, 2 theorem-violation tripwire, 3 precondition or
pipeline failure (with a JSON error block), 64 usage, an output path that
cannot be written included.

Determinism: for a fixed config and seed the JSON and CSV outputs are
byte-identical when --no-embed-timings is passed; wall-clock timings are
the one intentionally nondeterministic block.

A key = value config file (--config) supplies defaults; explicit flags win.
The CURVSPEC_OUTDIR environment variable rebases relative output paths.
--log-level sends the package's stdlib logging to stderr; nothing is logged
by default and nothing logged ever enters a report.

Each analysis command takes only the flags it reads (the _COMMANDS
table); a flag or config key that a command does not take exits 64.
"""

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import birman, surfaces, verify
from .curvature import mean_curvature
from .errors import CurvSpecError
from .mesh import load_mesh, validate, write_off

SCHEMA_VERSION = "1"

_REPORT_KEYS = (
    "config", "mesh_stats", "curvature_summary", "identities", "spectrum",
    "birman_schwinger", "verdicts", "timings", "schema_version",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is taken by the theorem
    # tripwire, so route usage problems through our own exception
    def error(self, message):
        raise UsageError(message)


_BOOLEANS = {"true": True, "yes": True, "on": True,
             "false": False, "no": False, "off": False}


def _read_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key = value")
                key, val = (p.strip() for p in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


def _resolve_out(path):
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("CURVSPEC_OUTDIR", "."), path)


def _build_surface(args):
    params = {
        "sphere": {"radius": args.radius},
        "ellipsoid": {"a": args.a, "b": args.b, "c": args.c},
        "torus": {"major_radius": args.major_radius,
                  "minor_radius": args.minor_radius},
        "bumped": {"radius": args.radius, "amplitude": args.amplitude,
                   "frequency": args.frequency},
    }
    if args.shape not in params:
        raise UsageError(f"unknown shape {args.shape!r}")
    try:
        return surfaces.from_params(args.shape, **params[args.shape])
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid surface descriptor: {exc}") from exc


def _generate_mesh(args):
    """The --shape mesh; a subdivision or grid the generator refuses is a
    usage error."""
    surf = _build_surface(args)
    try:
        return surfaces.generate(surf, subdiv=args.subdiv,
                                 nu=args.nu, nv=args.nv)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _acquire_mesh(args, timings):
    if bool(args.mesh) == bool(args.shape):
        raise UsageError("provide exactly one of --mesh and --shape")
    t0 = time.perf_counter()
    mesh = load_mesh(args.mesh) if args.mesh else _generate_mesh(args)
    timings["mesh_s"] = time.perf_counter() - t0
    return mesh


def _curvature_summary(field, mesh):
    """The summary block, from the field and the vertex areas alone: the
    pencil is not built for it."""
    k, w, a = field.vertex_kappas, field.w, mesh.vertex_areas
    return {
        "r": field.r,
        "kappa_min": float(k.min()),
        "kappa_max": float(k.max()),
        "h1_mean": float(np.mean(mean_curvature(k, 1))),
        "h_next_min": float(field.h_next.min()),
        "h_next_max": float(field.h_next.max()),
        "h_next_positive": bool(field.h_next.min() > 0.0),
        "w_min": float(w.min()),
        "w_max": float(w.max()),
        # the pencil's spectral_scale: its mass is the vertex areas
        "w_mean_sq": float(a @ w**2) / float(a.sum()),
    }


def _config_block(args, command):
    block = {"command": command}
    for key, val in sorted(vars(args).items()):
        # the log level changes what reaches stderr, never a number
        if key in ("func", "log_level") or callable(val):
            continue
        block[key] = val
    return block


def _jsonable(value):
    """``value`` as JSON data: a dataclass becomes its fields, an ndarray
    or tuple a list, a numpy scalar the Python value."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name)
                 for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _check_outputs(args):
    """Refuse an -o or --csv path in a missing directory, or one that is a
    directory, before any work; _writing() still catches what only the
    write itself can reveal."""
    for path in (args.output, getattr(args, "csv", None)):
        out = _resolve_out(path)
        if out is None:
            continue
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise UsageError(f"cannot write output: no directory for {out!r}")
        if os.path.isdir(out):
            raise UsageError(f"cannot write output: {out!r} is a directory")


@contextlib.contextmanager
def _writing():
    """Turn a failed output write into a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _emit(report, args, timings):
    report["schema_version"] = SCHEMA_VERSION
    report["timings"] = None if args.no_embed_timings else timings
    for key in _REPORT_KEYS:
        report.setdefault(key, None)
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    out = _resolve_out(args.output)
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing(), open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verify_config(args):
    """The VerifyConfig of the flags the command takes; VerifyConfig's own
    defaults stand for the rest."""
    given = vars(args)
    return verify.VerifyConfig(**{
        f.name: given[f.name] for f in dataclasses.fields(verify.VerifyConfig)
        if f.name in given})


def cmd_generate(args):
    if args.output is None:
        raise UsageError("generate requires --output")
    if args.shape is None:
        raise UsageError("generate requires --shape")
    _check_outputs(args)
    mesh = _generate_mesh(args)
    out = _resolve_out(args.output)
    with _writing():
        write_off(mesh, out)
    rep = validate(mesh)
    print(
        f"wrote {out}: vertices={rep.n_vertices} faces={rep.n_faces} "
        f"euler={rep.euler_characteristic} closed={rep.closed} "
        f"oriented={rep.oriented}"
    )
    return 0


def _run(args, command, body):
    """Shared frame of the analysis commands.

    Refuses an output path in a missing directory, acquires the mesh,
    builds one verify.Analysis and its curvature summary, then lets
    ``body(analysis, report, timings)`` fill the rest of the report and
    return an exit code.  A CurvSpecError becomes a JSON error block and
    exit code 3; the report is emitted either way.
    """
    if args.r not in (0, 1):
        raise UsageError(f"--r must be 0 or 1, got {args.r}")
    _check_outputs(args)
    timings = {}
    report = {"config": _config_block(args, command)}
    t_all = time.perf_counter()
    analysis = error = None
    try:
        mesh = _acquire_mesh(args, timings)
        report["mesh_stats"] = validate(mesh)
        analysis = verify.Analysis(mesh, args.r, _verify_config(args))
        report["curvature_summary"] = _curvature_summary(analysis.field,
                                                         mesh)
        code = body(analysis, report, timings)
    except CurvSpecError as exc:
        # keep the message, not the exception: its traceback would pin
        # every frame's arrays (the mesh among them) until a gc pass
        error = str(exc)
        report["error"] = {"type": type(exc).__name__, "message": error}
        code = 3
    if analysis is not None:
        timings.update(analysis.timings)
    timings["total_s"] = time.perf_counter() - t_all
    _emit(report, args, timings)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def cmd_verify(args):
    def body(analysis, report, timings):
        theorem = analysis.theorem()
        lemma = analysis.lemma()
        corollary = analysis.corollary()
        report["identities"] = analysis.identities()
        report["spectrum"] = {"eigenvalues": analysis.spectrum.eigenvalues,
                              "k": analysis.config.k,
                              "seed": analysis.config.seed}
        report["verdicts"] = {"theorem": theorem, "corollary": corollary,
                              "lemma": lemma}
        return 2 if theorem.verdict == verify.VIOLATION else 0

    code = _run(args, "verify", body)
    if code == 2:
        print("verdict Violation: lambda_2 above tolerance", file=sys.stderr)
    return code


def cmd_spectrum(args):
    def body(analysis, report, timings):
        spec = analysis.spectrum
        report["spectrum"] = {"eigenvalues": spec.eigenvalues,
                              "residuals": spec.residuals, "seed": spec.seed}
        if args.csv:
            with _writing():
                spec.write_csv(_resolve_out(args.csv))
        return 0
    return _run(args, "spectrum", body)


def cmd_bs_scan(args):
    if args.mu_min is not None and args.mu_max is not None \
            and args.mu_min >= args.mu_max:
        raise UsageError("empty mu range: need mu-min < mu-max")

    def body(analysis, report, timings):
        # the window needs only W, so a bad one is refused before the
        # pencil is assembled
        try:
            mu_min, mu_max = birman.mu_window(analysis.field.w, args.mu_min,
                                              args.mu_max)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        t0 = time.perf_counter()
        scan = birman.scan_crossings(
            analysis.pencil, mu_min=mu_min, mu_max=mu_max, steps=args.steps,
            k=args.scan_k, seed=args.seed,
        )
        timings["scan_s"] = time.perf_counter() - t0
        report["birman_schwinger"] = scan
        if args.csv:
            with _writing():
                scan.write_csv(_resolve_out(args.csv))
        return 0
    return _run(args, "bs-scan", body)


def cmd_identities(args):
    def body(analysis, report, timings):
        report["identities"] = analysis.identities()
        return 0
    return _run(args, "identities", body)


def _ranged(kind, ok, what):
    """An argparse type: ``kind`` of the text, refused unless ``ok`` holds.
    A config file's values are text too, so they pass the same test."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    # argparse names the type in its "invalid int value" message
    convert.__name__ = kind.__name__
    return convert


# NaN fails every comparison, and the float ranges need a finite value
_NONNEGATIVE = _ranged(float, lambda x: np.isfinite(x) and x >= 0.0,
                       "finite and >= 0")
_POSITIVE = _ranged(float, lambda x: np.isfinite(x) and x > 0.0,
                    "finite and positive")


def _at_least(low):
    return _ranged(int, lambda n: n >= low, f">= {low}")


def _add_shape_flags(p):
    p.add_argument("--shape",
                   choices=["sphere", "ellipsoid", "torus", "bumped"])
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=0.05)
    p.add_argument("--frequency", type=int, default=3)
    p.add_argument("--subdiv", type=int, default=3)
    p.add_argument("--nu", type=int, default=None)
    p.add_argument("--nv", type=int, default=None)
    p.add_argument("--major-radius", type=float, default=2.0)
    p.add_argument("--minor-radius", type=float, default=0.5)


_DEFAULTS = verify.VerifyConfig()
_EIG_TOL = ("--eig-tol", _NONNEGATIVE, _DEFAULTS.eig_tol)
_TOL_IDENTITY = ("--tol-identity", _NONNEGATIVE, _DEFAULTS.tol_identity)
_CSV = ("--csv", str, None)

# (flag, type, default) of what each analysis command reads beyond the
# flags they all take: --mesh, the shape flags, --r and --seed (identities
# reads no seed, but one argv tail serves every command).  verify reads
# lambda_2, so its --k is at least 2
_COMMANDS = {
    "verify": (cmd_verify, (
        ("--k", _at_least(2), _DEFAULTS.k), _EIG_TOL,
        ("--tol-sphere", _NONNEGATIVE, _DEFAULTS.tol_sphere),
        ("--tol-sphere-factor", _NONNEGATIVE, _DEFAULTS.tol_sphere_factor),
        _TOL_IDENTITY)),
    "spectrum": (cmd_spectrum, (
        ("--k", _at_least(1), _DEFAULTS.k), _EIG_TOL, _CSV)),
    "bs-scan": (cmd_bs_scan, (
        _CSV, ("--mu-min", _POSITIVE, None), ("--mu-max", _POSITIVE, None),
        ("--steps", _at_least(2), 32), ("--scan-k", _at_least(1), 3))),
    "identities": (cmd_identities, (_TOL_IDENTITY,)),
}


def _add_common_flags(p):
    p.add_argument("--config", help="key = value defaults file")
    p.add_argument("--output", "-o", help="output path (JSON or mesh)")
    p.add_argument("--no-embed-timings", action="store_true",
                   help="null the timings block for byte-stable output")
    p.add_argument("--log-level", choices=["debug", "info", "warning"],
                   default=None, help="log to stderr at this level")


@contextlib.contextmanager
def _logging_to_stderr(level):
    """Route the package logger to stderr at ``level`` for one command."""
    if level is None:
        yield
        return
    logger = logging.getLogger("curvspec")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def build_parser():
    parser = _Parser(prog="curvspec", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    table = {}

    g = subs.add_parser("generate", allow_abbrev=False,
                        help="write an analytic surface mesh as OFF")
    _add_shape_flags(g)
    _add_common_flags(g)
    g.set_defaults(func=cmd_generate)
    table["generate"] = g

    for name, (fn, flags) in _COMMANDS.items():
        p = subs.add_parser(name, allow_abbrev=False)
        p.add_argument("--mesh", help="input OFF/OBJ mesh path")
        _add_shape_flags(p)
        p.add_argument("--r", type=int, default=0, help="operator order")
        p.add_argument("--seed", type=_at_least(0), default=0)
        for flag, kind, default in flags:
            p.add_argument(flag, type=kind, default=default)
        _add_common_flags(p)
        p.set_defaults(func=fn)
        table[name] = p

    return parser, table


def main(argv=None):
    parser, table = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            file_vals = _read_config_file(args.config)
            sub = table[args.command]
            actions = {a.dest: a for a in sub._actions}
            for key, val in file_vals.items():
                if key not in actions:
                    raise UsageError(f"unknown config key {key!r}")
                # only a switch takes a boolean word; every other value
                # stays a string, which argparse converts with the flag's
                # own type (argparse types string defaults only)
                if isinstance(actions[key], argparse._StoreTrueAction):
                    if val.lower() not in _BOOLEANS:
                        raise UsageError(
                            f"config key {key!r} takes true/false, got {val!r}")
                    file_vals[key] = _BOOLEANS[val.lower()]
            sub.set_defaults(**file_vals)
            args = parser.parse_args(argv)
        with _logging_to_stderr(args.log_level):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
