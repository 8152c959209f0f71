"""Command line entry point and report emission.

Commands: generate, verify, bs-scan.  _COMMANDS holds each one's function
and the flags it takes, and main builds the parser of the one command it
runs.  A key = value config file (--config) is parsed as the flags it
spells, placed before the command line's own: explicit flags win, and a
file value passes its flag's type and choices checks.  A flag or config
key that the command does not take exits 64.  --help prints and returns 0.

Both analysis commands compute the curvature field once, in _run.  verify
hands it to verify.run; bs-scan assembles the pencil and then runs the
scan.  Each timings key counts its own stage alone: the field and the
pencil assembly go to curvature_s, never to a later stage.

Reports are JSON with a fixed top-level key set (config, mesh_stats,
curvature_summary, identities, spectrum, birman_schwinger, verdicts,
timings, schema_version); keys a command does not compute are null.  A
block is the fields of the report dataclass that fills it (verify's
TheoremReport, the identities module's IdentityReport, mesh's
ValidationReport, ...), serialized by one converter.  Every judged
numeric travels with the threshold it was judged against, and the
resolved configuration is embedded verbatim so a report is reproducible
from itself.

Exit codes: 0 success, 2 theorem-violation tripwire, 3 precondition or
pipeline failure (with a JSON error block), 64 usage, an output path that
cannot be written included.

Determinism: for a fixed config and seed the JSON and CSV outputs are
byte-identical when --no-embed-timings is passed; wall-clock timings are
the one intentionally nondeterministic block.

The CURVSPEC_OUTDIR environment variable rebases relative output paths.
--log-level sends the package's stdlib logging to stderr; nothing is logged
by default and nothing logged ever enters a report.
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
from .assemble import assemble_pencil, spectral_scale
from .curvature import compute_curvature, mean_curvature
from .errors import CurvSpecError
from .mesh import load_mesh, validate, write_off
from .verify import _stopwatch

SCHEMA_VERSION = "1"

_REPORT_KEYS = (
    "config", "mesh_stats", "curvature_summary", "identities", "spectrum",
    "birman_schwinger", "verdicts", "timings", "schema_version",
)


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is taken by the theorem
    # tripwire, so route usage problems through our own exception, and
    # the exit after --help through another, so that main returns
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        raise _HelpShown


def _resolve_out(path):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("CURVSPEC_OUTDIR", "."), path)


def _generate_mesh(args):
    """The --shape mesh, its descriptor's fields read from the flags of
    the same names; a descriptor, subdivision or grid the generator
    refuses is a usage error."""
    given = vars(args)
    params = {f.name: given[f.name]
              for f in dataclasses.fields(surfaces._KINDS[args.shape])}
    try:
        surf = surfaces.from_params(args.shape, **params)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid surface descriptor: {exc}") from exc
    try:
        return surfaces.generate(surf, subdiv=args.subdiv,
                                 nu=args.nu, nv=args.nv)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _acquire_mesh(args, timings):
    if bool(args.mesh) == bool(args.shape):
        raise UsageError("provide exactly one of --mesh and --shape")
    # timed whether or not the load is refused
    with _stopwatch(timings, "mesh_s"):
        return load_mesh(args.mesh) if args.mesh else _generate_mesh(args)


def _curvature_summary(field, mesh):
    """The summary block, from the field and the vertex areas alone: the
    pencil is not built for it."""
    k, w = field.vertex_kappas, field.w
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
        "w_mean_sq": spectral_scale(mesh.vertex_areas, w),
    }


def _config_block(args, command):
    # the log level changes what reaches stderr, never a number
    return {"command": command, **{key: val for key, val in vars(args).items()
                                   if key != "log_level"}}


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


def _write_csv(path, header, rows):
    """A CSV of one header line and ``rows``, every value as %.17g."""
    with _writing(), open(_resolve_out(path), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


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
    print(f"wrote {out}: vertices={rep.n_vertices} faces={rep.n_faces} "
          f"euler={rep.euler_characteristic} closed={rep.closed} "
          f"oriented={rep.oriented}")
    return 0


def _run(args, command, body):
    """Shared frame of the analysis commands.

    Refuses an output path in a missing directory, acquires the mesh,
    computes the order-r curvature field (timed as curvature_s) and its
    summary, then lets ``body(mesh, field, report, timings)`` fill the
    rest of the report and return an exit code.  A CurvSpecError becomes
    a JSON error block and exit code 3; the report is emitted either way.
    """
    _check_outputs(args)
    timings = {}
    report = {"config": _config_block(args, command)}
    t_all = time.perf_counter()
    error = None
    try:
        mesh = _acquire_mesh(args, timings)
        report["mesh_stats"] = validate(mesh)
        with _stopwatch(timings, "curvature_s"):
            field = compute_curvature(mesh, r=args.r)
        report["curvature_summary"] = _curvature_summary(field, mesh)
        code = body(mesh, field, report, timings)
    except CurvSpecError as exc:
        # keep the message, not the exception: its traceback would pin
        # every frame's arrays (the mesh among them) until a gc pass
        error = str(exc)
        report["error"] = {"type": type(exc).__name__, "message": error}
        code = 3
    timings["total_s"] = time.perf_counter() - t_all
    _emit(report, args, timings)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def cmd_verify(args):
    def body(mesh, field, report, timings):
        config = _verify_config(args)
        done = verify.run(mesh, field, config, timings)
        spec = done.spectrum
        report["identities"] = done.identities
        report["spectrum"] = {"eigenvalues": spec.eigenvalues,
                              "residuals": spec.residuals,
                              "shift": spec.shift,
                              "k": config.k,
                              "seed": config.seed}
        report["verdicts"] = {"theorem": done.theorem,
                              "corollary": done.corollary,
                              "lemma": done.lemma}
        return 2 if done.theorem.verdict == verify.VIOLATION else 0

    code = _run(args, "verify", body)
    if code == 2:
        print("verdict Violation: lambda_2 above tolerance", file=sys.stderr)
    return code


def cmd_bs_scan(args):
    if args.mu_min is not None and args.mu_max is not None \
            and args.mu_min >= args.mu_max:
        raise UsageError("empty mu range: need mu-min < mu-max")

    def body(mesh, field, report, timings):
        # the window needs only W, so a bad one is refused before the
        # pencil is assembled
        try:
            mu_min, mu_max = birman.mu_window(field.w, args.mu_min,
                                              args.mu_max)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        with _stopwatch(timings, "curvature_s"):
            pencil = assemble_pencil(mesh, field)
        with _stopwatch(timings, "scan_s"):
            scan = birman.scan_crossings(
                pencil, mu_min=mu_min, mu_max=mu_max, steps=args.steps,
                k=args.scan_k, seed=args.seed,
            )
        report["birman_schwinger"] = scan
        if args.csv:
            header = ["mu"] + [f"top_{j + 1}" for j in range(args.scan_k)]
            _write_csv(args.csv, header,
                       np.column_stack((scan.mu_grid, scan.top_eigenvalues)))
        return 0
    return _run(args, "bs-scan", body)


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


def _flag(names, kind=None, default=None, **kwargs):
    """One add_argument call as data: the space-separated ``names``, the
    type, the default and any other keywords."""
    if kind is not None:
        kwargs["type"] = kind
    return names.split(), dict(kwargs, default=default)


_SHAPE_FLAGS = (
    _flag("--shape", choices=["sphere", "ellipsoid", "torus", "bumped"]),
    _flag("--radius", float, 1.0),
    _flag("--a", float, 1.0), _flag("--b", float, 1.0), _flag("--c", float, 1.0),
    _flag("--amplitude", float, 0.05), _flag("--frequency", int, 3),
    _flag("--major-radius", float, 2.0), _flag("--minor-radius", float, 0.5),
    _flag("--subdiv", int, 3), _flag("--nu", int), _flag("--nv", int),
)
_COMMON_FLAGS = (
    _flag("--config", help="key = value file of flags"),
    _flag("--output -o", help="output path (JSON or mesh)"),
    _flag("--no-embed-timings", default=False, action="store_true",
          help="null the timings block for byte-stable output"),
    _flag("--log-level", choices=["debug", "info", "warning"],
          help="log to stderr at this level"),
)
# what both analysis commands take beyond the shape and common flags
_INPUT_FLAGS = (
    _flag("--mesh", help="input OFF/OBJ mesh path"),
    _flag("--r", int, 0, choices=[0, 1], help="operator order"),
    _flag("--seed", _at_least(0), 0),
)

_DEFAULTS = verify.VerifyConfig()

# command -> (function, what it does, the flags it takes beyond the shape
# and common flags); verify reads lambda_2, so its --k is at least 2
_COMMANDS = {
    "generate": (cmd_generate, "write an analytic surface mesh as OFF", ()),
    "verify": (cmd_verify, "classify lambda_2, with the checks that back it",
               _INPUT_FLAGS + (
        _flag("--k", _at_least(2), _DEFAULTS.k),
        _flag("--eig-tol", _NONNEGATIVE, _DEFAULTS.eig_tol),
        _flag("--tol-sphere-factor", _NONNEGATIVE,
              _DEFAULTS.tol_sphere_factor),
        _flag("--tol-identity", _NONNEGATIVE, _DEFAULTS.tol_identity))),
    "bs-scan": (cmd_bs_scan, "the Birman-Schwinger crossing scan",
                _INPUT_FLAGS + (
        _flag("--csv"),
        _flag("--mu-min", _POSITIVE), _flag("--mu-max", _POSITIVE),
        _flag("--steps", _at_least(2), 32),
        _flag("--scan-k", _at_least(1), 3))),
}


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


def build_parser(command):
    """The parser of one command: its shape, command and common flags."""
    _, about, flags = _COMMANDS[command]
    parser = _Parser(prog=f"curvspec {command}", description=about,
                     allow_abbrev=False)
    for names, kwargs in _SHAPE_FLAGS + flags + _COMMON_FLAGS:
        parser.add_argument(*names, **kwargs)
    return parser


_BOOLEANS = {"true": True, "yes": True, "on": True,
             "false": False, "no": False, "off": False}


def _config_flags(path, given):
    """The entries of the config file at ``path`` spelled as flags:
    ``key = v`` is ``--key=v``, and a switch's true word the bare switch.
    ``given`` is the namespace of the command line alone, which names
    every key the command takes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    flags = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key = value")
        key, val = (p.strip() for p in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in given:
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        # a switch's value is a bool even before any flag sets it
        if not isinstance(given[key], bool):
            flags.append(f"{flag}={val}")
        elif val.lower() not in _BOOLEANS:
            raise UsageError(
                f"config key {key!r} takes true/false, got {val!r}")
        elif _BOOLEANS[val.lower()]:
            flags.append(flag)
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print("usage: curvspec COMMAND [flags]; curvspec COMMAND --help "
              "lists its flags\n\ncommands:")
        for name, (_, about, _) in _COMMANDS.items():
            print(f"  {name:<11} {about}")
        return 0
    try:
        if command not in _COMMANDS:
            got = "" if command is None else f", got {command!r}"
            raise UsageError(f"expected a command: {', '.join(_COMMANDS)}"
                             f"{got}")
        parser = build_parser(command)
        args = parser.parse_args(argv[1:])
        if args.config:
            # the file's flags go first, so the command line's own win
            args = parser.parse_args(
                _config_flags(args.config, vars(args)) + argv[1:])
        with _logging_to_stderr(args.log_level):
            return _COMMANDS[command][0](args)
    except _HelpShown:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
