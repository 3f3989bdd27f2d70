"""Command-line front door.

Exit codes: 0 success, 2 precondition failure, 3 numerical failure,
64 usage error, 74 output could not be written.  Data goes to --out (or
stdout); diagnostics to stderr.

Imports: each ``_cmd_*`` imports the modules it uses, so a fresh process
loads only what its subcommand needs.  ``classify``, ``minimal``,
``period`` and usage errors run without numpy, which is most of a cold
start (guarded by ``tests/test_cli.py::test_cold_paths_load_no_numpy``).
Records go out through the numpy-free ``_output`` writers.  Calls go
through module attributes (``im.big_theta(...)``, not a name imported
from ``immersion``), so a wrapper set on the attribute, such as the
perfbench tracer or a test's monkeypatch, still sees every call.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from ._output import export_json, open_sink
from .errors import (
    BlowUp,
    DegenerateLevel,
    DegenerateProfile,
    DomainError,
    InvalidScale,
    IoError,
    NoBracket,
    NonFiniteDerivative,
    NotImmersible,
    OutsideFamily,
    PoleSingularity,
    QuadratureFailure,
    RangeError,
    RicciLabError,
    SeamMismatch,
    SignError,
    StepFailure,
    WindowError,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_IO = 74

_PRECONDITION_ERRORS = (DomainError, DegenerateProfile, InvalidScale,
                        SignError, DegenerateLevel, WindowError,
                        OutsideFamily, RangeError, NotImmersible)
_NUMERICAL_ERRORS = (QuadratureFailure, BlowUp, StepFailure, NoBracket,
                     SeamMismatch, PoleSingularity, NonFiniteDerivative)


class _UsageError(Exception):
    pass


# argparse takes only -2, -2.5 and -.5 for negative numbers and reads any
# other word that starts with "-" as an option; this pattern adds exponents
# (-2.7e-05) and the signed non-finite spellings that float() accepts.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


def _emit(record, args, default_text=None):
    sink = args.out or sys.stdout
    if args.format == "json" or default_text is None:
        export_json(record, sink)
    else:
        with open_sink(sink) as fh:
            fh.write(default_text + "\n")


def _cmd_classify(args):
    from . import spherical_family as sf

    inputs = {"c": args.c, "m": args.m, "ell": args.ell}
    cls = sf.classify(args.c, args.m, args.ell)
    record = {"inputs": inputs, "classification": cls.value}
    _emit(record, args, default_text=cls.value)


def _cmd_verify(args):
    import numpy as np

    from . import spherical_family as sf
    from . import warped_geometry as wg

    inputs = {"c": args.c, "m": args.m, "ell": args.ell, "n": args.n}
    params = sf.SphericalParams(c=args.c, m=args.m, ell=args.ell)
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    profile = sf.metric_profile(params)
    grid = np.linspace(0.0, params.period, args.n)
    report = wg.ricci_residual(profile, wg.RicciType(a=4.0, c=args.c), grid)
    record = {"inputs": inputs,
              "max_normalized_residual": report.max_normalized,
              "scale": report.scale,
              "grid_points": args.n}
    _emit(record, args)


def _cmd_period(args):
    from . import phase_portrait as pp

    inputs = {"a": args.a, "c": args.c, "m": args.m, "ell": args.ell}
    t_quad = pp.period_integral(args.a, args.c, args.m, args.ell)
    t_orbit = pp.orbit_period_numeric(args.a, args.c, args.m, args.ell)
    record = {"inputs": inputs,
              "period_integral": t_quad,
              "orbit_period": t_orbit,
              "difference": abs(t_quad - t_orbit)}
    _emit(record, args)


def _cmd_theta(args):
    from . import immersion as im
    from .spherical_family import SphericalParams

    inputs = {"c": args.c, "m": args.m, "ell": args.ell}
    params = SphericalParams(c=args.c, m=args.m, ell=args.ell)
    theta_total = im.big_theta(params)
    record = {"inputs": inputs, "Theta": theta_total,
              "Theta_over_2pi": theta_total / (2.0 * math.pi)}
    if 0.0 < args.c * args.m < 1.0:
        record["limit_ell_to_lower"] = im.theta_limits(
            args.c, "ell_to_lower", m=args.m)
    if 0.0 < args.ell < 1.0:
        record["limit_m_to_boundary"] = im.theta_limits(
            args.c, "m_to_boundary", ell=args.ell)
    closure = im.detect_closure(theta_total, q_max=args.q_max, tol=args.tol)
    record["closed"] = closure is not None
    if closure is not None:
        record.update(p=closure.p, q=closure.q, embedded=closure.embedded)
    _emit(record, args)


def _cmd_solve(args):
    from . import immersion as im

    inputs = {"c": args.c, "m": args.m, "p": args.p, "q": args.q}
    result = im.solve_for_ell(args.c, args.m, target_p=args.p, target_q=args.q)
    record = {"inputs": inputs,
              "ell": result.ell,
              "Theta": result.theta_total,
              "p": result.closure.p,
              "q": result.closure.q,
              "embedded": result.closure.embedded,
              "brackets": [list(b) for b in result.brackets]}
    _emit(record, args)


def _cmd_scan(args):
    from . import mesh_io

    inputs = {"c": args.c, "m_min": args.m_min, "m_max": args.m_max,
              "ell_min": args.ell_min, "ell_max": args.ell_max,
              "nm": args.nm, "nell": args.nell, "tol": args.tol}
    rows = mesh_io.scan_theta(args.c, (args.m_min, args.m_max),
                              (args.ell_min, args.ell_max),
                              (args.nm, args.nell), closure_tol=args.tol)
    if args.format == "json":
        _emit({"inputs": inputs, "rows": rows}, args)
        return
    mesh_io.export_csv(rows, mesh_io.SCAN_CSV_FIELDS, args.out or sys.stdout)


def _closure_from_args(params, args):
    from . import immersion as im

    if args.p is not None and args.q is not None:
        return im.ClosureResult(
            p=args.p, q=args.q,
            embedded=(args.p // math.gcd(args.p, args.q) == 1))
    theta_total = im.big_theta(params)
    closure = im.detect_closure(theta_total, q_max=args.q_max, tol=args.tol)
    if closure is None:
        raise NotImmersible(
            f"Theta = {theta_total} is not detectably rational; pass --p/--q"
        )
    return closure


def _cmd_profile(args):
    from . import mesh_io
    from .spherical_family import SphericalParams

    inputs = {"c": args.c, "m": args.m, "ell": args.ell,
              "p": args.p, "q": args.q, "ns": args.ns}
    params = SphericalParams(c=args.c, m=args.m, ell=args.ell)
    closure = _closure_from_args(params, args)
    prof = mesh_io.build_profile(params, closure, args.ns)
    if args.format == "json":
        record = {"inputs": inputs, "winding": prof.winding,
                  "samples": [[float(s), float(th)] + [float(v) for v in pt]
                              for s, th, pt in
                              zip(prof.s, prof.theta, prof.points)]}
        _emit(record, args)
        return
    rows = [{"s": float(s), "theta": float(th),
             "x": float(pt[0]), "y": float(pt[1]),
             "z": float(pt[2]), "w": float(pt[3])}
            for s, th, pt in zip(prof.s, prof.theta, prof.points)]
    mesh_io.export_csv(rows, ("s", "theta", "x", "y", "z", "w"),
                       args.out or sys.stdout)


def _cmd_mesh(args):
    from . import mesh_io
    from .spherical_family import SphericalParams

    params = SphericalParams(c=args.c, m=args.m, ell=args.ell)
    closure = _closure_from_args(params, args)
    projection = "stereographic" if args.project else None
    mesh = mesh_io.build_surface_mesh(params, closure, args.ns, args.nt,
                                      projection=projection)
    mesh_io.export_obj(mesh, args.out or sys.stdout)


def _cmd_minimal(args):
    from . import spherical_family as sf

    if (args.j is None) == (args.m is None):
        raise DomainError("minimal needs exactly one of --j or --m")
    if args.j is not None:
        inputs = {"c": args.c, "j": args.j}
        m, ell = sf.minimal_params(args.c, args.j)
        record = {"inputs": inputs, "m": m, "ell": ell, "j": args.j}
    else:
        inputs = {"c": args.c, "m": args.m}
        j = sf.minimal_modulus(args.c, args.m)
        record = {"inputs": inputs, "m": args.m, "ell": 0.5, "j": j}
    _emit(record, args)


def build_parser() -> _Parser:
    parser = _Parser(prog="ricci-lab",
                     description="Rotational generalized Ricci metrics and "
                                 "their tori in the 3-sphere")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=fn)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--out", type=str, default=None)
        return p

    p = add("classify", _cmd_classify, "admissibility classification")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("verify", _cmd_verify, "Ricci-condition residual report")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--format", choices=("json",), default="json")

    p = add("period", _cmd_period, "dual-method orbit period")
    p.add_argument("--a", type=float, default=4.0)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--format", choices=("json",), default="json")

    p = add("theta", _cmd_theta, "rotation advance Theta and its limits")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--q-max", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json",), default="json")

    p = add("solve", _cmd_solve, "solve Theta(m, ell) = 2 pi p/q for ell")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--format", choices=("json",), default="json")

    p = add("scan", _cmd_scan, "Theta/closure table over an (m, ell) grid")
    p.add_argument("--m-min", type=float, required=True)
    p.add_argument("--m-max", type=float, required=True)
    p.add_argument("--ell-min", type=float, required=True)
    p.add_argument("--ell-max", type=float, required=True)
    p.add_argument("--nm", type=int, default=16)
    p.add_argument("--nell", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("profile", _cmd_profile, "discretized closed profile curve")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--ns", type=int, default=256)
    p.add_argument("--q-max", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("mesh", _cmd_mesh, "swept torus mesh as OBJ")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--ns", type=int, default=256)
    p.add_argument("--nt", type=int, default=128)
    p.add_argument("--project", action="store_true")
    p.add_argument("--q-max", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("minimal", _cmd_minimal, "minimal-slice parameter map")
    p.add_argument("--j", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--format", choices=("json",), default="json")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args.handler(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IoError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except RicciLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
