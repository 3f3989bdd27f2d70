"""The four benchmark workloads and the checks on their outputs.

A workload draws its inputs from the seed and the stored reference data,
runs one operation at a time (closed loop, one caller), and checks each
output outside the timed region.  Every operation reports how many units of
work it attempted and how many completed correctly; an operation fails when
it raises, exits non-zero or returns a wrong value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import warnings
from statistics import median
from time import perf_counter

import numpy as np

from ricci_lab import cli, immersion, mesh_io, phase_portrait
from ricci_lab import spherical_family as sf
from ricci_lab import warped_geometry as wg
from ricci_lab.immersion import ClosureResult
from ricci_lab.spherical_family import SphericalParams
from tracer import Tracer

THETA_RTOL = 1e-9      # Theta against its 30-digit reference
ELL_ATOL = 1e-9        # solved ell against its reference
CLOSURE_ATOL = 1e-10   # |Theta(ell) - 2 pi p / q| reported by the solver
VERTEX_ATOL = 1e-9     # mesh vertices against the independent construction
RESIDUAL_TOL = 1e-8    # normalized Ricci residual of the closed form
RESIDUAL_POINTS = 512
CHECK_ROWS = 32        # rows of s per block when meshes are compared
CHILD_TIMEOUT_S = 120  # a CLI child still running after this is killed


class Op:
    """Outcome of one operation: timing, units and the correctness verdict."""

    __slots__ = ("seconds", "end", "speed_s", "units", "ok_units", "ok",
                 "traced", "stats", "kind", "note")

    def __init__(self, seconds, end, speed_s, units):
        self.seconds = seconds
        self.end = end          # perf_counter() when the operation returned
        self.speed_s = speed_s  # median speed sample right after it
        self.units = units
        self.ok_units = 0
        self.ok = False
        self.traced = False
        self.stats = None
        self.kind = ""
        self.note = ""

    def fail(self, note):
        self.ok = False
        self.ok_units = 0
        self.note = self.note or note


def rel_err(got, want):
    return abs(got - want) / abs(want)


def theta_ok(row, want):
    """A scan row holds a Theta within THETA_RTOL of its reference."""
    return row["status"] == "ok" and rel_err(row["Theta"], want) <= THETA_RTOL


class Workload:
    """Base class: subclasses define inputs, one operation and its check."""

    name = ""
    unit = ""
    targets = ()       # (module, attribute, span name) for the tracer
    record = ()        # span names whose individual calls are kept
    census_ops = 1     # traced operations run when another workload's
                       # traced run borrows this workload's layer metrics
    cycle = 1          # ops per repeating mix; traced runs alternate cycles

    def __init__(self, seed, ref, workdir, inject=None):
        self.seed = seed
        self.ref = ref
        self.workdir = workdir
        self.inject = inject
        self.rng = random.Random(f"{self.name}:{seed}")
        self.wrong = 0  # outputs that disagreed with their reference

    def setup(self):
        """Generate inputs and warm up; runs before timing starts."""

    def units_of(self, i):
        """Units of work in operation i."""
        return 1

    def run_op(self, i):
        """The timed body of operation i; returns what check_op needs."""
        raise NotImplementedError

    def check_op(self, i, out, op):
        """Set op.ok / op.ok_units from the output (untimed)."""
        raise NotImplementedError

    def finish(self, ops):
        """Checks that need the whole run (untimed); returns report lines."""
        return []

    def layer_metrics(self, ops):
        """This workload's per-layer metrics from its traced operations."""
        return {}

    def close(self):
        """Stop whatever setup() started; runs last, also after an error."""

    def peak_rss_mb(self):
        """Peak RSS of the process doing the work, read after the run."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def mark_wrong(self, op, note):
        self.wrong += 1
        op.fail(note)


def traced_stats(ops):
    return [op.stats for op in ops if op.traced and op.stats is not None]


def per_op(stats, name, col=2):
    """Per-operation totals of one span column (1 total, 2 self, 0 calls)."""
    return [s["totals"].get(name, [0, 0.0, 0.0, 0])[col] for s in stats]


def med(values):
    return float(median(values)) if values else float("nan")


# --------------------------------------------------------------------------
# theta_scan


class ThetaScan(Workload):
    """One op is one mesh_io.scan_theta call over a seed-drawn rectangle.

    Three of every four ops scan a 3x3 rectangle inside the admissible set;
    the fourth scans a one-row rectangle whose two cells sit at relative
    distances 1e-2 .. 1e-10 of the admissible width from the lower and upper
    ell boundary (2 of every 29 cells, about 7%).  Rectangles come from the
    stored pool in a seed-drawn order, so no cell repeats within a run.

    A cell is a unit.  It fails when its row carries an error code or its
    Theta is off by more than THETA_RTOL.  Upper-boundary cells may fail as
    units (the known QuadratureFailure / accuracy loss there shows in
    ok_frac); any other failed cell is a wrong output and fails the op.
    """

    name = "theta_scan"
    unit = "cells"
    record = ("immersion.big_theta",)
    census_ops = 4
    cycle = 4

    targets = ((mesh_io, "scan_theta", "mesh_io.scan_theta"),
               (immersion, "big_theta", "immersion.big_theta"))

    def setup(self):
        self.interior = list(self.ref["scan_interior"])
        self.rng.shuffle(self.interior)
        by_upper = {}
        for r in self.ref["scan_boundary"]:
            by_upper.setdefault(r["d"][1], []).append(r)
        for rows in by_upper.values():
            self.rng.shuffle(rows)
        # every nine boundary scans in a row cover the nine upper distances
        # once each, so the share of failing upper cells, and with it
        # ok_frac, does not depend on how many scans a run gets through
        self.boundary = [r for group in zip(*by_upper.values()) for r in group]
        self.cells_seen = []
        mesh_io.scan_theta(1.0, (0.3, 0.31), (0.6, 0.62), (2, 2))
        immersion.big_theta.cache_clear()

    def rect(self, i):
        if i % 4 == 3:
            return "boundary", self.boundary[(i // 4) % len(self.boundary)]
        k = 3 * (i // 4) + i % 4
        return "interior", self.interior[k % len(self.interior)]

    def units_of(self, i):
        _, r = self.rect(i)
        return r["res"][0] * r["res"][1]

    def run_op(self, i):
        _, r = self.rect(i)
        return mesh_io.scan_theta(r["c"], tuple(r["m_range"]),
                                  tuple(r["ell_range"]), tuple(r["res"]))

    def check_op(self, i, rows, op):
        kind, r = self.rect(i)
        op.kind = kind
        cells = [(m, e) for _, m, e in _cells(r)]
        if len(rows) != len(cells):
            return self.mark_wrong(op, f"{len(rows)} rows for {len(cells)} cells")
        ok_units = 0
        for k, (row, (m, e), want) in enumerate(zip(rows, cells, r["Theta"])):
            self.cells_seen.append((r["c"], m, e))
            if row["m"] != m or abs(row["ell"] - e) > 4e-16 * e:
                return self.mark_wrong(op, f"row at ({row['m']}, {row['ell']})"
                                           f" for cell ({m}, {e})")
            if theta_ok(row, want):
                ok_units += 1
            elif not (kind == "boundary" and k == 1):
                return self.mark_wrong(op, f"Theta({m}, {e}) = {row['Theta']}"
                                           f" ({row['status']}), reference "
                                           f"{want}")
        op.ok = True
        op.ok_units = ok_units

    def finish(self, ops):
        """Scan every fixed check cell on a cold cache and compare."""
        immersion.big_theta.cache_clear()
        lines = []
        failed = wrong = 0
        for cell in self.ref["theta_checks"]:
            rows = mesh_io.scan_theta(cell["c"], (cell["m"], cell["m"]),
                                      (cell["ell"], cell["ell"]), (1, 1))
            row = rows[0]
            if theta_ok(row, float(cell["Theta"])):
                verdict = "ok"
            elif cell["kind"] == "upper":
                failed += 1
                verdict = f"failed unit: {row['status']} {row['Theta']!r}"
            else:
                wrong += 1
                verdict = f"WRONG: {row['status']} {row['Theta']!r}"
            if cell["kind"] == "roadmap" or verdict != "ok":
                lines.append(f"check cell {cell['kind']} d={cell['d']} "
                             f"m={cell['m']} ell={cell['ell']!r}: "
                             f"reference {cell['Theta']} -> {verdict}")
        self.wrong += wrong
        lines.append(f"fixed check cells: {len(self.ref['theta_checks'])}, "
                     f"failed upper-boundary units {failed}, wrong {wrong}")
        return lines

    def layer_metrics(self, ops):
        stats = traced_stats(ops)
        calls = {"interior": [], "boundary": []}
        raised = n = 0
        for op in ops:
            if not (op.traced and op.stats) or op.kind not in calls:
                continue
            for _, _, _, _, own, bad in op.stats["calls"]:
                calls[op.kind].append(own)
                raised += bad
                n += 1
        # classify is called once per quadrature node; it is timed here from
        # outside, over the cells of this run, so spans do not slow the scan
        cells = self.cells_seen[:2000] or [(1.0, 0.3, 0.6)]
        t0 = perf_counter()
        for c, m, e in cells:
            sf.classify(c, m, e)
        classify_s = (perf_counter() - t0) / len(cells)
        return {
            "immersion.big_theta_s.interior": (med(calls["interior"]), "s"),
            # mean, not median: boundary calls mix cheap lower and costly
            # upper cells half and half
            "immersion.big_theta_s.boundary":
                (sum(calls["boundary"]) / max(len(calls["boundary"]), 1), "s"),
            "immersion.big_theta.fail_frac": (raised / max(n, 1), "ratio"),
            "mesh_io.scan_theta_s": (med(per_op(stats, "mesh_io.scan_theta")),
                                     "s"),
            "spherical_family.classify_s": (classify_s, "s"),
        }


# --------------------------------------------------------------------------
# closure_solve


class ClosureSolve(Workload):
    """One op is one immersion.solve_for_ell(c, m, p, q).

    Tuples come from the stored pool in a seed-drawn order: c = 1, m in
    [0.45, 0.85] and p/q with q <= 6, every one bracketing a closing ell at
    least 3% of the admissible width below the upper boundary.  The domain
    avoids the inputs on which the solver's own scan point 1e-9 inside the
    upper boundary raises QuadratureFailure at the seed commit (scattered m
    below 0.36 at c = 1, and up to c m ~ 0.6 at c = 1/2 or 2): that is the
    upper-boundary defect theta_scan measures.
    """

    name = "closure_solve"
    unit = "solves"
    census_ops = 2

    targets = ((immersion, "solve_for_ell", "immersion.solve_for_ell"),
               (immersion, "big_theta", "immersion.big_theta"))

    def setup(self):
        self.pool = list(self.ref["closure"])
        self.rng.shuffle(self.pool)
        self.cache = immersion.big_theta  # the lru_cache object itself
        self.cache_deltas = []
        immersion.solve_for_ell(1.0, 0.51, 1, 1)
        self.cache.cache_clear()

    def run_op(self, i):
        t = self.pool[i % len(self.pool)]
        before = self.cache.cache_info()
        out = immersion.solve_for_ell(t["c"], t["m"], t["p"], t["q"])
        after = self.cache.cache_info()
        self.cache_deltas.append((after.hits - before.hits,
                                  after.misses - before.misses))
        return out

    def check_op(self, i, res, op):
        t = self.pool[i % len(self.pool)]
        target = 2.0 * math.pi * t["p"] / t["q"]
        if (res.closure.p, res.closure.q) != (t["p"], t["q"]):
            return self.mark_wrong(op, f"closure {res.closure} for {t}")
        if abs(res.ell - float(t["ell"])) > ELL_ATOL:
            return self.mark_wrong(op, f"ell {res.ell!r}, reference {t['ell']}")
        if abs(res.theta_total - target) > CLOSURE_ATOL:
            return self.mark_wrong(op, f"|Theta - 2 pi p/q| = "
                                       f"{abs(res.theta_total - target):.3g}")
        op.ok = True
        op.ok_units = 1

    def layer_metrics(self, ops):
        stats = traced_stats(ops)
        hits = sum(h for h, _ in self.cache_deltas)
        total = sum(h + m for h, m in self.cache_deltas)
        return {
            "immersion.solve_for_ell_s":
                (med(per_op(stats, "immersion.solve_for_ell")), "s"),
            "immersion.big_theta.calls":
                (med(per_op(stats, "immersion.big_theta", col=0)), "count"),
            "immersion.big_theta.cache_hit_frac": (hits / max(total, 1),
                                                   "ratio"),
        }


# --------------------------------------------------------------------------
# torus_export


SIZES = ((256, 128), (384, 192), (256, 128), (576, 256), (256, 128))


def theta_spectral(c, m, ell, s, n=2048):
    """theta(s) from the Fourier series of theta', integrated term by term.

    theta' is analytic and T-periodic, so n uniform samples give its Fourier
    coefficients to rounding error away from the ell boundaries; this is
    independent of the package's adaptive quadrature.
    """
    period = math.pi / math.sqrt(c)
    amp = math.sqrt(ell * ell - c * m)
    u = np.arange(n) * (period / n)
    g = (ell + amp * np.sin(2.0 * math.sqrt(c) * u)) / c
    rate = math.sqrt(c) * np.sqrt(m + (1.0 - 2.0 * ell) * g) / (
        np.sqrt(g) * (1.0 - c * g))
    coef = np.fft.rfft(rate)[1:n // 2] / n
    k = np.arange(1, n // 2) * (2.0 * math.pi / period)
    s = np.asarray(s, dtype=float)
    phase = np.exp(1j * np.outer(s, k)) - 1.0
    return rate.mean() * s + 2.0 * np.real(phase @ (coef / (1j * k)))


def reference_rows(m, ell, q, ns, nt, rows, projection):
    """Vertices and faces of some s-rows of the swept torus at c = 1.

    Built independently of the package; `rows` indexes the ns samples of s.
    """
    c = 1.0
    s = rows * (q * math.pi / math.sqrt(c) / ns)
    th = theta_spectral(c, m, ell, s)
    amp = math.sqrt(ell * ell - c * m)
    f = np.sqrt((ell + amp * np.sin(2.0 * math.sqrt(c) * s)) / c)
    r = np.sqrt(np.maximum(1.0 / c - f * f, 0.0))
    t = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
    verts = np.empty((len(rows), nt, 4))
    verts[..., 0] = (r * np.cos(th))[:, None]
    verts[..., 1] = (r * np.sin(th))[:, None]
    verts[..., 2] = f[:, None] * np.cos(t)[None, :]
    verts[..., 3] = f[:, None] * np.sin(t)[None, :]
    verts = verts.reshape(-1, 4)
    if projection == "stereographic":
        verts = verts * math.sqrt(c)
        verts = verts[:, :3] / (1.0 + verts[:, 3:4])
    i = np.repeat(rows, nt)
    j = np.tile(np.arange(nt), len(rows))
    i2, j2 = (i + 1) % ns, (j + 1) % nt
    faces = np.stack([i * nt + j, i2 * nt + j, i2 * nt + j2, i * nt + j2],
                     axis=1)
    return verts, faces


def read_obj(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    vs = " ".join(ln[2:] for ln in lines if ln.startswith("v "))
    fs = " ".join(ln[2:] for ln in lines if ln.startswith("f "))
    verts = np.array(vs.split(), dtype=float).reshape(-1, 3)
    faces = np.array(fs.split(), dtype=np.int64).reshape(-1, 4) - 1
    return verts, faces


def mesh_mismatch(verts, faces, t, ns, nt, projection):
    """Compare a mesh with the reference, CHECK_ROWS rows of s at a time.

    Comparing in blocks keeps the checker's arrays small next to the
    program's, so the check cannot set the run's peak RSS.
    """
    width = 3 if projection == "stereographic" else 4
    if verts.shape != (ns * nt, width) or faces.shape != (ns * nt, 4):
        return f"shape {verts.shape}/{faces.shape}"
    for i0 in range(0, ns, CHECK_ROWS):
        rows = np.arange(i0, min(i0 + CHECK_ROWS, ns))
        want_verts, want_faces = reference_rows(
            t["m"], float(t["ell"]), t["q"], ns, nt, rows, projection)
        part = slice(i0 * nt, (rows[-1] + 1) * nt)
        if not np.array_equal(faces[part], want_faces):
            return "faces differ"
        err = float(np.max(np.abs(verts[part] - want_verts)))
        if not err <= VERTEX_ATOL:
            return f"vertex error {err:.3g}"
    return None


class TorusExport(Workload):
    """One op certifies and exports one closing torus.

    Steps: ricci_residual on a 512-point grid, build_surface_mesh ambient and
    stereographic, euler_characteristic, export_obj to a file and
    profile_simple_check at its default 1024 samples.  Sizes repeat the
    cycle SIZES: 256x128 three times, 384x192 and 576x256; at 576x256 the
    vertex and face arrays are 4.5 MiB each, past a 4 MiB L2.
    """

    name = "torus_export"
    unit = "tori"
    cycle = len(SIZES)

    targets = (
        (wg, "ricci_residual", "warped_geometry.ricci_residual"),
        (mesh_io, "build_surface_mesh", "mesh_io.build_surface_mesh"),
        (mesh_io, "build_profile", "mesh_io.build_profile"),
        (mesh_io, "euler_characteristic", "mesh_io.euler_characteristic"),
        (mesh_io, "export_obj", "mesh_io.export_obj"),
        (immersion, "theta_grid", "immersion.theta_grid"),
        (immersion, "stereographic", "immersion.stereographic"),
        (immersion, "profile_simple_check", "immersion.profile_simple_check"),
        (sf, "f_derivs", "spherical_family.f_derivs"),
    )
    record = ("mesh_io.build_surface_mesh",)

    def setup(self):
        self.pool = list(self.ref["torus"])
        self.rng.shuffle(self.pool)
        self.files = {}
        self.obj_bytes = {}
        warnings.simplefilter("ignore")  # ResolutionWarning from the check
        t = self.pool[0]
        self.certify(t, 64, 32, os.path.join(self.workdir, "warmup.obj"))

    def job(self, i):
        return self.pool[i % len(self.pool)], SIZES[i % len(SIZES)]

    def certify(self, t, ns, nt, path):
        params = SphericalParams(c=1.0, m=t["m"], ell=float(t["ell"]))
        closure = ClosureResult(p=t["p"], q=t["q"], embedded=t["p"] == 1)
        rep = wg.ricci_residual(sf.metric_profile(params),
                                wg.RicciType(a=4.0, c=1.0),
                                np.linspace(0.0, params.period,
                                            RESIDUAL_POINTS))
        ambient = mesh_io.build_surface_mesh(params, closure, ns, nt)
        stereo = mesh_io.build_surface_mesh(params, closure, ns, nt,
                                            projection="stereographic")
        chi = mesh_io.euler_characteristic(stereo)
        mesh_io.export_obj(stereo, path)
        simple = immersion.profile_simple_check(params, closure)
        return rep.max_normalized, ambient, chi, simple

    def run_op(self, i):
        t, (ns, nt) = self.job(i)
        path = os.path.join(self.workdir, f"torus{i}.obj")
        self.files[i] = path
        return self.certify(t, ns, nt, path)

    def check_op(self, i, out, op):
        t, (ns, nt) = self.job(i)
        op.kind = f"{ns}x{nt}"
        residual, ambient, chi, simple = out
        self.obj_bytes[i] = os.path.getsize(self.files[i])
        if not residual <= RESIDUAL_TOL:
            return self.mark_wrong(op, f"Ricci residual {residual:.3g}")
        if chi != 0:
            return self.mark_wrong(op, f"Euler characteristic {chi}")
        if simple != (t["p"] == 1):
            return self.mark_wrong(op, f"simple={simple} for p={t['p']}")
        bad = mesh_mismatch(ambient.vertices, ambient.faces, t, ns, nt, None)
        if bad:
            return self.mark_wrong(op, f"ambient mesh: {bad}")
        op.ok = True
        op.ok_units = 1

    def finish(self, ops):
        """Parse every exported OBJ back and compare it with the reference."""
        checked = 0
        for i, op in enumerate(ops):
            path = self.files.pop(i, None)
            if path is None or not os.path.exists(path):
                continue
            if op.ok:
                t, (ns, nt) = self.job(i)
                bad = mesh_mismatch(*read_obj(path), t, ns, nt,
                                    "stereographic")
                if bad:
                    self.mark_wrong(op, f"OBJ: {bad}")
                checked += 1
            os.remove(path)
        return [f"OBJ files parsed back and compared: {checked}"]

    def layer_metrics(self, ops):
        stats = traced_stats(ops)
        amb, ste = [], []
        for s in stats:
            for name, args, kwargs, _, own, _ in s["calls"]:
                proj = kwargs.get("projection", args[5] if len(args) > 5
                                  else None)
                (ste if proj == "stereographic" else amb).append(own)
        export = per_op(stats, "mesh_io.export_obj", col=1)
        traced_bytes = [self.obj_bytes[i] for i, op in enumerate(ops)
                        if op.traced and op.stats and i in self.obj_bytes]
        residual = per_op(stats, "warped_geometry.ricci_residual", col=1)
        f_calls = [s["parents"].get(("spherical_family.f_derivs",
                                     "warped_geometry.ricci_residual"), 0)
                   for s in stats]
        return {
            "immersion.theta_grid_s":
                (med(per_op(stats, "immersion.theta_grid")), "s"),
            "immersion.stereographic_s":
                (med(per_op(stats, "immersion.stereographic")), "s"),
            "immersion.stereographic.calls":
                (med(per_op(stats, "immersion.stereographic", col=0)), "count"),
            "immersion.profile_simple_check_s":
                (med(per_op(stats, "immersion.profile_simple_check")), "s"),
            "mesh_io.build_profile_s":
                (med(per_op(stats, "mesh_io.build_profile")), "s"),
            "mesh_io.build_surface_mesh_s.ambient": (med(amb), "s"),
            "mesh_io.build_surface_mesh_s.stereographic": (med(ste), "s"),
            "mesh_io.euler_characteristic_s":
                (med(per_op(stats, "mesh_io.euler_characteristic")), "s"),
            "mesh_io.export_obj_s":
                (med(per_op(stats, "mesh_io.export_obj")), "s"),
            "mesh_io.export_obj.bytes": (med(traced_bytes), "bytes"),
            "mesh_io.export_obj.mb_per_s":
                (med([b / 1e6 / t for b, t in zip(traced_bytes, export)]),
                 "MB/s"),
            "warped_geometry.ricci_residual_s":
                (med(per_op(stats, "warped_geometry.ricci_residual")), "s"),
            "warped_geometry.ricci_residual.points_per_s":
                (med([RESIDUAL_POINTS / t for t in residual]), "1/s"),
            "spherical_family.f_derivs.calls":
                (med([n / RESIDUAL_POINTS for n in f_calls]), "count"),
        }


# --------------------------------------------------------------------------
# cli_cold


SUBCOMMANDS = ("classify", "verify", "period", "theta", "solve", "scan",
               "profile", "mesh", "minimal")


# Started as `python -S -c LAUNCHER`: reads one JSON [argv, timeout] per
# line, runs it to completion and answers [seconds, exit code, stdout, the
# child's peak RSS in MB from os.wait4].  A child killed at the timeout
# reports exit -9.
LAUNCHER = """
import json, os, subprocess, sys, threading, time
for line in iter(sys.stdin.readline, ""):
    cmd, timeout = json.loads(line)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([seconds, proc.returncode, out, usage.ru_maxrss / 1024]),
          flush=True)
"""


class Launcher:
    """A bare interpreter that starts the CLI children one at a time.

    On Linux a child's ru_maxrss starts from the peak of the process that
    spawned it (the high-water mark of the address space it replaces at
    exec).  Children started straight from the benchmark process, which
    holds numpy, scipy and the reference data, would all report at least its
    peak; started from this small process, each reports its own.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd):
        """(seconds, exit code, stdout, peak RSS in MB) of one child."""
        self.proc.stdin.write(json.dumps([cmd, CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class CliCold(Workload):
    """One op is one fresh `python -m ricci_lab.cli <sub>` process.

    Each cycle of nine ops runs every subcommand once, in a seed-drawn order,
    with seed-drawn arguments at the CLI-default sizes; `theta` and `solve`
    take their inputs from the reference pools, `profile` and `mesh` take a
    closing torus and write to files.
    """

    name = "cli_cold"
    unit = "invocations"
    cycle = len(SUBCOMMANDS)
    census_ops = 0  # layer metrics come from probes and in-process runs

    targets = ((phase_portrait, "period_integral",
                "phase_portrait.period_integral"),
               (phase_portrait, "orbit_period_numeric",
                "phase_portrait.orbit_period_numeric"))

    def setup(self):
        self.launcher = Launcher()
        self.argvs = {}
        self.outputs = {}
        self.checks = {}
        self.cells = [(r["c"], m, e, want) for r in self.ref["scan_interior"]
                      for (_, m, e), want in zip(_cells(r), r["Theta"])]
        self.rng.shuffle(self.cells)
        self.closures = list(self.ref["closure"])
        self.rng.shuffle(self.closures)
        self.tori = list(self.ref["torus"])
        self.rng.shuffle(self.tori)
        self.child_rss = []

    def argv(self, i):
        if i not in self.argvs:
            self.argvs[i] = self._draw(i)
        return self.argvs[i]

    def _draw(self, i):
        cycle, k = divmod(i, len(SUBCOMMANDS))
        rng = random.Random(f"{self.seed}:cli:{i}")
        sub = random.Random(f"{self.seed}:{cycle}").sample(SUBCOMMANDS,
                                                           len(SUBCOMMANDS))[k]
        c = rng.choice((0.5, 1.0, 2.0))
        cm = rng.uniform(0.05, 0.85)
        ell = math.sqrt(cm) + rng.uniform(0.02, 0.6)
        out = os.path.join(self.workdir, f"cli{i}.out")
        check = None
        if sub == "classify":
            argv = [sub, "--c", repr(c), "--m", repr(rng.uniform(0.01, 1.0)),
                    "--ell", repr(rng.uniform(0.05, 1.2))]
        elif sub in ("verify", "period"):
            argv = [sub, "--c", repr(c), "--m", repr(cm / c), "--ell", repr(ell)]
            if sub == "period":
                argv[1:1] = ["--a", "4"]
        elif sub == "theta":
            c, m, e, want = self.cells[i % len(self.cells)]
            argv = [sub, "--c", repr(c), "--m", repr(m), "--ell", repr(e)]
            check = ("Theta", want)
        elif sub == "solve":
            t = self.closures[i % len(self.closures)]
            argv = [sub, "--c", repr(t["c"]), "--m", repr(t["m"]),
                    "--p", str(t["p"]), "--q", str(t["q"])]
            check = ("solve", t)
        elif sub == "scan":
            cm = rng.uniform(0.02, 0.55)
            lower = math.sqrt(cm + 0.05)
            width = (cm + 1.0) / 2.0 - lower
            e0 = lower + rng.uniform(0.05, 0.4) * width
            argv = [sub, "--c", repr(c), "--m-min", repr(cm / c),
                    "--m-max", repr((cm + 0.05) / c), "--ell-min", repr(e0),
                    "--ell-max", repr(e0 + rng.uniform(0.1, 0.5) * width)]
        elif sub in ("profile", "mesh"):
            t = self.tori[i % len(self.tori)]
            argv = [sub, "--m", repr(t["m"]), "--ell", repr(float(t["ell"])),
                    "--p", str(t["p"]), "--q", str(t["q"]), "--out", out]
            if sub == "mesh" and cycle % 2:
                argv.append("--project")
        else:
            argv = [sub, "--c", repr(c)]
            if rng.random() < 0.5:
                argv += ["--j", repr(rng.uniform(0.05, 0.95))]
            else:
                argv += ["--m", repr(rng.uniform(0.01, 0.24) / c)]
        if self.inject == "cli_exit" and i % 5 == 2:
            argv.append("--no-such-flag")
        self.checks[i] = check
        return argv

    def run_op(self, i):
        argv = self.argv(i)
        _, code, stdout, rss = self.launcher.run(
            [sys.executable, "-m", "ricci_lab.cli"] + argv)
        self.child_rss.append(rss)
        return code, stdout

    def check_op(self, i, out, op):
        op.kind = self.argv(i)[0]
        code, stdout = out
        self.outputs[i] = (code, stdout, read_out(self.argv(i)))
        if code != 0:
            return op.fail(f"exit {code}: {self.argv(i)}")
        check = self.checks[i]
        if check is not None:
            record = json.loads(stdout)
            kind, want = check
            if kind == "Theta" and not rel_err(record["Theta"], want) <= THETA_RTOL:
                return self.mark_wrong(op, f"Theta {record['Theta']}, "
                                           f"reference {want}")
            if kind == "solve":
                target = 2.0 * math.pi * want["p"] / want["q"]
                if (abs(record["ell"] - float(want["ell"])) > ELL_ATOL
                        or abs(record["Theta"] - target) > CLOSURE_ATOL):
                    return self.mark_wrong(op, f"solve {record['ell']!r}, "
                                               f"reference {want['ell']}")
        op.ok = True
        op.ok_units = 1

    def peak_rss_mb(self):
        """Median over invocations of each child's own peak RSS.

        The median, not the largest child, so the figure does not depend on
        which subcommands and inputs a run's last cycle happened to draw.
        """
        return med(self.child_rss)

    def close(self):
        self.launcher.close()

    def in_process(self, argv):
        """cli.run in this process (imports warm); returns (s, code, out, file)."""
        buf = io.StringIO()
        immersion.big_theta.cache_clear()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return perf_counter() - t0, code, buf.getvalue(), read_out(argv)

    def finish(self, ops):
        """Every child's output must equal cli.run's output in this process."""
        for i, op in enumerate(ops):
            if not op.ok:
                continue
            _, code, stdout, data = self.in_process(self.argv(i))
            if (code, stdout, data) != self.outputs[i]:
                self.mark_wrong(op, f"child and in-process outputs differ: "
                                    f"{self.argv(i)}")
        self.outputs.clear()
        return [f"child outputs compared with in-process cli.run: "
                f"{sum(op.ok for op in ops)}"]

    def probe(self):
        """Interpreter start and `import ricci_lab.cli`, each in a fresh child."""
        bare, _, _, _ = self.launcher.run([sys.executable, "-c", "pass"])
        code = ("import sys, ricci_lab.cli; "
                "print(len(sys.modules), int('scipy.optimize' in sys.modules))")
        full, _, out, _ = self.launcher.run([sys.executable, "-c", code])
        n_modules, optimize = (int(x) for x in out.split())
        return bare, full - bare, n_modules, optimize

    def layer_metrics(self, ops):
        """Probes, then each subcommand of the first cycle in-process twice.

        The children cannot be traced from here.  The untraced in-process
        time gives cli.run_s.<sub> (imports warm); the traced run carries the
        phase_portrait spans (via `period`) and this workload's tracing
        overhead.
        """
        probes = [self.probe()]
        runs = {sub: [] for sub in SUBCOMMANDS}
        ratios = []
        stats = []
        tracer = Tracer(self.targets)
        for i in range(len(SUBCOMMANDS)):
            argv = [a for a in self.argv(i) if a != "--no-such-flag"]
            plain = self.in_process(argv)[0]
            tracer.reset()
            with tracer:
                traced = self.in_process(argv)[0]
            stats.append(tracer.snapshot())
            runs[argv[0]].append(plain)
            ratios.append(traced / plain - 1.0)
        out = {
            "cli.interpreter_s": (med([p[0] for p in probes]), "s"),
            "cli.import_s": (med([p[1] for p in probes]), "s"),
            "cli.modules_loaded": (med([p[2] for p in probes]), "count"),
            "cli.scipy_optimize_loaded": (med([p[3] for p in probes]), "count"),
        }
        for sub in SUBCOMMANDS:
            out[f"cli.run_s.{sub}"] = (med(runs[sub]), "s")
        for name in ("phase_portrait.period_integral",
                     "phase_portrait.orbit_period_numeric"):
            vals = [s["totals"][name][2] for s in stats if name in s["totals"]]
            out[name + "_s"] = (med(vals), "s")
        self.overhead = med(ratios)
        return out


def _cells(rect):
    ms = np.linspace(rect["m_range"][0], rect["m_range"][1], rect["res"][0])
    ells = np.linspace(rect["ell_range"][0], rect["ell_range"][1],
                       rect["res"][1])
    return [(rect["c"], float(m), float(e)) for m in ms for e in ells]


def read_out(argv):
    """Contents of the --out file of argv, or None."""
    if "--out" not in argv:
        return None
    path = argv[argv.index("--out") + 1]
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = fh.read()
    os.remove(path)
    return data


WORKLOADS = {w.name: w for w in (CliCold, ThetaScan, ClosureSolve,
                                 TorusExport)}
