"""Discretization of profile curves and swept tori, plus bit-exact exporters.

Meshes keep the (s, t) grid structure as quads and identify both seams by
index wraparound, so every emitted torus has Euler characteristic 0.
Exports are deterministic: 17-significant-digit OBJ, comma/LF CSV, and
insertion-ordered JSON.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import immersion as im
from . import spherical_family as sf
from ._output import export_json, open_sink
from .errors import (
    DomainError,
    RicciLabError,
    SeamMismatch,
    require_finite,
)
from .immersion import ClosureResult, ProfileCurve
from .spherical_family import Classification, SphericalParams

__all__ = [
    "SurfaceMesh",
    "build_profile",
    "build_surface_mesh",
    "euler_characteristic",
    "export_obj",
    "export_csv",
    "export_json",
    "open_sink",
    "scan_theta",
    "SCAN_CSV_FIELDS",
]

SEAM_TOL = 1e-6
# Rows of vertices or faces formatted per write by export_obj: big enough to
# amortize the call, small enough that the text of one block stays well under
# the arrays it is formatted from.
OBJ_BLOCK_ROWS = 4096


def _profile_span(params: SphericalParams, closure: ClosureResult) -> float:
    """s-extent of one closed circuit of the profile curve.

    For the constant (Clifford-like) solutions f has no fundamental period;
    the circuit is the circle theta in [0, 2 pi p), traversed at the constant
    rate theta'.
    """
    if params.classification is Classification.BOUNDARY_CONSTANT:
        rate = float(im.theta_rate(params, 0.0))
        return 2.0 * math.pi * closure.p / rate
    return closure.q * params.period


def build_profile(params: SphericalParams, closure: ClosureResult,
                  Ns: int) -> ProfileCurve:
    """Uniform-s discretization of the closed profile curve.

    Raises SeamMismatch when the endpoint fails to wrap back onto the start
    (the signature of an ell that does not actually close the curve).
    """
    if closure is None:
        raise DomainError("build_profile needs a closure result")
    if Ns < 16 * closure.q:
        raise DomainError(f"Ns={Ns} too coarse; need at least {16 * closure.q}")
    s_total = _profile_span(params, closure)
    s = np.linspace(0.0, s_total, Ns, endpoint=False)
    thetas = im.theta_grid(params, s)
    f = sf.f_closed(params, s)[0]
    r = np.sqrt(np.maximum(1.0 / params.c - f * f, 0.0))
    points = np.stack(
        [r * np.cos(thetas), r * np.sin(thetas), f, np.zeros_like(f)], axis=1
    )

    theta_end = im.theta(params, s_total)
    end_point = im.profile_point(params, s_total, theta_value=theta_end)
    gap = float(np.linalg.norm(end_point - points[0]))
    if gap > SEAM_TOL:
        raise SeamMismatch(
            f"profile endpoint misses its start by {gap:.3e} "
            f"(theta advance {theta_end} vs 2*pi*{closure.p})"
        )
    winding = {"p": closure.p, "q": closure.q, "gap": gap,
               "theta_total": theta_end, "s_total": s_total}
    return ProfileCurve(s=s, theta=thetas, points=points,
                        closure=closure, winding=winding)


@dataclass
class SurfaceMesh:
    """Quad mesh of the swept surface, seam-wrapped in both directions."""

    vertices: np.ndarray  # (Ns*Nt, 3) projected or (Ns*Nt, 4) ambient
    faces: np.ndarray     # (Ns*Nt, 4) 0-based quad indices
    ns: int
    nt: int


def build_surface_mesh(params: SphericalParams, closure: ClosureResult,
                       Ns: int, Nt: int, projection: str | None = None
                       ) -> SurfaceMesh:
    """Sweep the profile curve through t in [0, 2 pi) on an Ns x Nt grid.

    projection=None keeps ambient R^4 coordinates; "stereographic" maps to R^3.
    """
    if Nt < 4:
        raise DomainError(f"Nt={Nt} too coarse; quads need Nt >= 4")
    prof = build_profile(params, closure, Ns)
    t = np.linspace(0.0, 2.0 * math.pi, Nt, endpoint=False)
    z = prof.points[:, 2:3]
    verts = np.empty((Ns, Nt, 4))
    verts[..., :2] = prof.points[:, None, :2]
    verts[..., 2] = z * np.cos(t)
    verts[..., 3] = z * np.sin(t)
    verts = verts.reshape(Ns * Nt, 4)

    if projection == "stereographic":
        verts = im.stereographic(verts, params.c)
    elif projection is not None:
        raise DomainError(f"unknown projection {projection!r}")

    # Vertex (i, j) is i * Nt + j; both seams close by wrapping i and j.
    row = np.arange(Ns, dtype=np.int64)[:, None] * Nt
    col = np.arange(Nt, dtype=np.int64)
    next_row, next_col = np.roll(row, -1), np.roll(col, -1)
    faces = np.stack([row + col, next_row + col, next_row + next_col,
                      row + next_col], axis=-1).reshape(Ns * Nt, 4)
    return SurfaceMesh(vertices=verts, faces=faces, ns=Ns, nt=Nt)


def _require_vertex_indices(lowest: int, highest: int, n_vertices: int) -> None:
    """DomainError unless every face index lies in [0, n_vertices)."""
    if lowest < 0 or highest >= n_vertices:
        raise DomainError(
            f"face indices span [{lowest}, {highest}], outside the vertex "
            f"range [0, {n_vertices})")


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F with edges deduplicated across faces.

    Faces may be polygons of any size, degenerate ones included; an edge is
    an unordered pair of consecutive corners, packed into one int64 key.
    Raises DomainError for a face index outside [0, V).
    """
    faces = np.asarray(mesh.faces, dtype=np.int64)
    n_vertices = mesh.vertices.shape[0]
    n_edges = 0
    if faces.size:
        top = int(faces.max())
        _require_vertex_indices(int(faces.min()), top, n_vertices)
        # key = lo * (top + 1) + hi for each edge (lo, hi), formed in the two
        # arrays np.roll and np.minimum allocate; faces (maybe the caller's
        # array) is only read.
        nxt = np.roll(faces, -1, axis=1)
        keys = np.minimum(faces, nxt)
        np.maximum(faces, nxt, out=nxt)
        keys *= top + 1
        keys += nxt
        # Count distinct keys after a sort: since numpy 2.3, np.unique hashes
        # int64 input, which is over 10x slower than sorting for these keys.
        keys = keys.ravel()
        keys.sort()
        n_edges = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return n_vertices - n_edges + faces.shape[0]


def _write_rows(fh, tag, cell, rows) -> None:
    """One 'tag cell cell ...' line per row, OBJ_BLOCK_ROWS rows per write."""
    line = tag + " " + " ".join([cell] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], OBJ_BLOCK_ROWS):
        block = rows[start:start + OBJ_BLOCK_ROWS]
        fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def export_obj(mesh: SurfaceMesh, sink) -> None:
    """Wavefront OBJ: 17-significant-digit vertices, 1-indexed quad faces.

    Raises DomainError, before anything is written, for a face index
    outside [0, V).
    """
    vertices = np.asarray(mesh.vertices)
    faces = np.asarray(mesh.faces, dtype=np.int64)
    if faces.size:
        _require_vertex_indices(int(faces.min()), int(faces.max()),
                                vertices.shape[0])
    with open_sink(sink) as fh:
        _write_rows(fh, "v", "%.17g", vertices)
        _write_rows(fh, "f", "%d", faces + 1)


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def export_csv(rows, fieldnames, sink) -> None:
    """Comma-separated, '.' decimals, LF line endings, shortest float repr."""
    with open_sink(sink) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in fieldnames])


SCAN_CSV_FIELDS = ("m", "ell", "Theta", "closed", "p", "q", "embedded")


def _scan_cell(c, m, ell, closure_tol, q_max):
    row = {"m": m, "ell": ell, "Theta": None, "closed": False,
           "p": None, "q": None, "embedded": False,
           "status": "ok", "near_lower": False, "near_upper": False}
    cls = sf.classify(c, m, ell)
    if cls is Classification.OUTSIDE:
        row["status"] = "outside"
        return row
    if cls is Classification.INTERIOR_LAMBDA:
        row["status"] = "not_immersible"
        return row
    lower = math.sqrt(c * m)
    upper = (c * m + 1.0) / 2.0
    width = upper - lower
    row["near_lower"] = (ell - lower) < 0.05 * width
    row["near_upper"] = (upper - ell) < 0.05 * width
    try:
        theta_total = im.big_theta(SphericalParams(c=c, m=m, ell=ell))
    except RicciLabError as exc:
        row["status"] = type(exc).__name__
        return row
    row["Theta"] = theta_total
    closure = im.detect_closure(theta_total, q_max=q_max, tol=closure_tol)
    if closure is not None:
        row.update(closed=True, p=closure.p, q=closure.q,
                   embedded=closure.embedded)
    return row


def scan_theta(c, m_range, ell_range, resolution, closure_tol=1e-8,
               q_max=50):
    """Theta/closure table over an (m, ell) grid; failures become row codes.

    Grid cells outside the immersible set are kept with a reason code rather
    than aborting the scan.  Cells are evaluated serially, m-major, one row
    per cell.
    """
    if isinstance(resolution, int):
        nm = nell = resolution
    else:
        nm, nell = resolution
    require_finite(m_min=m_range[0], m_max=m_range[1],
                   ell_min=ell_range[0], ell_max=ell_range[1],
                   closure_tol=closure_tol)
    if nm < 1 or nell < 1:
        raise DomainError(f"scan resolution must be at least 1x1, got {nm}x{nell}")
    ms = np.linspace(m_range[0], m_range[1], nm)
    ells = np.linspace(ell_range[0], ell_range[1], nell)
    return [_scan_cell(c, float(m), float(ell), closure_tol, q_max)
            for m in ms for ell in ells]
