import io
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from ricci_lab import immersion as im
from ricci_lab import mesh_io
from ricci_lab.errors import DomainError, SeamMismatch
from ricci_lab.immersion import ClosureResult
from ricci_lab.spherical_family import SphericalParams

GOLDEN = pathlib.Path(__file__).parent / "golden"

EMBEDDED = im.solve_for_ell(1.0, 0.51, 1, 1)
IMMERSED = im.solve_for_ell(1.0, 0.75, 3, 2)
P_EMB = SphericalParams(c=1.0, m=0.51, ell=EMBEDDED.ell)
P_IMM = SphericalParams(c=1.0, m=0.75, ell=IMMERSED.ell)
CLIFFORD = SphericalParams(c=1.0, m=0.25, ell=0.5)


def golden_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.5, 0.25, 0.125]])
    faces = np.array([[0, 2, 3, 1], [1, 3, 2, 0],
                      [2, 0, 1, 3], [3, 1, 0, 2]])
    return mesh_io.SurfaceMesh(vertices=verts, faces=faces, ns=2, nt=2)


class TestBuildProfile:
    def test_embedded_closes_after_one_period(self):
        prof = mesh_io.build_profile(P_EMB, EMBEDDED.closure, 64)
        assert prof.winding["gap"] <= 1e-8
        assert prof.winding["s_total"] == pytest.approx(math.pi)
        assert prof.points.shape == (64, 4)

    def test_immersed_closes_after_two_periods(self):
        prof = mesh_io.build_profile(P_IMM, IMMERSED.closure, 64)
        assert prof.winding["gap"] <= 1e-8
        assert prof.winding["s_total"] == pytest.approx(2.0 * math.pi)

    def test_unsolved_level_raises_seam_mismatch(self):
        params = SphericalParams(c=1.0, m=0.51, ell=0.74)  # Theta irrational
        with pytest.raises(SeamMismatch):
            mesh_io.build_profile(params, ClosureResult(p=1, q=1, embedded=True), 64)

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            mesh_io.build_profile(P_IMM, IMMERSED.closure, 16)

    def test_closure_required(self):
        with pytest.raises(DomainError):
            mesh_io.build_profile(P_EMB, None, 64)

    def test_sphere_constraint_on_samples(self):
        prof = mesh_io.build_profile(P_EMB, EMBEDDED.closure, 64)
        norms = np.einsum("ij,ij->i", prof.points, prof.points)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.all(prof.points[:, 3] == 0.0)
        assert np.all(prof.points[:, 2] > 0.0)


class TestBuildSurfaceMesh:
    def test_projected_torus_is_watertight(self):
        mesh = mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 64, 32,
                                          projection="stereographic")
        assert mesh.vertices.shape == (64 * 32, 3)
        assert mesh_io.euler_characteristic(mesh) == 0

    def test_clifford_vertices_split_evenly(self):
        mesh = mesh_io.build_surface_mesh(CLIFFORD, ClosureResult(p=1, q=1, embedded=True),
                                          32, 16)
        v = mesh.vertices
        assert np.max(np.abs(v[:, 0] ** 2 + v[:, 1] ** 2 - 0.5)) <= 1e-10
        assert np.max(np.abs(v[:, 2] ** 2 + v[:, 3] ** 2 - 0.5)) <= 1e-10

    def test_minimal_transverse_resolution(self):
        mesh = mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 64, 4)
        assert mesh_io.euler_characteristic(mesh) == 0
        with pytest.raises(DomainError):
            mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 64, 3)

    def test_unknown_projection(self):
        with pytest.raises(DomainError):
            mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 64, 8,
                                       projection="orthographic")

    def test_projection_preimage_on_sphere(self):
        ambient = mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 32, 8)
        norms = np.einsum("ij,ij->i", ambient.vertices, ambient.vertices)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10
        projected = mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 32, 8,
                                               projection="stereographic")
        assert np.all(np.isfinite(projected.vertices))


def mesh_with_faces(faces):
    return mesh_io.SurfaceMesh(vertices=np.zeros((3, 3)),
                               faces=np.array(faces), ns=1, nt=1)


BAD_FACES = pytest.mark.parametrize("faces, span", [
    ([[0, 1, 5]], r"\[0, 5\]"),
    ([[0, -1, 2]], r"\[-1, 2\]"),
], ids=["past_the_end", "negative"])


@BAD_FACES
def test_euler_rejects_face_index_outside_vertices(faces, span):
    with pytest.raises(DomainError, match=span + r", outside the vertex "
                                          r"range \[0, 3\)"):
        mesh_io.euler_characteristic(mesh_with_faces(faces))


@BAD_FACES
def test_obj_rejects_face_index_outside_vertices(faces, span):
    buf = io.StringIO()
    with pytest.raises(DomainError, match=span):
        mesh_io.export_obj(mesh_with_faces(faces), buf)
    assert buf.getvalue() == ""


class TestExporters:
    def test_obj_golden_fixture(self):
        buf = io.StringIO()
        mesh_io.export_obj(golden_mesh(), buf)
        assert buf.getvalue() == (GOLDEN / "degenerate_2x2.obj").read_text()

    def test_obj_round_trips_floats(self):
        verts = np.array([[1.0 / 3.0, math.pi, -2.0 ** -40]])
        mesh = mesh_io.SurfaceMesh(vertices=verts, faces=np.zeros((0, 4), dtype=int),
                                   ns=1, nt=1)
        buf = io.StringIO()
        mesh_io.export_obj(mesh, buf)
        parsed = [float(tok) for tok in buf.getvalue().split()[1:4]]
        assert parsed == list(verts[0])

    def test_csv_scan_header_and_cells(self):
        rows = [{"m": 0.51, "ell": 0.73, "Theta": 6.25, "closed": True,
                 "p": 1, "q": 1, "embedded": True},
                {"m": 0.2, "ell": 0.3, "Theta": None, "closed": False,
                 "p": None, "q": None, "embedded": False}]
        buf = io.StringIO()
        mesh_io.export_csv(rows, mesh_io.SCAN_CSV_FIELDS, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "m,ell,Theta,closed,p,q,embedded"
        assert lines[1] == "0.51,0.73,6.25,true,1,1,true"
        assert lines[2] == "0.2,0.3,,false,,,false"

    def test_json_round_trip(self):
        record = {"inputs": {"c": 1.0, "m": 0.51}, "ell": 0.7302448635,
                  "closed": True, "p": 1, "rows": [1, 2.5, "x"]}
        buf = io.StringIO()
        mesh_io.export_json(record, buf)
        assert json.loads(buf.getvalue()) == record

    def test_deterministic_bytes(self):
        mesh = mesh_io.build_surface_mesh(P_EMB, EMBEDDED.closure, 32, 8,
                                          projection="stereographic")
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            mesh_io.export_obj(mesh, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


class TestScanTheta:
    def test_single_cell_at_embedded_example(self):
        rows = mesh_io.scan_theta(1.0, (0.51, 0.51), (0.73, 0.73), (1, 1),
                                  closure_tol=1e-2)
        assert len(rows) == 1
        row = rows[0]
        assert abs(row["Theta"] - 2.0 * math.pi) <= 1e-2
        assert row["closed"] is True
        assert (row["p"], row["q"], row["embedded"]) == (1, 1, True)

    def test_low_level_rows_never_embedded(self):
        rows = mesh_io.scan_theta(1.0, (0.05, 0.25), (0.2, 0.5), (5, 5))
        assert rows
        for row in rows:
            assert row["embedded"] is False

    def test_theta_grows_toward_upper_boundary(self):
        m = 0.5
        rows = mesh_io.scan_theta(1.0, (m, m), (0.72, 0.7495), (1, 8))
        thetas = [r["Theta"] for r in rows if r["Theta"] is not None]
        assert len(thetas) == 8
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        assert rows[-1]["near_upper"] is True

    def test_failures_become_row_codes(self):
        rows = mesh_io.scan_theta(1.0, (-0.5, 1.2), (0.3, 0.9), (3, 3))
        statuses = {r["status"] for r in rows}
        assert "outside" in statuses
        assert "not_immersible" in statuses
        assert len(rows) == 9

    def test_non_finite_theta_is_a_row_code(self):
        # g- N- underflows in the Carlson form at c m = 1e-170
        rows = mesh_io.scan_theta(1.0, (1e-170, 0.51), (0.3, 0.73), (2, 2))
        assert [r["status"] for r in rows] == [
            "QuadratureFailure", "not_immersible", "outside", "ok"]

    @pytest.mark.parametrize("m_range, ell_range, resolution", [
        ((0.4, math.nan), (0.66, 0.74), (2, 2)),
        ((0.4, 0.6), (-math.inf, 0.74), (2, 2)),
        ((0.4, 0.6), (0.66, 0.74), (0, 2)),
        ((0.4, 0.6), (0.66, 0.74), (2, -1)),
    ])
    def test_bad_ranges_rejected(self, m_range, ell_range, resolution):
        with pytest.raises(DomainError):
            mesh_io.scan_theta(1.0, m_range, ell_range, resolution)


# Per-element loop versions of the mesh pipeline, kept as references for the
# array code: the arithmetic is the same, so results must be equal exactly.

def loop_surface_mesh(prof, Ns, Nt, c, projection):
    t = np.linspace(0.0, 2.0 * math.pi, Nt, endpoint=False)
    x, y, z = prof.points[:, 0], prof.points[:, 1], prof.points[:, 2]
    verts = np.empty((Ns * Nt, 4))
    ct, st = np.cos(t), np.sin(t)
    for i in range(Ns):
        base = i * Nt
        verts[base:base + Nt, 0] = x[i]
        verts[base:base + Nt, 1] = y[i]
        verts[base:base + Nt, 2] = z[i] * ct
        verts[base:base + Nt, 3] = z[i] * st
    if projection == "stereographic":
        rows = []
        for v in verts:
            p = v * math.sqrt(c)
            rows.append(p[:3] / (1.0 + p[3]))
        verts = np.array(rows)
    faces = np.empty((Ns * Nt, 4), dtype=np.int64)
    k = 0
    for i in range(Ns):
        i2 = (i + 1) % Ns
        for j in range(Nt):
            j2 = (j + 1) % Nt
            faces[k] = (i * Nt + j, i2 * Nt + j, i2 * Nt + j2, i * Nt + j2)
            k += 1
    return verts, faces


def loop_euler_characteristic(mesh):
    edges = set()
    for face in mesh.faces:
        n = len(face)
        for k in range(n):
            a, b = int(face[k]), int(face[(k + 1) % n])
            edges.add((a, b) if a < b else (b, a))
    return mesh.vertices.shape[0] - len(edges) + mesh.faces.shape[0]


def loop_obj_text(mesh):
    buf = io.StringIO()
    for v in mesh.vertices:
        buf.write("v " + " ".join(f"{x:.17g}" for x in v) + "\n")
    for face in mesh.faces:
        buf.write("f " + " ".join(str(int(i) + 1) for i in face) + "\n")
    return buf.getvalue()


class TestLoopReferences:
    @pytest.mark.parametrize("projection", [None, "stereographic"])
    def test_mesh_matches_loops_on_non_square_q2_torus(self, projection):
        Ns, Nt = 48, 20
        mesh = mesh_io.build_surface_mesh(P_IMM, IMMERSED.closure, Ns, Nt,
                                          projection=projection)
        prof = mesh_io.build_profile(P_IMM, IMMERSED.closure, Ns)
        verts, faces = loop_surface_mesh(prof, Ns, Nt, P_IMM.c, projection)
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.faces, faces)
        assert mesh.faces.dtype == np.int64

    @pytest.mark.parametrize("mesh", [
        golden_mesh(),
        mesh_io.SurfaceMesh(vertices=np.zeros((5, 3)),
                            faces=np.array([[0, 1, 2], [2, 1, 3], [3, 4, 3],
                                            [0, 0, 0]]),
                            ns=1, nt=1),
        mesh_io.SurfaceMesh(vertices=np.zeros((3, 3)),
                            faces=np.zeros((0, 4), dtype=np.int64),
                            ns=1, nt=1),
        # every interior edge key occurs twice
        mesh_io.build_surface_mesh(P_IMM, IMMERSED.closure, 64, 24),
    ], ids=["golden_degenerate_2x2", "triangles", "no_faces", "q2_torus"])
    def test_euler_matches_edge_set(self, mesh):
        assert (mesh_io.euler_characteristic(mesh)
                == loop_euler_characteristic(mesh))

    def test_euler_leaves_faces_unchanged(self):
        mesh = mesh_io.build_surface_mesh(P_IMM, IMMERSED.closure, 64, 24)
        faces = mesh.faces.copy()
        assert mesh_io.euler_characteristic(mesh) == 0
        assert np.array_equal(mesh.faces, faces)

    def test_euler_peak_memory_at_benchmark_size(self):
        # The edge keys are formed and sorted in two face-sized arrays; a
        # separate lo, hi, product, sum and sorted copy peaked near 5x.
        mesh = mesh_io.build_surface_mesh(P_IMM, IMMERSED.closure, 576, 256)
        tracemalloc.start()
        try:
            chi = mesh_io.euler_characteristic(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == 0
        assert peak <= 2.5 * mesh.faces.nbytes

    def test_obj_matches_per_line_writer(self):
        verts = np.array([[-0.0, math.inf, -math.inf],
                          [math.nan, 2.0 ** -40, 1e300],
                          [1.0 / 3.0, -1e-300, 5e-324]])
        for faces in (np.zeros((0, 4), dtype=np.int64),
                      np.array([[0, 1, 2, 0], [2, 1, 0, 1]])):
            mesh = mesh_io.SurfaceMesh(vertices=verts, faces=faces,
                                       ns=1, nt=1)
            buf = io.StringIO()
            mesh_io.export_obj(mesh, buf)
            assert buf.getvalue() == loop_obj_text(mesh)

    def test_obj_blocks_match_per_line_writer(self):
        mesh = mesh_io.build_surface_mesh(P_IMM, IMMERSED.closure, 48, 20,
                                          projection="stereographic")
        reps = mesh_io.OBJ_BLOCK_ROWS // len(mesh.faces) + 2
        mesh.vertices = np.tile(mesh.vertices, (reps, 1))
        mesh.faces = np.tile(mesh.faces, (reps, 1))
        buf = io.StringIO()
        mesh_io.export_obj(mesh, buf)
        assert buf.getvalue() == loop_obj_text(mesh)
