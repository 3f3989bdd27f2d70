"""Regenerate perfbench/reference.json, the stored reference data of the benchmark.

Every Theta here is a 30-digit mpmath quadrature, independent of the
package's scipy code:

    Theta = 2 * int_0^{pi/2} sqrt(N) / (sqrt(g) (1 - c g)) du

with f^2 = g written around the profile maximum (u = 0) so that the two
quantities that vanish on the upper ell boundary are formed without
cancellation:

    1 - c g = D + 2 A sin^2 u,   c N = (ell + A) D + (2 ell - 1) 2 A sin^2 u,
    c g = ell - A + 2 A cos^2 u, D = (1 + c m - 2 ell) / (1 - ell + A),

where A = sqrt(ell^2 - c m) and N = m + (1 - 2 ell) g.  Inputs are taken as
the exact binary values of the floats the benchmark passes to the package.

The file holds:
  theta_checks   fixed check cells: interior, both ell boundaries at relative
                 distances 1e-2 .. 1e-10 of the admissible width, and the two
                 ROADMAP values Theta(0.51, 0.755 - 1e-6), Theta(1e-6, 0.5);
  scan_interior  3x3 scan rectangles well inside the admissible set;
  scan_boundary  one-row scans whose two cells sit at log-spaced relative
                 distances from the lower and upper boundary;
  closure        (c, m, p, q) at c = 1, m in [0.45, 0.85], q <= 6, with the
                 closing ell, Theta(ell) = 2 pi p / q, at least 3% of the
                 width below the upper boundary;
  torus          closing (m, ell, p, q) at c = 1, m in [0.25, 0.85], q <= 4.

Run from the repository root (takes several minutes on two cores):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from fractions import Fraction
from multiprocessing import get_context

import mpmath as mp
import numpy as np

DPS = 30
DISTANCES = [10.0 ** -k for k in range(2, 11)]
SEED = 2026
RECTS = 2000       # interior scan rectangles
ROWS = 648         # boundary scan rows: 8 of each (lower, upper) distance pair
CLOSURES = 500
TORI = 40
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def theta_mp(c, m, ell):
    """Theta(c, m, ell) to DPS digits; arguments are floats or mpf."""
    with mp.workdps(DPS + 5):
        c, m, ell = mp.mpf(c), mp.mpf(m), mp.mpf(ell)
        amp = mp.sqrt(ell * ell - c * m)
        d = (1 + c * m - 2 * ell) / (1 - ell + amp)
        top = (ell + amp) * d

        def integrand(u):
            s2 = mp.sin(u) ** 2
            cg = ell - amp + 2 * amp * mp.cos(u) ** 2
            cn = top + (2 * ell - 1) * 2 * amp * s2
            return mp.sqrt(cn / cg) / (d + 2 * amp * s2)

        val = 2 * mp.quad(integrand, [0, mp.mpf("1e-6"), mp.mpf("1e-3"),
                                      mp.pi / 4, mp.pi / 2])
    return val


def bounds(cm):
    lower = math.sqrt(cm)
    upper = (cm + 1.0) / 2.0
    return lower, upper, upper - lower


def fmt(x):
    return mp.nstr(x, DPS, min_fixed=-1, max_fixed=-1)


def cell_theta(args):
    c, m, ell = args
    return float(theta_mp(c, m, ell))


def check_cells():
    cells = []
    for cm in (0.04, 0.25, 0.51):
        lower, upper, width = bounds(cm)
        cells.append(("interior", 0.5, cm, lower + 0.5 * width))
        for d in DISTANCES:
            cells.append(("lower", d, cm, lower + d * width))
            cells.append(("upper", d, cm, upper - d * width))
    cells.append(("roadmap", 1e-6, 0.51, 0.755 - 1e-6))
    cells.append(("roadmap", None, 1e-6, 0.5))
    out = []
    for kind, d, m, ell in cells:
        out.append({"kind": kind, "d": d, "c": 1.0, "m": m, "ell": ell,
                    "Theta": fmt(theta_mp(1.0, m, ell))})
    return out


def interior_rects(rng, n):
    rects = []
    for _ in range(n):
        c = rng.choice((0.5, 1.0, 2.0))
        cm0 = rng.uniform(0.02, 0.6)
        cm1 = cm0 + rng.uniform(0.005, 0.04)
        lower = math.sqrt(cm1)
        upper = (cm0 + 1.0) / 2.0
        width = upper - lower
        e0 = lower + rng.uniform(0.05, 0.45) * width
        e1 = e0 + rng.uniform(0.1, 0.45) * width
        rects.append({"c": c, "m_range": [cm0 / c, cm1 / c],
                      "ell_range": [e0, e1], "res": [3, 3]})
    return rects


def rect_cells(rect):
    ms = np.linspace(rect["m_range"][0], rect["m_range"][1], rect["res"][0])
    ells = np.linspace(rect["ell_range"][0], rect["ell_range"][1],
                       rect["res"][1])
    return [(rect["c"], float(m), float(e)) for m in ms for e in ells]


def boundary_rows(rng, n):
    pairs = [(lo, hi) for lo in DISTANCES for hi in DISTANCES]
    rows = []
    for i in range(n):
        d_lo, d_hi = pairs[i % len(pairs)]
        c = rng.choice((0.5, 1.0, 2.0))
        cm = rng.uniform(0.02, 0.85)
        lower, upper, width = bounds(cm)
        rows.append({"c": c, "m_range": [cm / c, cm / c],
                     "ell_range": [lower + d_lo * width, upper - d_hi * width],
                     "res": [1, 2], "d": [d_lo, d_hi]})
    rng.shuffle(rows)
    return rows


RATIONALS = sorted({Fraction(p, q) for q in range(1, 7) for p in range(1, 13)
                    if math.gcd(p, q) == 1})


def closure_tuple(args):
    """Draw (c, m, p/q) until the closing ell sits in the solvable window."""
    seed, cs, cm_range, q_max, embedded = args
    rng = random.Random(seed)
    while True:
        c = rng.choice(cs)
        cm = rng.uniform(*cm_range)
        lower, upper, width = bounds(cm)
        a, b = lower + 1e-3 * width, upper - 0.03 * width
        th_a, th_b = theta_mp(c, cm / c, a), theta_mp(c, cm / c, b)
        fracs = [f for f in RATIONALS if f.denominator <= q_max
                 and th_a < 2 * mp.pi * f.numerator / f.denominator < th_b
                 and (f.numerator == 1) == embedded]
        if not fracs:
            continue
        f = rng.choice(fracs)
        target = 2 * mp.pi * f.numerator / f.denominator
        with mp.workdps(DPS + 5):
            root = mp.findroot(lambda e: theta_mp(c, cm / c, e) - target,
                               (mp.mpf(a), mp.mpf(b)), solver="anderson",
                               tol=mp.mpf(10) ** (2 - DPS))
        return {"c": c, "m": cm / c, "p": f.numerator, "q": f.denominator,
                "ell": fmt(root), "rel_to_upper": float((upper - root) / width)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=OUT)
    args = ap.parse_args()
    rng = random.Random(SEED)
    workers = len(os.sched_getaffinity(0))

    with get_context("spawn").Pool(workers) as pool:
        checks = check_cells()
        rects = interior_rects(rng, RECTS)
        rows = boundary_rows(rng, ROWS)
        flat = [cell for r in rects + rows for cell in rect_cells(r)]
        thetas = pool.map(cell_theta, flat, chunksize=32)
        it = iter(thetas)
        for r in rects + rows:
            r["Theta"] = [next(it) for _ in range(r["res"][0] * r["res"][1])]
        base = rng.randrange(1 << 30)
        closures = pool.map(closure_tuple,
                            [(base + i, (1.0,), (0.45, 0.85), 6, i % 4 == 0)
                             for i in range(CLOSURES)], chunksize=4)
        tori = pool.map(closure_tuple,
                        [(base + 10 ** 6 + i, (1.0,), (0.25, 0.85), 4,
                          i % 3 == 0) for i in range(TORI)], chunksize=2)

    data = {
        "generator": "perfbench/make_reference.py",
        "seed": SEED,
        "digits": DPS,
        "distances": DISTANCES,
        "theta_checks": checks,
        "scan_interior": rects,
        "scan_boundary": rows,
        "closure": closures,
        "torus": tori,
    }
    with open(args.out, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {args.out}: {len(checks)} check cells, {len(flat)} scan cells, "
          f"{len(closures)} closures, {len(tori)} tori")


if __name__ == "__main__":
    main()
