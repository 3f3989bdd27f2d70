"""Rotational realization of the a = 4 family in the 3-sphere of curvature c.

The profile curve alpha(s) = (r cos(theta), r sin(theta), f, 0) with
r = sqrt(1/c - f^2) lives in the upper hemisphere of a totally geodesic
2-sphere; theta advances at rate

    theta'(s) = sqrt(c) sqrt(m + (1 - 2 ell) f^2) / (f (1 - c f^2)),

which is bounded away from 0 and infinity precisely on the admissible set
(m < 1/c and sqrt(cm) < ell < (cm + 1)/2).  The curve closes iff the
per-period advance Theta = theta(pi/sqrt(c)) is a rational multiple of
2 pi, and the swept torus is embedded when Theta = 2 pi / n.

theta and Theta are closed forms in Carlson's integrals R_F and R_J (see
_carlson_form); no quadrature is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import spherical_family as sf
from ._carlson import rf_rj
from .errors import (
    DomainError,
    NoBracket,
    NotImmersible,
    PoleSingularity,
    RangeError,
    require_finite,
)
from .spherical_family import Classification, SphericalParams

__all__ = [
    "ThetaProfile",
    "ClosureResult",
    "ProfileCurve",
    "SolveResult",
    "theta_rate",
    "theta",
    "theta_grid",
    "big_theta",
    "make_theta_profile",
    "theta_limits",
    "detect_closure",
    "solve_for_ell",
    "mean_curvature",
    "profile_point",
    "surface_point",
    "stereographic",
    "profile_simple_check",
]

_IMMERSIBLE = (Classification.INTERIOR_LAMBDA_PRIME,
               Classification.BOUNDARY_CONSTANT)


def _require_immersible(params: SphericalParams) -> Classification:
    cls = params.classification
    # the constant solution has c f^2 = ell = sqrt(c m), and r needs c f^2 < 1
    if cls not in _IMMERSIBLE or not params.m < 1.0 / params.c:
        raise NotImmersible(
            f"(c={params.c}, m={params.m}, ell={params.ell}) classifies as "
            f"{cls.value}; rotational realization needs InteriorLambdaPrime "
            "or BoundaryConstant with m < 1/c"
        )
    return cls


def _rate_of_fsq(params: SphericalParams, g):
    c, m, ell = params.c, params.m, params.ell
    return (math.sqrt(c) * np.sqrt(m + (1.0 - 2.0 * ell) * g)
            / (np.sqrt(g) * (1.0 - c * g)))


def theta_rate(params: SphericalParams, s) -> float:
    """theta'(s); positive and finite on the admissible set."""
    _require_immersible(params)
    f, _, _ = sf.f_closed(params, s)
    return _rate_of_fsq(params, f * f)


def _carlson_form(c, m, ell, A, gap):
    """Constants (P, alpha, beta/h-, rho/3, y, z, k) of theta in Carlson form.

    A = sqrt(ell^2 - c m) and gap = (1 - 2 ell) + c m are the two distances
    that vanish on the lower and upper boundary; they come in formed, so
    that neither is recomputed by cancellation.  With g- = m/(ell + A) and
    g+ = (ell + A)/c the extremes of f^2, D = gap/(1 - ell + A) = 1 - c g+,
    h- = 1 - c m/(ell + A) = 1 - c g-, N- = m (1 - ell + A)/(ell + A) and
    N+ = (ell + A) D / c:

        P = 1/sqrt(g- N-), alpha = (2 ell - 1)/c, beta = gap/c,
        y = g+/g-, z = N+/N-, k = D/h-, rho = 1 - k.

    The third-kind term is written from the g- side: from the g+ side a
    1/D would multiply a difference and lose about eps/gap.
    """
    s = ell + A
    g_lo = m / s
    g_hi = s / c
    d = gap / (1.0 - ell + A)
    h_lo = 1.0 - c * m / s
    n_lo = m * (1.0 - ell + A) / s
    n_hi = s * d / c
    k = d / h_lo
    return (1.0 / np.sqrt(g_lo * n_lo), (2.0 * ell - 1.0) / c,
            gap / c / h_lo, (1.0 - k) / 3.0, g_hi / g_lo, n_hi / n_lo, k)


def _form(params: SphericalParams):
    """_carlson_form of immersible params.

    A is params.amplitude, which is 0 where rounding makes ell^2 - c m
    negative on the constant boundary; the form is continuous onto A = 0
    (y = z = k = 1), so that boundary needs no branch of its own.
    """
    _require_immersible(params)
    c, m, ell = params.c, params.m, params.ell
    return _carlson_form(c, m, ell, params.amplitude, (1.0 - 2.0 * ell) + c * m)


def _complete_theta(form):
    """Theta from the constants of _carlson_form, in one kernel call:

        Theta = 2 P [alpha R_F(0, y, z) + beta (R_F(0, y, z)
                + (rho/3) R_J(0, y, z, k)) / h-]

    Array and complex constants pass through elementwise.
    """
    P, alpha, beta_h, rho3, y, z, k = form
    rf, rj = rf_rj(0.0, y, z, k)
    return 2.0 * P * (alpha * rf + beta_h * (rf + rho3 * rj))


@lru_cache(maxsize=512)
def big_theta(params: SphericalParams) -> float:
    """Rotation advance over one fundamental period: Theta = theta(pi/sqrt(c)),
    in closed form (_complete_theta)."""
    return float(_complete_theta(_form(params)))


def _theta_of_ell(c, m, ell):
    """Theta on the slice c m in (0, 1) at an array of interior ell, or at a
    complex ell (real part interior), whose imaginary part then carries the
    derivative in ell."""
    return _complete_theta(_carlson_form(c, m, ell, np.sqrt(ell * ell - c * m),
                                         (1.0 - 2.0 * ell) + c * m))


def _theta_values(params: SphericalParams, s) -> np.ndarray:
    """theta at an array of s in one kernel call.

    With psi = sqrt(c) s + pi/4 + phase/2 the profile is
    f^2 = g- cos^2 psi + g+ sin^2 psi, and theta = H(psi(s)) - H(psi(0)),
    where H(psi) = n Theta + H(psi - n pi) for n = round(psi/pi) and, for
    r in [-pi/2, pi/2], x = sin r and X = cos^2 r,

        H(r) = P [alpha x R_F(X, Y, Z) + beta (x R_F(X, Y, Z)
               + (rho/3) x^3 R_J(X, Y, Z, W)) / h-]

    with Y = X + y x^2, Z = X + z x^2 and W = X + k x^2 formed as sums.
    """
    P, alpha, beta_h, rho3, y, z, k = _form(params)
    psi0 = 0.25 * math.pi + 0.5 * params.phase
    psi = np.append(psi0, math.sqrt(params.c) * np.asarray(s, dtype=float) + psi0)
    n = np.round(psi / math.pi)
    r = psi - n * math.pi
    x = np.sin(r)
    X = np.cos(r) ** 2
    x2 = x * x
    rf, rj = rf_rj(X, X + y * x2, X + z * x2, X + k * x2)
    h = n * big_theta(params) + P * (alpha * x * rf
                                     + beta_h * (x * rf + rho3 * x * x2 * rj))
    return h[1:] - h[0]


def theta(params: SphericalParams, s: float) -> float:
    """theta(s), the rotation angle of the profile point at s; theta(0) = 0."""
    require_finite(s=s)
    return float(_theta_values(params, [s])[0])


def theta_grid(params: SphericalParams, s_values) -> np.ndarray:
    """theta at an increasing grid of s >= 0, in one kernel call."""
    _require_immersible(params)
    s = np.asarray(s_values, dtype=float)
    if s.size and not (np.all(np.isfinite(s)) and s[0] >= 0
                       and np.all(np.diff(s) > 0)):
        raise DomainError("theta_grid expects an increasing grid of finite s >= 0")
    return _theta_values(params, s)


@dataclass(frozen=True)
class ThetaProfile:
    """Per-period advance Theta of theta and the rate bounds S1 <= theta' <= S2."""

    Theta: float
    S1: float
    S2: float


def make_theta_profile(params: SphericalParams) -> ThetaProfile:
    cls = _require_immersible(params)
    if cls is Classification.BOUNDARY_CONSTANT:
        rate = float(theta_rate(params, 0.0))
        s1 = s2 = rate
    else:
        c, m, ell = params.c, params.m, params.ell
        g_lo, g_hi = params.f_sq_min, params.f_sq_max
        # Interior critical points of the rate are the roots of
        # 2 c (1 - 2 ell) g^2 + 3 c m g - m = 0.  The first root is written
        # so that it stays finite, g = 1/(3c), when ell = 1/2; the
        # discriminant is positive on the admissible set.
        a2 = 2.0 * c * (1.0 - 2.0 * ell)
        q = -0.5 * (3.0 * c * m + math.sqrt(9.0 * (c * m) ** 2 + 4.0 * a2 * m))
        roots = [-m / q] + ([q / a2] if a2 != 0.0 else [])
        g = np.array([g_lo, g_hi] + [x for x in roots if g_lo < x < g_hi])
        rates = _rate_of_fsq(params, g)
        s1 = float(np.min(rates)) * (1.0 - 1e-12)
        s2 = float(np.max(rates)) * (1.0 + 1e-12)
    return ThetaProfile(Theta=big_theta(params), S1=s1, S2=s2)


def theta_limits(c: float, which: str, m: Optional[float] = None,
                 ell: Optional[float] = None) -> float:
    """Closed-form boundary values of Theta.

    which:
      "m_to_boundary"  -- m -> ell^2/c at fixed ell in (0,1): pi/sqrt(1-ell)
      "m_to_zero"      -- m -> 0 at fixed ell in (0,1/2]:      pi
      "ell_to_lower"   -- ell -> sqrt(cm) at fixed cm in (0,1): pi/sqrt(1-sqrt(cm))
      "ell_to_upper"   -- ell -> (cm+1)/2:                      +inf
    General c reduces to c = 1 through the scaling map m -> c m.
    """
    require_finite(c=c, **{k: v for k, v in (("m", m), ("ell", ell))
                           if v is not None})
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    if which == "m_to_boundary":
        if ell is None or not 0.0 < ell < 1.0:
            raise RangeError(f"m_to_boundary needs ell in (0, 1), got {ell}")
        return math.pi / math.sqrt(1.0 - ell)
    if which == "m_to_zero":
        if ell is None or not 0.0 < ell <= 0.5:
            raise RangeError(f"m_to_zero needs ell in (0, 1/2], got {ell}")
        return math.pi
    if which == "ell_to_lower":
        if m is None or not 0.0 < c * m < 1.0:
            raise RangeError(f"ell_to_lower needs c*m in (0, 1), got m={m}")
        return math.pi / math.sqrt(1.0 - math.sqrt(c * m))
    if which == "ell_to_upper":
        if m is None or not 0.0 < c * m < 1.0:
            raise RangeError(f"ell_to_upper needs c*m in (0, 1), got m={m}")
        return math.inf
    raise RangeError(f"unknown limit selector {which!r}")


@dataclass(frozen=True)
class ClosureResult:
    """Rational closure Theta ~ 2 pi p / q; the profile closes after q periods."""

    p: int
    q: int
    embedded: bool

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise DomainError("closure requires positive integers p, q")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError(f"p={self.p}, q={self.q} must be coprime")


def detect_closure(theta_total: float, q_max: int = 50,
                   tol: float = 1e-8) -> Optional[ClosureResult]:
    """First continued-fraction convergent p/q of Theta/(2 pi) with q <= q_max
    and |q Theta - 2 pi p| <= tol; None when no convergent qualifies."""
    require_finite(theta_total=theta_total, tol=tol)
    if theta_total <= 0 or q_max < 1:
        raise DomainError("detect_closure needs Theta > 0 and q_max >= 1")
    x = theta_total / (2.0 * math.pi)
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    frac = x
    for _ in range(64):
        a0 = math.floor(frac)
        h_prev, h = h, a0 * h + h_prev
        k_prev, k = k, a0 * k + k_prev
        if k > q_max:
            return None
        if h >= 1 and abs(k * theta_total - 2.0 * math.pi * h) <= tol:
            return ClosureResult(p=h, q=k, embedded=(h == 1))
        rem = frac - a0
        if rem <= 1e-16:
            return None
        frac = 1.0 / rem
    return None


@dataclass(frozen=True)
class SolveResult:
    ell: float
    theta_total: float
    closure: ClosureResult
    brackets: tuple


# Complex step: Theta(ell + i h) = Theta(ell) + i h Theta'(ell) + O(h^2), so
# the real part is Theta and Im/h the derivative, with no cancellation for
# any h far below the rounding of ell (Squire and Trapp, SIAM Rev. 40, 1998).
_STEP = 1e-30
# Newton steps after the scan.  The 500 closure rows of the benchmark
# reference data take 2 or 3; with the scan and big_theta at the root a
# solve makes at most 10 kernel calls.
_NEWTON_STEPS = 8
_LN2 = math.log(2.0)


def solve_for_ell(c: float, m: float, target_p: int = 1, target_q: int = 1,
                  n_scan: int = 64, tol: float = 1e-10) -> SolveResult:
    """Find ell with Theta(m, ell) = 2 pi p / q by a scan, then Newton.

    Theta is not assumed monotone in ell.  One kernel call evaluates it at
    n_scan points from 1e-9 (1 + c m) inside each end of (L, U), where
    L = sqrt(c m) and U = (1 + c m)/2, and every sign change between
    neighbours is a bracket.  The first bracket is refined by Newton in
    v = ln((U - L)/(U - ell)), starting from linear interpolation in v
    between the bracket ends.  Theta is close to linear in v at both ends:
    at the lower end because v is close to linear in ell there, at the upper
    end because Theta grows like -ln(U - ell).  Each step takes Theta and
    dTheta/dell from one kernel call at the complex point ell + 1e-30 i
    (complex step); a step that leaves the bracket becomes a bisection in
    v.  Newton stops at |Theta - target| <= 1e-13 target, or when a step no
    longer moves ell, and the root stands when the last |Theta - target|
    is within tol.  theta_total is big_theta at the root.

    Raises NoBracket when the scan finds no sign change (the message says
    whether 2 pi p / q is reachable at this c m), when the step budget runs
    out, or when the tolerance is missed.
    """
    if not 0.0 < c * m < 1.0:
        raise NotImmersible(f"solve_for_ell needs 0 < c*m < 1, got c*m={c * m}")
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    if target_p < 1 or target_q < 1:
        raise DomainError("target p, q must be positive integers")
    g = math.gcd(target_p, target_q)
    p, q = target_p // g, target_q // g
    target = 2.0 * math.pi * p / q

    lower, upper = math.sqrt(c * m), (c * m + 1.0) / 2.0
    width = upper - lower
    delta = 1e-9 * (1.0 + c * m)
    lo, hi = lower + delta, upper - delta
    ells = np.linspace(lo, hi, n_scan)
    values = _theta_of_ell(c, m, ells) - target
    starts = np.flatnonzero((values[:-1] == 0.0)
                            | (values[:-1] * values[1:] < 0.0))
    brackets = [(float(ells[i]), float(ells[i + 1])) for i in starts]
    if not brackets:
        reach = 1.0 - (q / (2.0 * p)) ** 2
        msg = (f"Theta - {target} has no sign change over ({lo}, {hi}) at "
               f"{n_scan} samples; Theta spans [{target + values.min()}, "
               f"{target + values.max()}], and its lower-boundary limit is "
               f"pi/sqrt(1 - sqrt(cm)) = "
               f"{theta_limits(c, 'ell_to_lower', m=m)}")
        if lower >= reach:
            msg += (f", so 2 pi p/q is reachable only where sqrt(cm) < "
                    f"1 - (q/(2p))^2 = {reach}; here sqrt(cm) = {lower}")
        elif values.max() < 0.0:
            msg += (f"; 2 pi p/q is reachable (sqrt(cm) < 1 - (q/(2p))^2 = "
                    f"{reach}), so the root lies closer to the upper boundary "
                    f"{upper} than the scan reaches")
        raise NoBracket(msg)

    def ell_of(v):  # from the nearer end (v = ln 2 is the midpoint)
        if v < _LN2:
            return lower - width * math.expm1(-v)
        return upper - width * math.exp(-v)

    def v_of(ell):
        return math.log1p((ell - lower) / (upper - ell))

    i = starts[0]
    (a, b), h_a, h_b = brackets[0], float(values[i]), float(values[i + 1])
    root, h = a, h_a
    if h != 0.0:
        v_a, v_b = v_of(a), v_of(b)
        v = v_a - h_a * (v_b - v_a) / (h_b - h_a)
        for _ in range(_NEWTON_STEPS):
            root = ell_of(v)
            th = complex(_theta_of_ell(c, m, complex(root, _STEP)))
            h = th.real - target
            # dTheta/dv = dTheta/dell (U - ell); a flat slope stays at v, so
            # the bracket below bisects instead
            slope = th.imag / _STEP * width * math.exp(-v)
            v_next = v - h / slope if slope else v
            if abs(h) <= 1e-13 * target:
                # converged: the last step is taken without evaluating it
                root = ell_of(v_next)
                break
            if (h < 0.0) == (h_a < 0.0):
                v_a, h_a = v, h
            else:
                v_b = v
            if not v_a < v_next < v_b:
                v_next = 0.5 * (v_a + v_b)
            if ell_of(v_next) == root:
                break
            v = v_next
        else:
            raise NoBracket(
                f"Newton refinement left |Theta - target| = {abs(h)} after "
                f"{_NEWTON_STEPS} steps in ({a}, {b})")

    if abs(h) > tol:
        raise NoBracket(f"Newton refinement stopped at |Theta - target| = "
                        f"{abs(h)}")
    # big_theta is looked up on the module, so its cache records the root
    # and a replaced big_theta reports its own value
    theta_total = big_theta(SphericalParams(c=c, m=m, ell=root))
    return SolveResult(ell=root, theta_total=theta_total,
                       closure=ClosureResult(p=p, q=q, embedded=(p == 1)),
                       brackets=tuple(brackets))


def mean_curvature(params: SphericalParams, s) -> float:
    """Mean curvature of the swept surface.

    Evaluates the raw second-order formula and its algebraic simplification
    H = (2 ell - 1) / (2 sqrt(m + (1 - 2 ell) f^2)) and insists they agree.
    """
    _require_immersible(params)
    c, m, ell = params.c, params.m, params.ell
    f, f1, f2 = sf.f_closed(params, s)
    g = f * f
    simplified = (2.0 * ell - 1.0) / (2.0 * math.sqrt(m + (1.0 - 2.0 * ell) * g))
    raw = ((f * f2 + f1 * f1 + 2.0 * c * g - 1.0)
           / (2.0 * f * math.sqrt(1.0 - c * g - f1 * f1)))
    if abs(raw - simplified) > 1e-11 * max(1.0, abs(simplified)):
        raise DomainError(
            f"mean-curvature forms disagree at s={s}: {raw} vs {simplified}"
        )
    return simplified


def profile_point(params: SphericalParams, s: float,
                  theta_value: Optional[float] = None) -> np.ndarray:
    """Profile-curve point alpha(s) in R^4 (fourth coordinate 0)."""
    _require_immersible(params)
    f, _, _ = sf.f_closed(params, s)
    th = theta(params, s) if theta_value is None else theta_value
    r = math.sqrt(max(1.0 / params.c - f * f, 0.0))
    return np.array([r * math.cos(th), r * math.sin(th), float(f), 0.0])


def surface_point(params: SphericalParams, s: float, t: float,
                  theta_value: Optional[float] = None) -> np.ndarray:
    """X(s, t): rotate alpha(s) by angle t in the (z, w)-plane."""
    x, y, z, _ = profile_point(params, s, theta_value=theta_value)
    return np.array([x, y, z * math.cos(t), z * math.sin(t)])


def stereographic(points, c: float) -> np.ndarray:
    """Project points of the c-sphere (radius 1/sqrt(c)) from the pole
    (0, 0, 0, -1/sqrt(c)) onto R^3, after scaling to the unit sphere.

    points is one point of shape (4,) or an array of shape (..., 4); the
    result has shape (3,) or (..., 3).  Raises PoleSingularity if any point
    is at the pole.
    """
    p = np.asarray(points, dtype=float) * math.sqrt(c)
    denom = 1.0 + p[..., 3:]
    if np.any(np.abs(denom) < 1e-12):
        raise PoleSingularity("stereographic projection at the pole")
    return p[..., :3] / denom


def profile_simple_check(params: SphericalParams,
                         closure: Optional[ClosureResult],
                         n_samples: int = 1024) -> bool:
    """True when the closed polygon through n_samples points of the planar
    projection (x, y) of the profile curve, over one circuit of q fundamental
    periods, has no self-intersection.

    On the admissible set theta' > 0 and r > 0, so the profile is a polar
    graph.  When every polygon step, the closing one included, turns about
    the origin by an angle in (0, pi), each ray from the origin meets the
    polygon once per turn, so it is simple exactly when it winds once.  The
    turns are measured from the points, not from theta or closure.p.
    Raises DomainError when the samples are too coarse for that certificate.
    """
    if closure is None:
        raise DomainError("profile_simple_check needs a closure result")
    if n_samples < 3:
        raise DomainError(f"n_samples={n_samples}: a polygon needs at least 3")
    _require_immersible(params)
    s = np.linspace(0.0, closure.q * params.period, n_samples, endpoint=False)
    thetas = theta_grid(params, s)
    f = sf.f_closed(params, s)[0]
    r = np.sqrt(np.maximum(1.0 / params.c - f * f, 0.0))
    x, y = r * np.cos(thetas), r * np.sin(thetas)
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    turns = np.arctan2(x * y1 - y * x1, x * x1 + y * y1)
    if not (np.all(r > 0) and np.all((turns > 0) & (turns < math.pi))):
        raise DomainError(
            f"n_samples={n_samples} too small for a certified verdict: a "
            "polygon step turns outside (0, pi) about the origin"
        )
    return round(float(np.sum(turns)) / (2.0 * math.pi)) == 1


@dataclass(frozen=True)
class ProfileCurve:
    """Discretized profile curve with closure metadata."""

    s: np.ndarray
    theta: np.ndarray
    points: np.ndarray  # (n, 4)
    closure: Optional[ClosureResult]
    winding: dict
