"""Chern connection of a cubic direction field, in three presentations.

1. gamma_cubic: closed formula in the coefficients (a, b, c, r) and their
   first partials, valid in the normalization sigma_1 + sigma_2 + sigma_3 = 0.
2. gamma_depressed: formula in the depressed slope cubic p^3 + A p + B.
3. gamma_from_definition: directly from normalized root jets via the area
   form and d(sigma_i) = h_i * Omega.

Curvature, the d(ln D) identity for characteristic webs, path integrals of
gamma, and Blaschke parallel transport live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubic import (SingularPointError, at_first, coeff_values,
                    continue_along, depress_jets, discriminant_of_coeffs,
                    normalize_roots, proj_distance, regular_cutoff)
from .jets import Jet, any_set


@dataclass
class ConnectionValue:
    """gamma = gx dx + gy dy at a point; components kept as jets."""

    gx: Jet
    gy: Jet

    def values(self):
        return (self.gx.value, self.gy.value)

    def norm(self):
        return max(abs(self.gx.value), abs(self.gy.value))


@dataclass
class CurvatureValue:
    """Coefficient of d(gamma) against dx ^ dy."""

    K: complex


# ---------------------------------------------------------------------------
# Closed formula in (a, b, c, r)


def _gamma12_jets(a, b, c, r):
    """(gamma_1, gamma_2, D) jets from coefficient jets of order >= 1."""
    ax, ay = a.deriv(0), a.deriv(1)
    bx, by = b.deriv(0), b.deriv(1)
    cx, cy = c.deriv(0), c.deriv(1)
    rx, ry = r.deriv(0), r.deriv(1)
    k = ax.order
    a, b, c, r = (j.truncate(k) for j in (a, b, c, r))

    g1 = ((15 * b * c * r - 27 * a * r * r - 4 * c * c * c) * ax
          + 6 * r * (3 * b * r - c * c) * ay
          + 2 * b * (c * c - 3 * b * r) * bx
          + 3 * r * (b * c - 9 * a * r) * by
          + b * (9 * a * r - b * c) * cx
          + 6 * r * (3 * a * c - b * b) * cy
          + 2 * b * (b * b - 3 * a * c) * rx
          + (9 * a * b * r - 12 * a * c * c + 3 * b * b * c) * ry)
    g2 = ((9 * a * c * r - 12 * b * b * r + 3 * b * c * c) * ax
          + 2 * c * (c * c - 3 * b * r) * ay
          + 6 * a * (3 * b * r - c * c) * bx
          + c * (9 * a * r - b * c) * by
          + 3 * a * (b * c - 9 * a * r) * cx
          + 2 * c * (b * b - 3 * a * c) * cy
          + 6 * a * (3 * a * c - b * b) * rx
          + (15 * a * b * c - 27 * a * a * r - 4 * b * b * b) * ry)
    D = discriminant_of_coeffs(a, b, c, r)
    return g1, g2, D


def gamma_cubic(field, point, order=0):
    """gamma = (gamma_1 dx + gamma_2 dy) / (3 D) as jets of given order.

    The point may be a pair of arrays: gamma then runs over those points,
    and a point on the discriminant raises for the first such point.
    """
    x, y = point
    return gamma_from_jets(field.coeff_jets(x, y, order + 1), x, y)


def gamma_from_jets(coeff_jets, x, y):
    """gamma_cubic from the coefficient jets (order >= 1) at (x, y)."""
    co = coeff_values(coeff_jets)
    D0 = discriminant_of_coeffs(*(j.value for j in coeff_jets))
    bad = abs(D0) <= regular_cutoff(co)
    if any_set(bad):
        x, y, D0 = at_first(bad, x, y, D0)
        raise SingularPointError(
            f"discriminant ~ 0 at ({x}, {y}): |D| = {abs(D0):.3e}",
            disc=D0)
    g1, g2, D = _gamma12_jets(*coeff_jets)
    invD = (3 * D).reciprocal()
    return ConnectionValue(gx=g1 * invD, gy=g2 * invD)


# ---------------------------------------------------------------------------
# Depressed-form formula


DEPRESSED_DEN_TOL = 1e-12  # scaled |4A^3 + 27B^2| at which (A, B) is singular


def gamma_depressed_from_AB(A, B):
    """Connection components from (A, B) jets of order >= 1."""
    Ax, Ay = A.deriv(0), A.deriv(1)
    Bx, By = B.deriv(0), B.deriv(1)
    k = Ax.order
    A, B = A.truncate(k), B.truncate(k)
    den = 4 * A * A * A + 27 * B * B
    if abs(den.value) <= DEPRESSED_DEN_TOL * (
            1.0 + max(abs(A.value), abs(B.value))) ** 3:
        raise SingularPointError(
            f"4A^3 + 27B^2 ~ 0: {abs(den.value):.3e}", disc=den.value)
    inv = den.reciprocal()
    gx = (2 * A * A * Ax - 4 * A * A * By + 6 * A * B * Ay + 9 * B * Bx) * inv
    gy = (4 * A * A * Ay + 6 * A * Bx + 18 * B * By - 9 * B * Ax) * inv
    return ConnectionValue(gx=gx, gy=gy)


K2_TOL = 1e-9  # relative size of a quadratic term that counts as absent
K2_LEAD_FLOOR = 1e-3  # least relative leading coefficient in that test


def gamma_depressed(field, point, order=0):
    """Connection of the depressed presentation of a field's web.

    On presentations whose slope cubic already lacks the quadratic term the
    printed (A, B) formula is used verbatim.  For general presentations
    that formula is reproduced exactly by gamma_cubic + (1/6) d(ln D) (the
    two differ by an exact form that cancels in the curvature), which stays
    holomorphic on characteristic webs; the quadratic root shift alone is
    not a web equivalence and is not used here.
    """
    x, y = point
    jets = field.coeff_jets(x, y, order + 1)
    co = coeff_values(jets)
    k3, k2, k0, k1 = -co[0], co[1], co[3], -co[2]
    lead, quad = (k3, k2) if abs(k3) >= abs(k0) else (k0, k1)
    scale = 1.0 + float(np.max(np.abs(co)))
    if abs(quad) <= K2_TOL * scale * max(abs(lead) / scale, K2_LEAD_FLOOR):
        dep = depress_jets(jets, x, y)
        if dep.chart == "yx":
            # the depressed cubic lives in swapped coordinates: transpose
            # the jets, apply the formula there, swap components back
            g = gamma_depressed_from_AB(dep.A.swap_axes(), dep.B.swap_axes())
            return ConnectionValue(gx=g.gy.swap_axes(), gy=g.gx.swap_axes())
        return gamma_depressed_from_AB(dep.A, dep.B)
    g = gamma_from_jets(jets, x, y)
    D = discriminant_of_coeffs(*jets)
    invD = D.reciprocal() * (1.0 / 6.0)
    return ConnectionValue(gx=g.gx + D.deriv(0) * invD.truncate(order),
                           gy=g.gy + D.deriv(1) * invD.truncate(order))


# ---------------------------------------------------------------------------
# Definition via normalized roots


def gamma_expressions_from_sigma(sigma):
    """The three defining expressions of gamma from sigma jets (order >= 1).

    Returns a list of three ConnectionValue candidates whose agreement is
    the content of the definition being well-posed.
    """
    (p1, q1), (p2, q2), (p3, q3) = sigma
    omega = p1 * q2 - p2 * q1
    inv = omega.reciprocal()
    hs = [(q.deriv(0) - p.deriv(1)) * inv.truncate(p.order - 1)
          for p, q in sigma]
    k = hs[0].order
    ps = [p.truncate(k) for p, _ in sigma]
    qs = [q.truncate(k) for _, q in sigma]
    h1, h2, h3 = hs
    return [
        ConnectionValue(gx=h2 * ps[0] - h1 * ps[1],
                        gy=h2 * qs[0] - h1 * qs[1]),
        ConnectionValue(gx=h3 * ps[1] - h2 * ps[2],
                        gy=h3 * qs[1] - h2 * qs[2]),
        ConnectionValue(gx=h1 * ps[2] - h3 * ps[0],
                        gy=h1 * qs[2] - h3 * qs[0]),
    ]


AGREEMENT_TOL = 1e-9  # relative spread allowed among the three expressions


def gamma_from_definition(field, point, order=0):
    """Chern connection straight from the definition.

    The three defining expressions must agree pairwise; their first one is
    returned (they are equal up to the stated tolerance).
    """
    triple = normalize_roots(field, point, order=order + 1)
    exprs = gamma_expressions_from_sigma(triple.sigma)
    scale = 1.0 + max(e.norm() for e in exprs)
    for i in range(3):
        j = (i + 1) % 3
        diff = max(abs(exprs[i].gx.value - exprs[j].gx.value),
                   abs(exprs[i].gy.value - exprs[j].gy.value))
        if diff / scale > AGREEMENT_TOL:
            raise SingularPointError(
                f"defining expressions for gamma disagree by {diff:.2e}")
    return exprs[0]


# ---------------------------------------------------------------------------
# Curvature


def curvature(field, point, route="cubic"):
    """K = d(gamma)/(dx ^ dy) = d_x(gamma_dy) - d_y(gamma_dx)."""
    if route == "cubic":
        g = gamma_cubic(field, point, order=1)
    elif route == "depressed":
        g = gamma_depressed(field, point, order=1)
    elif route == "definition":
        g = gamma_from_definition(field, point, order=1)
    else:
        raise ValueError(f"unknown curvature route {route!r}")
    K = g.gy.deriv(0).value - g.gx.deriv(1).value
    return CurvatureValue(K=K)


# ---------------------------------------------------------------------------
# Identity for characteristic webs, path integrals, transport


def corollary_residual(pot, point, assoc_tol=1e-8):
    """Deviation of gamma from -(1/6) d(ln D) for a WDVV potential.

    Only claimed (and only computed) for solutions of the associativity
    equation; refuses otherwise.
    """
    x, y = point
    res = abs(pot.associativity_residual(x, y))
    if res > assoc_tol:
        raise ValueError(
            f"associativity residual {res:.3e} too large; identity only "
            "holds on solutions")
    jets = pot.characteristic_field().coeff_jets(x, y, 1)
    g = gamma_from_jets(jets, x, y)  # raises where D ~ 0
    D = discriminant_of_coeffs(*jets)
    ref_x = -D.deriv(0).value / (6.0 * D.value)
    ref_y = -D.deriv(1).value / (6.0 * D.value)
    gx, gy = g.values()
    return max(abs(gx - ref_x), abs(gy - ref_y)) / (1.0 + g.norm())


QUAD_TOL = 1e-10  # absolute and relative tolerance of the quadrature
QUAD_MAX_INTERVALS = 200  # most intervals one path segment may be cut into
# QUADPACK's qk21 rule: Kronrod nodes +-x on [-1, 1] (x[1::2] the Gauss ones)
QK21_NODES = (
    0.99565716302580808073, 0.97390652851717172007, 0.93015749135570822600,
    0.86506336668898451073, 0.78081772658641689706, 0.67940956829902440623,
    0.56275713466860468333, 0.43339539412924719079, 0.29439286270146019813,
    0.14887433898163121088, 0.0)
QK21_WEIGHTS = (
    0.01169463886737187427, 0.03255816230796472747, 0.05475589657435199603,
    0.07503967481091995276, 0.09312545458369760553, 0.10938715880229764189,
    0.12349197626206585107, 0.13470921731147332592, 0.14277593857706008079,
    0.14773910490133849137, 0.14944555400291690566)
G10_WEIGHTS = (
    0.06667134430868813759, 0.14945134915058059314, 0.21908636251598204399,
    0.26926671930999635509, 0.29552422471475287017)
# the 21 nodes mapped to [0, 1] ascending; their (Kronrod, Gauss) weights
_QK21_T = 0.5 + 0.5 * np.r_[np.negative(QK21_NODES[:-1]), QK21_NODES[::-1]]
_QK21_W = 0.5 * np.array([w[:-1] + w[::-1] for w in (
    QK21_WEIGHTS, (0.0,) + sum(((w, 0.0) for w in G10_WEIGHTS), ()))]).T


def integrate_gamma(field, path):
    """Path integral of gamma along a polyline, by adaptive Gauss-Kronrod.

    Segments start as the parameter interval [0, 1].  Each round calls
    gamma_cubic once, on the 21 nodes of every open interval, and bisects
    the intervals whose Kronrod and Gauss sums K, G miss |K - G| <=
    max(QUAD_TOL, QUAD_TOL |K|) times their length.  Raises
    SingularPointError where a node is on the discriminant, or a segment
    needs over QUAD_MAX_INTERVALS intervals (gamma is analytic elsewhere).
    """
    P = np.asarray(path, dtype=complex)
    dP = np.diff(P, axis=0)
    # open intervals by segment and left end; all of a round's share a width
    seg, lo, width = np.arange(len(dP)), np.zeros(len(dP)), 1.0
    used, sums = np.ones(len(dP)), np.zeros(len(dP), dtype=complex)
    while seg.size:
        t = (lo[:, None] + width * _QK21_T)[..., None]
        x, y = np.moveaxis(P[seg, None] + t * dP[seg, None], -1, 0)
        g = gamma_cubic(field, (x, y))
        f = g.gx.value * dP[seg, :1] + g.gy.value * dP[seg, 1:]
        K, G = (f @ _QK21_W).T * width
        ok = np.abs(K - G) <= QUAD_TOL * np.maximum(1.0, np.abs(K)) * width
        np.add.at(sums, seg[ok], K[ok])
        seg, lo = np.repeat(seg[~ok], 2), np.repeat(lo[~ok], 2)
        np.add.at(used, seg[::2], 1)
        width /= 2
        lo[1::2] += width
        over = used[seg] > QUAD_MAX_INTERVALS
        if over.any():
            s, a = seg[over][0], lo[over][0]
            raise SingularPointError(
                f"gamma on segment {s} ({path[s]} to {path[s + 1]}): "
                f"[{a}, {a + 2 * width}] unresolved in {QUAD_MAX_INTERVALS} "
                "intervals")
    return complex(sum(sums, 0j))


def exactness_potential(field, base, target, path=None):
    """Integral of gamma from base to target; path-independent iff flat."""
    if path is None:
        path = [base, target]
    else:
        path = list(path)
        if not np.allclose(path[0], base) or not np.allclose(path[-1], target):
            raise ValueError("path must run from base to target")
    return integrate_gamma(field, path)


FRAME_MAX_MOVE = 0.2  # summed projective move allowed between checkpoints


class PathFrame:
    """Continuation of the normalized root triple along a polyline.

    Keeps root labels and the cube-root branch coherent; checkpoints are
    refined until consecutive root matches move by <= FRAME_MAX_MOVE in the
    projective metric.
    """

    def __init__(self, field, path):
        def step(prev, pt):
            ref = prev.values()
            triple = normalize_roots(field, (pt[0], pt[1]), order=0,
                                     label_ref=ref, lam_target=prev.lam)
            return triple, sum(map(proj_distance, ref, triple.values()))

        x0, y0 = np.asarray(path[0], dtype=complex)
        start = normalize_roots(field, (x0, y0), order=0)
        # (point, RootTriple)
        self.checkpoints = continue_along(path, start, step, FRAME_MAX_MOVE)

    @property
    def start(self):
        return self.checkpoints[0][1]

    @property
    def end(self):
        return self.checkpoints[-1][1]


@dataclass
class TransportResult:
    components: tuple
    vector: tuple
    frame: object  # PathFrame used for the transport


def dual_frame(triple):
    """Tangent frame (e1, e2) dual to the covectors (sigma_1, sigma_2).

    With leaf vectors v_i and area coefficient Om0 = sigma_1 ^ sigma_2,
    the duality sigma_i(e_j) = delta_ij gives e1 = v2/Om0, e2 = -v1/Om0.
    """
    (p1, q1), (p2, q2), _ = triple.values()
    om0 = p1 * q2 - p2 * q1
    return (q2 / om0, -p2 / om0), (-q1 / om0, p1 / om0)


def blaschke_transport(field, curve, xi):
    """Parallel transport of xi = (xi1, xi2) along a curve.

    The components live in the frame dual to the normalized root covectors
    (sigma_1, sigma_2); each satisfies d(xi^i) = gamma xi^i, so both pick
    up the common factor exp(int gamma).  The frame is continued along the
    curve and the transported tangent vector is rebuilt in it at the end
    (reconstruction in the raw leaf frame would miss the point-dependent
    area normalization and is not the connection's transport).
    """
    frame = PathFrame(field, curve)
    factor = np.exp(integrate_gamma(field, curve))
    comps = (xi[0] * factor, xi[1] * factor)
    e1, e2 = dual_frame(frame.end)
    vec = (comps[0] * e1[0] + comps[1] * e2[0],
           comps[0] * e1[1] + comps[1] * e2[1])
    return TransportResult(components=comps, vector=vec, frame=frame)


def frame_components(triple, v):
    """Components of a tangent vector in the dual frame of a root triple."""
    (p1, q1), (p2, q2), _ = triple.values()
    return (p1 * v[0] + q1 * v[1], p2 * v[0] + q2 * v[1])
