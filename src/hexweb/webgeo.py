"""Real-plane web geometry: leaves, hexagon closure, first integrals, symmetry.

These routines work on regions of the real plane where the discriminant is
positive (three distinct real slopes).  Leaves are integral curves on the
surface C(x, y; dy : dx) = 0 of the web's implicit cubic ODE, projected to
the plane; on them the classical signatures of flatness are checked: the
Thomsen closure figure and the abelian relation u1 + u2 + u3 = const.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chern, cubic
from .cubic import (SingularPointError, coeff_values, discriminant_of_coeffs,
                    discriminant_scale, match_roots, nonvanishing,
                    normalization_core, proj_distance, regular_cutoff, roots)
from .jets import Jet, cbrt_factor, jet_cbrt


class LeafIntegrationError(ValueError):
    pass


# The benchmark's tracer self-test (perfbench/test_perfbench.py) reads this
# module's binding of gamma_cubic; first_integrals uses its jets-taking core.
gamma_cubic = chern.gamma_cubic


# ---------------------------------------------------------------------------
# Leaf integration


@dataclass
class Leaf:
    """An integrated leaf: unit-speed polyline with tangents for Hermite
    interpolation.  ``params`` is (approximate) arclength from the start."""

    branch: int
    points: np.ndarray        # (n, 2)
    tangents: np.ndarray      # (n, 2), unit vectors
    params: np.ndarray        # (n,)
    termination: str          # length | domain | discriminant-proximity

    def hermite(self, s):
        """Point and d/ds of the cubic Hermite piece containing arclength s;
        beyond either end the leaf continues along its end tangent."""
        t = self.params
        if s <= t[0] or s >= t[-1]:
            k = 0 if s <= t[0] else -1
            return (self.points[k] + (s - t[k]) * self.tangents[k],
                    self.tangents[k])
        i = int(np.searchsorted(t, s) - 1)
        h = t[i + 1] - t[i]
        u = (s - t[i]) / h
        w = np.array([[1.0, u, u * u, u ** 3],
                      [0.0, 1.0, 2 * u, 3 * u * u]]) @ HERMITE_BASIS.T
        knots = np.array([self.points[i], h * self.tangents[i],
                          self.points[i + 1], h * self.tangents[i + 1]])
        point, d_du = w @ knots
        return point, d_du / h

    def point_at(self, s):
        """Cubic Hermite interpolation at arclength s."""
        return self.hermite(s)[0]


START_IMAG_TOL = 1e-7  # relative Im part of a complex start direction
TRACK_IMAG_TOL = 1e-6  # relative Im part of a leaf's turning rate
LEAF_MAX_STEP = 0.05  # longest leaf step
LEAF_PROX_FACTOR = 1e-6  # |D| at which a leaf stops, scaled at its start
LEAF_LENGTH_SLACK = 1e-14  # arclength short of the goal that ends a leaf
LEAF_RETRY_STEP = 1e-10  # step at or below which a failed stage ends a leaf
LEAF_MIN_STEP = 1e-12  # step at or below which a rejected step ends a leaf
# cubic Hermite basis h00, h10, h01, h11 (rows) in powers 1, u, u^2, u^3
HERMITE_BASIS = np.array([[1.0, 0.0, -3.0, 2.0], [0.0, 1.0, -2.0, 1.0],
                          [0.0, 0.0, 3.0, -2.0], [0.0, 0.0, -1.0, 1.0]])


def real_directions(field, point):
    """The three real leaf directions at a point as unit vectors (3, 2).

    Each direction is normalized to the upper half plane (angle in [0, pi))
    and the rows are sorted by angle; raises when any root is genuinely
    complex (D <= 0 region).
    """
    return _real_directions(field.coeffs(point[0], point[1]), point)


def _real_directions(co, point):
    """real_directions from the field's coefficients co at the point."""
    p, q = cubic.roots_proj(nonvanishing(co, point[0], point[1])).T
    v = np.stack([q, -p], axis=-1)
    if (np.max(np.abs(v.imag), axis=1)
            > START_IMAG_TOL * np.max(np.abs(v), axis=1)).any():
        raise LeafIntegrationError(
            f"complex leaf direction at {point} (D <= 0 region)")
    u = v.real / np.linalg.norm(v.real, axis=1, keepdims=True)
    u[(u[:, 1] < 0) | ((u[:, 1] == 0) & (u[:, 0] < 0))] *= -1
    return u[np.argsort(np.arctan2(u[:, 1], u[:, 0]) % np.pi, kind="stable")]


def _leaf_rate(field, state):
    jets = field.coeff_jets(state[0], state[1], 1)
    return _turning_rate(np.array([j.c for j in jets]), state)


def _turning_rate(jets, state):
    """d/ds of the leaf state (x, y, ux, uy), and (a, b, c, r) at (x, y),
    from the (4, 2, 2) order-1 coefficient jets there.

    The covector (p, q) = (-ny, nx) of n = u/|u| stays a root of C(x, y; p, q)
    while n turns at omega = (C_x nx + C_y ny) / (C_p nx + C_q ny), formed in
    complex arithmetic so that a nonvanishing factor on the field cancels.
    """
    x, y, ux, uy = state
    (a, b, c, r), co_x, co_y = jets[:, 0, 0], jets[:, 1, 0], jets[:, 0, 1]
    nx, ny = np.array([ux, uy]) / np.hypot(ux, uy)
    p, q = -ny, nx
    mono = np.array([p ** 3, p * p * q, p * q * q, q ** 3])
    C_p = 3 * a * p * p + 2 * b * p * q + c * q * q
    C_q = b * p * p + 2 * c * p * q + 3 * r * q * q
    with np.errstate(divide="ignore", invalid="ignore"):
        w = ((co_x @ mono) * nx + (co_y @ mono) * ny) / (C_p * nx + C_q * ny)
    if not (np.isfinite(w) and abs(w.imag) <= TRACK_IMAG_TOL * (1 + abs(w))):
        raise LeafIntegrationError(f"leaf direction not real at {(x, y)}")
    return np.array([nx, ny, -w.real * ny, w.real * nx]), (a, b, c, r)


def integrate_leaf(field, start, branch, length, tol=1e-8, domain=None):
    """Integrate one web leaf from a regular real point.

    Embedded Runge-Kutta (Bogacki-Shampine 3(2)) on the state (x, y, u): the
    direction u is carried and turned so that it stays a root of the cubic,
    and only the start solves for roots; a step failing at a tiny size ends
    the leaf.  Branches are numbered 1..3 by ascending angle at the start;
    negative ``length`` integrates in the reverse orientation.
    """
    pt = np.array([float(start[0]), float(start[1])])
    jets0 = np.array([j.c for j in field.coeff_jets(pt[0], pt[1], 1)])
    co = jets0[:, 0, 0]
    D0 = discriminant_of_coeffs(*co)
    if abs(D0) <= regular_cutoff(co):
        raise SingularPointError(f"start on the discriminant: |D|={abs(D0):.2e}")
    prox = LEAF_PROX_FACTOR * discriminant_scale(co)
    dirs = _real_directions(co, (pt[0], pt[1]))
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")
    sign = 1.0 if length >= 0 else -1.0
    state = np.concatenate([pt, sign * dirs[branch - 1]])
    total = abs(float(length))

    pts, tans, params = [pt], [state[2:]], [0.0]
    termination, s_done = "length", 0.0
    h = min(LEAF_MAX_STEP, total / 4 if total > 0 else LEAF_MAX_STEP)
    k1 = None
    while s_done < total - LEAF_LENGTH_SLACK:
        h = min(h, total - s_done)
        try:
            if k1 is None:
                k1, _ = _turning_rate(jets0, state)
            k2, _ = _leaf_rate(field, state + 0.5 * h * k1)
            k3, _ = _leaf_rate(field, state + 0.75 * h * k2)
            y_new = state + h * (2 * k1 + 3 * k2 + 4 * k3) / 9.0
            k4, co = _leaf_rate(field, y_new)
            z_new = state + h * (7 * k1 / 24 + k2 / 4 + k3 / 3 + k4 / 8)
        except LeafIntegrationError:
            if h > LEAF_RETRY_STEP:
                h *= 0.25
                continue
            termination = "discriminant-proximity"
            break
        err = float(np.max(np.abs(y_new - z_new)))
        if err > tol:
            if h > LEAF_MIN_STEP:
                h *= max(0.2, 0.9 * (tol / err) ** (1.0 / 3.0))
                continue
            termination = "discriminant-proximity"
            break
        # accepted; the last stage is the first of the next step
        state, k1 = y_new, k4
        s_done += h
        pts.append(state[:2])
        tans.append(k4[:2])
        params.append(s_done)
        if abs(discriminant_of_coeffs(*co)) <= prox:
            termination = "discriminant-proximity"
            break
        if domain is not None:
            (x0, x1), (y0, y1) = domain
            if not (x0 <= state[0] <= x1 and y0 <= state[1] <= y1):
                termination = "domain"
                break
        grow = min(4.0, 0.9 * (tol / err) ** (1.0 / 3.0)) if err > 0 else 2.0
        h = min(h * grow, LEAF_MAX_STEP)
    return Leaf(branch=branch, points=np.array(pts), tangents=np.array(tans),
                params=np.array(params), termination=termination)


def leaf_through(field, point, branch, half_length, tol=1e-8):
    """Leaf through a point, integrated in both orientations and merged
    into a single curve with arclength parameter in [-L, +L]."""
    fwd = integrate_leaf(field, point, branch, half_length, tol=tol)
    bwd = integrate_leaf(field, point, branch, -half_length, tol=tol)
    # the reverse half travels against the curve parameter: flip its
    # tangents and negate its arclengths when stitching
    pts = np.vstack([bwd.points[::-1], fwd.points[1:]])
    tans = np.vstack([-bwd.tangents[::-1], fwd.tangents[1:]])
    params = np.concatenate([-bwd.params[::-1], fwd.params[1:]])
    return Leaf(branch=branch, points=pts, tangents=tans, params=params,
                termination=fwd.termination)


# ---------------------------------------------------------------------------
# Thomsen closure figure


@dataclass
class HexagonReport:
    base: tuple
    eps: float
    vertices: list
    gap: float


CROSSING_SKIP = 1e-9  # |s| below which a crossing is the moving leaf's start
CROSSING_TOL = 1e-12  # Newton step in arclength that ends a crossing solve
CROSSING_ITERS = 8  # a seed not converged after this many steps is dropped


def _crossing_step(m, t, f):
    """(ds, dr) with m ds - t dr = -f; broadcasts over leading axes."""
    (mx, my), (tx, ty), (fx, fy) = (np.moveaxis(v, -1, 0) for v in (m, t, f))
    det = mx * ty - my * tx
    return (tx * fy - ty * fx) / det, (mx * fy - my * fx) / det


def _first_crossing(moving, target):
    """Smallest |s| >= CROSSING_SKIP where the moving leaf crosses the
    target, or None.  Each intersection of a chord of one polyline with a
    chord of the other seeds Newton on moving(s) = target(r)."""
    P, Q = moving.points, target.points
    found = []
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = _crossing_step(np.diff(P, axis=0)[:, None], np.diff(Q, axis=0),
                              P[:-1, None] - Q[:-1])
        i, j = np.nonzero((a >= 0) & (a <= 1) & (b >= 0) & (b <= 1))
        s0 = moving.params[i] + a[i, j] * np.diff(moving.params)[i]
        r0 = target.params[j] + b[i, j] * np.diff(target.params)[j]
        for s, r in zip(s0, r0):
            for _ in range(CROSSING_ITERS):
                (M, m), (T, t) = moving.hermite(s), target.hermite(r)
                ds, dr = _crossing_step(m, t, M - T)
                if not np.isfinite(ds + dr):
                    break  # parallel tangents: drop the seed
                s, r = s + ds, r + dr
                if max(abs(ds), abs(dr)) <= CROSSING_TOL:
                    found.append(s)
                    break
    return min((s for s in found if abs(s) >= CROSSING_SKIP), key=abs,
               default=None)


CLOSURE_REACH = 6.0  # half-length of the hexagon's leaves, in units of eps


def thomsen_closure(field, base, eps, tol=1e-10):
    """Build the closure hexagon and return its gap.

    Starting at arclength eps along the branch-1 leaf through base, leaves
    of the foliations 2, 1, 3, 2, 1, 3 are followed in turn, each until it
    meets the base leaf of foliation 3, 2, 1, 3, 2, 1 respectively; for a
    hexagonal web the sixth vertex returns to the first.
    """
    base = (float(base[0]), float(base[1]))
    L = CLOSURE_REACH * eps
    C = {j: leaf_through(field, base, j, L, tol=tol) for j in (1, 2, 3)}
    X = np.asarray(C[1].point_at(eps), dtype=float)
    first = X.copy()
    vertices = [X.copy()]
    plan = [(2, 3), (1, 2), (3, 1), (2, 3), (1, 2), (3, 1)]
    for foliation, target in plan:
        moving = leaf_through(field, (X[0], X[1]), foliation, L, tol=tol)
        s = _first_crossing(moving, C[target])
        if s is None:
            raise LeafIntegrationError(
                f"hexagon construction lost the target leaf {target}")
        X = np.asarray(moving.point_at(s), dtype=float)
        vertices.append(X.copy())
    gap = float(np.linalg.norm(vertices[-1] - first))
    return HexagonReport(base=base, eps=float(eps), vertices=vertices,
                         gap=gap)


# ---------------------------------------------------------------------------
# First integrals and the abelian relation


@dataclass
class FirstIntegralState:
    """k and the first-integral triple sampled along a path."""

    nodes: np.ndarray         # (n, 2) real points
    k: np.ndarray             # (n,) complex, k[0] = 1
    u: np.ndarray             # (n, 3) complex, u[0] = 0
    abelian_residual: float   # max |u1 + u2 + u3| along the path

    @property
    def k_end(self):
        return self.k[-1]

    @property
    def u_end(self):
        return self.u[-1]


FI_STEP = 0.004  # node spacing of the first-integral quadrature
FI_BASE_TOL = 1e-12  # distance at which a path's first node is the base


def first_integrals(field, base, path):
    """Integrate dk = -gamma k and du_i = k sigma_i along a polyline.

    k(base) = 1 and u_i(base) = 0; since all three sigma sum to zero the
    relation u1 + u2 + u3 = 0 holds along the path exactly up to quadrature
    error, which is what ``abelian_residual`` reports.

    gamma and the sigma_i come from one order-1 lift at all nodes; each
    node's triple continues the last one's labels and cube-root branch.
    Raises DegenerateFieldError naming the first node where the field
    vanishes, else SingularPointError naming the first node on the
    discriminant.
    """
    pts = np.asarray(path, dtype=float)
    if np.linalg.norm(pts[0] - np.asarray(base, dtype=float)) > FI_BASE_TOL:
        raise ValueError("path must start at the base point")
    nodes = [pts[:1]]
    for P0, P1 in zip(pts[:-1], pts[1:]):
        n = max(2, int(np.ceil(np.linalg.norm(P1 - P0) / FI_STEP)))
        n += n % 2  # even count, so every Simpson pair lies in one segment
        nodes.append(P0 + (np.arange(1, n + 1) / n)[:, None] * (P1 - P0))
    nodes = np.concatenate(nodes)

    x, y = nodes[:, 0], nodes[:, 1]
    jets = field.coeff_jets(x, y, 1)
    co = nonvanishing(coeff_values(jets), x, y)
    gam = np.stack(chern.gamma_from_jets(jets, x, y).values(), axis=-1)
    sig = _continued_sigma([j.truncate(0) for j in jets], x, y,
                           cubic.roots_proj(co))

    # composite Simpson on the pairs (2j, 2j + 1, 2j + 2) of equal steps dP
    pair = 2 * np.arange(len(nodes) // 2)[:, None] + np.arange(3)
    dP = nodes[pair[:, 1]] - nodes[pair[:, 0]]

    def integral(f):
        """Integral from node 0 to every node of f, given per pair node."""
        zero = np.zeros((1,) + f.shape[2:])
        steps = (f[:, 0] + 4 * f[:, 1] + f[:, 2]) / 3.0
        ends = np.cumsum(np.concatenate([zero, steps]), axis=0)
        out = np.empty((len(nodes),) + f.shape[2:], dtype=complex)
        out[0::2] = ends
        out[1::2] = ends[:-1] + (f[:, 0] * 5 + f[:, 1] * 8 - f[:, 2]) / 12.0
        return out

    k = np.exp(-integral(np.einsum("pjc,pc->pj", gam[pair], dP)))
    k[0] = 1.0  # k(base) is 1 + 0j; exp(-0j) would give 1 - 0j
    u = integral(k[pair][:, :, None]
                 * np.einsum("pjmc,pc->pjm", sig[pair], dP))
    residual = float(np.max(np.abs(u.sum(axis=1))))
    return FirstIntegralState(nodes=nodes, k=k, u=u,
                              abelian_residual=residual)


def _continued_sigma(jets, x, y, vals):
    """Normalized root covectors (n, 3, 2) at the nodes of a path from the
    order-0 coefficient jets and the sorted root values there.

    Node i's roots take the labels that move them least from node i - 1's
    (match_roots on the distances between the two nodes' roots), and its
    cube-root branch is the one nearest node i - 1's lam; node 0 keeps the
    sorted order and the principal branch.  Both are sequential, and read
    values computed for all nodes at once.
    """
    d = proj_distance((vals[:-1, :, None, 0], vals[:-1, :, None, 1]),
                      (vals[1:, None, :, 0], vals[1:, None, :, 1])).tolist()
    labels = [(0, 1, 2)]
    for di in d:
        labels.append(match_roots(labels[-1], (0, 1, 2),
                                  dist=lambda a, b: di[a][b])[0])
    vals = np.take_along_axis(vals, np.array(labels)[:, :, None], axis=1)
    sp, lam3 = normalization_core(jets, x, y, 0, vals)
    r = jet_cbrt(lam3).value
    lam = [r[0]]
    for i in range(1, len(r)):
        # as jet_cbrt rescales the principal root to the continued branch
        lam.append((r[i:i + 1] * cbrt_factor(r[i], lam[-1]))[0])
    lam = Jet._raw(lam3.base, 0, np.array(lam)[:, None, None])
    return np.stack([np.stack([(lam * P).value, (lam * Q).value], axis=-1)
                     for P, Q in sp], axis=1)


# ---------------------------------------------------------------------------
# Infinitesimal diagonal symmetries


def symmetry_residual(field, weights, samples, a=0.1):
    """Deviation of the web from invariance under a diagonal scaling flow.

    The candidate symmetry is X = w1 x dx + w2 y dy with exact flow
    (x, y) -> (exp(w1 a) x, exp(w2 a) y); web directions at each sample are
    pushed forward and compared (optimal matching, projective metric) with
    the directions at the image point.
    """
    w1, w2 = weights
    s1, s2 = np.exp(w1 * a), np.exp(w2 * a)
    worst = 0.0
    for x, y in samples:
        dirs = [(q, -p) for p, q in roots(field, (x, y))]
        pushed = [(s1 * vx, s2 * vy) for vx, vy in dirs]
        image_dirs = [(q, -p) for p, q in roots(field, (s1 * x, s2 * y))]
        matched, _ = match_roots(pushed, image_dirs)
        worst = max(worst, max(proj_distance(pushed[i], matched[i])
                               for i in range(3)))
    return float(worst)
