"""Real-plane web geometry: leaves, hexagon closure, first integrals, symmetry.

These routines work on regions of the real plane where the discriminant is
positive (three distinct real slopes).  Leaves are integral curves on the
surface C(x, y; dy : dx) = 0 of the web's implicit cubic ODE, projected to
the plane; on them the classical signatures of flatness are checked: the
Thomsen closure figure and the abelian relation u1 + u2 + u3 = const.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import chern, cubic
from .cubic import (PERMS, REGULAR_DISC_TOL, SingularPointError,
                    coeff_values, continued_sigma, discriminant_of_coeffs,
                    discriminant_scale, least_cost_perm, match_roots,
                    nonvanishing, proj_distance)


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
    """real_directions from the field's coefficients co at the point, in
    Python floats (math.sqrt(x*x + y*y) is numpy's norm of a pair)."""
    dirs = []
    pq = cubic.roots_proj(nonvanishing(co, point[0], point[1]))
    for p, q in pq.tolist():
        imag = max(abs(p.imag), abs(q.imag))
        if imag > START_IMAG_TOL * max(abs(p), abs(q)):
            raise LeafIntegrationError(
                f"complex leaf direction at {point} (D <= 0 region)")
        x, y = q.real, -p.real
        norm = math.sqrt(x * x + y * y)
        x, y = x / norm, y / norm
        dirs.append((-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y))
    dirs.sort(key=lambda u: math.atan2(u[1], u[0]) % math.pi)
    return np.array(dirs)


def _turning_rate(field, state, first_order=None):
    """d/ds of the leaf state (x, y, ux, uy), and (a, b, c, r) at (x, y), in
    floats from field.first_order(x, y) (or the given first_order).

    The covector (p, q) = (-ny, nx) of n = u/|u| stays a root of C(x, y; p, q)
    while n turns at omega = (C_x nx + C_y ny) / (C_p nx + C_q ny), formed in
    complex arithmetic so that a nonvanishing factor on the field cancels.
    """
    x, y, ux, uy = state
    (a, b, c, r), co_x, co_y = first_order or field.first_order(x, y)
    norm = float(np.hypot(ux, uy))
    nx, ny = ux / norm, uy / norm
    p, q = -ny, nx
    m = (p ** 3, p * p * q, p * q * q, q ** 3)
    C_x, C_y = [d[0] * m[0] + d[1] * m[1] + d[2] * m[2] + d[3] * m[3]
                for d in (co_x, co_y)]
    C_p = 3 * a * p * p + 2 * b * p * q + c * q * q
    C_q = b * p * p + 2 * c * p * q + 3 * r * q * q
    den = C_p * nx + C_q * ny
    # numpy's complex quotient rounds unlike Python's; leaves keep its floats
    w = (complex(np.complex128(C_x * nx + C_y * ny) / den)
         if den and cmath.isfinite(den) else complex(math.nan))
    if not (cmath.isfinite(w)
            and abs(w.imag) <= TRACK_IMAG_TOL * (1 + abs(w))):
        raise LeafIntegrationError(f"leaf direction not real at {(x, y)}")
    return (nx, ny, -w.real * ny, w.real * nx), (a, b, c, r)


def integrate_leaf(field, start, branch, length, tol=1e-8, domain=None):
    """Integrate one web leaf from a regular real point.

    Embedded Runge-Kutta (Bogacki-Shampine 3(2)) on the state (x, y, u) in
    Python floats: u is turned so that it stays a root of the cubic, each
    stage makes one field.first_order call, only the start solves for roots,
    and a step failing at a tiny size ends the leaf.  Branches 1..3 ascend
    in angle at the start; negative ``length`` integrates in the reverse
    orientation.  A bad branch, length or tol raises ValueError.
    """
    if not (branch in (1, 2, 3) and math.isfinite(length)
            and 0 < tol < math.inf):
        raise ValueError(f"bad branch/length/tol {branch}, {length}, {tol}")
    pt = (float(start[0]), float(start[1]))
    first = field.first_order(*pt)
    co = first[0]
    D0 = discriminant_of_coeffs(*co)
    scale = discriminant_scale(co)
    if abs(D0) <= REGULAR_DISC_TOL * scale:
        raise SingularPointError(f"start on the discriminant: |D|={abs(D0):.2e}")
    prox = LEAF_PROX_FACTOR * scale
    dirs = _real_directions(co, pt)
    sign = 1.0 if length >= 0 else -1.0
    state = pt + tuple((sign * dirs[branch - 1]).tolist())
    total = abs(float(length))

    pts, tans, params = [pt], [state[2:]], [0.0]
    termination, s_done = "length", 0.0
    h = min(LEAF_MAX_STEP, total / 4 if total > 0 else LEAF_MAX_STEP)
    k1 = None
    while s_done < total - LEAF_LENGTH_SLACK:
        h = min(h, total - s_done)
        try:
            if k1 is None:
                k1, _ = _turning_rate(field, state, first)
            k2, _ = _turning_rate(field, [
                s + (0.5 * h) * k for s, k in zip(state, k1)])
            k3, _ = _turning_rate(field, [
                s + (0.75 * h) * k for s, k in zip(state, k2)])
            y_new = [s + h * (2 * d1 + 3 * d2 + 4 * d3) / 9.0
                     for s, d1, d2, d3 in zip(state, k1, k2, k3)]
            k4, co = _turning_rate(field, y_new)
            z_new = [s + h * (7 * d1 / 24 + d2 / 4 + d3 / 3 + d4 / 8)
                     for s, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)]
        except (LeafIntegrationError, ZeroDivisionError):  # |u| = 0
            if h > LEAF_RETRY_STEP:
                h *= 0.25
                continue
            termination = "discriminant-proximity"
            break
        err = max(abs(u - v) for u, v in zip(y_new, z_new))
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
    sig, _ = continued_sigma([j.truncate(0) for j in jets], x, y,
                             _chain_labels(cubic.roots_proj(co)))

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


def _chain_labels(vals):
    """The sorted root values (n, 3, 2) at the nodes of a path, relabelled
    along it: node i's roots take the labels that move them least from node
    i - 1's, as match_roots picks them, and node 0 keeps the sorted order.
    One least_cost_perm pass matches every node's roots under each of the
    labellings the last node may have; only the walk is sequential.
    roots_proj's roots are finite with a unit component, so no distance is
    NaN."""
    d = proj_distance((vals[:-1, :, None, 0], vals[:-1, :, None, 1]),
                      (vals[1:, None, :, 0], vals[1:, None, :, 1]))
    choice = least_cost_perm(d[:, PERMS]).tolist()
    k = [0]
    for c in choice:
        k.append(c[k[-1]])
    return np.take_along_axis(vals, PERMS[k][:, :, None], axis=1)


# ---------------------------------------------------------------------------
# Infinitesimal diagonal symmetries


def symmetry_residual(field, weights, samples, a=0.1):
    """Deviation of the web from invariance under a diagonal scaling flow.

    The candidate symmetry is X = w1 x dx + w2 y dy with exact flow
    (x, y) -> (exp(w1 a) x, exp(w2 a) y); web directions at each sample are
    pushed forward and compared (optimal matching, projective metric) with
    the directions at the image point.  The samples and their images are
    solved in one lift and one roots_proj call; DegenerateFieldError names
    the first of them, each sample before its image, where the field
    vanishes.
    """
    w1, w2 = weights
    s1, s2 = np.exp(w1 * a), np.exp(w2 * a)
    x, y = np.array(samples, dtype=float).T
    # each sample followed by its image under the flow
    x = np.stack([x, s1 * x], axis=-1).ravel()
    y = np.stack([y, s2 * y], axis=-1).ravel()
    co = nonvanishing(coeff_values(field.coeff_jets(x, y, 0)), x, y)
    worst = 0.0
    for here, there in cubic.roots_proj(co).reshape(-1, 2, 3, 2):
        pushed = [(s1 * q, s2 * -p) for p, q in here]
        image_dirs = [(q, -p) for p, q in there]
        matched, _ = match_roots(pushed, image_dirs)
        worst = max(worst, max(proj_distance(pushed[i], matched[i])
                               for i in range(3)))
    return float(worst)
