"""Real-plane web geometry: leaves, hexagon closure, first integrals, symmetry.

These routines work on regions of the real plane where the discriminant is
positive (three distinct real slopes).  Leaves are integral curves on the
surface C(x, y; dy : dx) = 0 of the web's implicit cubic ODE, projected to
the plane; on them the classical signatures of flatness are checked: the
Thomsen closure figure and the abelian relation u1 + u2 + u3 = const.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import chern, cubic
from .cubic import (COEF_VANISH_TOL, REGULAR_DISC_TOL, SingularPointError,
                    coeff_values, continued_sigma, discriminant_of_coeffs,
                    match_roots, nonvanishing, proj_distance)


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
LEAF_MIN_TOL = 1e-15  # least leaf tolerance: smaller errors are round-off
# cubic Hermite basis h00, h10, h01, h11 (rows) in powers 1, u, u^2, u^3
HERMITE_BASIS = np.array([[1.0, 0.0, -3.0, 2.0], [0.0, 1.0, -2.0, 1.0],
                          [0.0, 0.0, 3.0, -2.0], [0.0, 0.0, -1.0, 1.0]])


def real_directions(field, point):
    """The three real leaf directions at a point as unit vectors (3, 2).

    Each direction is normalized to the upper half plane (angle in [0, pi))
    and the rows are sorted by angle; raises when any root is genuinely
    complex (D <= 0 region).
    """
    return np.array(_real_directions(field.coeffs(point[0], point[1]), point))


def _real_directions(co, point, mag=None):
    """real_directions as a list of pairs of Python floats, from the four
    coefficients co at the point and their moduli mag, if known
    (math.sqrt(x*x + y*y) is numpy's norm of a pair; NaN never vanishes)."""
    dirs, mag = [], np.abs(co) if mag is None else mag
    if all(m <= COEF_VANISH_TOL for m in mag.tolist()):
        nonvanishing(co, point[0], point[1])
    for p, q in cubic.roots_proj(co, mag).tolist():
        imag = max(abs(p.imag), abs(q.imag))
        if imag > START_IMAG_TOL * max(abs(p), abs(q)):
            raise LeafIntegrationError(
                f"complex leaf direction at {point} (D <= 0 region)")
        x, y = q.real, -p.real
        norm = math.sqrt(x * x + y * y)
        x, y = x / norm, y / norm
        dirs.append((-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y))
    return sorted(dirs, key=lambda u: math.atan2(u[1], u[0]) % math.pi)


def _quotient(n, d):
    """n / d for complex n and nonzero d, in Python floats, rounded as
    numpy's complex128 division rounds (Smith's method); Python's own
    complex division rounds otherwise."""
    (ar, ai), (br, bi) = (n.real, n.imag), (d.real, d.imag)
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def _turning_rate(field, state, first_order=None):
    """d/ds of the leaf state (x, y, ux, uy), and (a, b, c, r) at (x, y), in
    floats from field.first_order(x, y) (or the given first_order).

    The covector (p, q) = (-ny, nx) of n = u/|u| stays a root of C(x, y; p, q)
    while n turns at omega = (C_x nx + C_y ny) / (C_p nx + C_q ny), formed in
    complex arithmetic so that a nonvanishing factor on the field cancels.
    |u| is abs(complex(ux, uy)), libm's hypot as in np.hypot.
    """
    x, y, ux, uy = state
    (a, b, c, r), co_x, co_y = first_order or field.first_order(x, y)
    norm = abs(complex(ux, uy))
    nx, ny = ux / norm, uy / norm
    p, q = -ny, nx
    m0, m1, m2, m3 = p ** 3, p * p * q, p * q * q, q ** 3
    (x0, x1, x2, x3), (y0, y1, y2, y3) = co_x, co_y
    C_x = x0 * m0 + x1 * m1 + x2 * m2 + x3 * m3
    C_y = y0 * m0 + y1 * m1 + y2 * m2 + y3 * m3
    C_p = 3 * a * p * p + 2 * b * p * q + c * q * q
    C_q = b * p * p + 2 * c * p * q + 3 * r * q * q
    den = C_p * nx + C_q * ny
    w = (_quotient(C_x * nx + C_y * ny, den)
         if den and cmath.isfinite(den) else complex(math.nan))
    if not (cmath.isfinite(w)
            and abs(w.imag) <= TRACK_IMAG_TOL * (1 + abs(w))):
        raise LeafIntegrationError(f"leaf direction not real at {(x, y)}")
    return (nx, ny, -w.real * ny, w.real * nx), (a, b, c, r)


@dataclass(eq=False)
class _Half:
    """A leaf in one orientation while it is integrated: the accepted
    points, unit tangents and arclengths so far, and why it ended ("" while
    it runs)."""

    points: list
    tangents: list
    params: list
    termination: str = ""


def _leaf_steps(field, start, branch, sign, tol, h, total, land=None,
                domain=None):
    """The leaf loop, one accepted step at a time.

    Embedded Runge-Kutta (Bogacki-Shampine 3(2)) on the state (x, y, u) in
    Python floats, from the start in orientation sign with first step h: u
    is turned so that it stays a root of the cubic, each stage makes one
    field.first_order call, only the start solves for roots, and a step
    failing at a tiny size ends the leaf.

    A generator: it yields the leaf's _Half once the start is checked and
    again after each accepted step, which it has appended; when the leaf
    ends (at arclength total, which may be inf, at the domain's edge or
    near D = 0) it sets the termination and returns.  One step lands
    exactly on the arclength land (default total), as the last step of a
    leaf integrated to land does, so up to land the leaf has that leaf's
    floats.
    """
    pt = (float(start[0]), float(start[1]))
    first = field.first_order(*pt)
    mag = np.abs(first[0])  # the one modulus pass of the start
    D0 = discriminant_of_coeffs(*first[0])
    if not cmath.isfinite(D0):  # abs() of a NaN can raise OverflowError
        raise SingularPointError(f"discriminant not finite at the start {pt}")
    try:  # discriminant_scale's pow, which gives inf where Python's raises
        scale = (1.0 + max(mag.tolist())) ** 4
    except OverflowError:
        scale = math.inf
    if abs(D0) <= REGULAR_DISC_TOL * scale:
        raise SingularPointError(f"start on the discriminant: |D|={abs(D0):.2e}")
    prox = LEAF_PROX_FACTOR * scale
    ux, uy = _real_directions(first[0], pt, mag)[branch - 1]
    state = pt + (sign * ux, sign * uy)
    half = _Half([pt], [state[2:]], [0.0])
    pts, tans, params = half.points, half.tangents, half.params
    yield half

    land = total if land is None else land
    termination, s_done = "length", 0.0
    k1 = None
    while s_done < total - LEAF_LENGTH_SLACK:
        h = min(h, (land if s_done < land - LEAF_LENGTH_SLACK else total)
                - s_done)
        try:
            if k1 is None:
                k1, _ = _turning_rate(field, state, first)
            # the four components written out: a comprehension over them
            # costs more than the arithmetic
            x, y, ux, uy = state
            a1, b1, c1, d1 = k1
            g = 0.5 * h
            k2, _ = _turning_rate(field, (x + g * a1, y + g * b1,
                                          ux + g * c1, uy + g * d1))
            a2, b2, c2, d2 = k2
            g = 0.75 * h
            k3, _ = _turning_rate(field, (x + g * a2, y + g * b2,
                                          ux + g * c2, uy + g * d2))
            a3, b3, c3, d3 = k3
            y_new = (x + h * (2 * a1 + 3 * a2 + 4 * a3) / 9.0,
                     y + h * (2 * b1 + 3 * b2 + 4 * b3) / 9.0,
                     ux + h * (2 * c1 + 3 * c2 + 4 * c3) / 9.0,
                     uy + h * (2 * d1 + 3 * d2 + 4 * d3) / 9.0)
            k4, co = _turning_rate(field, y_new)
            a4, b4, c4, d4 = k4
            z_new = (x + h * (7 * a1 / 24 + a2 / 4 + a3 / 3 + a4 / 8),
                     y + h * (7 * b1 / 24 + b2 / 4 + b3 / 3 + b4 / 8),
                     ux + h * (7 * c1 / 24 + c2 / 4 + c3 / 3 + c4 / 8),
                     uy + h * (7 * d1 / 24 + d2 / 4 + d3 / 3 + d4 / 8))
        except (LeafIntegrationError, ZeroDivisionError):  # |u| = 0
            if h > LEAF_RETRY_STEP:
                h *= 0.25
                continue
            termination = "discriminant-proximity"
            break
        err = max(abs(y_new[0] - z_new[0]), abs(y_new[1] - z_new[1]),
                  abs(y_new[2] - z_new[2]), abs(y_new[3] - z_new[3]))
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
        yield half
        D = discriminant_of_coeffs(*co)
        if cmath.isfinite(D) and abs(D) <= prox:
            termination = "discriminant-proximity"
            break
        if domain is not None:
            (x0, x1), (y0, y1) = domain
            if not (x0 <= state[0] <= x1 and y0 <= state[1] <= y1):
                termination = "domain"
                break
        grow = min(4.0, 0.9 * (tol / err) ** (1.0 / 3.0)) if err > 0 else 2.0
        h = min(h * grow, LEAF_MAX_STEP)
    half.termination = termination


def integrate_leaf(field, start, branch, length, tol=1e-8, domain=None):
    """Integrate one web leaf from a regular real point.

    Runs the leaf loop _leaf_steps (embedded Runge-Kutta on Python floats)
    to arclength |length|, from a first step of min(LEAF_MAX_STEP,
    |length| / 4).  Branches 1..3 ascend in angle at the start; negative
    ``length`` integrates in the reverse orientation.  A bad branch, length
    or tol (one below LEAF_MIN_TOL too) raises ValueError.
    """
    if not (branch in (1, 2, 3) and math.isfinite(length)
            and LEAF_MIN_TOL <= tol < math.inf):
        raise ValueError(f"bad branch/length/tol {branch}, {length}, {tol}")
    total = abs(float(length))
    h = min(LEAF_MAX_STEP, total / 4 if total > 0 else LEAF_MAX_STEP)
    for half in _leaf_steps(field, start, branch, 1.0 if length >= 0 else -1.0,
                            tol, h, total, domain=domain):
        pass
    return Leaf(points=np.array(half.points),
                tangents=np.array(half.tangents),
                params=np.array(half.params), termination=half.termination)


def _stitched(fwd, bwd):
    """One leaf with arclength parameter from -bwd's to fwd's reach, from
    its two halves (Leaf or _Half) out of the same start.  The reverse half
    travels against the curve parameter: its tangents flip and its
    arclengths are negated."""
    bp = np.asarray(bwd.params)[::-1]
    return Leaf(points=np.vstack([np.asarray(bwd.points)[::-1],
                                  np.asarray(fwd.points)[1:]]),
                tangents=np.vstack([-np.asarray(bwd.tangents)[::-1],
                                    np.asarray(fwd.tangents)[1:]]),
                params=np.concatenate([-bp, np.asarray(fwd.params)[1:]]),
                termination=fwd.termination or "length")


def leaf_through(field, point, branch, half_length, tol=1e-8):
    """Leaf through a point: integrate_leaf in both orientations to
    |half_length|, merged into a single curve with arclength parameter in
    [-L, +L] and the forward half's termination."""
    return _stitched(*(integrate_leaf(field, point, branch, L, tol=tol)
                       for L in (half_length, -half_length)))


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
    (mx, my), (tx, ty), (fx, fy) = ((v[..., 0], v[..., 1]) for v in (m, t, f))
    det = mx * ty - my * tx
    return (tx * fy - ty * fx) / det, (mx * fy - my * fx) / det


def _segments_meet(P0, P1, Q0, Q1):
    """Whether the segment P0 P1 meets the segment Q0 Q1: _first_crossing's
    seed test on one pair of chords, in Python floats."""
    mx, my = P1[0] - P0[0], P1[1] - P0[1]
    tx, ty = Q1[0] - Q0[0], Q1[1] - Q0[1]
    fx, fy = P0[0] - Q0[0], P0[1] - Q0[1]
    det = mx * ty - my * tx
    return bool(det) and (0 <= (tx * fy - ty * fx) / det <= 1
                          and 0 <= (mx * fy - my * fx) / det <= 1)


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


CLOSURE_REACH = 6.0  # leaf step scale and cap of the hexagon, in units of eps


def thomsen_closure(field, base, eps, tol=1e-10):
    """Build the closure hexagon and return its gap.

    Starting at arclength eps along the branch-1 leaf through base, leaves
    of the foliations 2, 1, 3, 2, 1, 3 are followed in turn, each until it
    meets the base leaf of foliation 3, 2, 1, 3, 2, 1 respectively; for a
    hexagonal web the sixth vertex returns to the first.

    Every leaf runs integrate_leaf's loop (_leaf_steps) in both
    orientations, one accepted step at a time, with the steps of a leaf
    integrated to CLOSURE_REACH * eps, and stops at its crossing (event
    location).  A moving leaf steps whichever half is shorter and tests
    each new chord against the target's polyline; the target's halves grow
    only until the chord meets them or they reach farther from base than
    the chord.  Once a chord crosses, ending at arclength s*, the other
    half goes on to s*, the two halves and the target take one full step
    past the crossing, and _first_crossing's Newton solves on the stitched
    leaves.  No half goes past the cap CLOSURE_REACH * eps / sin(theta_min),
    theta_min the smallest angle between the three leaf directions at base.
    A moving leaf that finds no crossing raises LeafIntegrationError, which
    names the discriminant when a half of it or of its target ended at
    D = 0.  A bad eps or tol (one below LEAF_MIN_TOL too) raises ValueError.
    """
    if not (0 < eps < math.inf and LEAF_MIN_TOL <= tol < math.inf):
        raise ValueError(f"bad eps/tol {eps}, {tol}")
    base = (float(base[0]), float(base[1]))
    reach = CLOSURE_REACH * eps

    steps = {}  # each growing half's _leaf_steps generator

    def leaf(point, branch):
        """The two growing halves of the leaf through point."""
        halves = []
        for sign in (1.0, -1.0):
            gen = _leaf_steps(field, point, branch, sign, tol,
                              min(LEAF_MAX_STEP, reach / 4), math.inf, reach)
            halves.append(next(gen))
            steps[halves[-1]] = gen
        return halves

    C = {j: leaf(base, j) for j in (1, 2, 3)}
    dirs = [C[j][0].tangents[0] for j in (1, 2, 3)]
    cap = reach / min(abs(u[0] * v[1] - u[1] * v[0])
                      for u, v in itertools.combinations(dirs, 2))

    def grow(half):
        """One more accepted step, unless the half ended or reached cap."""
        return (not half.termination and half.params[-1] < cap
                and next(steps[half], None) is not None)

    def past(half, s):
        """Grow a half until a full step lies past arclength s."""
        while (len(half.params) < 2 or half.params[-2] < s) and grow(half):
            pass

    def meets(chord, target):
        """Whether a moving leaf's chord meets the base leaf target.  Each
        half of the target is scanned from the arclength that the chord's
        nearest point needs (a point at arclength r lies within r of base)
        and grows until the chord meets it, then one full step past the
        hit, or until it reaches farther from base than the chord."""
        P0, P1 = chord
        d0, d1 = math.dist(P0, base), math.dist(P1, base)
        near, far = min(d0, d1) - math.dist(P0, P1) / 2, max(d0, d1)
        for half in C[target]:
            Q = half.points
            j = max(bisect.bisect_left(half.params, near) - 1, 0)
            while (math.dist(Q[j], base) <= far
                   and (j + 1 < len(Q) or grow(half))):
                if _segments_meet(P0, P1, Q[j], Q[j + 1]):
                    past(half, half.params[j + 1])
                    return True
                j += 1
        return False

    def vertex(point, foliation, target):
        """Where the leaf of foliation through point meets C[target]."""
        halves = leaf(point, foliation)
        live, crossed = list(halves), math.inf
        while live:
            half = min(live, key=lambda h: h.params[-1])
            if half.params[-1] >= crossed or not grow(half):
                live.remove(half)
            elif meets(half.points[-2:], target):
                crossed = min(crossed, half.params[-1])
        s = None
        if crossed < math.inf:
            for half in halves:
                past(half, crossed)
            moving = _stitched(*halves)
            s = _first_crossing(moving, _stitched(*C[target]))
        if s is None:
            for ended, name, other in (
                    (halves, f"hexagon leaf {foliation}",
                     f"the target leaf {target}"),
                    (C[target], f"target leaf {target}",
                     f"hexagon leaf {foliation}")):
                if any(h.termination == "discriminant-proximity"
                       for h in ended):
                    raise LeafIntegrationError(
                        f"{name} reached the discriminant (D = 0) before "
                        f"meeting {other}")
            raise LeafIntegrationError(
                f"hexagon construction lost the target leaf {target}")
        return np.asarray(moving.point_at(s), dtype=float)

    past(C[1][0], eps)
    X = np.asarray(_stitched(*C[1]).point_at(eps), dtype=float)
    vertices = [X]
    plan = [(2, 3), (1, 2), (3, 1), (2, 3), (1, 2), (3, 1)]
    for foliation, target in plan:
        vertices.append(vertex(vertices[-1], foliation, target))
    gap = float(np.linalg.norm(vertices[-1] - X))
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
                             cubic.chain_labels(cubic.roots_proj(co)))

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


# ---------------------------------------------------------------------------
# Infinitesimal diagonal symmetries


def symmetry_residual(field, weights, samples, a=0.1):
    """Deviation of the web from invariance under a diagonal scaling flow.

    The candidate symmetry is X = w1 x dx + w2 y dy with exact flow
    (x, y) -> (exp(w1 a) x, exp(w2 a) y); web directions at each sample are
    pushed forward and compared (optimal matching, projective metric) with
    the directions at the image point.  The samples and their images are
    solved in one lift and one roots_proj call and matched in one
    match_roots call; DegenerateFieldError names the first of them, each
    sample before its image, where the field vanishes.
    """
    w1, w2 = weights
    s1, s2 = np.exp(w1 * a), np.exp(w2 * a)
    x, y = np.array(samples, dtype=float).T
    # each sample followed by its image under the flow
    x = np.stack([x, s1 * x], axis=-1).ravel()
    y = np.stack([y, s2 * y], axis=-1).ravel()
    co = nonvanishing(field.coeffs(x, y), x, y)
    here, there = np.moveaxis(cubic.roots_proj(co).reshape(-1, 2, 3, 2), 1, 0)
    pushed = [[(s1 * q, s2 * -p) for p, q in roots] for roots in here]
    matched, _ = match_roots(pushed, np.stack([there[..., 1], -there[..., 0]],
                                              axis=-1))
    worst = 0.0
    for u, v in zip(pushed, matched):
        worst = max(worst, max(proj_distance(u[i], v[i]) for i in range(3)))
    return float(worst)
