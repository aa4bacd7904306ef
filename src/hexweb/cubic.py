"""Cubic binary direction fields: discriminant, roots, normalization.

Convention: the field V = a (dx*)^3 + b (dx*)^2 dy* + c dx* (dy*)^2 + r (dy*)^3
acts on covectors sigma = p dx + q dy via C(p, q) = a p^3 + b p^2 q + c p q^2
+ r q^3.  A root sigma_i = (p_i, q_i) has leaf vector v_i = q_i dx - p_i dy,
hence leaf slope dy/dx = -p_i/q_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jets import (Jet, any_set, base_point, cbrt_factor, jet_cbrt, lift,
                   lift_jets, replay)

COEF_VANISH_TOL = 1e-12


class DegenerateFieldError(ValueError):
    """All four coefficients vanish at the evaluated point."""


class SingularPointError(ValueError):
    """Repeated root / vanishing discriminant at the evaluated point."""

    def __init__(self, msg, multiplicity=None, disc=None):
        super().__init__(msg)
        self.multiplicity = multiplicity
        self.disc = disc


# ---------------------------------------------------------------------------
# Field representations


class DirectionField:
    """Base class: anything that yields jets of (a, b, c, r) at a point."""

    def coeff_jets(self, x, y, order):
        raise NotImplementedError

    def coeffs(self, x, y):
        return coeff_values(self.coeff_jets(x, y, 0))

    def first_order(self, x, y):
        """[values, d/dx, d/dy] of (a, b, c, r) at a point, in Python
        complex numbers: the entries of the order-1 jets."""
        c = [j.c.tolist() for j in self.coeff_jets(x, y, 1)]
        return [[g[i][j] for g in c] for i, j in ((0, 0), (1, 0), (0, 1))]


def nonvanishing(co, x, y):
    """The coefficients co of a field at (x, y), unless all of them vanish.

    co may be an array (..., 4) over arrays of points; the error names the
    first point (row-major) where all four vanish.
    """
    bad = np.max(np.abs(co), axis=-1) <= COEF_VANISH_TOL
    if any_set(bad):
        x, y = at_first(bad, x, y)
        raise DegenerateFieldError(
            f"all cubic coefficients vanish at ({x}, {y})")
    return co


def at_first(bad, *values):
    """Each value (a number, or an array broadcastable to the mask bad) at
    the first set element of bad, in row-major order."""
    i = np.argmax(bad)
    return tuple(np.broadcast_to(v, np.shape(bad)).flat[i] for v in values)


def coeff_values(jets):
    """The values (..., 4) of the four coefficient jets (a, b, c, r)."""
    co = np.array([j.value for j in jets])
    return co if co.ndim == 1 else np.moveaxis(co, 0, -1)


class PolyCoeffField(DirectionField):
    """Field with polynomial coefficient functions."""

    def __init__(self, a, b, c, r):
        self.abcr = (a, b, c, r)
        self._lift_tables = {}

    def coeff_jets(self, x, y, order):
        """Coefficient jets at a point, or at arrays of points (jets.lift)."""
        return tuple(lift_jets(self.abcr, base_point(x, y), order,
                               self._lift_tables))

    def coeffs(self, x, y):
        """(a, b, c, r): (4,) at a point, (..., 4) over arrays of points."""
        co = lift(self.abcr, base_point(x, y), 0, self._lift_tables)
        return np.array(co) if type(co) is list else np.moveaxis(co, 0, -1)

    def first_order(self, x, y):
        """The order-1 jets' entries, as Python complex numbers at a point."""
        c = lift(self.abcr, (complex(x), complex(y)), 1, self._lift_tables)
        return [c[0::4], c[2::4], c[1::4]]  # c: a, a_y, a_x, 0, b, ...


class CallableJetField(DirectionField):
    """Field whose coefficient jets come from a closure fn(x, y, order),
    which takes a point or arrays of points as coeff_jets does."""

    def __init__(self, fn):
        self.fn = fn

    def coeff_jets(self, x, y, order):
        return self.fn(x, y, order)


class TranslatedField(DirectionField):
    """The same web seen from an origin shifted to (x0, y0)."""

    def __init__(self, base_field, x0, y0):
        self.base_field = base_field
        self.x0 = x0
        self.y0 = y0

    def coeff_jets(self, x, y, order):
        jets = self.base_field.coeff_jets(x + self.x0, y + self.y0, order)
        point = base_point(x, y)
        return tuple(Jet(point, order, j.c.copy()) for j in jets)


# ---------------------------------------------------------------------------
# Discriminant and roots


def discriminant_of_coeffs(a, b, c, r):
    """D = 18abcr - 27 a^2 r^2 - 4 a c^3 + b^2 c^2 - 4 b^3 r.

    Works for numbers and jets alike.
    """
    return (18 * a * b * c * r - 27 * a * a * r * r - 4 * a * c * c * c
            + b * b * c * c - 4 * b * b * b * r)


def discriminant_scale(coeffs):
    """Scale-aware reference magnitude for |D| cutoffs (D is quartic); one
    per row of an array (..., 4)."""
    return (1.0 + np.max(np.abs(coeffs), axis=-1)) ** 4


REGULAR_DISC_TOL = 1e-12  # scaled |D| at or below which a point is singular


def regular_cutoff(coeffs):
    return REGULAR_DISC_TOL * discriminant_scale(coeffs)


CHART_DEGENERATE_TOL = 1e-14  # scaled |a| >= |r| at which neither chart works
ROOT_SLOPE_TOL = 1e-12  # |q| / |p| below which a root counts as vertical
SORT_SCALE = 1e12  # the roots sort by Re, Im of their slope rounded to 1/this


def roots_proj(coeffs, mag=None):
    """Three projective roots [p_i : q_i] of C(p, q) = 0 per coefficient row.

    coeffs is a row (4,) or an array of rows (..., 4); the roots come back
    as (..., 3, 2), each a complex pair scaled to unit max component.  Each
    row is solved on the affine chart of its larger end coefficient, as the
    eigenvalues of its companion matrix (all rows in one eigvals call).  The
    roots are labelled in a fixed order: finite slopes w = p/q first (else
    w = q/p), then by Re w and Im w rounded to 12 decimals.  A row in a
    batch gives exactly the floats it gives alone; a single row (4,) takes
    _roots_row, which gives the floats of the batch of one.  mag is
    np.abs(coeffs) when the caller has it.
    """
    co = np.asarray(coeffs, dtype=complex)
    mag = np.abs(co) if mag is None else mag
    if co.ndim == 1:
        return _roots_row(co, mag)
    scale = np.maximum.reduce(mag, axis=-1)
    chart = mag[..., 0] >= mag[..., 3]  # slope chart q = 1: a s^3 + .. + r
    if (chart & (mag[..., 0] <= CHART_DEGENERATE_TOL * scale)).any():
        raise DegenerateFieldError("all cubic coefficients are zero"
                                   if not scale.all() else
                                   "cubic degenerate in both charts")
    chart = chart[..., None]
    poly = np.where(chart, co, co[..., ::-1])  # else p = 1: r v^3 + .. + a
    companion = np.zeros(co.shape[:-1] + (3, 3), dtype=complex)
    np.divide(poly[..., 1:], -poly[..., :1], out=companion[..., 0, :])
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    s = np.linalg.eigvals(companion)
    size = np.abs(s)
    finite = np.where(chart, size <= 1 / ROOT_SLOPE_TOL,
                      size >= ROOT_SLOPE_TOL)
    as_is = chart == finite  # s is the sort value w, else 1 / s is
    w = np.where(as_is, s, 1.0) / np.where(as_is, 1.0, s)
    key = np.rint(w * SORT_SCALE)
    s = np.take_along_axis(s, np.lexsort((key.imag, key.real, ~finite)), -1)
    pq = np.empty(s.shape + (2,), dtype=complex)
    pq[..., 0] = np.where(chart, s, 1.0)
    pq[..., 1] = np.where(chart, 1.0, s)
    return pq / np.maximum(np.abs(s), 1.0)[..., None]


def _roots_row(co, mag):
    """roots_proj of one row (4,), given its moduli mag: the bookkeeping in
    Python scalars, and numpy on the arrays wherever it rounds unlike Python
    (the quotients, the moduli, the sort value and the final scaling)."""
    mag = mag.tolist()
    scale = math.nan if math.isnan(sum(mag)) else max(mag)  # as numpy's max
    chart = mag[0] >= mag[3]
    if chart and mag[0] <= CHART_DEGENERATE_TOL * scale:
        raise DegenerateFieldError("all cubic coefficients are zero"
                                   if not scale else
                                   "cubic degenerate in both charts")
    poly = co if chart else co[::-1]
    companion = np.zeros((3, 3), dtype=complex)
    np.divide(poly[1:], -poly[:1], out=companion[0])
    companion[1, 0] = companion[2, 1] = 1.0
    s = np.linalg.eigvals(companion)
    size = np.abs(s).tolist()
    finite = [(v <= 1 / ROOT_SLOPE_TOL) if chart else (v >= ROOT_SLOPE_TOL)
              for v in size]
    as_is = [chart == f for f in finite]
    key = np.rint(np.where(as_is, s, 1.0) / np.where(as_is, 1.0, s)
                  * SORT_SCALE).tolist()
    order = sorted(range(3), key=lambda i: (not finite[i], key[i].real,
                                            key[i].imag))
    pq = np.ones((3, 2), dtype=complex)
    pq[:, 1 - chart] = s[order]
    return pq / np.array([[max(size[i], 1.0)] for i in order])


def proj_distance(u, v):
    """Chordal distance between projective points: |u x v| / (|u| |v|)."""
    cross = u[0] * v[1] - u[1] * v[0]
    nu = np.hypot(abs(u[0]), abs(u[1]))
    nv = np.hypot(abs(v[0]), abs(v[1]))
    return abs(cross) / (nu * nv)


def root_distance(u, v):
    """proj_distance between the projective points that the first two
    components of rows (..., k) make: roots, or idempotents' slice parts."""
    return proj_distance((u[..., 0], u[..., 1]), (v[..., 0], v[..., 1]))


PERMS = np.array(list(itertools.permutations(range(3))))  # labellings


def least_cost_perm(dist):
    """The labelling of least summed distance, as an index into PERMS, for
    each distance table dist[..., i, j] = dist(ref[i], new[j]): summed in
    ref's order, the first minimum in PERMS' order winning ties."""
    t = dist[..., np.arange(3), PERMS]  # t[..., k, i] = dist[i, PERMS[k, i]]
    return np.argmin(t[..., 0] + t[..., 1] + t[..., 2], axis=-1)


def match_roots(ref, new):
    """The values new (..., 3, k) relabelled to move least from ref, and
    each label's root_distance to ref (..., 3): root_distance is called
    once, on the nine pairs of every row, and least_cost_perm picks each
    row's labelling."""
    new = np.asarray(new)
    d = root_distance(np.asarray(ref)[..., :, None, :], new[..., None, :, :])
    perm = PERMS[least_cost_perm(d)][..., None]
    return (np.take_along_axis(new, perm, axis=-2),
            np.take_along_axis(d, perm, axis=-1)[..., 0])


def chain_labels(vals):
    """The values (n, 3, k) at the points of a chain, relabelled along it:
    point i's values take the labels that move them least from point
    i - 1's, as match_roots picks them, and point 0 keeps its order.  One
    least_cost_perm pass matches every point's values under each of the
    labellings the last point may have; only the walk is sequential."""
    d = root_distance(vals[:-1, :, None], vals[1:, None])
    k = [0]
    for c in least_cost_perm(d[:, PERMS]).tolist():
        k.append(c[k[-1]])
    return np.take_along_axis(vals, PERMS[k][:, :, None], axis=1)


MIN_PIECE = 1e-8  # parameter length at which continue_along stops halving
MAX_MOVE = 0.2  # summed root_distance move allowed between two path points


def continue_along(path, at):
    """Labelled values continued along a polyline by adaptive bisection.

    ``at(x, y)`` gives the values (n, 3, k) at arrays of points (root pairs,
    idempotents with their slice part first) in any order; it is called on
    the path's vertices, then once per round of halvings.  A segment starts
    as one piece; a piece whose move (match_roots' distances, summed) is
    above MAX_MOVE is halved until its parameter length is MIN_PIECE.
    Returns the points (n, 2), path[0] first, and their values labelled by
    chain_labels.
    """
    pts = np.asarray(path, dtype=complex)
    # each point's segment and parameter on it; path[0] is on none
    seg = np.arange(-1, len(pts) - 1)
    t = (seg >= 0) * 1.0

    def point(s, t):
        return pts[s] + t[:, None] * (pts[s + 1] - pts[s])

    x = np.concatenate([pts[:1], point(seg[1:], t[1:])])
    vals, j = at(*x.T), np.arange(1, len(t))  # j: the untested pieces' ends
    prev = np.arange(-1, len(t) - 1)  # each point's neighbour towards path[0]
    while j.size:
        t0 = np.where(seg[prev[j]] == seg[j], t[prev[j]], 0.0)
        d = match_roots(vals[prev[j]], vals[j])[1]
        halve = ((d[:, 0] + d[:, 1] + d[:, 2] > MAX_MOVE)
                 & (t[j] - t0 > MIN_PIECE))
        j, mid = j[halve], 0.5 * (t0 + t[j])[halve]
        if not j.size:
            break
        mx, m = point(seg[j], mid), np.arange(len(t), len(t) + j.size)
        x, t, seg, prev, vals = (np.concatenate([a, b]) for a, b in (
            (x, mx), (t, mid), (seg, seg[j]), (prev, prev[j]),
            (vals, at(*mx.T))))
        prev[j] = m  # each old end now follows its midpoint
        j = np.concatenate([m, j])  # both halves are untested
    order = np.lexsort((t, seg))
    return x[order], chain_labels(vals[order])


ROOT_SEP_TOL = 1e-8  # projective separation below which roots coincide


def _root_jets(coeff_jets, x, y, order, root_values):
    """Jets of the three projective roots by implicit differentiation, from
    the field's coefficient jets at (x, y).

    Each root is a pair of jets (p, q) with the chart component held at the
    constant 1.  Requires three pairwise distinct roots.  For arrays of
    points the jets run over them; the root values are (..., 3, 2), or
    three (p, q) pairs for one point (None solves for them).  The three
    roots ride a first batch axis (3, ...), each on its own chart: Newton
    steps polish their values, then one chord step per order, with the
    derivative frozen at the polished value, gives their jets."""
    if root_values is None:
        root_values = roots_proj(coeff_values(coeff_jets))
    p0, q0 = np.moveaxis(np.asarray(root_values), (-1, -2), (0, 1))
    i, j = [0, 0, 1], [1, 2, 2]
    seps = proj_distance((p0[i], q0[i]), (p0[j], q0[j]))
    sep = seps.min(axis=0)
    bad = sep < ROOT_SEP_TOL
    if any_set(bad):
        x, y, sep, worst = at_first(bad, x, y, sep, seps.max(axis=0))
        raise SingularPointError(
            f"repeated root at ({x}, {y}), separation {sep:.2e}",
            multiplicity=3 if worst < ROOT_SEP_TOL else 2)
    # chart q = 1 (slope s = p/q) where |q| >= |p|, else chart p = 1 with
    # the coefficients reversed
    chart = np.abs(q0) >= np.abs(p0)
    s0 = np.where(chart, p0, q0) / np.where(chart, q0, p0)
    # (4, K+1, K+1, 1, ...): the roots axis goes in front of the points'
    c = np.stack([jet.c for jet in coeff_jets])[:, :, :, None]
    base = coeff_jets[0].base
    s = _simple_root_jet([Jet._raw(base, order, ci)
                          for ci in np.where(chart, c, c[::-1])], s0)
    one = s._constant(1.0).c
    p, q = np.where(chart, s.c, one), np.where(chart, one, s.c)
    return [(Jet._raw(base, order, p[:, :, k]),
             Jet._raw(base, order, q[:, :, k])) for k in range(3)]


SIMPLE_ROOT_TOL = 1e-13  # relative |P'(s0)| below which a root is multiple


def _simple_root_jet(coeff_jets, s0):
    """Jet of a simple root of c3 s^3 + c2 s^2 + c1 s + c0 (jets c_i) near
    s0: three Newton steps on the values, then _chord_steps."""
    v3, v2, v1, v0 = (c.value for c in coeff_jets)

    def dP(s):
        return (3 * v3 * s + 2 * v2) * s + v1

    if any_set(np.abs(dP(s0)) < SIMPLE_ROOT_TOL * (
            1 + np.max(np.abs([v3, v2, v1, v0]), axis=0))):
        raise SingularPointError("root is not simple (P'(s0) ~ 0)")
    s = s0
    for _ in range(3):
        s = s - (((v3 * s + v2) * s + v1) * s + v0) * (1 / dP(s))
    constant = coeff_jets[0]._constant
    if not coeff_jets[0].order:
        return constant(s)
    return replay(_chord_steps, *coeff_jets, constant(-1 / dP(s)), constant(s))


def _chord_steps(c3, c2, c1, c0, m, s):
    """s + m P(s) once per order, m = -1/P'(s) a constant: the root jet from
    its value, one more order each step; a formula for ``replay``."""
    for _ in range(s.order):
        s = s + m * (((c3 * s + c2) * s + c1) * s + c0)
    return s


# ---------------------------------------------------------------------------
# Normalized root triples


@dataclass
class RootTriple:
    """Root covectors normalized so that sigma_1 + sigma_2 + sigma_3 = 0.

    ``sigma`` holds three (p_jet, q_jet) pairs; ``lam`` records the common
    cube-root scale that enforces the exact factorization V1 V2 V3 = V.
    """

    point: tuple
    sigma: list
    lam: complex

    def values(self):
        return [(s[0].value, s[1].value) for s in self.sigma]


def _product_coeffs(sigma):
    """(a, b, c, r) of V1 V2 V3, V_i = q_i dx* - p_i dy*; numbers or jets."""
    (p1, q1), (p2, q2), (p3, q3) = sigma
    return (q1 * q2 * q3,
            -(q1 * q2 * p3 + q1 * p2 * q3 + p1 * q2 * q3),
            q1 * p2 * p3 + p1 * q2 * p3 + p1 * p2 * q3,
            -(p1 * p2 * p3))


def normalize_roots(field, point, order=1):
    """Normalized, exactly-factorizing root triple with jets.

    The point may be a pair of arrays: the triple's jets then run over
    those points and lam is an array.  The roots come from one roots_proj
    call and keep its fixed labels, and lam is the principal cube root; the
    connection built from the triple depends on neither.  Triples continued
    along a path come from continued_sigma.
    """
    x, y = point
    jets = field.coeff_jets(x, y, order)
    vals = roots_proj(nonvanishing(coeff_values(jets), x, y))
    sp, lam3 = normalization_core(jets, x, y, order, vals)
    lam = jet_cbrt(lam3)
    sigma = replay(_scaled, lam, *(j for pair in sp for j in pair))
    return RootTriple(point=tuple(base_point(x, y)), sigma=sigma,
                      lam=lam.value)


def _scaled(lam, *pq):
    """The pairs (lam P, lam Q) of (P, Q) = pq[0:2], pq[2:4], ...; a formula
    for ``replay``."""
    return [(lam * P, lam * Q) for P, Q in zip(pq[::2], pq[1::2])]


def normalization_core(coeff_jets, x, y, order, root_values):
    """(sp, lam3) for labelled roots: the normalized triple is
    sigma_i = lam sp_i with lam a cube root of lam3.

    Takes the coefficient jets and the labelled root values (..., 3, 2) at
    (x, y), either of one point or over arrays of points.  The cross
    products t_i of the other two roots make sum_i t_i (p_i, q_i) = 0, and
    lam3 scales the product of the t_i sigma_i onto the field at the
    coefficient of largest size.
    """
    roots = _root_jets(coeff_jets, x, y, order, root_values)
    sp, hats = replay(_normalization_formula,
                      *(j for pair in roots for j in pair))
    k = np.argmax(np.abs(coeff_values(hats)), axis=-1)
    return sp, _pick(coeff_jets, k) * _pick(hats, k).reciprocal()


def _normalization_formula(p1, q1, p2, q2, p3, q3):
    """(sp, hats) from the root jets; a formula for ``replay``."""
    # kernel of the 2x3 matrix [sigma_1 sigma_2 sigma_3] via cross products
    t1 = p2 * q3 - p3 * q2
    t2 = p3 * q1 - p1 * q3
    t3 = p1 * q2 - p2 * q1
    sp = [(t1 * p1, t1 * q1), (t2 * p2, t2 * q2), (t3 * p3, t3 * q3)]
    return sp, _product_coeffs(sp)


def _pick(jets, k):
    """jets[k]; for a batch, k holds one index per element."""
    if np.ndim(k) == 0:
        return jets[k]
    c = np.take_along_axis(np.stack([j.c for j in jets]), k[None, None, None],
                           axis=0)[0]
    return Jet._raw(jets[0].base, jets[0].order, c)


def continued_sigma(coeff_jets, x, y, vals):
    """Normalized root covectors (n, 3, 2) and lam (n,) along a chain of
    points, from the order-0 coefficient jets and the root values vals
    (n, 3, 2) there, already labelled along the chain.

    Point 0 takes the principal cube-root branch and each later point the
    branch nearest the last one's lam; the branch chain is sequential and
    reads cube roots computed for all points at once.
    """
    sp, lam3 = normalization_core(coeff_jets, x, y, 0, vals)
    r = jet_cbrt(lam3).value
    lam = [r[0]]
    for i in range(1, len(r)):
        # turned as an array, like one point's cube-root jet: numpy's
        # scalar product rounds unlike its array loop
        lam.append((r[i:i + 1] * cbrt_factor(r[i], lam[-1]))[0])
    lam = Jet._raw(lam3.base, 0, np.array(lam)[None, None])
    sigma = np.stack([np.stack([(lam * P).value, (lam * Q).value], axis=-1)
                      for P, Q in sp], axis=1)
    return sigma, lam.value


def factorization_residual(field, triple):
    """Relative residual of the (p, q)-system, V1 V2 V3 against V, per
    point; one point's products run on arrays too, since numpy rounds
    complex products of scalars unlike its array loops."""
    sigma = np.array(triple.values())[:, :, None]  # (3, 2, 1, ...)
    got = np.concatenate(_product_coeffs(sigma))
    want = np.array([j.value for j in field.coeff_jets(*triple.point, 0)])
    return np.max(np.abs(got - want), axis=0) / (
        1.0 + np.max(np.abs(want), axis=0))


# ---------------------------------------------------------------------------
# Depressed form


@dataclass
class DepressedForm:
    """p^3 + A p + B = 0 with p = dy/dx (or dx/dy in the swapped chart)."""

    A: Jet
    B: Jet
    chart: str  # "xy" (p = dy/dx) or "yx" (axes swapped)


CHART_TOL = 1e-9


def depress_jets(coeff_jets, x, y):
    """Depressed (A, B) jets of the monic slope cubic from the field's
    coefficient jets at (x, y).

    Operates on the chart whose leading coefficient is larger; raises when
    both K3 and K0 are below tolerance (no valid affine chart).
    """
    ja, jb, jc, jr = coeff_jets
    # K-form coefficients: K3 = -a, K2 = b, K1 = -c, K0 = r
    K3, K2, K1, K0 = -ja, jb, -jc, jr
    scale = max(abs(K3.value), abs(K2.value), abs(K1.value), abs(K0.value))
    if scale == 0:
        raise DegenerateFieldError("all coefficients vanish")
    if abs(K3.value) >= abs(K0.value):
        lead, c2, c1, c0, chart = K3, K2, K1, K0, "xy"
    else:
        lead, c2, c1, c0, chart = K0, K1, K2, K3, "yx"
    if abs(lead.value) < CHART_TOL * scale:
        raise SingularPointError(
            f"no valid affine chart at ({x}, {y}): "
            "both leading coefficients vanish")
    inv = lead.reciprocal()
    k2 = c2 * inv
    k1 = c1 * inv
    k0 = c0 * inv
    A = k1 - k2 * k2 * (1.0 / 3.0)
    B = (k2 * k2 * k2) * (2.0 / 27.0) - k2 * k1 * (1.0 / 3.0) + k0
    return DepressedForm(A=A, B=B, chart=chart)


# ---------------------------------------------------------------------------
# Characteristic fields of WDVV potentials (coefficient recipe)


def characteristic_coeffs_from_f3(case, fxxx, fxxy, fxyy, fyyy, one):
    """(a, b, c, r) of the characteristic PDE from third-derivative values.

    Works uniformly for numbers and jets; ``one`` is the multiplicative unit
    of the operand type.
    """
    if case == "A":
        return (fxyy, -2 * fxxy, fxxx, one)
    if case == "B":
        return (fyyy, -fxyy, -fxxy, fxxx)
    raise ValueError(f"unknown case {case!r}")
