"""Cubic binary direction fields: discriminant, roots, normalization.

Convention: the field V = a (dx*)^3 + b (dx*)^2 dy* + c dx* (dy*)^2 + r (dy*)^3
acts on covectors sigma = p dx + q dy via C(p, q) = a p^3 + b p^2 q + c p q^2
+ r q^3.  A root sigma_i = (p_i, q_i) has leaf vector v_i = q_i dx - p_i dy,
hence leaf slope dy/dx = -p_i/q_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .jets import Jet, any_set, base_point, jet_cbrt

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

    def check_nondegenerate(self, x, y):
        return nonvanishing(self.coeffs(x, y), x, y)


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
    the first set element of bad, in row-major order; a single point's
    values as given."""
    if np.ndim(bad) == 0:
        return values
    i = np.argmax(bad)
    return tuple(np.broadcast_to(v, bad.shape).flat[i] for v in values)


def coeff_values(jets):
    """The values (..., 4) of the four coefficient jets (a, b, c, r)."""
    co = np.array([j.value for j in jets])
    return co if co.ndim == 1 else np.moveaxis(co, 0, -1)


class PolyCoeffField(DirectionField):
    """Field with polynomial coefficient functions."""

    def __init__(self, a, b, c, r):
        self.abcr = (a, b, c, r)

    def coeff_jets(self, x, y, order):
        """Coefficient jets at a point, or at arrays of points (real points
        lift bit for bit as each point alone does; see PolyExpr.jet)."""
        point = base_point(x, y)
        return tuple(p.jet(point, order) for p in self.abcr)

    def coeffs(self, x, y):
        return np.array([complex(p(x, y)) for p in self.abcr])


class CallableJetField(DirectionField):
    """Field whose coefficient jets come from an arbitrary closure; arrays
    of points go through it one point at a time, stacked into batch jets."""

    def __init__(self, fn):
        self.fn = fn

    def coeff_jets(self, x, y, order):
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return self.fn(x, y, order)
        X, Y = base_point(x, y)
        each = [self.fn(a, b, order) for a, b in zip(X.flat, Y.flat)]
        return tuple(Jet((X, Y), order, np.array(
            [e[k].c for e in each], dtype=complex).reshape(
                X.shape + (order + 1, order + 1))) for k in range(4))


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


def discriminant(field, point):
    a, b, c, r = field.coeffs(point[0], point[1])
    return discriminant_of_coeffs(a, b, c, r)


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


def roots_proj(coeffs):
    """Three projective roots [p_i : q_i] of C(p, q) = 0 per coefficient row.

    coeffs is a row (4,) or an array of rows (..., 4); the roots come back
    as (..., 3, 2), each a complex pair scaled to unit max component.  Each
    row is solved on the affine chart of its larger end coefficient, as the
    eigenvalues of its companion matrix (all rows in one eigvals call).  The
    roots are labelled in a fixed order: finite slopes w = p/q first (else
    w = q/p), then by Re w and Im w rounded to 12 decimals.  A row is a
    batch of one, so a row in a batch gives exactly the floats it gives
    alone.
    """
    co = np.asarray(coeffs, dtype=complex)
    mag = np.abs(co)
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


def proj_distance(u, v):
    """Chordal distance between projective points: |u x v| / (|u| |v|)."""
    cross = u[0] * v[1] - u[1] * v[0]
    nu = np.hypot(abs(u[0]), abs(u[1]))
    nv = np.hypot(abs(v[0]), abs(v[1]))
    return abs(cross) / (nu * nv)


def match_roots(ref, new, dist=proj_distance):
    """Permutation of `new` minimizing the summed distance to `ref`.

    Returns the reordered `new` and its cost.  This is the one labelling
    rule for root triples, leaf directions and idempotent frames; `dist`
    defaults to the projective distance.
    """
    best = None
    best_cost = np.inf
    for perm in itertools.permutations(range(len(new))):
        cost = sum(dist(ref[i], new[perm[i]]) for i in range(len(ref)))
        if cost < best_cost:
            best_cost = cost
            best = perm
    return [new[i] for i in best], best_cost


MIN_PIECE = 1e-8  # parameter length at which continue_along stops halving


def continue_along(path, first, step, max_move, pieces=None):
    """States continued along a polyline by adaptive bisection.

    ``first`` is the state at path[0]; ``step(prev, pt)`` returns the state
    at pt continued from the state prev, and the cost of that move.  Each
    segment (P0, P1) starts as ``pieces(P0, P1)`` equal parts (one when
    ``pieces`` is None); a part whose move costs more than ``max_move`` is
    halved until its parameter length is MIN_PIECE.  Returns the list of
    (point, state), beginning with (path[0], first).
    """
    pts = [np.asarray(p, dtype=complex) for p in path]
    trail = [(pts[0], first)]
    for P0, P1 in zip(pts[:-1], pts[1:]):
        n = 1 if pieces is None else pieces(P0, P1)
        stack = [(i / n, (i + 1) / n) for i in range(n - 1, -1, -1)]
        while stack:
            t0, t1 = stack.pop()
            pt = P0 + t1 * (P1 - P0)
            state, cost = step(trail[-1][1], pt)
            if cost > max_move and (t1 - t0) > MIN_PIECE:
                mid = 0.5 * (t0 + t1)
                stack += [(mid, t1), (t0, mid)]
            else:
                trail.append((pt, state))
    return trail


def roots(field, point):
    """Projective roots of the field's cubic at a point."""
    return roots_proj(field.check_nondegenerate(point[0], point[1]))


def root_jets(field, x, y, order, root_values=None):
    """Jets of the three projective roots by implicit differentiation.

    Each root is a pair of jets (p, q) with the chart component held at the
    constant 1.  Requires three pairwise distinct roots.
    """
    return _root_jets(field.coeff_jets(x, y, order), x, y, order,
                      root_values)


ROOT_SEP_TOL = 1e-8  # projective separation below which roots coincide


def _root_jets(coeff_jets, x, y, order, root_values):
    """root_jets from the field's coefficient jets at (x, y).  For arrays of
    points the jets run over them; the root values are (..., 3, 2), or
    three (p, q) pairs for one point.  The three roots ride a leading batch
    axis (3, ...) through one Newton pass, each on its own chart."""
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
    mask = chart[..., None, None]
    c = np.stack([jet.c for jet in coeff_jets])[:, None]
    base = coeff_jets[0].base
    s = _newton_root_jet([Jet._raw(base, order, ci)
                          for ci in np.where(mask, c, c[::-1])], s0, order)
    one = s._constant(1.0).c
    p, q = np.where(mask, s.c, one), np.where(mask, one, s.c)
    return [(Jet._raw(base, order, p[k]), Jet._raw(base, order, q[k]))
            for k in range(3)]


SIMPLE_ROOT_TOL = 1e-13  # relative |P'(s0)| below which a root is multiple


def _newton_root_jet(coeff_jets, s0, order):
    """Jet of a simple root of c3 s^3 + c2 s^2 + c1 s + c0 (jets c_i)."""
    c3, c2, c1, c0 = coeff_jets
    s = c3._constant(s0)
    dP0 = 3 * c3.value * s0**2 + 2 * c2.value * s0 + c1.value
    if any_set(np.abs(dP0) < SIMPLE_ROOT_TOL * (1 + np.max(
            np.abs([c.value for c in coeff_jets]), axis=0))):
        raise SingularPointError("root is not simple (P'(s0) ~ 0)")
    for _ in range(max(1, order.bit_length()) + 2):
        P = ((c3 * s + c2) * s + c1) * s + c0
        dP = (3 * c3 * s + 2 * c2) * s + c1
        s = s - P * dP.reciprocal()
    return s


# ---------------------------------------------------------------------------
# Normalized root triples


@dataclass
class RootTriple:
    """Root covectors normalized so that sigma_1 + sigma_2 + sigma_3 = 0.

    ``sigma`` holds three (p_jet, q_jet) pairs; the common cube-root scale
    used to enforce exact factorization V1 V2 V3 = V is recorded in
    ``lam`` so branches can be continued along paths.
    """

    point: tuple
    sigma: list
    lam: complex

    def values(self):
        return [(s[0].value, s[1].value) for s in self.sigma]

    def leaf_vectors(self):
        return [(q.value, -p.value) for p, q in self.sigma]


def _product_coeffs(sigma):
    """(a, b, c, r) of V1 V2 V3, V_i = q_i dx* - p_i dy*; numbers or jets."""
    (p1, q1), (p2, q2), (p3, q3) = sigma
    return (q1 * q2 * q3,
            -(q1 * q2 * p3 + q1 * p2 * q3 + p1 * q2 * q3),
            q1 * p2 * p3 + p1 * q2 * p3 + p1 * p2 * q3,
            -(p1 * p2 * p3))


def normalize_roots(field, point, order=1, label_ref=None, lam_target=None):
    """Normalized, exactly-factorizing root triple with jets.

    The point may be a pair of arrays: the triple's jets then run over
    those points and lam is an array.  The roots come from one roots_proj
    call and keep its fixed labels, unless label_ref (a reference triple
    of projective pairs, for a single point) relabels them by match_roots
    for path continuation; the connection built from the triple does not
    depend on the labels.  lam_target: preferred cube-root branch (per
    point).
    """
    x, y = point
    jets = field.coeff_jets(x, y, order)
    vals = roots_proj(nonvanishing(coeff_values(jets), x, y))
    if label_ref is not None:
        vals, _ = match_roots(label_ref, vals)
    sp, lam3 = normalization_core(jets, x, y, order, vals)
    lam = jet_cbrt(lam3, target=lam_target)
    return RootTriple(point=tuple(base_point(x, y)),
                      sigma=[(lam * P, lam * Q) for P, Q in sp],
                      lam=lam.value)


def normalization_core(coeff_jets, x, y, order, root_values):
    """(sp, lam3) for labelled roots: the normalized triple is
    sigma_i = lam sp_i with lam a cube root of lam3.

    Takes the coefficient jets and the labelled root values (..., 3, 2) at
    (x, y), either of one point or over arrays of points.  The cross
    products t_i of the other two roots make sum_i t_i (p_i, q_i) = 0, and
    lam3 scales the product of the t_i sigma_i onto the field at the
    coefficient of largest size.
    """
    (p1, q1), (p2, q2), (p3, q3) = _root_jets(coeff_jets, x, y, order,
                                              root_values)
    # kernel of the 2x3 matrix [sigma_1 sigma_2 sigma_3] via cross products
    t1 = p2 * q3 - p3 * q2
    t2 = p3 * q1 - p1 * q3
    t3 = p1 * q2 - p2 * q1
    sp = [(t1 * p1, t1 * q1), (t2 * p2, t2 * q2), (t3 * p3, t3 * q3)]
    hats = _product_coeffs(sp)
    k = np.argmax(np.abs(coeff_values(hats)), axis=-1)
    return sp, _pick(coeff_jets, k) * _pick(hats, k).reciprocal()


def _pick(jets, k):
    """jets[k]; for a batch, k holds one index per element."""
    if np.ndim(k) == 0:
        return jets[k]
    c = np.take_along_axis(np.stack([j.c for j in jets]),
                           k[None, ..., None, None], axis=0)[0]
    return Jet._raw(jets[0].base, jets[0].order, c)


def factorization_residual(field, triple):
    """Relative residual of the (p, q)-system: V1 V2 V3 must expand to V."""
    got = np.array(_product_coeffs(triple.values()))
    want = field.coeffs(*triple.point)
    return float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))


# ---------------------------------------------------------------------------
# Depressed form


@dataclass
class DepressedForm:
    """p^3 + A p + B = 0 with p = dy/dx (or dx/dy in the swapped chart)."""

    A: Jet
    B: Jet
    chart: str  # "xy" (p = dy/dx) or "yx" (axes swapped)


CHART_TOL = 1e-9


def depress(field, point, order=1):
    """Depressed (A, B) jets of the monic slope cubic at a point.

    Operates on the chart whose leading coefficient is larger; raises when
    both K3 and K0 are below tolerance (no valid affine chart).
    """
    x, y = point
    return depress_jets(field.coeff_jets(x, y, order), x, y)


def depress_jets(coeff_jets, x, y):
    """depress from the field's coefficient jets at (x, y)."""
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
