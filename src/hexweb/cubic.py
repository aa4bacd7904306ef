"""Cubic binary direction fields: discriminant, roots, normalization.

Convention: the field V = a (dx*)^3 + b (dx*)^2 dy* + c dx* (dy*)^2 + r (dy*)^3
acts on covectors sigma = p dx + q dy via C(p, q) = a p^3 + b p^2 q + c p q^2
+ r q^3.  A root sigma_i = (p_i, q_i) has leaf vector v_i = q_i dx - p_i dy,
hence leaf slope dy/dx = -p_i/q_i.
"""

from __future__ import annotations

import functools
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
        return np.array([j.value for j in self.coeff_jets(x, y, 0)])

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
    """Field whose coefficient jets come from an arbitrary closure."""

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


def discriminant(field, point):
    a, b, c, r = field.coeffs(point[0], point[1])
    return discriminant_of_coeffs(a, b, c, r)


def discriminant_scale(coeffs):
    """Scale-aware reference magnitude for |D| cutoffs (D is quartic); one
    per row of an array (..., 4)."""
    return (1.0 + np.max(np.abs(coeffs), axis=-1)) ** 4


def regular_cutoff(coeffs):
    return 1e-12 * discriminant_scale(coeffs)


# Python's complex arithmetic, elementwise on arrays.  The roots of a single
# point are formed in Python complex numbers; these let arrays of points
# round exactly as they do (numpy's complex division multiplies by a
# reciprocal, and its abs takes another hypot).  Numbers pass straight to
# Python's operators.

def _py_abs(z):
    """abs(z); on an array, as Python rounds it: hypot(Re z, Im z)."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _py_div(a, b):
    """a / b; on arrays, as Python's complex division rounds it (Smith's
    method, dividing by the scaled denominator)."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a / b
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    big = np.abs(br) >= np.abs(bi)
    ratio = np.where(big, bi, br) / np.where(big, br, bi)
    denom = np.where(big, br + bi * ratio, br * ratio + bi)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = np.where(big, ar + ai * ratio, ar * ratio + ai) / denom
    out.imag = np.where(big, ai - ar * ratio, ai * ratio - ar) / denom
    return out


CHART_DEGENERATE_TOL = 1e-14  # scaled |a| = |r| below which no chart works


def roots_proj(coeffs):
    """Three projective roots [p_i : q_i] of C(p, q) = 0.

    Each root is returned as a complex pair normalized to unit max component.
    Solved on the affine chart with the better-conditioned leading
    coefficient (companion matrix via numpy.roots).  An array (..., 4) of
    coefficient rows gives an array (..., 3, 2), each row exactly as
    its coefficient tuple would give it (``_roots_rows``).
    """
    if np.ndim(coeffs) > 1:
        rows = np.asarray(coeffs, dtype=complex).reshape(-1, 4)
        return _roots_rows(rows).reshape(np.shape(coeffs)[:-1] + (3, 2))
    a, b, c, r = (complex(v) for v in coeffs)
    scale = max(abs(a), abs(b), abs(c), abs(r))
    if scale == 0:
        raise DegenerateFieldError("all cubic coefficients are zero")
    a, b, c, r = a / scale, b / scale, c / scale, r / scale
    if abs(a) >= abs(r):
        # chart q = 1, slope s = p/q: a s^3 + b s^2 + c s + r = 0
        if abs(a) < CHART_DEGENERATE_TOL:
            raise DegenerateFieldError("cubic degenerate in both charts")
        out = [_unitize((s, 1.0)) for s in np.roots([a, b, c, r])]
    else:
        # chart p = 1, v = q/p: r v^3 + c v^2 + b v + a = 0
        out = [_unitize((1.0, v)) for v in np.roots([r, c, b, a])]
    return sorted(out, key=_root_sort_key)


def _roots_rows(rows):
    """roots_proj of each row of rows (n, 4): the companion matrices as
    numpy.roots builds them, stacked into one eigvals call, the scaling and
    unitizing in Python's rounding, and one lexsort.  A row that numpy.roots
    would trim (an exactly zero end coefficient) or whose order under
    _root_sort_key rounding could change is solved by roots_proj alone."""
    scale = np.max(_py_abs(rows), axis=1, keepdims=True)
    if (scale == 0).any():
        raise DegenerateFieldError("all cubic coefficients are zero")
    scaled = _py_div(rows, scale)  # Python divides by a float as by x + 0j
    lead = _py_abs(scaled[:, 0])
    chart = lead >= _py_abs(scaled[:, 3])  # slope chart, as in roots_proj
    if (chart & (lead < CHART_DEGENERATE_TOL)).any():
        raise DegenerateFieldError("cubic degenerate in both charts")
    poly = np.where(chart[:, None], scaled, scaled[:, ::-1])
    companion = np.zeros((len(poly), 3, 3), dtype=complex)
    companion[:, 0] = -poly[:, 1:] / poly[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    s = np.linalg.eigvals(companion)
    one = np.ones_like(s)
    p, q = np.where(chart[:, None], s, one), np.where(chart[:, None], one, s)
    m = np.maximum(_py_abs(p), _py_abs(q))
    p, q = _py_div(p, m), _py_div(q, m)
    pq = np.stack([p, q], axis=-1)
    # _root_sort_key compares (kind, round(Re w, 12), round(Im w, 12)) of the
    # slope w; numpy's division puts w a few ulps from Python's.  Two keys
    # of one kind are ordered safely by Re w when the real parts are well
    # apart, or, when both real parts lie in one 1e-12 rounding bucket away
    # from its edges (a conjugate pair, say), by Im w when those are apart.
    finite = _py_abs(q) >= ROOT_SLOPE_TOL * _py_abs(p)
    w = np.where(finite, p, q) / np.where(finite, q, p)
    t = w.real * 1e12
    bucket = np.floor(t + 0.5)
    inside = (np.abs(w.real) <= 1.0) & (np.abs(t - np.floor(t) - 0.5) > 0.01)
    i, j = (0, 0, 1), (1, 2, 2)

    def apart(v):
        return np.abs(v[:, i] - v[:, j]) > SORT_TIE_TOL * (
            1 + np.abs(v[:, i]) + np.abs(v[:, j]))

    one_bucket = (bucket[:, i] == bucket[:, j]) & inside[:, i] & inside[:, j]
    safe = ((finite[:, i] != finite[:, j]) | apart(w.real)
            | (one_bucket & apart(w.imag)))
    pq = np.take_along_axis(
        pq, np.lexsort((w.imag, bucket, ~finite))[..., None], axis=1)
    for r in np.flatnonzero(~safe.all(axis=1) | (poly[:, 3] == 0)):
        pq[r] = roots_proj(rows[r])
    return pq


ROOT_SLOPE_TOL = 1e-12  # |q| / |p| below which a root counts as vertical
SORT_TIE_TOL = 1e-11  # relative gap of sort keys that rounding cannot close


def _root_sort_key(pq):
    """Fixed labeling rule: finite slopes first, lexicographic in (Re, Im)."""
    p, q = pq
    if abs(q) >= ROOT_SLOPE_TOL * abs(p):
        s = p / q
        return (0, round(s.real, 12), round(s.imag, 12))
    v = q / p
    return (1, round(v.real, 12), round(v.imag, 12))


def _unitize(pq):
    p, q = complex(pq[0]), complex(pq[1])
    m = max(abs(p), abs(q))
    return (p / m, q / m)


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
    points the jets run over them and the root values are an array
    (..., 3, 2); a single point's values are three (p, q) pairs."""
    ja, jb, jc, jr = coeff_jets
    vals = root_values if root_values is not None else roots_proj(
        coeff_values(coeff_jets))
    if isinstance(vals, np.ndarray):
        vals = [(vals[..., i, 0], vals[..., i, 1]) for i in range(3)]
    seps = [proj_distance(u, v) for u, v in itertools.combinations(vals, 2)]
    sep = functools.reduce(np.minimum, seps)
    bad = sep < ROOT_SEP_TOL
    if any_set(bad):
        worst = functools.reduce(np.maximum, seps)
        x, y, sep, worst = at_first(bad, x, y, sep, worst)
        raise SingularPointError(
            f"repeated root at ({x}, {y}), separation {sep:.2e}",
            multiplicity=3 if worst < ROOT_SEP_TOL else 2)
    out = []
    one = ja._constant(1.0)
    for p0, q0 in vals:
        # chart q = 1 (slope s = p/q) where |q| >= |p|, else chart p = 1
        chart = _py_abs(q0) >= _py_abs(p0)
        s0 = _py_div(*_chart_pick(chart, (p0, q0), (q0, p0)))
        s = _newton_root_jet(_chart_pick(chart, (ja, jb, jc, jr),
                                         (jr, jc, jb, ja)), s0, order)
        out.append(_chart_pick(chart, (s, one), (one, s)))
    return out


def _chart_pick(chart, u, v):
    """The members of u where chart is set and those of v elsewhere; u and
    v are tuples of jets or of numbers (arrays of them for a batch)."""
    if not isinstance(chart, np.ndarray):
        return u if chart else v
    if chart.all():
        return u
    if not chart.any():
        return v
    mask = chart[..., None, None]
    return tuple(Jet._raw(a.base, a.order, np.where(mask, a.c, b.c))
                 if isinstance(a, Jet) else np.where(chart, a, b)
                 for a, b in zip(u, v))


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
    those points and lam is an array.  label_ref: optional reference triple
    of projective pairs used to order the roots of a single point (path
    continuation); lam_target: preferred cube-root branch (per point).
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
