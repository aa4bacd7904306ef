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

from .jets import Jet, jet_cbrt

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
    """The coefficients co of a field at (x, y), unless all of them vanish."""
    if np.max(np.abs(co)) <= COEF_VANISH_TOL:
        raise DegenerateFieldError(
            f"all cubic coefficients vanish at ({x}, {y})")
    return co


class PolyCoeffField(DirectionField):
    """Field with polynomial coefficient functions."""

    def __init__(self, a, b, c, r):
        self.abcr = (a, b, c, r)

    def coeff_jets(self, x, y, order):
        return tuple(p.jet((x, y), order) for p in self.abcr)

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
        return tuple(Jet((x, y), order, j.c.copy()) for j in jets)


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
    """Scale-aware reference magnitude for |D| cutoffs (D is quartic)."""
    return (1.0 + float(np.max(np.abs(coeffs)))) ** 4


def regular_cutoff(coeffs):
    return 1e-12 * discriminant_scale(coeffs)


def roots_proj(coeffs):
    """Three projective roots [p_i : q_i] of C(p, q) = 0.

    Each root is returned as a complex pair normalized to unit max component.
    Solved on the affine chart with the better-conditioned leading
    coefficient (companion matrix via numpy.roots).
    """
    a, b, c, r = (complex(v) for v in coeffs)
    scale = max(abs(a), abs(b), abs(c), abs(r))
    if scale == 0:
        raise DegenerateFieldError("all cubic coefficients are zero")
    a, b, c, r = a / scale, b / scale, c / scale, r / scale
    if abs(a) >= abs(r):
        # chart q = 1, slope s = p/q: a s^3 + b s^2 + c s + r = 0
        if abs(a) < 1e-14:
            raise DegenerateFieldError("cubic degenerate in both charts")
        out = [_unitize((s, 1.0)) for s in np.roots([a, b, c, r])]
    else:
        # chart p = 1, v = q/p: r v^3 + c v^2 + b v + a = 0
        out = [_unitize((1.0, v)) for v in np.roots([r, c, b, a])]
    return sorted(out, key=_root_sort_key)


def _root_sort_key(pq):
    """Fixed labeling rule: finite slopes first, lexicographic in (Re, Im)."""
    p, q = pq
    if abs(q) >= 1e-12 * abs(p):
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


def _root_jets(coeff_jets, x, y, order, root_values):
    """root_jets from the field's coefficient jets at (x, y)."""
    ja, jb, jc, jr = coeff_jets
    vals = root_values if root_values is not None else roots_proj(
        [ja.value, jb.value, jc.value, jr.value])
    seps = [proj_distance(u, v) for u, v in itertools.combinations(vals, 2)]
    sep = min(seps)
    if sep < 1e-8:
        raise SingularPointError(
            f"repeated root at ({x}, {y}), separation {sep:.2e}",
            multiplicity=3 if max(seps) < 1e-8 else 2)
    out = []
    one = Jet.constant(1.0, (x, y), order)
    for p0, q0 in vals:
        if abs(q0) >= abs(p0):
            s = _newton_root_jet([ja, jb, jc, jr], p0 / q0, order)
            out.append((s, one))
        else:
            v = _newton_root_jet([jr, jc, jb, ja], q0 / p0, order)
            out.append((one, v))
    return out


def _newton_root_jet(coeff_jets, s0, order):
    """Jet of a simple root of c3 s^3 + c2 s^2 + c1 s + c0 (jets c_i)."""
    c3, c2, c1, c0 = coeff_jets
    base = c3.base
    s = Jet.constant(s0, base, order)
    dP0 = 3 * c3.value * s0**2 + 2 * c2.value * s0 + c1.value
    if abs(dP0) < 1e-13 * (1 + max(abs(c.value) for c in coeff_jets)):
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

    label_ref: optional reference triple of projective pairs used to order
    the roots (path continuation); lam_target: preferred cube-root branch.
    """
    x, y = point
    jets = field.coeff_jets(x, y, order)
    vals = roots_proj(nonvanishing(np.array([j.value for j in jets]), x, y))
    if label_ref is not None:
        vals, _ = match_roots(label_ref, vals)
    (p1, q1), (p2, q2), (p3, q3) = _root_jets(jets, x, y, order, vals)
    # kernel of the 2x3 matrix [sigma_1 sigma_2 sigma_3] via cross products
    t1 = p2 * q3 - p3 * q2
    t2 = p3 * q1 - p1 * q3
    t3 = p1 * q2 - p2 * q1
    sp = [(t1 * p1, t1 * q1), (t2 * p2, t2 * q2), (t3 * p3, t3 * q3)]
    hats = _product_coeffs(sp)
    k = int(np.argmax([abs(h.value) for h in hats]))
    lam3 = jets[k] * hats[k].reciprocal()
    lam = jet_cbrt(lam3, target=lam_target)
    sigma = [(lam * P, lam * Q) for P, Q in sp]
    return RootTriple(point=(complex(x), complex(y)), sigma=sigma,
                      lam=lam.value)


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
    ja, jb, jc, jr = field.coeff_jets(x, y, order)
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
