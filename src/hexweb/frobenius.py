"""WDVV potentials and the Frobenius-algebra structure they induce.

A potential is a scalar f(x, y) entering one of two normal forms of the
full potential F(t, x, y):

    case A:  F = t^2 y / 2 + t x^2 / 2 + f(x, y)
    case B:  F = t^3 / 6 + t x y + f(x, y)

Each case carries its own associativity equation, multiplication table,
and flat metric.  This module computes multiplication tables, idempotents,
Euler weights, canonical eigenvalues, booklet web directions on t-slices,
and Taylor-series solutions of the associativity equations; the algebra
routes take a point or arrays of points, with fixed-element idempotents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cubic import (PolyCoeffField, at_first, characteristic_coeffs_from_f3,
                    continue_along, match_roots, nonvanishing, roots_proj)
from .jets import (Jet, PolyExpr, any_set, base_point, jet_to_polyexpr,
                   lift)


class NonSemisimpleError(ValueError):
    """Multiplication operator has (numerically) coinciding eigenvalues."""


class NotQuasiHomogeneousError(ValueError):
    """No weight assignment makes every monomial of F the same degree."""


# ---------------------------------------------------------------------------
# Potentials


def _as_two_var(p):
    """Coerce a PolyExpr in x alone into the (x, y) arity."""
    if not p.terms or p.nvars == 2:
        return p
    if p.nvars == 1:
        return PolyExpr(tuple(((e[0], 0), c) for e, c in p.terms))
    raise ValueError("expected a polynomial in x or in (x, y)")


@dataclass
class Potential:
    """A solution candidate f(x, y) of one of the associativity equations.

    ``case`` selects the normal form of the full potential (see module
    docstring); f is a polynomial with rational or complex coefficients
    (series solutions arrive here as truncated polynomials).
    """

    case: str
    f: PolyExpr

    def __post_init__(self):
        if self.case not in ("A", "B"):
            raise ValueError(f"unknown case {self.case!r}")
        self.f = _as_two_var(self.f)
        self._f3_lift_tables = {}  # of the group f3.values(), for jets.lift

    # -- third derivatives of f, cached as polynomials -------------------

    @cached_property
    def f3(self):
        """Dict of the four third partials fxxx, fxxy, fxyy, fyyy."""
        fx = self.f.diff(0)
        fxx, fxy, fyy = fx.diff(0), fx.diff(1), self.f.diff(1).diff(1)
        return {"xxx": fxx.diff(0), "xxy": fxx.diff(1), "xyy": fxy.diff(1),
                "yyy": fyy.diff(1)}

    @cached_property
    def residual_poly(self):
        """The associativity equation's left-hand side as a polynomial."""
        d = self.f3
        if self.case == "A":
            return d["yyy"] - d["xxy"] * d["xxy"] + d["xxx"] * d["xyy"]
        return d["xxx"] * d["yyy"] - d["xxy"] * d["xyy"] - 1

    def associativity_residual(self, x, y):
        """The equation's left-hand side, at a point or per point."""
        return self.residual_poly(x, y)

    @cached_property
    def euler(self):
        """euler_data of the potential, solved once."""
        return euler_data(self)

    def characteristic_field(self):
        """Cubic direction field of the characteristic curves of f (built
        once, as f3 is)."""
        return self._characteristic_field

    @cached_property
    def _characteristic_field(self):
        return PolyCoeffField(*characteristic_coeffs_from_f3(
            self.case, *self.f3.values(), PolyExpr.const(1)))

    def full_potential(self):
        """F(t, x, y) as a 3-variable polynomial (t = axis 0)."""
        t = PolyExpr.var(0, 3)
        x = PolyExpr.var(1, 3)
        y = PolyExpr.var(2, 3)
        f3v = PolyExpr(tuple(((0, e[0], e[1]), c) for e, c in self.f.terms))
        if self.case == "A":
            head = t * t * y * Fraction(1, 2) + t * x * x * Fraction(1, 2)
        else:
            head = t * t * t * Fraction(1, 6) + t * x * y
        return head + f3v

    def eta(self):
        """Flat metric eta_{ab} = F_{t t^a t^b} in the (t, x, y) basis."""
        if self.case == "A":
            return np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        return np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def solution_potential(case):
    """The simplest polynomial solution of each associativity equation.

    Case A: f = x^2 y^2 / 4 + y^5 / 60; case B: f = x^3 / 6 + y^3 / 6.
    Both solve their equation identically (exact rational arithmetic).
    """
    if case == "A":
        f = PolyExpr.from_dict({(2, 2): Fraction(1, 4),
                                (0, 5): Fraction(1, 60)})
    elif case == "B":
        f = PolyExpr.from_dict({(3, 0): Fraction(1, 6),
                                (0, 3): Fraction(1, 6)})
    else:
        raise ValueError(f"unknown case {case!r}")
    return Potential(case=case, f=f)


# ---------------------------------------------------------------------------
# Algebra structure at a point


@dataclass
class FrobeniusPoint:
    """Structure constants of the tangent algebra at a point or points.

    ``c[..., al, be]`` is the product vector of basis vectors al and be in
    the (dt, dx, dy) basis, the points' shape in front; unity is e = dt.
    """

    point: tuple
    case: str
    c: np.ndarray
    eta: np.ndarray

    e = (1.0, 0.0, 0.0)


# c[al, be, ga] of each case, as an index into (fxxx, fxxy, fxyy, fyyy, 0, 1)
TABLE_INDEX = {
    "A": np.array([[[5, 4, 4], [4, 5, 4], [4, 4, 5]],
                   [[4, 5, 4], [1, 0, 5], [2, 1, 4]],
                   [[4, 4, 5], [2, 1, 4], [3, 2, 4]]]),
    "B": np.array([[[5, 4, 4], [4, 5, 4], [4, 4, 5]],
                   [[4, 5, 4], [4, 1, 0], [5, 2, 1]],
                   [[4, 4, 5], [5, 2, 1], [4, 3, 2]]]),
}
# the flat positions (of 27) in a table that hold fxxx, fxxy, fxyy, fyyy
F3_AT = {case: [index.ravel().tolist().index(k) for k in range(4)]
         for case, index in TABLE_INDEX.items()}


def multiplication_table(pot, point):
    """Structure constants at a point (t, x, y), or at arrays of points,
    from one order-0 lift of the third partials (c does not depend on t)."""
    f3 = lift(tuple(pot.f3.values()), base_point(point[1], point[2]), 0,
              pot._f3_lift_tables)
    values = np.zeros(np.broadcast(*point).shape + (6,), dtype=complex)
    values[..., :4] = np.moveaxis(f3, 0, -1)  # fxxx, fxxy, fxyy, fyyy, 0, 1
    values[..., 5] = 1.0
    return FrobeniusPoint(point=tuple(point), case=pot.case,
                          c=values[..., TABLE_INDEX[pot.case]], eta=pot.eta())


def mult_operator(w, fp):
    """Matrix of v -> w . v in the (dt, dx, dy) basis, w (..., 3) and the
    table broadcast; elementwise, so a point rounds as in any batch."""
    w, c = np.asarray(w, dtype=complex), fp.c
    w = w.reshape(w.shape + (1, 1))
    M = (w[..., 0, :, :] * c[..., 0, :, :] + w[..., 1, :, :] * c[..., 1, :, :]
         + w[..., 2, :, :] * c[..., 2, :, :])
    return np.swapaxes(M, -1, -2)


def multiply(u, v, fp):
    """Bilinear product of tangent vectors (..., 3), as mult_operator."""
    M = mult_operator(u, fp)
    v = np.asarray(v, dtype=complex)[..., None]
    return (M[..., 0] * v[..., 0, :] + M[..., 1] * v[..., 1, :]
            + M[..., 2] * v[..., 2, :])


SPLIT_TOL = 1e-8  # relative eigenvalue gap (and |kappa|) at which w fails
SPLIT_C1 = 0.5 + 0.3j  # w = (0, 1, SPLIT_C1) splits the algebra at a point
SPLIT_C2 = -0.3 + 0.8j  # w = (0, 1, SPLIT_C2) for the points where it fails
IDEMPOTENT_TOL = 1e-7  # relative residual of e * e = e
PARTITION_TOL = 1e-6  # relative residual of e1 + e2 + e3 = 1


def idempotents(fp):
    """The idempotents e_i (e_i . e_j = delta_ij e_i, sum = e), in eig's
    order: (3, 3) at a point, e_i = [i], or (..., 3, 3) at arrays of points.

    Multiplication by a generic element w of a semisimple algebra has
    simple spectrum; its eigenvectors u are the e_i up to scale, u . u =
    kappa u.  One stacked eig takes w = (0, 1, SPLIT_C1); points where the
    gap, kappa, e . e = e or sum = e check fails are redone with (0, 1,
    SPLIT_C2), and NonSemisimpleError names the first that fails both.
    """
    shape = fp.c.shape[:-3]
    c = fp.c.reshape(-1, 1, 3, 3, 3)  # a table per eigenvector
    e, gap = np.empty((len(c), 3, 3), dtype=complex), np.empty(len(c))
    todo = np.ones(len(c), dtype=bool)
    for z in (SPLIT_C1, SPLIT_C2):  # w = (0, 1, z)
        rows = FrobeniusPoint(fp.point, fp.case, c[todo], fp.eta)
        vals, vecs = np.linalg.eig(mult_operator((0.0, 1.0, z), rows)[:, 0])
        g = (np.abs(vals[:, [0, 0, 1]] - vals[:, [1, 2, 2]]).min(axis=-1)
             / (1.0 + np.abs(vals).max(axis=-1)))
        u = np.swapaxes(vecs, -1, -2)  # u[:, k]: the k-th eigenvector
        uu = multiply(u, u, rows)
        at = (np.arange(len(u))[:, None], range(3), np.abs(u).argmax(axis=-1))
        kappa = (uu[at] / u[at])[..., None]  # at each u's largest component
        ok = (g > SPLIT_TOL) & (abs(kappa) > SPLIT_TOL).all(axis=(-1, -2))
        kappa[~ok] = 1.0
        ei = u / kappa
        size = np.abs(ei).max(axis=-1)
        ok &= (np.abs(uu / kappa ** 2 - ei).max(axis=-1)  # e . e - e
               <= IDEMPOTENT_TOL * (1.0 + size ** 2)).all(axis=-1)
        ok &= (np.abs(ei.sum(axis=1) - fp.e).max(axis=-1)
               <= PARTITION_TOL * (1.0 + size.max(axis=-1)))
        e[todo], gap[todo] = ei, g
        todo[todo] = ~ok
        if not todo.any():
            return e.reshape(shape + (3, 3))
    t, x, y, gap = at_first(todo.reshape(shape), *fp.point, gap.reshape(shape))
    raise NonSemisimpleError(f"algebra not semisimple at ({t}, {x}, {y}): "
                             f"relative eigenvalue gap {gap:.2e}")


# ---------------------------------------------------------------------------
# Euler data and canonical eigenvalues


@dataclass
class EulerData:
    """Quasi-homogeneity weights (w_t, w_x, w_y, w_F), normalized w_t = 1.

    The Euler field is E = w_t t dt + w_x x dx + w_y y dy and every
    monomial of the full potential F has weighted degree w_F.
    """

    weights: tuple

    def euler_vector(self, point):
        t, x, y = point
        w_t, w_x, w_y, _ = self.weights
        return np.array([w_t * t, w_x * x, w_y * y], dtype=complex)


def euler_data(pot):
    """Solve the linear weight system over the monomials of F."""
    F = pot.full_potential()
    exps = [e for e, _ in F.terms]  # never empty: F holds its head terms
    # unknowns (w_x, w_y, w_F) with w_t = 1:  jx wx + jy wy - wF = -jt
    A = np.array([[jx, jy, -1.0] for (jt, jx, jy) in exps])
    b = np.array([-float(jt) for (jt, jx, jy) in exps])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    weights = (Fraction(1),
               Fraction(sol[0]).limit_denominator(64),
               Fraction(sol[1]).limit_denominator(64),
               Fraction(sol[2]).limit_denominator(64))
    for (jt, jx, jy) in exps:
        if jt * weights[0] + jx * weights[1] + jy * weights[2] != weights[3]:
            raise NotQuasiHomogeneousError(
                f"monomial {(jt, jx, jy)} breaks the weight system")
    return EulerData(weights=weights)


@dataclass
class CanonicalValues:
    """Eigen-data of multiplication by the Euler field at a point."""

    lambdas: tuple
    semisimple: bool


SEMISIMPLE_GAP_TOL = 1e-8  # least relative eigenvalue gap of v -> E . v


def mu_E(pot, point):
    """Eigenvalues of v -> E . v, sorted lexicographically in (Re, Im), for
    the Euler data pot.euler."""
    fp = multiplication_table(pot, point)
    vals = np.linalg.eigvals(mult_operator(pot.euler.euler_vector(point), fp))
    vals = sorted(vals, key=lambda z: (round(z.real, 10), round(z.imag, 10)))
    gap = min(abs(vals[i] - vals[j])
              for i, j in itertools.combinations(range(3), 2))
    semisimple = gap > SEMISIMPLE_GAP_TOL * (1.0 + max(abs(v) for v in vals))
    return CanonicalValues(lambdas=tuple(vals), semisimple=semisimple)


# ---------------------------------------------------------------------------
# Booklet webs on t-slices


def booklet_directions(pot, slice_point, rng=None, table=None):
    """Projective directions [X : Y] of the idempotents on the t-slices,
    which all carry the same web: three (X, Y) pairs (3, 2) at a point,
    (..., 3, 2) at arrays of points.

    Each idempotent N = T dt + X dx + Y dy is projected along e = dt to
    the slice tangent plane; the web leaf through the point runs in the
    direction (X, Y), scaled to unit max component.  ``rng`` is accepted
    and ignored; it is kept only for callers outside src/.
    """
    x, y = slice_point
    fp = table if table is not None else multiplication_table(pot, (0.0, x, y))
    XY = idempotents(fp)[..., 1:]
    m = np.abs(XY).max(axis=-1, keepdims=True)
    bad = (m == 0).any(axis=(-1, -2))
    if any_set(bad):
        x, y = at_first(bad, x, y)
        raise NonSemisimpleError(f"idempotent parallel to unity at ({x}, {y})")
    return XY / m


def theorem2_residual(pot, point, rng=None):
    """Mismatch between booklet directions and characteristic leaf directions.

    Returns the max projective distance between the idempotent slice
    directions and the leaf directions of the characteristic cubic at the
    same (x, y), paired by match_roots: a float at a point (t, x, y), an
    array at arrays of points.  ``rng`` is accepted and ignored; it is kept
    only for callers outside src/.
    """
    t0, x, y = (v.ravel() for v in np.broadcast_arrays(*point))
    fp = multiplication_table(pot, (t0, x, y))
    dirs = booklet_directions(pot, (x, y), table=fp)
    # the characteristic field's coefficients, from the table's f3 values
    f3 = fp.c.reshape(-1, 27)[:, F3_AT[pot.case]].T
    co = np.stack(characteristic_coeffs_from_f3(
        pot.case, *f3, np.ones_like(f3[0])), axis=-1)
    pq = roots_proj(nonvanishing(co, x, y))  # leaf direction (q, -p)
    _, d = match_roots(dirs, np.stack([pq[..., 1], -pq[..., 0]], axis=-1))
    res = d.max(axis=-1).reshape(np.broadcast(*point).shape)
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# Series solutions of the associativity equations


FXXX_VANISH_TOL = 1e-12  # |f_xxx| at the base at which case B fails


def taylor_solve(case, data, order=8, x0=0.0):
    """Solve the associativity equation as a y-evolution from slice data.

    ``data`` are three polynomials in x giving f(., 0), f_y(., 0) and
    f_yy(., 0); the returned Potential's f is the unique Taylor polynomial
    of total order <= order matching the data and satisfying the equation
    to order (order - 3) at (x0, 0).  Case B requires f_xxx nonzero at the
    base point (the equation solves for f_yyy through division by f_xxx).
    """
    if case not in ("A", "B"):
        raise ValueError(f"unknown case {case!r}")
    base = (complex(x0), 0.0)
    g = [_as_two_var(p).jet(base, order) for p in data]
    U = np.zeros((order + 1, order + 1), dtype=complex)
    for k, fac in ((0, 1.0), (1, 1.0), (2, 0.5)):
        for j in range(order + 1 - k):
            U[j, k] = g[k].c[j, 0] * fac
    if case == "B" and abs(6.0 * U[3, 0]) < FXXX_VANISH_TOL:
        raise ValueError("f_xxx vanishes at the base point (case B)")
    one = Jet.constant(1.0, base, order - 3)
    for k in range(order - 2):
        f = Jet(base, order, U.copy())
        fxx = f.deriv(0).deriv(0)
        fxxx = fxx.deriv(0)
        fxxy = fxx.deriv(1)
        fxyy = f.deriv(0).deriv(1).deriv(1)
        if case == "A":
            R = fxxy * fxxy - fxxx * fxyy
        else:
            R = (one + fxxy * fxyy) * fxxx.reciprocal()
        fac = (k + 1) * (k + 2) * (k + 3)
        for j in range(order - 2 - k):
            U[j, k + 3] = R.c[j, k] / fac
    return Potential(case=case, f=jet_to_polyexpr(Jet(base, order, U)))


# ---------------------------------------------------------------------------
# Idempotent-coordinate parallel transport on a t-slice


def frobenius_transport(pot, curve, v, rng=None):
    """Transport a slice tangent vector by freezing idempotent coordinates.

    The curve lies on the slice t = 0: the unity e = dt is flat, so every
    slice has the same multiplication table.  The vector (vx, vy) at the
    start of the curve is lifted to the 3-fold tangent space as (0, vx,
    vy), expanded in the idempotent basis there; the coordinates are held
    constant along the curve, and the resulting vector at the end point is
    projected back to the slice along e = dt.
    continue_along carries the idempotents along the curve, labelled by
    their slice directions (X, Y), which are the leaf directions of the
    characteristic web (Theorem 2).  ``rng`` is accepted and ignored; it is
    kept only for callers outside src/.
    """
    _, frames = continue_along(curve, lambda x, y: np.roll(  # (X, Y, T)
        idempotents(multiplication_table(pot, (0.0, x, y))), -1, axis=-1))
    start, end = (np.column_stack(np.roll(frames[k], 1, axis=-1))
                  for k in (0, -1))
    eta = np.linalg.solve(start, np.array([0.0, v[0], v[1]], dtype=complex))
    w = end @ eta
    return (w[1], w[2])
