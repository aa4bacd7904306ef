"""Discriminant geometry and the catalog of singular normal forms.

Covers tracing of the discriminant curve D = 0 in a real window (marching
squares on one batched bisection of the grid edges), the six-entry catalog
of quasi-homogeneous normal forms (with the auxiliary F(t) ODE of the last
entry, solved by its own Taylor recursion), and the weights of a singular
germ's infinitesimal symmetry, read off the null vector of the linear
conditions L_X C = mu C and confirmed by the exact scaling flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .cubic import (CallableJetField, PolyCoeffField, SingularPointError,
                    TranslatedField, at_first, discriminant_of_coeffs,
                    discriminant_scale, nonvanishing)
from .jets import (Jet, JetError, PolyExpr, any_set, base_point,
                   compose_series, jet_pow, jet_tan)
from .webgeo import symmetry_residual


# ---------------------------------------------------------------------------
# Discriminant tracing


@dataclass
class DiscriminantTrace:
    curves: list          # list of (n, 2) float arrays

    @property
    def empty(self):
        return not self.curves

    def all_points(self):
        return np.vstack(self.curves) if self.curves else np.zeros((0, 2))


def _grid_seeds(field, xs, ys):
    """Re D on the grid xs x ys (one array lift), and the mask (n, n, 2) of
    the grid edges whose ends have Re D < 0 at one and Re D >= 0 at the
    other: the edge from (i, j) to (i + 1, j) at k = 0, to (i, j + 1) at
    k = 1.  A node on D = 0 thus has a side, and each cell 0, 2 or 4 edges.
    Raises SingularPointError naming the first node (row-major) where D is
    not finite (an overflowing field), where no side is defined."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        D = discriminant_of_coeffs(*np.moveaxis(field.coeffs(X, Y), -1, 0))
    bad = ~np.isfinite(D)
    if bad.any():
        x, y = at_first(bad, X, Y)
        raise SingularPointError(
            f"discriminant not finite at the grid node ({x}, {y})")
    Dg = D.real
    pos, change = Dg >= 0, np.zeros(Dg.shape + (2,), dtype=bool)
    change[:-1, :, 0] = pos[:-1] != pos[1:]
    change[:, :-1, 1] = pos[:, :-1] != pos[:, 1:]
    return Dg, change


TRACE_TOL = 1e-10  # scaled |D| at which an edge point is on the curve
EDGE_BISECTIONS = 60  # halvings of a grid edge before its point is dropped


def _bisect_edges(field, xs, ys, Dg, i, j, k):
    """A point on D = 0 on each edge (i, j, k): all edges are halved at once
    on the side of Re D (one array lift per halving) until every midpoint
    has scaled |D| <= TRACE_TOL, or EDGE_BISECTIONS times; NaN at the
    midpoints that are then still above it."""
    lo, hi = np.stack([xs[i], ys[j]]), np.stack([xs[i + 1 - k], ys[j + k]])
    pos_lo = Dg[i, j] >= 0
    for _ in range(EDGE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        co = field.coeffs(mid[0], mid[1])
        D = discriminant_of_coeffs(*np.moveaxis(co, -1, 0))
        on = np.abs(D) <= TRACE_TOL * discriminant_scale(co)
        if on.all():
            break
        up = (D.real >= 0) == pos_lo
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.where(on, mid, np.nan).T


def trace_discriminant(field, window, n=32):
    """Trace the zero set of the discriminant inside a window.

    Marching squares (Lorensen and Cline, SIGGRAPH 1987) on an n x n grid:
    each grid edge where Re D changes side of 0 is bisected to a point on
    D = 0, each cell joins the points on its sides, and the joins are
    walked into curves (free ends first, then closed loops), each point
    once, except that a closed loop repeats its first point at its end.
    An empty trace is a valid result; a grid node where D is not finite
    raises SingularPointError.
    """
    (x0, x1), (y0, y1) = window
    if n < 8:
        raise ValueError("grid size n must be >= 8")
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    Dg, change = _grid_seeds(field, xs, ys)
    pts = _bisect_edges(field, xs, ys, Dg, *np.nonzero(change))
    ok = ~np.isnan(pts[:, 0])
    ids, pts = np.full(change.shape, -1), pts[ok]
    ids[change] = np.where(ok, np.cumsum(ok) - 1, -1)
    # a cell's sides counterclockwise from the bottom; a saddle joins sides
    # 0, 1 and 2, 3 (cutting off corners (i + 1, j) and (i, j + 1)) where
    # its corner (i, j) is on the side of its mean, else sides 3, 0 and 1, 2
    sides = np.stack([ids[:-1, :-1, 0], ids[1:, :-1, 1], ids[:-1, 1:, 0],
                      ids[:-1, :-1, 1]], axis=-1).reshape(-1, 4)
    count = np.sum(sides >= 0, axis=1)
    mean = 0.25 * (Dg[:-1, :-1] + Dg[1:, :-1] + Dg[:-1, 1:] + Dg[1:, 1:])
    keep = ((Dg[:-1, :-1] >= 0) == (mean >= 0)).reshape(-1, 1)[count == 4]
    saddle = sides[count == 4]
    joins = np.concatenate([
        np.sort(sides[count == 2], axis=1)[:, 2:],
        np.where(keep, saddle, np.roll(saddle, 1, axis=1)).reshape(-1, 2)])
    nbr = [[] for _ in pts]
    for a, b in joins.tolist():
        nbr[a].append(b)
        nbr[b].append(a)
    seen, curves = set(), []
    for p in sorted(range(len(pts)), key=lambda p: len(nbr[p]) > 1):
        path = []
        while p not in seen:
            seen.add(p)
            path.append(p)
            p = next((q for q in nbr[p] if q not in seen), p)
        if len(path) > 2 and path[0] in nbr[path[-1]]:
            path.append(path[0])  # a closed loop ends where it began
        if path:
            curves.append(pts[path])
    return DiscriminantTrace(curves=curves)


# ---------------------------------------------------------------------------
# The auxiliary F(t) ODE


@dataclass
class FSolution:
    """F(t) as the piecewise polynomial of solve_F's Taylor steps: on
    [knots[i], knots[i+1]], F = sum_k coeffs[k, i] u^k in the piece's own
    variable u = (t - knots[i]) / (knots[i+1] - knots[i])."""

    m0: int
    t_max: float
    knots: np.ndarray      # (n + 1,) step ends, from 0 to t_max
    coeffs: np.ndarray     # (F_TAYLOR_ORDER + 1, n), coefficients first
    bracket_ok: bool       # quasi-linear factor stayed away from zero

    def __call__(self, t):
        """F at a float (a float) or at an array of t (an array)."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0,
                    self.coeffs.shape[1] - 1)
        lo = self.knots[i]
        out = _horner(self.coeffs[:, i], (t - lo) / (self.knots[i + 1] - lo))
        return float(out) if out.ndim == 0 else out


def _f_ode_constant(m0):
    return 2.0 * (m0 + 3) / (m0 + 1)


F_TAYLOR_ORDER = 24  # order of each Taylor step of the F(t) ODE
F_STEP_TOL = 1e-16  # first dropped term of a step, in units of F
F_BRACKET_MARGIN = 1e-6  # quasi-linear factor at which the F solve halts
F_DIFF_STEP = 1e-4  # relative step of the five-point difference of F


def _f_series(C, t0, F0, order, scale=1.0):
    """Taylor coefficients of s -> F(t0 + scale s) at 0, orders 0..order,
    by the float recursion of den F' = num: with p_k, d_k, n_k those of dF/ds,
    den = 12 + 2t^2 - 9tF and num = C(4 + 27F^2), p_k = (scale n_k -
    sum_{j=1..k} d_j p_{k-j}) / d_0.  The scale keeps the coefficients of a
    step near the bracket, a few float spacings long, in range."""
    g, d, p = [F0], [_f_factor(t0, F0)], []
    for k in range(order):
        n = 27.0 * sum(map(mul, g, reversed(g))) + (4.0 if k == 0 else 0.0)
        p.append((scale * C * n - sum(map(mul, d[1:], reversed(p)))) / d[0])
        g.append(p[-1] / (k + 1))
        d.append(-9.0 * (t0 * g[-1] + scale * g[-2])
                 + (4.0 * t0 * scale, 2.0 * scale * scale, 0.0)[min(k, 2)])
    return g


def _horner(coeffs, s):
    out = 0.0
    for c in reversed(coeffs):
        out = out * s + c
    return out


def _f_factor(t, F):
    return 12.0 + 2.0 * t * t - 9.0 * t * F


def solve_F(m0, t_max=1.0):
    """Solve [12 + 2t^2 - 9tF] F' = C (4 + 27 F^2), F(0) = 0, by Taylor steps.

    C = 2(m0+3)/(m0+1).  Each step has order F_TAYLOR_ORDER, the units of
    the one before, and the length the root test of its last two
    coefficients allows at F_STEP_TOL (Jorba and Zou, Exp. Math. 14, 2005).
    Halts with bracket_ok=False where the quasi-linear factor on a step's
    polynomial reaches F_BRACKET_MARGIN (bisecting in the step's own
    variable), or with bracket_ok=True at t_max; a step that falls to float
    spacing first raises FloatingPointError.
    """
    if m0 < 0 or not t_max > 0:
        raise ValueError("m0 must be >= 0 and t_max > 0")
    C, t_max, K = _f_ode_constant(m0), float(t_max), F_TAYLOR_ORDER
    t, F, scale, knots, table, halt = 0.0, 0.0, 1.0, [0.0], [], False
    while t < t_max and not halt:
        g = _f_series(C, t, F, K, scale)
        rho = min(abs(g[j]) ** (-1.0 / j) if g[j] else np.inf
                  for j in (K - 1, K))
        end = min(t + scale * rho * F_STEP_TOL ** (1.0 / K), t_max)
        if end == t:
            raise FloatingPointError(f"F(t) step at float spacing, t = {t!r}")
        s, lo = (end - t) / scale, 0.0
        halt = _f_factor(end, _horner(g, s)) <= F_BRACKET_MARGIN
        while halt and lo < (mid := 0.5 * (lo + s)) < s:
            if _f_factor(t + scale * mid, _horner(g, mid)) > F_BRACKET_MARGIN:
                lo = mid
            else:
                s, end = mid, t + scale * mid
        table.append([c * s ** k for k, c in enumerate(g)])
        F, scale, t = _horner(table[-1], 1.0), end - t, end
        knots.append(t)
    return FSolution(m0=int(m0), t_max=t, knots=np.array(knots),
                     coeffs=np.array(table).T, bracket_ok=not halt)


def f_ode_residual(fs, ts):
    """Relative residual of the implicit ODE at sample points.

    F' comes from a five-point difference of fs, evaluated at all stencil
    nodes in one call; since F' blows up at the quasi-linear degeneracy
    the residual is normalized by the magnitude of the terms it balances.
    """
    C = _f_ode_constant(fs.m0)
    t = np.asarray(ts, dtype=float)
    d = F_DIFF_STEP * (1 + np.abs(t))
    Fm2, Fm1, F, Fp1, Fp2 = fs(np.concatenate(
        [t - 2 * d, t - d, t, t + d, t + 2 * d])).reshape(5, -1)
    Fp = (Fm2 - 8 * Fm1 + 8 * Fp1 - Fp2) / (12 * d)
    lhs = (12 + 2 * t * t - 9 * t * F) * Fp
    res = lhs - C * (4 + 27 * F * F)
    return float(np.max(np.abs(res) / (1.0 + np.abs(lhs)), initial=0.0))


def _univariate_F_jet(fs, t0, order):
    """Taylor coefficients of F at each t0, by the ODE recursion."""
    return _f_series(_f_ode_constant(fs.m0), t0, fs(t0), order)


# ---------------------------------------------------------------------------
# Normal-form catalog


@dataclass
class NormalForm:
    """One catalog entry: a field generator plus its printed symmetry."""

    id: int
    m0: int
    weights: tuple         # (w1, w2) of the symmetry X = w1 x dx + w2 y dy
    field: object          # DirectionField
    fs: object = None      # form 6: the FSolution its field interpolates


def _field_from_AB(A, B):
    """Field of the slope cubic m^3 + A m + B with polynomial A, B."""
    # K-form (K3, K2, K1, K0) = (1, 0, A, B) -> (a, b, c, r) = (-1, 0, -A, B)
    return PolyCoeffField(-1 * PolyExpr.const(1), PolyExpr.zero(), -1 * A, B)


def _jet_field_from_AB(AB):
    """The jet twin of _field_from_AB: the field of m^3 + A m + B with
    (A, B) = AB(jx, jy, px, py), jx and jy the coordinate jets at (px, py)."""
    def kfun(px, py, order):
        base = base_point(px, py)
        A, B = AB(*(Jet.variable(i, base, order) for i in (0, 1)), px, py)
        one = Jet.constant(1.0, base, order)
        return (-one, Jet.constant(0.0, base, order), -A, B)

    return CallableJetField(kfun)


def normal_form_field(form_id, m0=0):
    """Catalog entry ``form_id`` in {1..6}; m0 parametrizes forms 1 and 6.

    Forms 1-4 are polynomial; form 5 uses tan jets; form 6 needs Re y > 0
    (principal fractional powers) and solves the F(t) ODE on [0, 8].
    """
    x, y = PolyExpr.var(0), PolyExpr.var(1)
    if form_id in (1, 6) and (int(m0) != m0 or m0 < 0):
        raise ValueError("m0 must be a nonnegative integer")
    m0 = int(m0)
    if form_id == 1:
        # y^m0 m^3 - m = 0: K = (y^m0, 0, -1, 0) -> field (-y^m0, 0, 1, 0)
        ym = PolyExpr.from_dict({(0, m0): 1})
        field = PolyCoeffField(-1 * ym, PolyExpr.zero(), PolyExpr.const(1),
                               PolyExpr.zero())
        return NormalForm(id=1, m0=m0, weights=(2 + m0, 2), field=field)
    if form_id == 2:
        return NormalForm(id=2, m0=0, weights=(2, 3),
                          field=_field_from_AB(2 * x, y))
    if form_id == 3:
        A = y - x * x * Fraction(2, 3)
        B = x * x * x * Fraction(4, 27) - x * y * Fraction(2, 3)
        return NormalForm(id=3, m0=0, weights=(1, 2),
                          field=_field_from_AB(A, B))
    if form_id == 4:
        x3 = x * x * x
        A = 4 * x * (y - x3 * Fraction(4, 9))
        B = y * y + x3 * x3 * Fraction(64, 81) - y * x3 * Fraction(32, 9)
        return NormalForm(id=4, m0=0, weights=(1, 3),
                          field=_field_from_AB(A, B))
    if form_id == 5:
        c_tan = 2.0 / np.sqrt(27.0)
        w_arg = 2.0 * np.sqrt(3.0)

        def AB(jx, jy, px, py):
            return jy * jy, -c_tan * (jy ** 3) * jet_tan(w_arg * jx)

        return NormalForm(id=5, m0=0, weights=(0, 1),
                          field=_jet_field_from_AB(AB))
    if form_id == 6:
        fs = solve_F(m0, t_max=8.0)

        def AB(jx, jy, px, py):
            t_arg = (m0 + 1) * jx * jet_pow(jy, Fraction(1 + m0, 2))
            t0 = t_arg.value.real
            bad = (jy.value.real <= 0) | ~((0 <= t0) & (t0 <= fs.t_max))
            if any_set(bad):  # fractional powers need Re y > 0
                x, y = at_first(bad, px, py)
                raise JetError(f"form 6 needs Re y > 0 and F sampled in [0, "
                               f"{fs.t_max}]: not at ({x}, {y})")
            Fj = compose_series(_univariate_F_jet(fs, t0, jx.order), t_arg)
            return jy ** (3 + m0), -jet_pow(jy, Fraction(9 + 3 * m0, 2)) * Fj

        return NormalForm(id=6, m0=m0, weights=(1 + m0, -2),
                          field=_jet_field_from_AB(AB), fs=fs)
    raise ValueError(f"unknown normal form id {form_id!r}")


def symmetry_losing_web():
    """A flat cubic web that is quasi-homogeneous nowhere near the origin.

    Slope form: dy^3 - 2 x^2 y (1 + x^2) dy dx^2 + 8 x^3 y^2 dx^3 = 0.
    Its connection is closed at regular points, yet no diagonal scaling
    flow preserves it at the origin.
    """
    x, y = PolyExpr.var(0), PolyExpr.var(1)
    K3 = PolyExpr.const(1)
    K1 = -2 * x * x * y * (PolyExpr.const(1) + x * x)
    K0 = 8 * x * x * x * y * y
    return PolyCoeffField(-1 * K3, PolyExpr.zero(), -1 * K1, K0)


# ---------------------------------------------------------------------------
# Weight detection / classification


_CATALOG_WEIGHTS = {(2, 3): 2, (1, 2): 3, (1, 3): 4}


@dataclass
class Classification:
    weights: tuple         # (w1, w2) or None
    matched_id: object     # catalog id, or None
    residual: float
    status: str            # matched | weights-only | unclassified


CLASSIFY_FLOW_TIME = 0.08  # flow time of the confirming scaling flow
CLASSIFY_RESIDUAL_TOL = 1e-6  # largest residual of a detected symmetry
CLASSIFY_MAX_WEIGHT = 12  # largest denominator of the weight ratio


def classify_singularity(field, point=(0.0, 0.0), samples=None):
    """Detect diagonal quasi-homogeneity weights of a singular germ.

    X = w1 x dx + w2 y dy about the point is a symmetry when L_X C = mu C:
    at sample k the coefficient f of dx^i dy^j in C = a dy^3 + b dy^2 dx +
    c dy dx^2 + r dx^3 gives w1 (x f_x + i f) + w2 (y f_y + j f) = mu_k f,
    free of the form's sign convention.  The least right singular vector
    of these rows gives w1 : w2 (denominator <= CLASSIFY_MAX_WEIGHT, first
    nonzero weight positive), confirmed by the exact flow's symmetry
    residual.  Raises JetError for a sample outside the germ's domain and
    DegenerateFieldError for a vanishing cubic.
    """
    x0, y0 = point
    f = field if (x0 == 0 and y0 == 0) else TranslatedField(field, x0, y0)
    if samples is None:
        samples = [(0.31, 0.22), (-0.24, 0.18), (0.12, -0.27), (0.27, 0.33)]
    x, y = np.array(samples, dtype=float).T
    n, i, k = len(x), np.arange(4), np.arange(len(x))
    c = np.stack([j.c for j in f.coeff_jets(x, y, 1)], axis=-1)  # 2, 2, n, 4
    co = nonvanishing(c[0, 0], x, y)
    rows = np.zeros((n, 4, 2 + n), dtype=complex)
    rows[:, :, 0] = x[:, None] * c[1, 0] + i * co
    rows[:, :, 1] = y[:, None] * c[0, 1] + (3 - i) * co
    rows[k, :, 2 + k] = -co
    v = np.linalg.svd(rows.reshape(4 * n, 2 + n))[2][-1, :2]
    small, large = (0, 1) if abs(v[0]) <= abs(v[1]) else (1, 0)
    q = Fraction(float((v[small] / v[large]).real))
    q = q.limit_denominator(CLASSIFY_MAX_WEIGHT)
    w = [0, 0]
    w[small], w[large] = q.numerator, q.denominator
    weights = (-w[0], -w[1]) if w[0] < 0 else tuple(w)
    res = symmetry_residual(f, weights, samples, a=CLASSIFY_FLOW_TIME)
    if res > CLASSIFY_RESIDUAL_TOL:
        return Classification(weights=None, matched_id=None,
                              residual=float(res), status="unclassified")
    matched = _CATALOG_WEIGHTS.get(weights)
    status = "matched" if matched is not None else "weights-only"
    return Classification(weights=weights, matched_id=matched,
                          residual=float(res), status=status)
