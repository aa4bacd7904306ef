"""Discriminant geometry and the catalog of singular normal forms.

Covers tracing of the discriminant curve |D| = 0 in a real window,
classification of root multiplicity at a point, the six-entry catalog of
quasi-homogeneous normal forms (with the auxiliary F(t) ODE of the last
entry), and the weights of a singular germ's infinitesimal symmetry, read
off the null vector of the linear conditions L_X C = mu C and confirmed
by the exact scaling flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .cubic import (CallableJetField, PolyCoeffField, TranslatedField,
                    depress, discriminant_of_coeffs, discriminant_scale,
                    nonvanishing)
from .jets import Jet, JetError, PolyExpr, compose_series, jet_pow, jet_tan
from .webgeo import symmetry_residual


# ---------------------------------------------------------------------------
# Discriminant tracing


@dataclass
class DiscriminantTrace:
    curves: list          # list of (n, 2) float arrays
    window: tuple         # ((xmin, xmax), (ymin, ymax))

    @property
    def empty(self):
        return not self.curves

    def all_points(self):
        if self.empty:
            return np.zeros((0, 2))
        return np.vstack(self.curves)


def _disc_and_grad(field, x, y):
    """D, grad D (chain rule through a, b, c, r) and |D|'s scale at (x, y)."""
    jets = np.array([j.c for j in field.coeff_jets(x, y, 1)])
    a, b, c, r = co = jets[:, 0, 0]
    dD = np.array([18 * b * c * r - 54 * a * r * r - 4 * c ** 3,
                   18 * a * c * r + 2 * b * c * c - 12 * b * b * r,
                   18 * a * b * r - 12 * a * c * c + 2 * b * b * c,
                   18 * a * b * c - 54 * a * a * r - 4 * b ** 3])
    return (discriminant_of_coeffs(*co), dD @ jets[:, [1, 0], [0, 1]],
            discriminant_scale(co))


def _grid_seeds(field, xs, ys):
    """Re D on the grid xs x ys (one array lift), and the midpoints of the
    grid edges where it changes sign or vanishes (row-major, x edge first)."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Dg = discriminant_of_coeffs(
        *(j.value for j in field.coeff_jets(X, Y, 0))).real
    change = np.zeros(Dg.shape + (2,), dtype=bool)
    change[:-1, :, 0] = Dg[:-1] * Dg[1:] <= 0
    change[:, :-1, 1] = Dg[:, :-1] * Dg[:, 1:] <= 0
    return Dg, [(0.5 * (xs[i] + xs[i + 1]), ys[j]) if k == 0 else
                (xs[i], 0.5 * (ys[j] + ys[j + 1]))
                for i, j, k in zip(*np.nonzero(change))]


TRACE_TOL = 1e-10  # scaled |D| at which a polished point is on the curve
TRACE_SLACK = 0.02  # margin around the window, as a share of its sides
POLISH_GRAD_FLOOR = 1e-28  # |grad D|^2 at which Newton polishing gives up
TRACE_GRAD_FLOOR = 1e-12  # |grad D| at which tracing stops (a cusp, say)


def _newton_polish(field, pt, iters=60):
    z = np.array(pt, dtype=float)
    for _ in range(iters):
        D, g, scale = _disc_and_grad(field, z[0], z[1])
        if abs(D) <= TRACE_TOL * scale:
            return z, True
        g = g.real
        gg = float(g @ g)
        if gg < POLISH_GRAD_FLOOR:
            return z, False
        step = -D.real / gg * g
        if np.linalg.norm(step) > 1.0:
            step = step / np.linalg.norm(step)
        z = z + step
    D, _, scale = _disc_and_grad(field, z[0], z[1])
    return z, abs(D) <= TRACE_TOL * scale


def trace_discriminant(field, window, n=32):
    """Trace the zero set of the discriminant inside a window.

    Sign changes of D on an n x n grid (one array lift) seed a Newton
    polish on D and its closed-form gradient; each polished seed is
    continued in both directions along the tangent (perpendicular to grad
    D) with a predictor-corrector loop of at most 20 n steps.  An empty
    trace is a valid result.
    """
    (x0, x1), (y0, y1) = window
    if n < 8:
        raise ValueError("grid size n must be >= 8")
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    _, raw = _grid_seeds(field, xs, ys)
    h = max(x1 - x0, y1 - y0) / (2.0 * n)
    curves = []

    def near_existing(pt):
        for c in curves:
            d = c - pt
            if np.min(np.einsum("ij,ij->i", d, d)) < (2 * h) ** 2:
                return True
        return False

    def in_window(pt):
        sx = TRACE_SLACK * (x1 - x0)
        sy = TRACE_SLACK * (y1 - y0)
        return (x0 - sx <= pt[0] <= x1 + sx) and (y0 - sy <= pt[1] <= y1 + sy)

    for seed in raw:
        z, ok = _newton_polish(field, seed)
        if not ok or not in_window(z) or near_existing(z):
            continue
        halves = []
        for direction in (1.0, -1.0):
            pts = [z.copy()]
            prev_t = None
            for _ in range(20 * n):
                cur = pts[-1]
                _, g, _ = _disc_and_grad(field, cur[0], cur[1])
                g = g.real
                ng = np.linalg.norm(g)
                if ng < TRACE_GRAD_FLOOR:
                    break  # singular point of the curve (e.g. a cusp)
                t = np.array([-g[1], g[0]]) / ng
                if prev_t is None:
                    t = direction * t
                elif np.dot(t, prev_t) < 0:
                    t = -t
                cand, ok = _newton_polish(field, cur + h * t, iters=20)
                if not ok or not in_window(cand):
                    break
                if np.linalg.norm(cand - cur) < 0.01 * h:
                    break
                pts.append(cand)
                prev_t = t
                if len(pts) > 5 and np.linalg.norm(cand - z) < 0.5 * h:
                    break  # closed loop
            halves.append(pts)
        curves.append(np.array(halves[1][::-1] + halves[0][1:]))
    return DiscriminantTrace(curves=curves, window=window)


# ---------------------------------------------------------------------------
# Root multiplicity


MULTIPLE_ROOT_TOL = 1e-8  # scaled |D| at which roots count as multiple
TRIPLE_ROOT_TOL = 1e-6  # scaled |A|, |B| at which a multiple root is triple


def root_multiplicity(field, point):
    """Partition of the cubic's roots at a point: '1+1+1', '2+1' or '3'.

    The simple/multiple split uses |D| against MULTIPLE_ROOT_TOL * scale
    with the ratio rounded to a few significant digits, so that coefficient
    perturbations far below the tolerance can never flip the answer; the
    double/triple split uses the depressed invariants (triple root iff A
    and B both vanish in a valid chart).
    """
    co = field.check_nondegenerate(point[0], point[1])
    D = discriminant_of_coeffs(*co)
    scale = discriminant_scale(co)
    ratio = abs(D) / (MULTIPLE_ROOT_TOL * scale)
    if float(f"{ratio:.6g}") > 1.0:
        return "1+1+1"
    dep = depress(field, point, order=0)
    lead = 1.0 + float(np.max(np.abs(co)))
    if (abs(dep.A.value) <= TRIPLE_ROOT_TOL * lead ** 2
            and abs(dep.B.value) <= TRIPLE_ROOT_TOL * lead ** 3):
        return "3"
    return "2+1"


# ---------------------------------------------------------------------------
# The auxiliary F(t) ODE


@dataclass
class FSolution:
    m0: int
    t_max: float
    sol: object            # scipy OdeSolution (dense output)
    bracket_ok: bool       # quasi-linear factor stayed away from zero

    def __call__(self, t):
        return float(self.sol.sol(t)[0])


def _f_ode_constant(m0):
    return 2.0 * (m0 + 3) / (m0 + 1)


F_ODE_TOL = 1e-12  # rtol and atol of the F(t) ODE solve
F_BRACKET_MARGIN = 1e-6  # quasi-linear factor at which the F solve halts
F_DIFF_STEP = 1e-4  # relative step of the five-point difference of F


def solve_F(m0, t_max=1.0):
    """Solve [12 + 2t^2 - 9tF] F' = C (4 + 27 F^2), F(0) = 0, C as below.

    C = 2(m0+3)/(m0+1); the solver halts with a flag when the bracketed
    quasi-linear factor approaches zero.
    """
    if m0 < 0:
        raise ValueError("m0 must be >= 0")
    C = _f_ode_constant(m0)

    def rhs(t, F):
        return C * (4.0 + 27.0 * F[0] ** 2) / (12.0 + 2 * t * t - 9 * t * F[0])

    def bracket(t, F):
        return 12.0 + 2 * t * t - 9 * t * F[0] - F_BRACKET_MARGIN

    bracket.terminal = True
    bracket.direction = -1
    out = solve_ivp(rhs, (0.0, float(t_max)), [0.0], rtol=F_ODE_TOL,
                    atol=F_ODE_TOL, method="DOP853", dense_output=True,
                    events=bracket)
    ok = out.status == 0
    return FSolution(m0=int(m0), t_max=float(out.t[-1]), sol=out,
                     bracket_ok=ok)


def f_ode_residual(fs, ts):
    """Relative residual of the implicit ODE at sample points.

    F' comes from a five-point difference of the dense output; since F'
    blows up at the quasi-linear degeneracy the residual is normalized by
    the magnitude of the terms it balances.
    """
    C = _f_ode_constant(fs.m0)
    worst = 0.0
    for t in ts:
        d = F_DIFF_STEP * (1 + abs(t))
        Fp = (fs(t - 2 * d) - 8 * fs(t - d) + 8 * fs(t + d)
              - fs(t + 2 * d)) / (12 * d)
        F = fs(t)
        lhs = (12 + 2 * t * t - 9 * t * F) * Fp
        res = lhs - C * (4 + 27 * F * F)
        worst = max(worst, abs(res) / (1.0 + abs(lhs)))
    return worst


def _univariate_F_jet(fs, t0, order):
    """Taylor coefficients of F at t0 from the ODE recursion."""
    C = _f_ode_constant(fs.m0)
    base = (t0, 0.0)
    coeffs = [complex(fs(t0))]
    for k in range(order):
        F = Jet(base, order, None)
        for m, c in enumerate(coeffs):
            F.c[m, 0] = c
        t = Jet.variable(0, base, order)
        num = C * (4.0 + 27.0 * F * F)
        den = 12.0 + 2 * t * t - 9.0 * t * F
        Fp = num * den.reciprocal()
        coeffs.append(Fp.c[k, 0] / (k + 1))
    return coeffs


# ---------------------------------------------------------------------------
# Normal-form catalog


@dataclass
class NormalForm:
    """One catalog entry: a field generator plus its printed symmetry."""

    id: int
    m0: int
    weights: tuple         # (w1, w2) of the symmetry X = w1 x dx + w2 y dy
    field: object          # DirectionField
    label: str


def _field_from_AB(A, B):
    """Field of the slope cubic m^3 + A m + B with polynomial A, B."""
    # K-form (K3, K2, K1, K0) = (1, 0, A, B) -> (a, b, c, r) = (-1, 0, -A, B)
    one = PolyExpr.const(1)
    return PolyCoeffField(-1 * one, PolyExpr.zero(), -1 * A, B)


def normal_form_field(form_id, m0=0):
    """Catalog entry ``form_id`` in {1..6}; m0 parametrizes forms 1 and 6.

    Forms 1-4 are polynomial; form 5 uses tan jets; form 6 needs Re y > 0
    (principal fractional powers) and solves the F(t) ODE on [0, 8].
    """
    x = PolyExpr.var(0)
    y = PolyExpr.var(1)
    if form_id in (1, 6) and (int(m0) != m0 or m0 < 0):
        raise ValueError("m0 must be a nonnegative integer")
    m0 = int(m0)
    if form_id == 1:
        # y^m0 m^3 - m = 0: K = (y^m0, 0, -1, 0) -> field (-y^m0, 0, 1, 0)
        ym = PolyExpr.from_dict({(0, m0): 1})
        field = PolyCoeffField(-1 * ym, PolyExpr.zero(), PolyExpr.const(1),
                               PolyExpr.zero())
        return NormalForm(id=1, m0=m0, weights=(2 + m0, 2), field=field,
                          label=f"form1(m0={m0})")
    if form_id == 2:
        return NormalForm(id=2, m0=0, weights=(2, 3),
                          field=_field_from_AB(2 * x, y), label="form2")
    if form_id == 3:
        A = y - x * x * Fraction(2, 3)
        B = x * x * x * Fraction(4, 27) - x * y * Fraction(2, 3)
        return NormalForm(id=3, m0=0, weights=(1, 2),
                          field=_field_from_AB(A, B), label="form3")
    if form_id == 4:
        x3 = x * x * x
        A = 4 * x * (y - x3 * Fraction(4, 9))
        B = y * y + x3 * x3 * Fraction(64, 81) - y * x3 * Fraction(32, 9)
        return NormalForm(id=4, m0=0, weights=(1, 3),
                          field=_field_from_AB(A, B), label="form4")
    if form_id == 5:
        c_tan = 2.0 / np.sqrt(27.0)
        w_arg = 2.0 * np.sqrt(3.0)

        def kfun(px, py, order):
            base = (px, py)
            jx = Jet.variable(0, base, order)
            jy = Jet.variable(1, base, order)
            A = jy * jy
            B = -c_tan * (jy ** 3) * jet_tan(w_arg * jx)
            one = Jet.constant(1.0, base, order)
            zero = Jet.constant(0.0, base, order)
            return (-one, zero, -A, B)

        return NormalForm(id=5, m0=0, weights=(0, 1),
                          field=CallableJetField(kfun), label="form5")
    if form_id == 6:
        fs = solve_F(m0, t_max=8.0)

        def kfun(px, py, order):
            if complex(py).real <= 0:
                raise JetError("form 6 requires Re y > 0 (fractional powers)")
            base = (px, py)
            jx = Jet.variable(0, base, order)
            jy = Jet.variable(1, base, order)
            A = jy ** (3 + m0)
            half = Fraction(1 + m0, 2)
            t_arg = (m0 + 1) * jx * jet_pow(jy, half)
            t0 = t_arg.value.real
            if not 0 <= t0 <= fs.t_max:
                raise JetError(
                    f"F-interpolant sampled outside [0, {fs.t_max}]")
            Fj = compose_series(_univariate_F_jet(fs, t0, order), t_arg)
            B = -jet_pow(jy, Fraction(9 + 3 * m0, 2)) * Fj
            one = Jet.constant(1.0, base, order)
            zero = Jet.constant(0.0, base, order)
            return (-one, zero, -A, B)

        return NormalForm(id=6, m0=m0, weights=(1 + m0, -2),
                          field=CallableJetField(kfun),
                          label=f"form6(m0={m0})")
    raise ValueError(f"unknown normal form id {form_id!r}")


def symmetry_losing_web():
    """A flat cubic web that is quasi-homogeneous nowhere near the origin.

    Slope form: dy^3 - 2 x^2 y (1 + x^2) dy dx^2 + 8 x^3 y^2 dx^3 = 0.
    Its connection is closed at regular points, yet no diagonal scaling
    flow preserves it at the origin.
    """
    x = PolyExpr.var(0)
    y = PolyExpr.var(1)
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
    n, i = len(samples), np.arange(4)
    rows = np.zeros((n, 4, 2 + n), dtype=complex)
    for k, (x, y) in enumerate(samples):
        c = np.array([jet.c for jet in f.coeff_jets(x, y, 1)])
        nonvanishing(c[:, 0, 0], x, y)
        rows[k, :, 0] = x * c[:, 1, 0] + i * c[:, 0, 0]
        rows[k, :, 1] = y * c[:, 0, 1] + (3 - i) * c[:, 0, 0]
        rows[k, :, 2 + k] = -c[:, 0, 0]
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
