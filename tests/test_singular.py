"""Singular loci: discriminant tracing, the normal-form catalog with its
F(t) ODE, and weight classification."""

import dataclasses
import re

import mpmath
import numpy as np
import pytest

from hexweb.chern import curvature, gamma_depressed
from hexweb.cubic import (PolyCoeffField, SingularPointError,
                          TranslatedField, coeff_values,
                          discriminant_of_coeffs, discriminant_scale)
from hexweb.frobenius import solution_potential
from hexweb.jets import JetError, PolyExpr
from hexweb.singular import (CLASSIFY_RESIDUAL_TOL, EDGE_BISECTIONS,
                             F_BRACKET_MARGIN, TRACE_TOL, FSolution,
                             _bisect_edges, _grid_seeds, _univariate_F_jet,
                             classify_singularity, f_ode_residual,
                             normal_form_field, solve_F, symmetry_losing_web,
                             trace_discriminant)
from hexweb.webgeo import symmetry_residual
from webs import CONTROL_GENERIC, random_poly

FIELD_A = solution_potential("A").characteristic_field()
FIELD_B = solution_potential("B").characteristic_field()


class TestTraceDiscriminant:
    def test_solution_a_trace_is_the_cuspidal_cubic(self):
        window = ((-1.0, 1.0), (-0.2, 1.0))
        trace = trace_discriminant(FIELD_A, window)
        assert not trace.empty
        pts = trace.all_points()
        assert len(pts) > 50
        res = np.abs(32 * pts[:, 1] ** 3 - 27 * pts[:, 0] ** 2)
        assert np.max(res) < 1e-6
        for x, y in pts:
            co = FIELD_A.coeffs(x, y)
            assert abs(discriminant_of_coeffs(*co)) <= 1e-8 * \
                discriminant_scale(co)

    def test_solution_b_trace_is_empty(self):
        trace = trace_discriminant(FIELD_B, ((-1.0, 1.0), (-1.0, 1.0)))
        assert trace.empty

    def test_grid_of_fewer_than_8_nodes_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 8"):
            trace_discriminant(FIELD_A, ((-1.0, 1.0), (-0.2, 1.0)), n=7)

    def test_circle_discriminant(self):
        f = _circle_field()
        trace = trace_discriminant(f, ((-1.0, 1.0), (-1.0, 1.0)))
        pts = trace.all_points()
        assert len(pts) > 30
        # D = -4A^3 is cubic in the distance to the circle, so |D| at the
        # 1e-8 scale pins the radius only to ~1e-3
        assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 0.5)) < 2e-3
        for x0, y0 in pts:
            co = f.coeffs(x0, y0)
            assert abs(discriminant_of_coeffs(*co)) <= 1e-8 * \
                discriminant_scale(co)


def _scalar_grid_seeds(field, window, n):
    """The grid of Re D and the edges (i, j, k) whose ends lie on opposite
    sides of 0 (Re D < 0 and Re D >= 0), computed point by point with
    coeffs, in row-major order with the x edge (k = 0) first."""
    (x0, x1), (y0, y1) = window
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    Dg = np.array([[discriminant_of_coeffs(*field.coeffs(x, y)).real
                    for y in ys] for x in xs])
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n and (Dg[i, j] >= 0) != (Dg[i + 1, j] >= 0):
                edges.append((i, j, 0))
            if j + 1 < n and (Dg[i, j] >= 0) != (Dg[i, j + 1] >= 0):
                edges.append((i, j, 1))
    return xs, ys, Dg, edges


X2, Y2 = PolyExpr.var(0, 2), PolyExpr.var(1, 2)


def _slope_field(A, B):
    """The slope cubic m^3 + A m + B, whose D is -4A^3 - 27B^2."""
    return PolyCoeffField(PolyExpr.const(-1, 2), PolyExpr.zero(),
                          PolyExpr.zero() - A, B)


def _circle_field():
    # B = 0 and A = x^2 + y^2 - 1/4: D = -4A^3 changes sign exactly on the
    # circle of radius 1/2
    return _slope_field(X2 * X2 + Y2 * Y2 + PolyExpr.const(-0.25, 2),
                        PolyExpr.zero())


def _real_random_field(seed):
    rng = np.random.default_rng(seed)
    return PolyCoeffField(*(PolyExpr.from_dict(
        {(i, j): float(rng.standard_normal()) for i in range(3)
         for j in range(3)}) for _ in range(4)))


def _scaled_D(field, pts):
    co = coeff_values(field.coeff_jets(pts[:, 0], pts[:, 1], 0))
    return np.abs(discriminant_of_coeffs(*co.T)) / discriminant_scale(co)


class TestTracingKernels:
    """The tracer's array grid against the point-by-point evaluation it
    replaces, and its walk of the bisected edge points into curves."""

    @pytest.mark.parametrize("field, window, n", [
        (FIELD_A, ((-1.0, 1.0), (-0.2, 1.0)), 32),   # criterion 9
        (FIELD_B, ((-1.0, 1.0), (-1.0, 1.0)), 32),
        (FIELD_A, ((-0.8, 0.8), (-0.1, 0.9)), 16)])  # a CLI window
    def test_array_grid_matches_scalar_grid(self, field, window, n):
        xs, ys, Dg_ref, edges_ref = _scalar_grid_seeds(field, window, n)
        Dg, change = _grid_seeds(field, xs, ys)
        assert np.array_equal(Dg, Dg_ref)
        assert [tuple(map(int, e)) for e in zip(*np.nonzero(change))] \
            == edges_ref

    @pytest.mark.parametrize("field, window, n", [
        (FIELD_A, ((-1.0, 1.0), (-0.2, 1.0)), 32),   # criterion 9
        (_circle_field(), ((-1.0, 1.0), (-1.0, 1.0)), 32),
        (_real_random_field(17), ((-1.0, 1.0), (-1.0, 1.0)), 24)],
        ids=["A", "circle", "random"])
    def test_walk_takes_every_edge_point_once(self, field, window, n):
        (x0, x1), (y0, y1) = window
        xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
        Dg, change = _grid_seeds(field, xs, ys)
        edge_pts = _bisect_edges(field, xs, ys, Dg, *np.nonzero(change))
        edge_pts = edge_pts[~np.isnan(edge_pts[:, 0])]
        trace = trace_discriminant(field, window, n)
        # a closed loop repeats its first point at its end, and only there
        pts = np.vstack([c[:-1] if np.array_equal(c[0], c[-1]) else c
                         for c in trace.curves])
        assert len(edge_pts) > 0
        assert len(np.unique(pts, axis=0)) == len(pts) == len(edge_pts)
        assert np.array_equal(np.unique(pts, axis=0),
                              np.unique(edge_pts, axis=0))
        diagonal = np.hypot(xs[1] - xs[0], ys[1] - ys[0])
        for curve in trace.curves:
            steps = np.hypot(*np.diff(curve, axis=0).T)
            assert np.all(steps <= diagonal * (1 + 1e-12))
        assert np.max(_scaled_D(field, pts)) <= TRACE_TOL

    def test_closed_loop_ends_at_its_first_point(self):
        # the circle of radius 1/2 is one loop; web A's cusp is open
        trace = trace_discriminant(_circle_field(), ((-1.0, 1.0), (-1.0, 1.0)))
        (loop,) = trace.curves
        assert np.array_equal(loop[0], loop[-1])
        assert len(np.unique(loop, axis=0)) == len(loop) - 1 > 30
        (cusp,) = trace_discriminant(FIELD_A,
                                     ((-1.0, 1.0), (-0.2, 1.0))).curves
        assert np.hypot(*(cusp[0] - cusp[-1])) > 1.0

    def test_saddle_cell_keeps_the_branches_apart(self):
        # A = -3 and B = 2 + s, s = xy + h^2/16: D = -27 s (4 + s) has a
        # simple zero on the hyperbola s = 0.  On the 32-grid of [-1, 1]^2
        # the middle cell has side h and centre 0; its corners alternate in
        # sign, and its mean has the sign of the corners with s > 0, which
        # the hyperbola's branches (x < 0 < y and y < 0 < x) keep connected
        h = 2.0 / 31
        f = _slope_field(PolyExpr.const(-3, 2), X2 * Y2
                         + PolyExpr.const(2 + h * h / 16, 2))
        trace = trace_discriminant(f, ((-1.0, 1.0), (-1.0, 1.0)))
        assert len(trace.curves) == 2
        for curve in trace.curves:
            assert np.all(curve[:, 0] * curve[:, 1] < 0)
            assert len(np.unique(np.sign(curve[:, 0]))) == 1

    def test_grid_nodes_on_the_curve_keep_it_whole(self):
        # n = 33 puts the cusp (0, 0) and (+-1/4, 3/8) of 32 y^3 = 27 x^2 on
        # grid nodes, where D = 0 exactly; such a node counts as D >= 0
        trace = trace_discriminant(FIELD_A, ((-1.0, 1.0), (-1.0, 1.0)), 33)
        pts = trace.all_points()
        assert len(trace.curves) == 1
        assert len(np.unique(pts, axis=0)) == len(pts) > 50
        assert np.max(np.abs(32 * pts[:, 1] ** 3 - 27 * pts[:, 0] ** 2)) \
            < 1e-6

    def test_vanishing_discriminant_gives_an_empty_trace(self):
        # C = dy^3: a triple root everywhere, D == 0 on the whole window,
        # so no grid edge has its ends on opposite sides of 0
        zero = PolyExpr.zero()
        f = PolyCoeffField(PolyExpr.const(1, 2), zero, zero, zero)
        trace = trace_discriminant(f, ((-1.0, 1.0), (-1.0, 1.0)), 8)
        assert trace.empty
        assert trace.all_points().shape == (0, 2)

    def test_non_finite_discriminant_names_its_first_node(self):
        # a = 1e160 (1 + x): a^2 overflows, D = nan + nanj on every node but
        # those at x = -1, where a = 0; an empty trace would pass vacuously
        a = PolyExpr.from_dict({(0, 0): 1e160, (1, 0): 1e160})
        one = PolyExpr.const(1, 2)
        f = PolyCoeffField(a, one, PolyExpr.var(1), one)
        with pytest.raises(SingularPointError, match=re.escape(
                "discriminant not finite at the grid node (-0.75, -1.0)")):
            trace_discriminant(f, ((-1.0, 1.0), (-1.0, 1.0)), 9)

    def test_lifts_arrays_only(self, monkeypatch):
        calls = []
        for name in ("coeffs", "first_order", "coeff_jets"):
            method = getattr(PolyCoeffField, name)
            monkeypatch.setattr(PolyCoeffField, name, lambda *a, _m=method,
                                _n=name: calls.append(_n) or _m(*a))
        trace_discriminant(FIELD_A, ((-1.0, 1.0), (-0.2, 1.0)))
        assert calls.count("coeffs") == len(calls)
        assert 1 < len(calls) <= 1 + EDGE_BISECTIONS


def reference_F(m0):
    """F by mpmath's Taylor-series ODE solver at the working precision."""
    C = mpmath.mpf(2 * (m0 + 3)) / (m0 + 1)
    return mpmath.odefun(
        lambda t, F: C * (4 + 27 * F ** 2) / (12 + 2 * t * t - 9 * t * F),
        0, 0)


class TestFOde:
    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_solution_properties(self, m0):
        fs = solve_F(m0, t_max=1.0)
        assert fs(0.0) == pytest.approx(0.0, abs=1e-12)
        h = 1e-6
        slope = (fs(h) - fs(0.0)) / h
        assert slope == pytest.approx(2 * (m0 + 3) / (3 * (m0 + 1)), rel=1e-4)
        # the quasilinear factor vanishes before t = 1: finite domain, flagged
        assert not fs.bracket_ok
        assert 0.2 < fs.t_max < 0.5
        ts = np.linspace(0.01, 0.9 * fs.t_max, 25)
        assert f_ode_residual(fs, ts) < 1e-8

    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_true_error_against_30_digit_reference(self, m0):
        # the float solution against mpmath's Taylor-series ODE solver at
        # 30 digits: the true error, not a finite-difference residual
        fs = solve_F(m0, t_max=1.0)
        with mpmath.workdps(30):
            ref = reference_F(m0)
            ts = np.linspace(0.01, 0.9 * fs.t_max, 10)
            err = max(abs(fs(t) - float(ref(t))) for t in ts)
        assert err <= 1e-13

    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_jet_coefficients_against_reference_derivatives(self, m0):
        """The float Taylor coefficients of F at orders 0-3 against central
        differences of an mpmath reference.  mpmath.taylor's own steps need
        the function at four times the working precision and take the lower
        orders one-sided, so each order is a central mpmath.diff at step
        1e-8 on a 40-digit reference (truncation about 2e-13)."""
        fs = solve_F(m0, t_max=1.0)
        with mpmath.workdps(40):
            ref = reference_F(m0)
            for t0 in (0.25 * fs.t_max, 0.5 * fs.t_max, 0.75 * fs.t_max):
                want = [mpmath.diff(ref, t0, k, h=mpmath.mpf("1e-8"))
                        / mpmath.factorial(k) for k in range(4)]
                got = _univariate_F_jet(fs, t0, 3)
                assert len(got) == 4
                for g, w in zip(got, want):
                    assert abs(g / w - 1) <= 1e-12

    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_halts_with_the_factor_at_the_margin(self, m0):
        fs = solve_F(m0, t_max=1.0)
        t = fs.t_max
        assert fs.knots[-1] == t and not fs.bracket_ok
        factor = 12 + 2 * t * t - 9 * t * fs(t)
        assert factor == pytest.approx(F_BRACKET_MARGIN, rel=1e-6)

    def test_reaches_t_max_before_the_bracket(self):
        fs = solve_F(0, t_max=0.1)
        assert fs.t_max == 0.1 and fs.knots[-1] == 0.1 and fs.bracket_ok
        assert fs.knots[0] == 0.0 and np.all(np.diff(fs.knots) > 0)

    def test_evaluates_floats_and_arrays_alike(self):
        fs = solve_F(1, t_max=1.0)
        ts = np.array([[0.0, 0.1], [fs.knots[3], fs.t_max]])
        got = fs(ts)
        assert got.shape == ts.shape
        for t, F in zip(ts.ravel(), got.ravel()):
            assert type(fs(float(t))) is float and fs(float(t)) == F

    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_residual_is_one_dense_output_call(self, m0):
        """One evaluation of the piecewise polynomial at all 5 x len(ts)
        stencil nodes, with the floats of the point-by-point formula."""
        fs = solve_F(m0, t_max=1.0)
        ts = np.linspace(0.01, 0.9 * fs.t_max, 20)
        C = 2.0 * (m0 + 3) / (m0 + 1)
        ref = 0.0
        for t in ts:
            d = 1e-4 * (1 + abs(t))
            Fp = (fs(t - 2 * d) - 8 * fs(t - d) + 8 * fs(t + d)
                  - fs(t + 2 * d)) / (12 * d)
            lhs = (12 + 2 * t * t - 9 * t * fs(t)) * Fp
            res = lhs - C * (4 + 27 * fs(t) * fs(t))
            ref = max(ref, abs(res) / (1.0 + abs(lhs)))
        sizes = []

        class Counted(FSolution):
            def __call__(self, t):
                sizes.append(np.size(t))
                return super().__call__(t)

        counted = Counted(**{f.name: getattr(fs, f.name)
                             for f in dataclasses.fields(fs)})
        assert f_ode_residual(counted, ts) == ref
        assert sizes == [5 * len(ts)]

    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_form6_solution_is_the_unit_interval_solve(self, m0):
        """The bracket halts the solve on [0, 8] that form 6 keeps where it
        halts one on [0, 1], after the same steps: `normalforms` checks the
        field's own solution and reports the floats of a [0, 1] solve."""
        fs = normal_form_field(6, m0).fs
        ref = solve_F(m0, t_max=1.0)
        assert (fs.t_max, fs.bracket_ok) == (ref.t_max, ref.bracket_ok)
        assert np.array_equal(fs.knots, ref.knots)
        assert np.array_equal(fs.coeffs, ref.coeffs)
        ts = np.linspace(0.01, 0.9 * fs.t_max, 20)
        assert f_ode_residual(fs, ts) == f_ode_residual(ref, ts)

    def test_rejects_negative_m0(self):
        with pytest.raises(ValueError, match="m0"):
            solve_F(-1)
        with pytest.raises(ValueError, match="t_max"):
            solve_F(0, t_max=0.0)


class TestNormalForms:
    @pytest.mark.parametrize("fid,m0,samples", [
        (1, 0, [(0.3, 0.5), (-0.4, 0.8)]),
        (1, 2, [(0.3, 0.5), (-0.4, 0.8)]),
        (2, 0, [(0.3, 0.5), (-0.4, 0.8)]),
        (3, 0, [(0.3, 0.5), (-0.4, 0.8)]),
        (4, 0, [(0.3, 0.8), (-0.2, 0.9)]),
        (5, 0, [(0.1, 0.8), (-0.2, 0.6)]),
        (6, 0, [(0.05, 0.8), (0.1, 0.6)]),
        (6, 1, [(0.05, 0.8), (0.08, 0.6)]),
        (6, 2, [(0.04, 0.8), (0.06, 0.9)]),
    ])
    def test_flat_with_printed_symmetry(self, fid, m0, samples):
        nf = normal_form_field(fid, m0)
        assert nf.id == fid
        for pt in samples:
            if abs(discriminant_of_coeffs(*nf.field.coeffs(*pt))) < 1e-8:
                continue
            assert abs(curvature(nf.field, pt, route="cubic").K) < 1e-7
        assert symmetry_residual(nf.field, nf.weights, samples, a=0.05) < 1e-7

    def test_form2_connection_vanishes(self):
        nf = normal_form_field(2)
        for pt in [(0.3, 0.4), (-0.5, 0.7), (1.1, -0.2)]:
            assert gamma_depressed(nf.field, pt).norm() < 1e-12

    def test_form6_domain_guard(self):
        nf = normal_form_field(6, 0)
        with pytest.raises((JetError, ValueError)):
            nf.field.coeffs(0.1, -0.5)  # Re y <= 0 is outside the germ

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            normal_form_field(7)

    @pytest.mark.parametrize("form_id", [1, 6])
    @pytest.mark.parametrize("m0", [-1, 0.5])
    def test_m0_is_a_nonnegative_integer(self, form_id, m0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            normal_form_field(form_id, m0)


def _swap(p):
    """The polynomial with x and y exchanged."""
    return PolyExpr.from_dict({(e[1], e[0]): c for e, c in p.terms})


# the samples run_normalforms uses for the non-polynomial forms 5 and 6
FORM5_SAMPLES = [(0.1, 0.8), (-0.2, 0.6), (0.25, 1.0)]
FORM6_SAMPLES = [(0.05, 0.8), (0.08, 0.6), (0.06, 1.0)]


class TestClassify:
    @pytest.mark.parametrize("fid,m0,samples,weights", [
        (1, 0, None, (1, 1)),
        (2, 0, None, (2, 3)),
        (3, 0, None, (1, 2)),
        (4, 0, None, (1, 3)),
        (5, 0, FORM5_SAMPLES, (0, 1)),
        (6, 0, FORM6_SAMPLES, (1, -2)),
        (6, 1, FORM6_SAMPLES, (1, -1)),
        (6, 2, FORM6_SAMPLES, (3, -2)),
    ])
    def test_catalog_ratio_in_lowest_terms(self, fid, m0, samples, weights):
        nf = normal_form_field(fid, m0)
        cls = classify_singularity(nf.field, samples=samples)
        assert cls.weights == weights
        assert cls.status != "unclassified"
        assert cls.residual <= CLASSIFY_RESIDUAL_TOL

    def test_translation_gives_the_same_classification(self):
        form2 = normal_form_field(2).field
        moved = TranslatedField(form2, -0.2, 0.1)
        assert (classify_singularity(moved, point=(0.2, -0.1))
                == classify_singularity(form2))

    def test_mirror_swaps_the_weights(self):
        a, b, c, r = normal_form_field(2).field.abcr
        mirror = PolyCoeffField(_swap(r), _swap(c), _swap(b), _swap(a))
        cls = classify_singularity(mirror)
        assert cls.weights == (3, 2)
        assert cls.status == "weights-only"

    def test_generic_fields_unclassified(self):
        rng = np.random.default_rng(5)
        generic = PolyCoeffField(*(random_poly(rng) for _ in range(4)))
        for f in (CONTROL_GENERIC, generic):
            cls = classify_singularity(f)
            assert cls.status == "unclassified"
            assert cls.weights is None
            assert cls.residual > CLASSIFY_RESIDUAL_TOL

    def test_sample_outside_the_domain_raises(self):
        # the default samples include (0.12, -0.27); form 6 needs y > 0
        with pytest.raises(JetError):
            classify_singularity(normal_form_field(6).field)

    def test_matches_parameter_free_catalog_forms(self):
        for fid, weights in ((2, (2, 3)), (3, (1, 2)), (4, (1, 3))):
            nf = normal_form_field(fid)
            cls = classify_singularity(nf.field)
            assert cls.status == "matched"
            assert cls.matched_id == fid
            assert cls.weights == weights
            assert cls.residual < 1e-6

    def test_characteristic_cusp_is_weights_only(self):
        # weights [3:2] coincide with a parametric family entry, so the
        # match is reported as weights-only rather than a catalog id
        cls = classify_singularity(FIELD_A)
        assert cls.weights == (3, 2)
        assert cls.status == "weights-only"
        assert cls.matched_id is None

    def test_non_quasihomogeneous_germ_unclassified(self):
        x, y = PolyExpr.var(0, 2), PolyExpr.var(1, 2)
        f = PolyCoeffField(PolyExpr.const(1, 2), PolyExpr.zero(),
                           x + y * y, PolyExpr.const(1, 2))
        cls = classify_singularity(f)
        assert cls.status == "unclassified"
        assert cls.matched_id is None

    def test_flat_fixture_without_symmetry_unclassified(self):
        fix = symmetry_losing_web()
        cls = classify_singularity(
            fix, samples=[(0.31, 0.22), (0.12, 0.27), (0.27, 0.33)])
        assert cls.status == "unclassified"
