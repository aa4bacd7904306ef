"""Singular loci: discriminant tracing, multiplicity, the normal-form
catalog, and weight classification."""

import mpmath
import numpy as np
import pytest

from hexweb.chern import curvature, gamma_depressed
from hexweb.cubic import (PolyCoeffField, TranslatedField, discriminant,
                          discriminant_of_coeffs, discriminant_scale)
from hexweb.frobenius import solution_potential
from hexweb.jets import JetError, PolyExpr
from hexweb.singular import (CLASSIFY_RESIDUAL_TOL, _disc_and_grad,
                             _grid_seeds, classify_singularity,
                             f_ode_residual, normal_form_field,
                             root_multiplicity, solve_F, symmetry_losing_web,
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

    def test_circle_discriminant(self):
        # slope cubic m^3 + A m with A = x^2 + y^2 - 1/4: D = -4A^3 changes
        # sign exactly on the circle of radius 1/2
        x, y = PolyExpr.var(0, 2), PolyExpr.var(1, 2)
        A = x * x + y * y + PolyExpr.const(-0.25, 2)
        f = PolyCoeffField(PolyExpr.const(-1, 2), PolyExpr.zero(),
                           PolyExpr.zero() - A, PolyExpr.zero())
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
    """The sign grid and seeds as computed point by point with coeffs."""
    (x0, x1), (y0, y1) = window
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    Dg = np.array([[discriminant_of_coeffs(*field.coeffs(x, y)).real
                    for y in ys] for x in xs])
    raw = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n and Dg[i, j] * Dg[i + 1, j] <= 0:
                raw.append((0.5 * (xs[i] + xs[i + 1]), ys[j]))
            if j + 1 < n and Dg[i, j] * Dg[i, j + 1] <= 0:
                raw.append((xs[i], 0.5 * (ys[j] + ys[j + 1])))
    return xs, ys, Dg, raw


def _jet_gradient(field, x, y):
    D = discriminant_of_coeffs(*field.coeff_jets(x, y, 1))
    return D.value, np.array([D.deriv(0).value, D.deriv(1).value])


class TestTracingKernels:
    """The tracer's array grid and closed-form gradient against the
    point-by-point and jet-product evaluations they replace."""

    def test_closed_form_gradient_random_fields(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            f = PolyCoeffField(*(random_poly(rng) for _ in range(4)))
            x, y = rng.standard_normal(2)
            D, g, _ = _disc_and_grad(f, x, y)
            D_ref, g_ref = _jet_gradient(f, x, y)
            assert abs(D - D_ref) <= 1e-13 * abs(D_ref)
            assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("fid, points", [
        (2, [(0.3, -0.7), (-0.5, 0.4), (0.9, 0.2)]),
        (6, [(0.05, 0.8), (0.08, 0.6), (0.06, 1.0)])])
    def test_closed_form_gradient_catalog(self, fid, points):
        field = normal_form_field(fid).field
        for x, y in points:
            D, g, _ = _disc_and_grad(field, x, y)
            D_ref, g_ref = _jet_gradient(field, x, y)
            assert abs(D - D_ref) <= 1e-13 * abs(D_ref)
            assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("field, window, n", [
        (FIELD_A, ((-1.0, 1.0), (-0.2, 1.0)), 32),   # criterion 9
        (FIELD_B, ((-1.0, 1.0), (-1.0, 1.0)), 32),
        (FIELD_A, ((-0.8, 0.8), (-0.1, 0.9)), 16)])  # a CLI window
    def test_array_grid_matches_scalar_grid(self, field, window, n):
        xs, ys, Dg_ref, raw_ref = _scalar_grid_seeds(field, window, n)
        Dg, raw = _grid_seeds(field, xs, ys)
        assert np.array_equal(Dg, Dg_ref)
        assert raw == raw_ref


class TestRootMultiplicity:
    def test_regular_point(self):
        assert root_multiplicity(FIELD_A, (0.1, 1.0)) == "1+1+1"

    def test_double_root_on_discriminant(self):
        # 32y^3 = 27x^2 away from the origin: one double root
        x = 0.4
        y = (27 * x * x / 32) ** (1 / 3)
        assert root_multiplicity(FIELD_A, (x, y)) == "2+1"

    def test_triple_root_at_cusp(self):
        assert root_multiplicity(FIELD_A, (0.0, 0.0)) == "3"

    def test_stable_under_tiny_perturbations(self):
        # decisions at the tolerance boundary cannot flip at the 1e-14 level
        x = 0.4
        y = (27 * x * x / 32) ** (1 / 3)
        ref = root_multiplicity(FIELD_A, (x, y))
        for dx in (-1e-14, 1e-14):
            assert root_multiplicity(FIELD_A, (x + dx, y)) == ref


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

    def test_true_error_against_30_digit_reference(self):
        # the float solution against mpmath's Taylor-series ODE solver at
        # 30 digits: the true error, not a finite-difference residual
        fs = solve_F(0, t_max=1.0)
        C = 6  # 2 (m0 + 3) / (m0 + 1) at m0 = 0
        with mpmath.workdps(30):
            ref = mpmath.odefun(
                lambda t, F: C * (4 + 27 * F ** 2) / (12 + 2 * t * t
                                                      - 9 * t * F), 0, 0)
            ts = np.linspace(0.01, 0.9 * fs.t_max, 10)
            err = max(abs(fs(t) - float(ref(t))) for t in ts)
        assert err <= 1e-10


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
            if abs(discriminant(nf.field, pt)) < 1e-8:
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
