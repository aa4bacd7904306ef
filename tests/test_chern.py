"""Web connection: route agreement, flatness, path integrals, transport."""

import numpy as np
import pytest

from hexweb.chern import (blaschke_transport, corollary_residual, curvature,
                          dual_frame, exactness_potential, frame_components,
                          gamma_cubic, gamma_depressed, gamma_from_definition,
                          integrate_gamma)
from hexweb.cubic import (PolyCoeffField, SingularPointError,
                          discriminant_of_coeffs, discriminant_scale,
                          normalize_roots)
from hexweb.frobenius import Potential, solution_potential
from hexweb.jets import PolyExpr
from webs import CONTROL_GENERIC as CONTROL, random_poly

RNG = np.random.default_rng(431)


def random_regular_point(field):
    for _ in range(100):
        x, y = RNG.standard_normal(2)
        co = field.coeffs(x, y)
        if abs(discriminant_of_coeffs(*co)) > 1e-3 * discriminant_scale(co):
            return x, y
    raise AssertionError("no regular point found")


class TestRouteAgreement:
    def test_cubic_equals_definition_random_fields(self):
        for _ in range(20):
            field = PolyCoeffField(*(random_poly(RNG) for _ in range(4)))
            for _ in range(5):
                pt = random_regular_point(field)
                g1 = np.array(gamma_cubic(field, pt).values())
                g2 = np.array(gamma_from_definition(field, pt).values())
                scale = 1.0 + np.max(np.abs(g1))
                assert np.max(np.abs(g1 - g2)) < 1e-7 * scale

    def test_depressed_route_differs_by_exact_form(self):
        # gauge difference: gamma_depressed - gamma_cubic = (1/6) d ln D
        for _ in range(10):
            field = PolyCoeffField(*(random_poly(RNG) for _ in range(4)))
            pt = random_regular_point(field)
            g1 = np.array(gamma_cubic(field, pt).values())
            g3 = np.array(gamma_depressed(field, pt).values())
            jets = field.coeff_jets(pt[0], pt[1], 1)
            D = discriminant_of_coeffs(*jets)
            dlnD = np.array([D.deriv(0).value, D.deriv(1).value]) / D.value
            scale = 1.0 + np.max(np.abs(g1))
            assert np.max(np.abs(g3 - g1 - dlnD / 6.0)) < 1e-7 * scale

    def test_curvature_route_independent(self):
        pt = (-2.2, 0.3)
        ks = [curvature(CONTROL, pt, route=r).K
              for r in ("cubic", "depressed", "definition")]
        for k in ks[1:]:
            assert abs(k - ks[0]) < 1e-6 * (1 + abs(ks[0]))


class TestFlatness:
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_characteristic_webs_are_flat(self, case):
        field = solution_potential(case).characteristic_field()
        for _ in range(20):
            pt = random_regular_point(field)
            assert abs(curvature(field, pt, route="cubic").K) < 1e-7

    def test_control_curvature_is_large(self):
        # non-flat witness values at pinned points
        for pt, kmin in [((-2.2, 0.3), 1.0), ((0.5, 0.5), 0.1),
                         ((1.0, -0.3), 0.1)]:
            assert abs(curvature(CONTROL, pt, route="cubic").K) >= kmin


class TestCorollary:
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_gamma_is_log_derivative_of_discriminant(self, case):
        pot = solution_potential(case)
        field = pot.characteristic_field()
        for _ in range(20):
            pt = random_regular_point(field)
            assert corollary_residual(pot, pt) < 1e-8

    def test_refuses_non_solutions(self):
        bad = Potential(case="A", f=PolyExpr.from_dict({(3, 1): 1.0}))
        with pytest.raises(ValueError):
            corollary_residual(bad, (0.5, 0.5))


class TestPathIntegrals:
    def test_flat_web_is_exact(self):
        field = solution_potential("A").characteristic_field()
        base, targ = (0.0, 1.0), (0.3, 1.2)
        p1 = exactness_potential(field, base, targ)
        p2 = exactness_potential(field, base, targ,
                                 path=[base, (0.3, 1.0), targ])
        p3 = exactness_potential(field, base, targ,
                                 path=[base, (-0.1, 1.25), targ])
        assert abs(p1 - p2) < 1e-8
        assert abs(p1 - p3) < 1e-8

    def test_control_web_is_path_dependent(self):
        base, targ = (-2.5, 0.1), (-2.3, 0.2)
        p1 = exactness_potential(CONTROL, base, targ)
        p2 = exactness_potential(CONTROL, base, targ,
                                 path=[base, (-2.5, 0.2), targ])
        assert abs(p1 - p2) > 1e-4
        assert abs(p1 - p2) == pytest.approx(1.2807e-3, rel=1e-3)

    def test_rejects_singular_crossing(self):
        field = solution_potential("A").characteristic_field()
        # the y=0 axis is on the discriminant 32y^3 = 27x^2
        with pytest.raises(SingularPointError):
            integrate_gamma(field, [(-0.2, 0.5), (0.2, -0.5)])


class TestTransport:
    def test_dual_frame_duality(self):
        tr = normalize_roots(CONTROL, (-2.2, 0.3))
        e1, e2 = dual_frame(tr)
        (p1, q1), (p2, q2), _ = tr.values()
        assert abs(p1 * e1[0] + q1 * e1[1] - 1) < 1e-12
        assert abs(p2 * e2[0] + q2 * e2[1] - 1) < 1e-12
        assert abs(p1 * e2[0] + q1 * e2[1]) < 1e-12
        assert abs(p2 * e1[0] + q2 * e1[1]) < 1e-12
        c = frame_components(tr, (0.7, -0.4))
        back = (c[0] * e1[0] + c[1] * e2[0], c[0] * e1[1] + c[1] * e2[1])
        assert abs(back[0] - 0.7) + abs(back[1] + 0.4) < 1e-12

    def test_loop_holonomy_trivial_on_flat_web(self):
        field = solution_potential("A").characteristic_field()
        loop = [(0.0, 1.0), (0.2, 1.1), (0.1, 1.3), (-0.2, 1.1), (0.0, 1.0)]
        res = blaschke_transport(field, loop, (0.4, -0.9))
        start = normalize_roots(field, loop[0])
        e1, e2 = dual_frame(start)
        want = (0.4 * e1[0] - 0.9 * e2[0], 0.4 * e1[1] - 0.9 * e2[1])
        got = res.vector
        assert abs(got[0] - want[0]) + abs(got[1] - want[1]) < 1e-7

    def test_transport_is_linear(self):
        field = solution_potential("A").characteristic_field()
        curve = [(0.0, 1.0), (0.25, 1.15)]
        a = blaschke_transport(field, curve, (1.0, 0.0)).vector
        b = blaschke_transport(field, curve, (0.0, 1.0)).vector
        c = blaschke_transport(field, curve, (2.0, -3.0)).vector
        assert abs(c[0] - (2 * a[0] - 3 * b[0])) < 1e-9
        assert abs(c[1] - (2 * a[1] - 3 * b[1])) < 1e-9


class TestDepressedChart:
    def test_constant_depressed_coefficients_give_zero_gamma(self):
        # A = 2x evaluated at... use truly constant A, B: x^3 + A x + B form
        field = PolyCoeffField(
            PolyExpr.const(-1, 2), PolyExpr.zero(),
            PolyExpr.const(-2.0, 2), PolyExpr.const(0.5, 2))
        g = gamma_depressed(field, (0.9, -0.4))
        assert g.norm() < 1e-12
