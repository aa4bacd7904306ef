"""Web connection: route agreement, flatness, path integrals, transport."""

import itertools
import warnings

import numpy as np
import pytest

from hexweb import chern
from hexweb.chern import (blaschke_transport, corollary_residual, curvature,
                          dual_frame, exactness_potential, frame_components,
                          gamma_cubic, gamma_depressed,
                          gamma_expressions_from_sigma, gamma_from_definition,
                          integrate_gamma)
from hexweb.cubic import (PolyCoeffField, SingularPointError,
                          discriminant_of_coeffs, discriminant_scale,
                          normalize_roots, roots)
from hexweb.frobenius import Potential, solution_potential
from hexweb.jets import PolyExpr
from hexweb.singular import normal_form_field, symmetry_losing_web
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_log_discriminant_oracle(self, seed):
        """On a characteristic web gamma = -(1/6) d ln D, so the integral
        is -(1/6) ln(D(end) / D(start)) along any path where D > 0."""
        field = solution_potential("A").characteristic_field()
        rng = np.random.default_rng(seed)
        path = [(0.0, 1.0)] + [(rng.uniform(-0.4, 0.4), rng.uniform(0.75, 1.3))
                               for _ in range(2)]

        def D(p):
            return discriminant_of_coeffs(*field.coeffs(*p)).real

        want = -np.log(D(path[-1]) / D(path[0])) / 6.0
        assert abs(integrate_gamma(field, path) - want) <= 1e-12

    def test_constant_field_integrates_to_zero(self):
        field = solution_potential("B").characteristic_field()
        assert integrate_gamma(field, [(0.0, 0.0), (0.3, -0.2),
                                       (0.5, 0.4)]) == 0

    def test_reversal_and_additivity(self):
        field = solution_potential("A").characteristic_field()
        path = [(0.0, 1.0), (0.2, 1.1), (0.1, 1.3), (-0.2, 1.15)]
        whole = integrate_gamma(field, path)
        assert abs(integrate_gamma(field, path[::-1]) + whole) <= 1e-15
        parts = sum(integrate_gamma(field, path[i:i + 2]) for i in range(3))
        assert abs(parts - whole) <= 1e-15

    @pytest.mark.parametrize("fid", [5, 6])
    def test_closure_fields_integrate(self, fid):
        """Catalog forms 5 and 6 lift one point at a time (a closure); the
        batched rounds still integrate them, and their webs are flat."""
        field = normal_form_field(fid).field
        base, targ = (0.05, 0.8), (0.08, 0.6)
        p1 = integrate_gamma(field, [base, targ])
        p2 = integrate_gamma(field, [base, (0.08, 0.8), targ])
        assert abs(p1) > 1e-3
        assert abs(p1 - p2) < 1e-8

    # solution A's discriminant meets x = 0.3 at y = 0.4235: gamma grows
    # steeply near the end of this segment, which takes bisections
    STEEP = [(0.3, 0.2), (0.3, 0.42)]

    def test_interval_limit_raises_without_warning(self, monkeypatch):
        field = solution_potential("A").characteristic_field()
        D0, D1 = (discriminant_of_coeffs(*field.coeffs(*p)).real
                  for p in self.STEEP)
        assert abs(integrate_gamma(field, self.STEEP)
                   + np.log(D1 / D0) / 6.0) <= 1e-10
        monkeypatch.setattr(chern, "QUAD_MAX_INTERVALS", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularPointError, match="segment 0"):
                integrate_gamma(field, self.STEEP)

    @pytest.mark.parametrize("path, sizes", [
        ([(0.0, 1.0), (0.2, 1.1), (0.1, 1.3), (-0.2, 1.15)], [63]),
        (STEEP, [21, 42, 42, 42, 42, 42])])
    def test_one_gamma_call_per_round(self, path, sizes, monkeypatch):
        """Each round evaluates gamma once, at 21 nodes per open interval:
        a smooth path takes one round; a bisected segment one per halving."""
        field = solution_potential("A").characteristic_field()
        calls = []

        def counted(field, point, order=0):
            calls.append(np.size(point[0]))
            return gamma_cubic(field, point, order)

        monkeypatch.setattr(chern, "gamma_cubic", counted)
        integrate_gamma(field, path)
        assert calls == sizes


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


LABEL_FIELDS = {"A": solution_potential("A").characteristic_field(),
                "B": solution_potential("B").characteristic_field(),
                "control": CONTROL}


class TestLabelInvariance:
    @pytest.mark.parametrize("name", LABEL_FIELDS)
    def test_gamma_ignores_the_root_labels(self, name):
        """The connection does not depend on how the roots are labelled:
        all six orders of the roots give the same gamma jet (order 1).
        Web B's field is constant, so its gamma vanishes under every label;
        the others are checked where gamma does not."""
        f = LABEL_FIELDS[name]
        for point in [(0.1, 1.0), (0.3, 0.7)]:
            ref = roots(f, point)
            got = []
            for perm in itertools.permutations(range(3)):
                triple = normalize_roots(f, point, order=2,
                                         label_ref=[ref[i] for i in perm])
                g = gamma_expressions_from_sigma(triple.sigma)[0]
                got.append(np.stack([g.gx.c, g.gy.c]))
            scale = np.max(np.abs(got[0]))
            assert (scale == 0) == (name == "B")
            for g in got[1:]:
                assert np.max(np.abs(g - got[0])) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Arrays of points and single lifts

def bits(arr):
    return np.ascontiguousarray(arr, dtype=complex).view(np.uint64)


class TestPointArrays:
    @pytest.mark.parametrize("name", ["A", "B", "symmetry-losing", "control"])
    def test_gamma_cubic_equals_stacked_single_points(self, name):
        field = {"A": solution_potential("A").characteristic_field(),
                 "B": solution_potential("B").characteristic_field(),
                 "symmetry-losing": symmetry_losing_web(),
                 "control": CONTROL}[name]
        pts = np.array([random_regular_point(field) for _ in range(12)]).T
        for order in (0, 1):
            got = gamma_cubic(field, tuple(pts), order=order)
            for i, p in enumerate(pts.T):
                want = gamma_cubic(field, tuple(p), order=order)
                assert np.array_equal(bits(got.gx.c[i]), bits(want.gx.c))
                assert np.array_equal(bits(got.gy.c[i]), bits(want.gy.c))

    def test_singular_point_raises_as_its_single_call(self):
        field = solution_potential("A").characteristic_field()
        xs = np.array([0.1, 0.2, 0.0, 0.3, 0.0])
        ys = np.array([1.0, 0.9, 0.0, 1.1, 0.0])  # D = 0 at the origin
        with pytest.raises(SingularPointError) as single:
            gamma_cubic(field, (xs[2], ys[2]))
        with pytest.raises(SingularPointError) as batch:
            gamma_cubic(field, (xs, ys))
        assert str(batch.value) == str(single.value)
        assert "(0.0, 0.0)" in str(batch.value)
        assert batch.value.disc == single.value.disc

    @pytest.mark.parametrize("route,case", [("corollary", "A"),
                                            ("depressed", "A"),
                                            ("depressed", "B")])
    def test_one_lift_per_point(self, route, case, monkeypatch):
        # web B's slope cubic has no quadratic term (the printed (A, B)
        # formula); web A's has one (gamma_cubic + d ln D / 6)
        pot = solution_potential(case)
        lifts = []
        lift = PolyCoeffField.coeff_jets
        monkeypatch.setattr(PolyCoeffField, "coeff_jets",
                            lambda *a: lifts.append(1) or lift(*a))
        if route == "corollary":
            corollary_residual(pot, (0.1, 1.0))
        else:
            gamma_depressed(pot.characteristic_field(), (0.1, 1.0), order=1)
        assert len(lifts) == 1
