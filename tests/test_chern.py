"""Web connection: route agreement, flatness, path integrals, transport."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexweb import chern
from hexweb import cubic
from hexweb.chern import (PathFrame, blaschke_transport, corollary_residual,
                          curvature, dual_frame, frame_components,
                          gamma_cubic, gamma_depressed,
                          gamma_expressions_from_sigma, gamma_from_definition,
                          integrate_gamma)
from hexweb.cubic import (MAX_MOVE, MIN_PIECE, PolyCoeffField,
                          SingularPointError, coeff_values,
                          discriminant_of_coeffs, discriminant_scale,
                          factorization_residual,
                          match_roots, nonvanishing, normalization_core,
                          normalize_roots, proj_distance, roots_proj)
from hexweb.frobenius import Potential, solution_potential, taylor_solve
from hexweb.jets import PolyExpr, cbrt_factor, jet_cbrt
from hexweb.singular import normal_form_field, symmetry_losing_web
from webs import CONTROL_GENERIC as CONTROL, random_poly

RNG = np.random.default_rng(431)


def random_regular_point(field, rng=RNG, window=None):
    """A point well off D = 0: standard normal, or uniform in window."""
    for _ in range(100):
        if window is None:
            x, y = rng.standard_normal(2)
        else:
            (x0, x1), (y0, y1) = window
            x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
        co = field.coeffs(x, y)
        if abs(discriminant_of_coeffs(*co)) > 1e-3 * discriminant_scale(co):
            return x, y
    raise AssertionError("no regular point found")


def bits(arr):
    return np.ascontiguousarray(arr, dtype=complex).view(np.uint64)


class TestRouteAgreement:
    def test_cubic_equals_definition_random_fields(self):
        for _ in range(20):
            field = PolyCoeffField(*(random_poly(RNG) for _ in range(4)))
            pts = tuple(np.array([random_regular_point(field)
                                  for _ in range(5)]).T)
            g1 = np.array(gamma_cubic(field, pts).values())
            g2 = np.array(gamma_from_definition(field, pts).values())
            scale = 1.0 + np.max(np.abs(g1), axis=0)
            assert np.all(np.max(np.abs(g1 - g2), axis=0) < 1e-7 * scale)

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

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="unknown curvature route"):
            curvature(CONTROL, (0.5, 0.5), route="exact")


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

    def test_refuses_the_first_point_off_the_solutions(self):
        # case B with f = x^3/6 + y^3/6 + x^4/10: the residual is 12 x / 5,
        # so the identity is claimed on x = 0 only
        pot = Potential(case="B", f=PolyExpr.from_dict(
            {(3, 0): "1/6", (0, 3): "1/6", (4, 0): "1/10"}))
        xs, ys = np.array([0.0, 0.0, 0.3, 0.0, 0.5]), np.full(5, 0.8)
        assert corollary_residual(pot, (xs[:2], ys[:2])).shape == (2,)
        with pytest.raises(ValueError) as single:
            corollary_residual(pot, (xs[2], ys[2]))
        with pytest.raises(ValueError) as batch:
            corollary_residual(pot, (xs, ys))
        assert type(batch.value) is type(single.value) is ValueError
        assert str(batch.value) == str(single.value)
        assert "at (0.3, 0.8)" in str(batch.value)


class TestPathIntegrals:
    def test_flat_web_is_exact(self):
        field = solution_potential("A").characteristic_field()
        base, targ = (0.0, 1.0), (0.3, 1.2)
        p1 = integrate_gamma(field, [base, targ])
        p2 = integrate_gamma(field, [base, (0.3, 1.0), targ])
        p3 = integrate_gamma(field, [base, (-0.1, 1.25), targ])
        assert abs(p1 - p2) < 1e-8
        assert abs(p1 - p3) < 1e-8

    def test_control_web_is_path_dependent(self):
        base, targ = (-2.5, 0.1), (-2.3, 0.2)
        p1 = integrate_gamma(CONTROL, [base, targ])
        p2 = integrate_gamma(CONTROL, [base, (-2.5, 0.2), targ])
        assert abs(p1 - p2) > 1e-4
        assert abs(p1 - p2) == pytest.approx(1.2807e-3, rel=1e-3)

    def test_rejects_singular_crossing(self):
        field = solution_potential("A").characteristic_field()
        # the y=0 axis is on the discriminant 32y^3 = 27x^2
        with pytest.raises(SingularPointError):
            integrate_gamma(field, [(-0.2, 0.5), (0.2, -0.5)])

    def test_rejects_a_crossing_between_nodes(self):
        # y = 0.2 meets 32y^3 = 27x^2 at x = +-0.0974, between the first
        # round's nodes; gamma is odd about the midpoint, so the sums
        # would cancel to ~0 instead of diverging
        field = solution_potential("A").characteristic_field()
        with pytest.raises(SingularPointError, match="D changes sign"):
            integrate_gamma(field, [(-0.5, 0.2), (0.5, 0.2)])
        # the same line past the crossing integrates
        assert np.isfinite(integrate_gamma(field, [(0.2, 0.2), (0.5, 0.2)]))

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
        e1, e2 = dual_frame(tr.values())
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
        e1, e2 = dual_frame(start.values())
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


def reference_frame(field, path):
    """PathFrame one checkpoint at a time: every trial point's triple is
    normalized on its own, its roots labelled by match_roots against the
    last checkpoint's sigma and its cube root branched nearest that
    checkpoint's lam.  Returns the list of (point, sigma values)."""
    def triple(pt, ref=None, lam=None):
        x, y = pt
        jets = field.coeff_jets(x, y, 0)
        vals = roots_proj(coeff_values(jets))
        if ref is not None:
            vals, _ = match_roots(ref, vals)
        sp, lam3 = normalization_core(jets, x, y, 0, vals)
        r = jet_cbrt(lam3)
        if lam is not None:
            r = r * cbrt_factor(r.value, lam)
        return [((r * P).value, (r * Q).value) for P, Q in sp], r.value

    pts = [np.asarray(p, dtype=complex) for p in path]
    trail = [(pts[0], *triple(pts[0]))]
    for P0, P1 in zip(pts[:-1], pts[1:]):
        stack = [(0.0, 1.0)]
        while stack:
            t0, t1 = stack.pop()
            pt = P0 + t1 * (P1 - P0)
            ref, lam = trail[-1][1:]
            sigma, lam_pt = triple(pt, ref, lam)
            if (sum(map(proj_distance, ref, sigma)) > MAX_MOVE
                    and t1 - t0 > MIN_PIECE):
                mid = 0.5 * (t0 + t1)
                stack += [(mid, t1), (t0, mid)]
            else:
                trail.append((pt, sigma, lam_pt))
    return [(pt, sigma) for pt, sigma, _ in trail]


# regular windows: web B's field is constant; D = -4 (x + y^2)^3 - 27 keeps
# one sign on each of the control windows, so no path crosses D = 0
FRAME_WINDOWS = {
    "A": (solution_potential("A").characteristic_field(),
          ((-0.45, 0.45), (0.7, 1.35))),
    "B": (solution_potential("B").characteristic_field(),
          ((-0.8, 0.8), (-0.8, 0.8))),
    "control D > 0": (CONTROL, ((-3.0, -2.2), (-0.3, 0.3))),
    "control D < 0": (CONTROL, ((-1.0, 1.0), (-0.5, 0.5))),
    "complex": (PolyCoeffField(
        PolyExpr.from_dict({(0, 0): 1.0, (1, 0): 0.5j}),
        PolyExpr.from_dict({(0, 1): 0.3 - 0.2j}),
        PolyExpr.from_dict({(0, 0): -1.0, (1, 1): 0.4j}),
        PolyExpr.from_dict({(0, 0): 0.7 + 0.1j, (2, 0): 1.0})),
        ((-0.6, 0.6), (-0.6, 0.6))),
}


class TestPathFrame:
    @pytest.mark.parametrize("name", FRAME_WINDOWS)
    def test_equals_the_per_checkpoint_chain(self, name):
        """Walking on raw roots and normalizing all checkpoints at once
        gives the checkpoints and sigma of normalizing at each, bit for
        bit; some paths bisect."""
        field, ((x0, x1), (y0, y1)) = FRAME_WINDOWS[name]
        rng = np.random.default_rng(1103)
        refined = 0
        for _ in range(10):
            path = [(rng.uniform(x0, x1), rng.uniform(y0, y1))
                    for _ in range(4)]
            got = PathFrame(field, path).checkpoints
            want = reference_frame(field, path)
            assert len(got) == len(want)
            for (pt, sigma), (pt_w, sigma_w) in zip(got, want):
                assert np.array_equal(bits(pt), bits(pt_w))
                assert np.array_equal(bits(sigma), bits(sigma_w))
            refined += len(got) > len(path)
        # web B's field is constant: its roots never move
        assert (refined > 0) == (name != "B")

    def test_makes_no_normalize_roots_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return normalize_roots(*args, **kwargs)

        for module in (cubic, chern):
            monkeypatch.setattr(module, "normalize_roots", counted)
        field = FRAME_WINDOWS["A"][0]
        path = [(0.0, 1.0), (0.3, 1.1), (0.1, 1.3)]
        frame = PathFrame(field, path)
        blaschke_transport(field, path, (0.4, -0.9))
        assert calls == [] and len(frame.checkpoints) >= len(path)

    def test_raises_where_the_path_crosses_the_discriminant(self):
        """D of the real control web changes sign along this path (4.39,
        -0.82, -0.046, 24.2 at its vertices): the labels of the pair that
        turns complex cannot be continued, so the frame refuses, as
        integrate_gamma does."""
        path = [(-2.1632, 0.4195), (-2.0225, 0.3899), (-2.1082, 0.4684),
                (-2.3691, 0.1716)]
        D = [discriminant_of_coeffs(*CONTROL.coeffs(*p)).real for p in path]
        assert D[0] > 0 > D[1] and D[2] < 0 < D[3]
        with pytest.raises(SingularPointError, match="crosses D = 0"):
            PathFrame(CONTROL, path)
        with pytest.raises(SingularPointError):
            integrate_gamma(CONTROL, path)

    def test_transport_ignores_a_midpoint_vertex(self):
        """Parallel transport depends on the curve, not on its vertices:
        [P0, P1] and [P0, midpoint, P1] transport alike (the last segment
        takes two checkpoints alone and three with its midpoint)."""
        field = FRAME_WINDOWS["A"][0]
        for P0, P1 in [((0.0, 1.0), (0.3, 1.25)), ((-0.3, 0.8), (0.35, 1.3)),
                       ((0.1, 0.9), (-0.4, 1.3)), ((0.0, 1.0), (0.05, 1.02))]:
            P0, P1 = np.array(P0), np.array(P1)
            for xi in [(1.0, 0.0), (0.4, -0.9)]:
                one = blaschke_transport(field, [P0, P1], xi).vector
                two = blaschke_transport(field, [P0, 0.5 * (P0 + P1), P1],
                                         xi).vector
                assert max(abs(a - b) for a, b in zip(one, two)
                           ) <= 1e-8 * max(map(abs, one))


class TestDepressedChart:
    def test_constant_depressed_coefficients_give_zero_gamma(self):
        # A = 2x evaluated at... use truly constant A, B: x^3 + A x + B form
        field = PolyCoeffField(
            PolyExpr.const(-1, 2), PolyExpr.zero(),
            PolyExpr.const(-2.0, 2), PolyExpr.const(0.5, 2))
        g = gamma_depressed(field, (0.9, -0.4))
        assert g.norm() < 1e-12

    def test_depressed_discriminant_zero_raises(self):
        # normal form 2, m^3 + 2x m + y: A = B = 0 at the origin
        field = normal_form_field(2).field
        with pytest.raises(SingularPointError, match=r"4A\^3 \+ 27B\^2"):
            gamma_depressed(field, (0.0, 0.0))


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
        for x, y in [(0.1, 1.0), (0.3, 0.7)]:
            ref = roots_proj(nonvanishing(f.coeffs(x, y), x, y))
            got = []
            for perm in itertools.permutations(range(3)):
                sp, lam3 = normalization_core(f.coeff_jets(x, y, 2), x, y, 2,
                                              [ref[i] for i in perm])
                lam = jet_cbrt(lam3)
                g = gamma_expressions_from_sigma(
                    [(lam * P, lam * Q) for P, Q in sp])[0]
                got.append(np.stack([g.gx.c, g.gy.c]))
            scale = np.max(np.abs(got[0]))
            assert (scale == 0) == (name == "B")
            for g in got[1:]:
                assert np.max(np.abs(g - got[0])) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Arrays of points and single lifts


def gamma_coeffs(g):
    return np.stack([g.gx.c, g.gy.c])


# a potential, or a field, and the window its points come from: the series
# solution solves its equation only near its base point
ROW_CASES = {
    "web A": (solution_potential("A"), ((-1.0, 1.0), (0.3, 1.3))),
    "web B": (solution_potential("B"), ((-1.0, 1.0), (-1.0, 1.0))),
    "series A": (taylor_solve("A", [PolyExpr.from_dict(d) for d in (
        {(0, 0): 0.1, (2, 0): 0.3, (3, 0): -0.2}, {(1, 0): 0.4, (0, 0): 1.0},
        {(0, 0): 0.5, (1, 0): -0.3})], order=8),
        ((-0.012, 0.012), (-0.012, 0.012))),
    "control": (CONTROL, ((-1.0, 1.0), (-0.5, 0.5))),
    "symmetry-losing": (symmetry_losing_web(), ((0.2, 0.8), (0.4, 1.1))),
    "form 5": (normal_form_field(5).field, ((-0.35, 0.35), (0.3, 1.2))),
    "form 6": (normal_form_field(6, 1).field, ((0.02, 0.1), (0.5, 1.0))),
}

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
                assert np.array_equal(bits(got.gx.c[..., i]),
                                      bits(want.gx.c))
                assert np.array_equal(bits(got.gy.c[..., i]),
                                      bits(want.gy.c))

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


    @pytest.mark.parametrize("route", ["depressed"])
    def test_single_point_routes_refuse_arrays(self, route):
        pot = solution_potential("A")
        xs, ys = np.array([0.1, 0.3, -0.2]), np.array([1.0, 0.9, 1.1])
        with pytest.raises(ValueError, match="takes one point") as err:
            gamma_depressed(pot.characteristic_field(), (xs, ys))
        assert type(err.value) is ValueError

    def test_definition_raises_as_its_single_call(self):
        field = solution_potential("A").characteristic_field()
        xs = np.array([0.1, 0.2, 0.0, 0.3, 0.0])
        ys = np.array([1.0, 0.9, 0.0, 1.1, 0.0])  # D = 0 at the origin
        for route in (gamma_from_definition,
                      lambda f, p: curvature(f, p, route="definition")):
            with pytest.raises(SingularPointError) as single:
                route(field, (xs[2], ys[2]))
            with pytest.raises(SingularPointError) as batch:
                route(field, (xs, ys))
            assert str(batch.value) == str(single.value)
            assert "(0.0, 0.0)" in str(batch.value)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(ROW_CASES)), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_batched_routes_equal_their_single_calls(self, name, n, seed):
        """gamma_from_definition, curvature by the definition,
        factorization_residual, corollary_residual and the associativity
        residual give each point of an array its own call's floats."""
        obj, window = ROW_CASES[name]
        pot = obj if isinstance(obj, Potential) else None
        field = obj.characteristic_field() if pot else obj
        rng = np.random.default_rng(seed)
        pts = np.array([random_regular_point(field, rng, window)
                        for _ in range(n)]).T
        routes = {
            "definition": lambda p: gamma_coeffs(
                gamma_from_definition(field, p, order=1)),
            "curvature": lambda p: curvature(field, p, "definition").K,
            "factorization": lambda p: factorization_residual(
                field, normalize_roots(field, p)),
        }
        if pot is not None:
            routes["corollary"] = lambda p: corollary_residual(pot, p)
            routes["associativity"] = lambda p: pot.associativity_residual(
                *p)
        for route in routes.values():
            got = route(tuple(pts))
            for i, p in enumerate(pts.T):
                assert np.array_equal(bits(got[..., i]),
                                      bits(route(tuple(p))))


class TestCurvatureOracles:
    def test_stokes_on_small_squares(self):
        # the loop integral of gamma around a square of side h is the
        # integral of K dx ^ dy over it: K h^2 + O(h^4) at the centre
        K = curvature(CONTROL, (0.5, 0.5)).K
        errors = []
        for h in (0.04, 0.02, 0.01):
            lo, hi = 0.5 - h / 2, 0.5 + h / 2
            loop = [(lo, lo), (hi, lo), (hi, hi), (lo, hi), (lo, lo)]
            errors.append(abs(integrate_gamma(CONTROL, loop) / h ** 2 - K)
                          / abs(K))
        assert errors[0] < 3e-4
        assert errors[1] <= errors[0] / 3 and errors[2] <= errors[1] / 3

    @pytest.mark.parametrize("name", ["control", "random"])
    def test_curvature_ignores_a_common_factor(self, name):
        # (a, b, c, r) and g (a, b, c, r) define the same web: gamma moves
        # by an exact form and K stays
        rng = np.random.default_rng(2024)
        field = CONTROL if name == "control" else PolyCoeffField(
            *(random_poly(rng) for _ in range(4)))
        x, y = PolyExpr.var(0, 2), PolyExpr.var(1, 2)
        g = PolyExpr.const(1, 2) + x * x + y * y
        scaled = PolyCoeffField(*(p * g for p in field.abcr))
        pts = np.array([random_regular_point(field, rng)
                        for _ in range(8)]).T
        want = curvature(field, tuple(pts)).K
        assert np.all(np.abs(curvature(scaled, tuple(pts)).K - want)
                      <= 1e-12 * (1 + np.abs(want)))
        for p, k in zip(pts.T, want):
            got = curvature(scaled, tuple(p)).K
            assert abs(got - curvature(field, tuple(p)).K) <= 1e-12 * (
                1 + abs(k))


# ---------------------------------------------------------------------------
# Exact oracle: the formula functions on exact values at rational points


class Exact:
    """A rational value with its two first partials; enough of a jet for
    the formulas' +, -, * and .reciprocal()."""

    def __init__(self, v, dx=0, dy=0):
        self.v, self.dx, self.dy = Fraction(v), Fraction(dx), Fraction(dy)

    def __add__(self, o):
        o = o if isinstance(o, Exact) else Exact(o)
        return Exact(self.v + o.v, self.dx + o.dx, self.dy + o.dy)

    def __mul__(self, o):
        o = o if isinstance(o, Exact) else Exact(o)
        return Exact(self.v * o.v, self.dx * o.v + self.v * o.dx,
                     self.dy * o.v + self.v * o.dy)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def reciprocal(self):
        r = 1 / self.v
        return Exact(r, -self.dx * r * r, -self.dy * r * r)


def exact_gamma(field, x, y):
    """(gamma_x, gamma_y) of a field with rational coefficients at the
    rational point (x, y), each an Exact: _gamma_formula on exact values of
    (a, b, c, r) and their first partials, with partials of their own."""
    def at(p):
        return sum(Fraction(c) * x ** i * y ** j for (i, j), c in p.terms)

    vals, parts = [], []
    for p in field.abcr:
        px, py = p.diff(0), p.diff(1)
        vals.append(Exact(at(p), at(px), at(py)))
        parts += [Exact(at(px), at(px.diff(0)), at(px.diff(1))),
                  Exact(at(py), at(py.diff(0)), at(py.diff(1)))]
    return chern._gamma_formula(*vals, *parts)


def true_error(z, exact):
    """|z - exact| / (1 + |exact|) for a float z and a rational exact."""
    return float(np.hypot(float(Fraction(z.real) - exact), z.imag)) / (
        1 + abs(float(exact)))


RATIONAL_POINTS = [(0.1, 1.0), (-0.3, 0.8), (0.4, 1.2)]


class TestExactOracle:
    def test_gamma_routes_against_exact_gamma_on_web_a(self):
        # exact at the float point the routes see, so x = 0.1 is its double
        f = solution_potential("A").characteristic_field()
        for x, y in RATIONAL_POINTS:
            want = exact_gamma(f, Fraction(x), Fraction(y))
            for route in (gamma_cubic, gamma_from_definition):
                g = route(f, (x, y))
                for got, w in zip(g.values(), want):
                    assert true_error(got, w.v) < 1e-15

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_exact_curvature_vanishes_on_the_solutions(self, case):
        f = solution_potential(case).characteristic_field()
        for x, y in RATIONAL_POINTS:
            gx, gy = exact_gamma(f, Fraction(x), Fraction(y))
            assert gy.dx - gx.dy == 0

    def test_curvature_against_exact_curvature_on_the_control(self):
        for x, y in RATIONAL_POINTS:
            gx, gy = exact_gamma(CONTROL, Fraction(x), Fraction(y))
            K = gy.dx - gx.dy
            assert K != 0
            for route in ("cubic", "definition"):
                assert true_error(curvature(CONTROL, (x, y), route).K,
                                  K) < 1e-14
