"""Real web geometry: leaf integration, hexagon closure, first integrals,
scaling symmetries."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexweb import cubic, webgeo
from hexweb.chern import curvature, gamma_cubic, integrate_gamma
from hexweb.cubic import (REGULAR_DISC_TOL, CallableJetField,
                          DegenerateFieldError, PolyCoeffField,
                          SingularPointError, chain_labels,
                          coeff_values, match_roots, nonvanishing,
                          normalization_core, normalize_roots,
                          proj_distance, roots_proj)
from hexweb.frobenius import Potential, solution_potential
from hexweb.jets import PolyExpr, cbrt_factor, jet_cbrt
from hexweb.singular import symmetry_losing_web
from hexweb.webgeo import (FI_STEP, START_IMAG_TOL, FirstIntegralState,
                           LeafIntegrationError, _first_crossing, _quotient,
                           first_integrals, integrate_leaf, leaf_through,
                           real_directions, symmetry_residual,
                           thomsen_closure)
from webs import (X, Y, CONTROL_GENERIC, CONTROL_SLOPES as CONTROL,
                  root_chains, search_per_permutation, slope_web)

PARALLEL = slope_web(0.0, 1.0, -2.0)        # three families of parallel lines
FIELD_A = solution_potential("A").characteristic_field()


def cubic_residual(field, point, direction):
    """|C(x, y; -uy, ux)| / (1 + max |coeff|) for the direction (ux, uy)."""
    a, b, c, r = co = field.coeffs(*point)
    p, q = -direction[1], direction[0]  # leaf vector (q, -p)
    val = a * p**3 + b * p * p * q + c * p * q * q + r * q**3
    return abs(val) / (1 + np.max(np.abs(co)))


def numpy_real_directions(field, point):
    """real_directions in the numpy formulation it replaced, on the batched
    root kernel: the reference for its floats."""
    p, q = roots_proj(field.coeffs(*point)[None])[0].T
    v = np.stack([q, -p], axis=-1)
    if (np.max(np.abs(v.imag), axis=1)
            > START_IMAG_TOL * np.max(np.abs(v), axis=1)).any():
        raise LeafIntegrationError(f"complex leaf direction at {point}")
    u = v.real / np.linalg.norm(v.real, axis=1, keepdims=True)
    u[(u[:, 1] < 0) | ((u[:, 1] == 0) & (u[:, 0] < 0))] *= -1
    return u[np.argsort(np.arctan2(u[:, 1], u[:, 0]) % np.pi, kind="stable")]


class TestRealDirections:
    @pytest.mark.parametrize("name", ["A", "control", "A*1j"])
    def test_equals_the_numpy_formulation_bit_for_bit(self, name):
        field, complex_at = GOLDEN_FIELDS[name], 0
        for x in np.linspace(-0.9, 0.9, 13):
            for y in np.linspace(0.05, 1.45, 11):
                try:
                    want = numpy_real_directions(field, (x, y))
                except LeafIntegrationError:
                    complex_at += 1
                    with pytest.raises(LeafIntegrationError,
                                       match=r"complex leaf direction at "
                                       r"\(.*\) \(D <= 0 region\)"):
                        real_directions(field, (x, y))
                    continue
                got = real_directions(field, (x, y))
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (x, y)
        # the grid meets web A's D < 0 region, below its cusp 32 y^3 = 27 x^2;
        # the control's slopes are real everywhere
        if name == "control":
            assert complex_at == 0
        else:
            assert 0 < complex_at < 13 * 11 / 2

    def test_directions_solve_the_cubic(self):
        for pt in [(0.2, 0.9), (-0.4, 1.1), (0.2, 0.5)]:
            for vx, vy in real_directions(FIELD_A, pt):
                assert abs(np.hypot(vx, vy) - 1.0) < 1e-12
                assert cubic_residual(FIELD_A, pt, (vx, vy)) < 1e-9

    def test_angle_sorted_upper_half_plane(self):
        dirs = real_directions(PARALLEL, (0.0, 0.0))
        angles = [np.arctan2(vy, vx) for vx, vy in dirs]
        assert all(0 <= a < np.pi + 1e-12 for a in angles)
        assert angles == sorted(angles)

    def test_complex_directions_rejected(self):
        # elliptic region: D < 0 leaves only one real direction
        f = PolyCoeffField(PolyExpr.const(1, 2), PolyExpr.zero(),
                           PolyExpr.const(0, 2), PolyExpr.const(1, 2))
        with pytest.raises((LeafIntegrationError, ValueError)):
            real_directions(f, (0.0, 0.0))


class TestLeafIntegration:
    def test_straight_leaves_stay_straight(self):
        for branch, slope in ((1, 0.0), (2, 1.0), (3, -2.0)):
            leaf = integrate_leaf(PARALLEL, (0.1, 0.2), branch, 1.5)
            assert leaf.termination == "length"
            dx = leaf.points[:, 0] - 0.1
            dy = leaf.points[:, 1] - 0.2
            # branches are angle-sorted, so identify the slope from data
            k = dy[-1] / dx[-1] if abs(dx[-1]) > 1e-9 else np.inf
            assert np.max(np.abs(dy - k * dx)) < 1e-9

    def test_params_are_arclength(self):
        leaf = integrate_leaf(FIELD_A, (0.0, 1.0), 2, 0.8)
        assert np.all(np.diff(leaf.params) > 0)
        assert leaf.params[-1] == pytest.approx(0.8, abs=1e-9)
        seg = np.linalg.norm(np.diff(leaf.points, axis=0), axis=1).sum()
        assert seg == pytest.approx(0.8, rel=1e-6)

    def test_point_at_interpolates(self):
        leaf = integrate_leaf(FIELD_A, (0.0, 1.0), 1, 0.6, tol=1e-10)
        for s in [0.0, 0.123, 0.456, 0.6]:
            pt = leaf.point_at(s)
            # the interpolated point lies on the leaf: re-integrate to it
            probe = integrate_leaf(FIELD_A, (0.0, 1.0), 1, s, tol=1e-12)
            assert np.linalg.norm(pt - probe.points[-1]) < 1e-7

    def test_domain_termination(self):
        leaf = integrate_leaf(PARALLEL, (0.0, 0.0), 2, 10.0,
                              domain=[[-1.0, 1.0], [-1.0, 1.0]])
        assert leaf.termination == "domain"
        # stops at the first node beyond the boundary (within one step)
        assert np.max(np.abs(leaf.points[:-1])) <= 1.0 + 1e-6
        assert np.max(np.abs(leaf.points[-1])) <= 1.0 + 0.06

    def test_discriminant_termination(self):
        # solution A web is singular on 32y^3 = 27x^2; head toward y -> 0
        leaf = integrate_leaf(FIELD_A, (0.0, 0.4), 2, -10.0)
        assert leaf.termination == "discriminant-proximity"

    @pytest.mark.parametrize("length, tol", [
        (np.nan, 1e-8), (np.inf, 1e-8), (0.03, np.nan), (0.03, -1.0),
        (0.03, 0.0), (0.03, np.inf), (0.03, 1e-16), (0.03, 1e-300)])
    def test_bad_length_or_tol_raises_before_any_work(self, length, tol):
        calls = []
        field = CallableJetField(
            lambda x, y, order: calls.append(1) or FIELD_A.coeff_jets(
                x, y, order))
        with pytest.raises(ValueError, match="bad branch/length/tol"):
            integrate_leaf(field, (0.05, 1.0), 1, length, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("branch", [0, 4, "1"])
    def test_bad_branch_raises_before_the_root_solve(self, branch):
        # (0, 0) is on the discriminant: a start check would raise first
        with pytest.raises(ValueError, match="bad branch"):
            integrate_leaf(FIELD_A, (0.0, 0.0), branch, 0.03)

    def test_hermite_matches_nodes_and_point_at(self):
        leaf = leaf_through(FIELD_A, (0.1, 1.0), 1, 0.3, tol=1e-10)
        for i in (0, 5, len(leaf.params) // 2, len(leaf.params) - 1):
            point, tangent = leaf.hermite(leaf.params[i])
            assert np.array_equal(point, leaf.points[i])
            assert np.max(np.abs(tangent - leaf.tangents[i])) < 1e-15
        h = 1e-6
        for s in (-0.2, 0.0123, 0.2345):
            diff = (leaf.point_at(s + h) - leaf.point_at(s - h)) / (2 * h)
            assert np.max(np.abs(leaf.hermite(s)[1] - diff)) < 1e-8

    def test_leaf_through_is_coherent(self):
        leaf = leaf_through(FIELD_A, (0.1, 1.0), 2, 0.4)
        assert np.all(np.diff(leaf.params) > 0)
        mid = leaf.point_at(0.0)
        assert np.linalg.norm(mid - [0.1, 1.0]) < 1e-9
        # tangents along the merged leaf never flip direction
        dots = np.sum(leaf.tangents[:-1] * leaf.tangents[1:], axis=1)
        assert np.min(dots) > 0.9

    def test_singular_start_rejected(self):
        with pytest.raises(SingularPointError):
            integrate_leaf(FIELD_A, (0.0, 0.0), 1, 0.5)

    def test_start_where_the_discriminant_overflows_is_rejected(self):
        # a = 1e160 (1 + x): D is nan + nanj at (0, 1), whose abs() may
        # raise OverflowError
        field = PolyCoeffField(PolyExpr.const(1e160, 2) + X * 1e160,
                               PolyExpr.const(1, 2), Y, PolyExpr.const(1, 2))
        with pytest.raises(SingularPointError, match=r"not finite at the "
                           r"start \(0\.0, 1\.0\)"):
            integrate_leaf(field, (0.0, 1.0), 1, 0.3)

    def test_a_step_rejected_at_the_least_size_ends_the_leaf(self,
                                                            monkeypatch):
        # the steep branch of slope 1e6 x + 2.5, from (0, 0): its first
        # step meets tol = 1e-8 only below 1e-6, so with LEAF_MIN_STEP
        # raised to 1e-6 a step rejected at that size ends the leaf
        field = slope_web(0.0, 1.0, X * 1e6 + 2.5)
        assert integrate_leaf(field, (0.0, 0.0), 3, 0.5).termination == \
            "length"
        monkeypatch.setattr(webgeo, "LEAF_MIN_STEP", 1e-6)
        leaf = integrate_leaf(field, (0.0, 0.0), 3, 0.5)
        assert leaf.termination == "discriminant-proximity"
        assert leaf.points.tolist() == [[0.0, 0.0]]

    def test_failing_stages_end_the_leaf_at_the_retry_step(self,
                                                          monkeypatch):
        # every stage fails: the first step, LEAF_MAX_STEP, is quartered
        # until it is at or below LEAF_RETRY_STEP
        calls = []

        def failing(field, state, first_order=None):
            calls.append(state)
            raise LeafIntegrationError("leaf direction not real")

        monkeypatch.setattr(webgeo, "_turning_rate", failing)
        leaf = integrate_leaf(FIELD_A, (0.0, 1.0), 1, 0.5)
        assert leaf.termination == "discriminant-proximity"
        assert leaf.points.tolist() == [[0.0, 1.0]]
        assert len(calls) == 1 + math.ceil(math.log(
            webgeo.LEAF_MAX_STEP / webgeo.LEAF_RETRY_STEP, 4))

    def test_a_complex_turning_rate_is_refused(self):
        # r = i x: at (0.5, 0) the covector (0, 1) turns at the rate i
        field = PolyCoeffField(PolyExpr.zero(), PolyExpr.zero(),
                               PolyExpr.const(1), X * 1j)
        with pytest.raises(LeafIntegrationError, match="not real"):
            webgeo._turning_rate(field, (0.5, 0.0, 1.0, 0.0))


class TestCarriedDirection:
    """The leaf carries its direction u: no root solve after the start."""

    def test_direction_stays_a_root_of_the_cubic(self):
        leaves = [(FIELD_A, integrate_leaf(FIELD_A, (0.0, 1.0), j, 0.6,
                                           tol=1e-10)) for j in (1, 2, 3)]
        end = integrate_leaf(FIELD_A, (0.1, 1.0), 2, -0.8, tol=1e-10)
        assert end.termination == "discriminant-proximity"
        leaves.append((FIELD_A, end))
        leaves.append((CONTROL, integrate_leaf(CONTROL, (0.0, 0.0), 3, 0.6,
                                               tol=1e-10)))
        for field, leaf in leaves:
            assert np.allclose(np.hypot(*leaf.tangents.T), 1.0, atol=1e-14)
            assert max(cubic_residual(field, pt, u) for pt, u in
                       zip(leaf.points, leaf.tangents)) <= 1e-9

    @pytest.mark.parametrize("factor", ["1j", "1 + x^2 + y^2"])
    def test_leaves_ignore_a_nonvanishing_factor(self, factor):
        g = (PolyExpr.const(1j, 2) if factor == "1j"
             else PolyExpr.const(1, 2) + X * X + Y * Y)
        scaled = PolyCoeffField(*(g * f for f in FIELD_A.abcr))
        for start, branch, length in [((0.0, 1.0), 1, 0.6),
                                      ((0.1, 1.0), 3, -0.5)]:
            want = integrate_leaf(FIELD_A, start, branch, length, tol=1e-10)
            got = integrate_leaf(scaled, start, branch, length, tol=1e-10)
            assert got.termination == want.termination
            for s in np.linspace(0.0, min(got.params[-1], want.params[-1]),
                                 7):
                assert np.linalg.norm(got.point_at(s)
                                      - want.point_at(s)) <= 1e-9

    def test_one_root_solve_per_leaf(self, monkeypatch):
        calls = []

        def counted(co, *mag):
            calls.append(co)
            return roots_proj(co, *mag)

        monkeypatch.setattr("hexweb.cubic.roots_proj", counted)
        for start, branch, length in [((0.0, 1.0), 1, 0.6),
                                      ((0.1, 1.0), 2, -0.8),
                                      ((0.0, 0.4), 2, -10.0)]:
            calls.clear()
            leaf = integrate_leaf(FIELD_A, start, branch, length)
            assert len(leaf.points) > 5
            assert len(calls) == 1


def scaled_a(factor):
    return PolyCoeffField(*(factor * f for f in FIELD_A.abcr))


# leaves as float.hex, each with its field's name, start, branch, length
# and tol, recorded when every RK stage lifted order-1 coefficient jets
GOLDEN_LEAVES = Path(__file__).parent / "data" / "leaves_golden.json"
GOLDEN_FIELDS = {"A": FIELD_A, "control": CONTROL,
                 "A*(1+x^2+y^2)": scaled_a(PolyExpr.const(1, 2) + X * X
                                           + Y * Y),
                 "A*1j": scaled_a(PolyExpr.const(1j, 2))}


def test_leaves_equal_their_recorded_floats():
    """The leaf loop keeps its floats bit for bit: web A on all branches
    both ways, the slope control, and web A times a nonvanishing factor."""
    cases = json.loads(GOLDEN_LEAVES.read_text())
    assert len(cases) == 11
    for case in cases:
        leaf = integrate_leaf(GOLDEN_FIELDS[case["field"]], case["start"],
                              case["branch"], case["length"], tol=case["tol"])
        assert leaf.termination == case["termination"], case["field"]
        for name in ("points", "tangents", "params"):
            got = [[v.hex() for v in row] if np.ndim(row) else row.hex()
                   for row in getattr(leaf, name).tolist()]
            assert got == case[name], (case["field"], case["start"], name)


def bits(*values):
    """The IEEE bits of floats and of complex numbers' parts."""
    return np.array(values, dtype=complex).view(np.uint64).tolist()


# floats of either sign from 1e-300 to 1e300 in magnitude, log-uniform,
# and signed zeros
SCALARS = st.one_of(
    st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
              st.floats(1.0, 10.0), st.integers(-300, 299),
              st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0]))


@st.composite
def divisors(draw):
    """Nonzero complex divisors, a third of them with |Re| = |Im|."""
    re, im = draw(SCALARS), draw(SCALARS)
    if draw(st.integers(0, 2)) == 0:
        im = draw(st.sampled_from([1.0, -1.0])) * re
    if re == im == 0:
        re = draw(st.sampled_from([1.0, -1.0]))
    return complex(re, im)


def constant_field(row):
    return PolyCoeffField(*(PolyExpr.const(v, 2) for v in row))


def random_real_poly(rng):
    """1-3 monomials of degree <= 2 in each variable, real coefficients."""
    return PolyExpr.from_dict({
        (int(rng.integers(0, 3)), int(rng.integers(0, 3))):
        float(rng.standard_normal()) for _ in range(rng.integers(1, 4))})


def product_field(rng, zero=None):
    """C(p, q) = (al1 p + be1 q)(al2 p + be2 q)(al3 p + be3 q) with random
    real polynomials al, be: three real directions wherever no factor
    vanishes or two agree; al1 = 0 makes a = 0, be1 = 0 makes r = 0."""
    al, be = ([random_real_poly(rng) for _ in range(3)] for _ in range(2))
    if zero == "a":
        al[0] = PolyExpr.zero()
    elif zero == "r":
        be[0] = PolyExpr.zero()
    return PolyCoeffField(
        al[0] * al[1] * al[2],
        al[0] * al[1] * be[2] + al[0] * be[1] * al[2] + be[0] * al[1] * al[2],
        al[0] * be[1] * be[2] + be[0] * al[1] * be[2] + be[0] * be[1] * al[2],
        be[0] * be[1] * be[2])


def leaf_start(field, point, branch, sign):
    """The leaf loop's start: its scale and first state, read from the
    generator's frame at its first yield."""
    steps = webgeo._leaf_steps(field, point, branch, sign, 1e-10, 0.01, 0.1)
    next(steps)
    return steps.gi_frame.f_locals["scale"], steps.gi_frame.f_locals["state"]


def numpy_leaf_start(field, point, branch, sign):
    """The same in the numpy formulas that the start replaced."""
    row = np.array(field.first_order(*point)[0])
    scale = cubic.discriminant_scale(row)
    if abs(cubic.discriminant_of_coeffs(*row)) <= REGULAR_DISC_TOL * scale:
        raise SingularPointError("start on the discriminant")
    dirs = numpy_real_directions(field, point)
    return scale, point + tuple((sign * dirs[branch - 1]).tolist())


class TestScalarStages:
    """The leaf stages' Python scalars round as the numpy calls they
    replace: the turning rate's quotient, the norm of u, and the start's
    scale, directions and first state; the start's vanishing test agrees
    with nonvanishing's, NaN rows included."""

    @settings(max_examples=400, deadline=None)
    @given(SCALARS, SCALARS, divisors())
    def test_quotient_equals_numpy_bit_for_bit(self, nr, ni, d):
        n = complex(nr, ni)
        with np.errstate(all="ignore"):
            want = complex(np.complex128(n) / d)
        assert bits(_quotient(n, d)) == bits(want), (n, d)

    def test_quotient_ties_and_signed_zeros(self):
        for n in [1 + 2j, complex(-0.0, 3.0), complex(0.0, -0.0),
                  1e300 - 1e-300j]:
            for d in [1 + 1j, -1 + 1j, complex(2.0, -2.0), complex(-0.0, 1.0),
                      complex(1.0, -0.0), complex(-3.0, -0.0),
                      complex(1e-300, 1e-300), complex(1e300, -1e300)]:
                with np.errstate(all="ignore"):
                    want = complex(np.complex128(n) / d)
                assert bits(_quotient(n, d)) == bits(want), (n, d)

    @settings(max_examples=400, deadline=None)
    @given(SCALARS, SCALARS)
    def test_complex_abs_is_numpy_hypot(self, a, b):
        assert bits(abs(complex(a, b))) == bits(float(np.hypot(a, b)))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(SCALARS, min_size=4, max_size=4))
    def test_scale_is_discriminant_scale(self, row):
        # the start's formula: Python's pow, inf where it overflows
        mag = np.abs(np.array(row, dtype=complex))
        try:
            scale = (1.0 + max(mag.tolist())) ** 4
        except OverflowError:
            scale = math.inf
        with np.errstate(over="ignore"):
            assert bits(scale) == bits(cubic.discriminant_scale(mag))

    def test_overflowing_scale_is_inf(self):
        # D = -27 a^2 r^2 is finite, the scale (1 + 1e80)^4 is not: every
        # |D| is below REGULAR_DISC_TOL * inf
        field = constant_field((1e80, 0.0, 0.0, 1.0))
        with pytest.raises(SingularPointError, match=re.escape(
                "start on the discriminant: |D|=2.70e+161")):
            leaf_start(field, (0.0, 0.0), 1, 1.0)

    def test_seeded_real_fields_start_as_the_numpy_formulas(self):
        rng = np.random.default_rng(2026)
        compared = refused = 0
        fields = [PolyCoeffField(*(random_real_poly(rng) for _ in range(4)))
                  for _ in range(3)] + [product_field(rng, zero) for zero in
                                        (None, None, None, "a", "r")]
        for field in fields:
            for x, y in rng.uniform(-1.0, 1.0, (12, 2)).tolist():
                branch, sign = int(rng.integers(1, 4)), rng.choice([-1., 1.])
                try:
                    want = numpy_leaf_start(field, (x, y), branch, sign)
                except (LeafIntegrationError, SingularPointError) as e:
                    refused += 1  # complex directions, or D = 0
                    with pytest.raises(type(e)):
                        leaf_start(field, (x, y), branch, sign)
                    continue
                got = leaf_start(field, (x, y), branch, sign)
                assert type(got[0]) is float
                assert bits(got[0], *got[1]) == bits(want[0], *want[1])
                dirs = webgeo._real_directions(field.coeffs(x, y), (x, y))
                assert bits(*sum(dirs, ())) == bits(
                    *numpy_real_directions(field, (x, y)).ravel())
                compared += 1
        # 54 and 42 with this seed
        assert compared >= 40 and refused >= 20

    @pytest.mark.parametrize("row", [(0.0, 0.0, 0.0, 0.0),
                                     (1e-12, 0.0, -1e-12j, 5e-13)])
    def test_vanishing_row_keeps_its_error(self, row):
        point = (0.25, -0.5)
        with pytest.raises(DegenerateFieldError) as want:
            cubic.nonvanishing(np.array(row, dtype=complex), *point)
        with pytest.raises(DegenerateFieldError) as got:
            real_directions(constant_field(row), point)
        assert str(got.value) == str(want.value)
        assert "all cubic coefficients vanish at (0.25, -0.5)" in str(
            got.value)

    @pytest.mark.parametrize("row", [(np.nan, 0.0, 0.0, 0.0),
                                     (0.0, np.nan, 0.0, 0.0),
                                     (0.0, 0.0, 0.0, np.nan),
                                     (1.0, complex(0.0, np.nan), 1.0, 1.0)])
    def test_nan_row_does_not_vanish(self, row):
        # the root solve gets the row and raises its own error, as it did
        # after nonvanishing; the leaf start names the NaN discriminant
        field = constant_field(row)
        with pytest.raises(Exception) as want:
            roots_proj(np.array(row, dtype=complex))
        with pytest.raises(Exception) as got:
            real_directions(field, (0.0, 0.0))
        assert type(got.value) is type(want.value) is not DegenerateFieldError
        assert str(got.value) == str(want.value)
        with pytest.raises(SingularPointError,
                           match="discriminant not finite at the start"):
            leaf_start(field, (0.0, 0.0), 1, 1.0)


# Thomsen hexagons as float.hex, recorded when every hexagon leaf was
# integrated to +-CLOSURE_REACH * eps: the ladder of the slope control at
# (0, 0) and web A at (0, 1), each with its field's name, base and eps
GOLDEN_HEXAGONS = Path(__file__).parent / "data" / "hexagons_golden.json"
# accepted leaf steps of web A's hexagon at (0, 1), eps 0.05, in that version
FULL_REACH_STEPS = 2710
# H3, flat, with f = x^3 y^2 / 6 + x^2 y^5 / 20 + y^11 / 3960 in case A; at
# (0.2, 0.8) its leaves of foliations 2 and 3 meet at 6.8 degrees, so the
# first moving leaf meets its target about 8.4 eps out
H3 = Potential("A", PolyExpr.from_dict({
    (3, 2): Fraction(1, 6), (2, 5): Fraction(1, 20),
    (0, 11): Fraction(1, 3960)}))
H3_BASE = (0.2, 0.8)


class TestThomsenClosure:
    def test_hexagons_equal_their_recorded_floats(self):
        cases = json.loads(GOLDEN_HEXAGONS.read_text())
        fields = {"control": CONTROL, "A": FIELD_A}
        assert len(cases) == 4
        for case in cases:
            rep = thomsen_closure(fields[case["field"]], case["base"],
                                  case["eps"], tol=1e-10)
            assert [[v.hex() for v in X] for X in np.array(
                rep.vertices).tolist()] == case["vertices"], case["eps"]
            assert rep.gap.hex() == case["gap"]

    def test_leaves_stop_at_their_crossing(self, monkeypatch):
        steps = []

        def counted(*args, **kwargs):
            steps.append(-1)  # the first yield is the start
            for half in leaf_steps(*args, **kwargs):
                steps[-1] += 1
                yield half

        leaf_steps = webgeo._leaf_steps
        monkeypatch.setattr(webgeo, "_leaf_steps", counted)
        rep = thomsen_closure(FIELD_A, (0.0, 1.0), 0.05, tol=1e-10)
        assert rep.gap < 1e-10
        assert len(steps) == 18  # three base leaves and six moving ones
        assert sum(steps) <= 0.6 * FULL_REACH_STEPS

    def test_h3_closes_beyond_the_old_reach(self):
        assert abs(H3.associativity_residual(*H3_BASE)) < 1e-15
        for eps in (0.005, 0.002):
            rep = thomsen_closure(H3.characteristic_field(), H3_BASE, eps,
                                  tol=1e-10)
            assert rep.gap <= 1e-10, eps

    def test_h3_names_the_discriminant(self):
        with pytest.raises(LeafIntegrationError,
                           match=r"hexagon leaf 2 reached the discriminant"):
            thomsen_closure(H3.characteristic_field(), H3_BASE, 0.01,
                            tol=1e-10)

    def test_parallel_lines_close_exactly(self):
        rep = thomsen_closure(PARALLEL, (0.0, 0.0), 0.1)
        assert rep.gap < 1e-15

    def test_crossing_of_straight_leaves_is_exact(self):
        # branch 1 is the line y = 0, branch 2 through (0.1, 0.2) has slope 1
        # and meets it at (-0.1, 0), 0.2 sqrt(2) behind its start
        target = leaf_through(PARALLEL, (0.0, 0.0), 1, 0.6)
        moving = leaf_through(PARALLEL, (0.1, 0.2), 2, 0.6)
        s = _first_crossing(moving, target)
        assert abs(s + 0.2 * np.sqrt(2.0)) < 1e-15
        assert np.linalg.norm(moving.point_at(s) - [-0.1, 0.0]) < 1e-15

    def test_no_crossing_gives_none(self):
        # leaves of one foliation: parallel lines, then curved leaves of A
        line = leaf_through(PARALLEL, (0.0, 0.0), 1, 0.6)
        assert _first_crossing(line, leaf_through(PARALLEL, (0.0, 0.1), 1,
                                                  0.6)) is None
        leaf = leaf_through(FIELD_A, (0.1, 1.0), 2, 0.3)
        assert _first_crossing(leaf, leaf_through(FIELD_A, (0.1, 1.05), 2,
                                                  0.3)) is None
        # a crossing at the moving leaf's own start does not count
        assert _first_crossing(leaf, leaf_through(FIELD_A, (0.1, 1.0), 1,
                                                  0.3)) is None

    def test_characteristic_web_closes(self):
        rep = thomsen_closure(FIELD_A, (0.0, 1.0), 0.05, tol=1e-10)
        assert rep.gap < 1e-6
        assert len(rep.vertices) == 7

    def test_control_web_gap_scales_cubically(self):
        base = (0.0, 0.0)
        gaps = [thomsen_closure(CONTROL, base, 0.05 / 2 ** i, tol=1e-10).gap
                for i in range(4)]
        assert gaps[0] > 1e-3
        ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
        for r in ratios:
            assert r == pytest.approx(8.0, rel=0.2)

    @pytest.mark.parametrize("eps, tol", [(0.0, 1e-10), (math.inf, 1e-10),
                                          (0.05, 0.0), (0.05, math.nan),
                                          (0.05, 1e-16)])
    def test_bad_eps_or_tol(self, eps, tol):
        with pytest.raises(ValueError, match="bad eps/tol"):
            thomsen_closure(FIELD_A, (0.0, 1.0), eps, tol=tol)


class TestFirstIntegrals:
    def test_abelian_relation_and_path_independence(self):
        base = (0.0, 1.0)
        st1 = first_integrals(FIELD_A, base, [base, (0.3, 1.1), (0.2, 1.3)])
        st2 = first_integrals(FIELD_A, base, [base, (-0.2, 1.2), (0.2, 1.3)])
        assert st1.abelian_residual < 1e-7
        assert st2.abelian_residual < 1e-7
        assert abs(st1.k_end - st2.k_end) < 1e-6
        assert np.max(np.abs(st1.u_end - st2.u_end)) < 1e-6

    def test_integral_constant_on_its_leaf(self):
        base = (0.0, 1.0)
        leaf = integrate_leaf(FIELD_A, base, 2, 0.25, tol=1e-11)
        path = [tuple(p) for p in leaf.points[::5]]
        if not np.allclose(path[-1], leaf.points[-1]):
            path.append(tuple(leaf.points[-1]))
        st = first_integrals(FIELD_A, base, path)
        # u_i follows the sigma ordering, not the angle-sorted branch
        # numbering: match the leaf tangent to the root triple's vectors
        triple = normalize_roots(FIELD_A, base)
        v0 = leaf.tangents[0]
        i = int(np.argmin([proj_distance((v0[0], v0[1]), (q, -p))
                           for p, q in triple.values()]))
        assert abs(st.u_end[i]) < 1e-7
        others = [abs(st.u_end[j]) for j in range(3) if j != i]
        assert min(others) > 1e-3

    def test_node_quadrature_matches_adaptive_gamma_integral(self):
        # k = exp(-int gamma) by Simpson on the nodes against scipy's quad
        for field, path in [
                (FIELD_A, [(0.0, 1.0), (0.3, 1.1), (0.2, 1.3), (-0.1, 1.2)]),
                (CONTROL_GENERIC, [(-2.5, 0.1), (-2.5, 0.2), (-2.3, 0.2)])]:
            st = first_integrals(field, path[0], path)
            want = np.exp(-integrate_gamma(field, path))
            assert abs(st.k_end - want) < 1e-9

    def test_path_must_start_at_the_base(self):
        with pytest.raises(ValueError, match="start at the base"):
            first_integrals(FIELD_A, (0.0, 1.0), [(0.1, 1.0), (0.2, 1.1)])

    def test_one_point_path(self):
        base = (0.0, 1.0)
        st = first_integrals(FIELD_A, base, [base])
        assert st.k.tolist() == [1.0]
        assert not np.signbit(st.k[0].imag)  # k[0] is 1 + 0j, not 1 - 0j
        assert np.all(st.u == 0)
        assert st.abelian_residual == 0.0

    def test_repeated_vertex_changes_nothing(self):
        base = (0.0, 1.0)
        path = [base, (0.1, 1.05), (0.05, 1.2)]
        st1 = first_integrals(FIELD_A, base, path)
        st2 = first_integrals(FIELD_A, base, path[:2] + path[1:])
        assert st2.k_end == st1.k_end
        assert np.array_equal(st2.u_end, st1.u_end)


def first_integrals_per_node(field, base, path):
    """Reference: first_integrals with gamma and the normalized triple
    evaluated one node at a time: each node's roots are labelled by
    match_roots against the last node's, and its cube root is branched by
    cbrt_factor nearest the last node's lam."""
    pts = np.asarray(path, dtype=float)
    if np.linalg.norm(pts[0] - np.asarray(base, dtype=float)) > 1e-12:
        raise ValueError("path must start at the base point")
    nodes = [pts[:1]]
    for P0, P1 in zip(pts[:-1], pts[1:]):
        n = max(2, int(np.ceil(np.linalg.norm(P1 - P0) / FI_STEP)))
        n += n % 2
        nodes.append(P0 + (np.arange(1, n + 1) / n)[:, None] * (P1 - P0))
    nodes = np.concatenate(nodes)
    gam, sig, vals, lam = [], [], None, None
    for x, y in nodes:
        gam.append(gamma_cubic(field, (x, y), order=0).values())
        jets = field.coeff_jets(x, y, 0)
        new = roots_proj(coeff_values(jets))
        vals = new if vals is None else match_roots(vals, new)[0]
        sp, lam3 = normalization_core(jets, x, y, 0, vals)
        r = jet_cbrt(lam3)
        if lam is not None:
            r = r * cbrt_factor(r.value, lam)
        sig.append([((r * P).value, (r * Q).value) for P, Q in sp])
        lam = r.value
    pair = 2 * np.arange(len(nodes) // 2)[:, None] + np.arange(3)
    dP = nodes[pair[:, 1]] - nodes[pair[:, 0]]

    def integral(f):
        zero = np.zeros((1,) + f.shape[2:])
        steps = (f[:, 0] + 4 * f[:, 1] + f[:, 2]) / 3.0
        ends = np.cumsum(np.concatenate([zero, steps]), axis=0)
        out = np.empty((len(nodes),) + f.shape[2:], dtype=complex)
        out[0::2] = ends
        out[1::2] = ends[:-1] + (f[:, 0] * 5 + f[:, 1] * 8 - f[:, 2]) / 12.0
        return out

    k = np.exp(-integral(np.einsum("pjc,pc->pj", np.array(gam)[pair], dP)))
    k[0] = 1.0
    u = integral(k[pair][:, :, None]
                 * np.einsum("pjmc,pc->pjm", np.array(sig)[pair], dP))
    return FirstIntegralState(nodes=nodes, k=k, u=u,
                              abelian_residual=float(np.max(np.abs(
                                  u.sum(axis=1)))))


def chain_labels_per_node(vals):
    """Reference for chain_labels: at each node the per-permutation search
    on the distances between the two nodes' roots."""
    d = proj_distance((vals[:-1, :, None, 0], vals[:-1, :, None, 1]),
                      (vals[1:, None, :, 0], vals[1:, None, :, 1])).tolist()
    labels = [(0, 1, 2)]
    for di in d:
        labels.append(search_per_permutation(
            labels[-1], (0, 1, 2), dist=lambda a, b: di[a][b])[0])
    return np.take_along_axis(vals, np.array(labels)[:, :, None], axis=1)


class TestChainLabels:
    @settings(max_examples=200, deadline=None)
    @given(root_chains())
    def test_equal_to_one_match_a_node(self, vals):
        # random moves, exact ties (coinciding roots) and near ties
        assert (chain_labels(vals).tobytes()
                == chain_labels_per_node(vals).tobytes())


def criterion_6_paths():
    """The paths of acceptance criterion 6 (same generator and seed): per
    fixture ten random three-segment paths and a two-path pair, in order."""
    rng = np.random.default_rng(106)
    fixtures = [
        (FIELD_A, (0.0, 1.0), ((-0.45, 0.45), (0.7, 1.35))),
        (solution_potential("B").characteristic_field(), (0.0, 0.0),
         ((-0.8, 0.8), (-0.8, 0.8))),
        (symmetry_losing_web(), (0.5, 0.7), ((0.25, 0.75), (0.45, 1.0))),
    ]
    out = []
    for field, base, ((x0, x1), (y0, y1)) in fixtures:
        for _ in range(10):
            out.append((field, base, [base] + [
                (rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(3)]))
        end = (0.5 * (x0 + x1), 0.75 * y1 + 0.25 * y0)
        for fx, fy in ((0.3, 0.6), (0.7, 0.7)):
            mid = (x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
            out.append((field, base, [base, mid, end]))
    return out


def state_bytes(st):
    return (st.nodes.tobytes(), st.k.tobytes(), st.u.tobytes(),
            np.float64(st.abelian_residual).tobytes())


class TestFirstIntegralsOnArrays:
    @pytest.mark.parametrize("index", [0, 10, 11, 12, 22, 23, 24, 34, 35])
    def test_equal_to_the_per_node_loop(self, index):
        # a random path and the two-path pair of each criterion-6 fixture;
        # the per-node reference costs 0.5-1.5 s a path
        field, base, path = criterion_6_paths()[index]
        assert (state_bytes(first_integrals(field, base, path))
                == state_bytes(first_integrals_per_node(field, base, path)))

    @pytest.mark.parametrize("path", [
        [(0.0, 1.0)],
        [(0.0, 1.0), (0.1, 1.05), (0.1, 1.05), (0.05, 1.2)],
        [(0.0, 1.0), (0.1, 1.05), (0.05, 1.2), (0.05, 1.2)],
    ], ids=["one point", "repeated vertex", "repeated end"])
    def test_degenerate_paths_equal_the_per_node_loop(self, path):
        assert (state_bytes(first_integrals(FIELD_A, path[0], path))
                == state_bytes(first_integrals_per_node(FIELD_A, path[0],
                                                        path)))

    def test_node_on_the_discriminant_is_named(self):
        # web A's discriminant 32 y^3 = 27 x^2 passes the vertex (0, 0)
        path = [(0.0, 0.5), (0.0, 0.0), (0.1, 0.3)]
        with pytest.raises(SingularPointError) as single:
            gamma_cubic(FIELD_A, (np.float64(0.0), np.float64(0.0)))
        with pytest.raises(SingularPointError) as err:
            first_integrals(FIELD_A, path[0], path)
        assert str(err.value) == str(single.value)
        assert "(0.0, 0.0)" in str(err.value)

    def test_vanishing_field_raises_degenerate(self):
        f = PolyCoeffField(X, Y, X, Y)  # every coefficient vanishes at 0
        with pytest.raises(DegenerateFieldError, match=r"\(0\.0, 0\.0\)"):
            first_integrals(f, (0.5, 0.5), [(0.5, 0.5), (0.0, 0.0)])

    def test_one_lift_per_path(self, monkeypatch):
        lifts = []
        lift = PolyCoeffField.coeff_jets
        monkeypatch.setattr(PolyCoeffField, "coeff_jets",
                            lambda *a: lifts.append(1) or lift(*a))
        st = first_integrals(FIELD_A, (0.0, 1.0),
                             [(0.0, 1.0), (0.3, 1.1), (0.2, 1.3)])
        assert len(lifts) == 1 and len(st.nodes) > 100


class TestSymmetry:
    def test_solution_a_scaling_weights(self):
        samples = [(0.1, 1.0), (0.3, 0.9), (-0.2, 1.1), (0.05, 1.3)]
        assert symmetry_residual(FIELD_A, (3, 2), samples) < 1e-8
        assert symmetry_residual(FIELD_A, (1, 1), samples) > 1e-2

    def test_one_root_solve_gives_the_per_point_floats(self, monkeypatch):
        def per_point(field, weights, samples, a):
            # the formulation it replaced: two single-point solves a sample
            s1, s2 = np.exp(weights[0] * a), np.exp(weights[1] * a)
            worst = 0.0
            for x, y in samples:
                pushed = [(s1 * q, s2 * -p) for p, q in roots_proj(
                    nonvanishing(field.coeffs(x, y), x, y))]
                image = [(q, -p) for p, q in roots_proj(
                    nonvanishing(field.coeffs(s1 * x, s2 * y), s1 * x,
                                 s2 * y))]
                matched, _ = match_roots(pushed, image)
                worst = max(worst, max(proj_distance(u, v)
                                       for u, v in zip(pushed, matched)))
            return float(worst)

        samples = [(0.1, 1.0), (0.3, 0.9), (-0.2, 1.1), (0.05, 1.3)]
        cases = [(FIELD_A, w, samples, 0.1) for w in [(3, 2), (1, 1)]]
        cases.append((symmetry_losing_web(), (1, 2), samples[:3], 0.08))
        for field, w, pts, a in cases:
            want = per_point(field, w, pts, a)
            calls = []
            monkeypatch.setattr(cubic, "roots_proj", lambda co, _f=roots_proj:
                                calls.append(np.shape(co)) or _f(co))
            got = symmetry_residual(field, w, pts, a=a)
            monkeypatch.undo()
            assert got.hex() == want.hex()
            assert calls == [(2 * len(pts), 4)]

    def test_error_names_the_first_vanishing_point(self):
        # the field vanishes on y = 1; the first sample's image lies there
        # before the second sample does
        y1 = PolyExpr.var(1, 2) - PolyExpr.const(1, 2)
        f = PolyCoeffField(y1, PolyExpr.zero(), y1, PolyExpr.zero())
        s1, s2 = np.exp(0.1), np.exp(0.2)
        assert s2 * (1.0 / s2) == 1.0
        with pytest.raises(DegenerateFieldError,
                           match=re.escape(f"vanish at ({0.3 * s1}, 1.0)")):
            symmetry_residual(f, (1, 2), [(0.3, 1.0 / s2), (0.5, 1.0)])
        with pytest.raises(DegenerateFieldError,
                           match=re.escape("vanish at (0.5, 1.0)")):
            symmetry_residual(f, (1, 2), [(0.3, 0.5), (0.5, 1.0)])

    def test_fixture_is_flat_but_has_no_scaling_symmetry(self):
        fix = symmetry_losing_web()
        pts = [(0.4, 0.6), (0.7, 0.9), (0.5, 1.1)]
        assert max(abs(curvature(fix, p, route="cubic").K) for p in pts) < 1e-12
        for w in [(1, 1), (1, 2), (2, 1), (3, 2), (2, 3), (1, 3)]:
            assert symmetry_residual(fix, w, pts, a=0.08) > 1e-2
