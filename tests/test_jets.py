"""Truncated two-variable Taylor arithmetic against finite differences and
closed-form series."""

import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hexweb import chern, cubic, frobenius, jets
from hexweb.jets import (Jet, JetError, PolyExpr, compose_series, cbrt_factor,
                         jet_cbrt, jet_pow, jet_tan, jet_to_polyexpr, replay)

RNG = np.random.default_rng(20260823)


def random_jet(order=5, scale=0.5, base=None):
    c = scale * (RNG.standard_normal((order + 1, order + 1))
                 + 1j * RNG.standard_normal((order + 1, order + 1)))
    for j in range(order + 1):
        for k in range(order + 1):
            if j + k > order:
                c[j, k] = 0.0
    if base is not None:
        c[0, 0] = base
    return Jet((0.0, 0.0), order, c)


def eval_jet(jet, dx, dy):
    tot = 0.0
    for j in range(jet.order + 1):
        for k in range(jet.order + 1 - j):
            tot += jet.c[j, k] * dx ** j * dy ** k
    return tot


class TestArithmetic:
    def test_ring_axioms_random(self):
        for _ in range(20):
            a, b, c = (random_jet() for _ in range(3))
            lhs = (a + b) * c
            rhs = a * c + b * c
            assert np.allclose(lhs.c, rhs.c, atol=1e-12)
            assert np.allclose((a * b).c, (b * a).c, atol=1e-12)
            assert np.allclose(((a * b) * c).c, (a * (b * c)).c, atol=1e-12)

    def test_product_matches_pointwise_evaluation(self):
        for _ in range(10):
            a, b = random_jet(order=6), random_jet(order=6)
            dx, dy = 1e-2, -7e-3
            got = eval_jet(a * b, dx, dy)
            want = eval_jet(a, dx, dy) * eval_jet(b, dx, dy)
            assert abs(got - want) < 1e-12 * (1 + abs(want))

    def test_scalar_mixing(self):
        a = random_jet()
        assert np.allclose((a + 2.5).c, (2.5 + a).c)
        assert np.allclose((a * 3j).c, (3j * a).c)
        assert np.allclose((a - a).c, 0.0)

    def test_reciprocal(self):
        for _ in range(10):
            a = random_jet(base=1.3 + 0.4j)
            one = a * a.reciprocal()
            want = np.zeros_like(one.c)
            want[0, 0] = 1.0
            assert np.allclose(one.c, want, atol=1e-12)

    def test_coefficient_shape_must_match_order(self):
        with pytest.raises(JetError):
            Jet((0.0, 0.0), 2, np.zeros((4, 4), dtype=complex))

    def test_reciprocal_rejects_zero_base(self):
        a = random_jet(base=0.0)
        with pytest.raises(JetError):
            a.reciprocal()

    def test_integer_powers(self):
        a = random_jet(base=0.9 - 0.2j)
        assert np.allclose((a ** 3).c, (a * a * a).c, atol=1e-12)
        assert np.allclose((a ** 0).c, (a * a.reciprocal()).c, atol=1e-12)
        with pytest.raises(JetError):
            a ** -2


class TestCalculus:
    def test_deriv_is_formal_partial(self):
        a = random_jet(order=6)
        dx, dy = 1e-5, 1e-5
        da = a.deriv(0)
        fd = (eval_jet(a, dx, 0) - eval_jet(a, -dx, 0)) / (2 * dx)
        assert abs(da.value - fd) < 1e-9
        db = a.deriv(1)
        fd = (eval_jet(a, 0, dy) - eval_jet(a, 0, -dy)) / (2 * dy)
        assert abs(db.value - fd) < 1e-9

    def test_mixed_partials_commute(self):
        a = random_jet(order=6)
        assert np.allclose(a.deriv(0).deriv(1).c[:5, :5],
                           a.deriv(1).deriv(0).c[:5, :5], atol=1e-12)

    def test_swap_axes(self):
        a = random_jet()
        s = a.swap_axes()
        assert np.allclose(s.c, a.c.T)
        assert np.allclose(s.swap_axes().c, a.c)


class TestElementary:
    def test_fractional_power_cube(self):
        a = random_jet(base=2.0 + 0.3j)
        third = jet_pow(a, 1.0 / 3.0)
        assert np.allclose((third ** 3).c, a.c, atol=1e-10)

    def test_cbrt_branch_target(self):
        a = random_jet(base=-8.0)
        w = -2.0 * np.exp(1j * np.pi / 7)
        r = jet_cbrt(a)
        r = r * cbrt_factor(r.value, w)
        assert np.allclose((r ** 3).c, a.c, atol=1e-9)
        # among the three cube roots, the chosen base is nearest the target
        assert abs(r.value - w) <= min(
            abs(r.value * np.exp(2j * np.pi / 3) - w),
            abs(r.value * np.exp(-2j * np.pi / 3) - w)) + 1e-12

    def test_tan_satisfies_its_ode(self):
        a = random_jet(base=0.3, scale=0.2)
        t = jet_tan(a)
        # chain rule: d(tan a) = (1 + tan^2 a) da on both axes
        for axis in (0, 1):
            lhs = t.deriv(axis)
            n = lhs.order
            rhs = (t.truncate(n) * t.truncate(n) + 1.0) * a.deriv(axis)
            assert np.allclose(lhs.c, rhs.c, atol=1e-9)
        assert abs(t.value - np.tan(0.3)) < 1e-12


class TestCompose:
    def test_compose_geometric_series(self):
        # g(u) = 1/(1-u) composed with a nilpotent-plus-base jet
        order = 6
        series = np.ones(order + 1)
        a = random_jet(order=order, base=0.0, scale=0.3)
        got = compose_series(series, a)
        want = (Jet.constant(1.0, a.base, order) - a).reciprocal()
        assert np.allclose(got.c, want.c, atol=1e-10)


class TestPolyExpr:
    def test_algebra_and_eval(self):
        x = PolyExpr.var(0, 2)
        y = PolyExpr.var(1, 2)
        p = x * x * y - y * 3 + PolyExpr.const(2, 2)
        assert p(1.5, -0.5) == pytest.approx(1.5 ** 2 * -0.5 + 1.5 + 2)
        q = p.diff(0)
        assert q(1.5, -0.5) == pytest.approx(2 * 1.5 * -0.5)

    def test_jet_expansion_matches_evaluation(self):
        x = PolyExpr.var(0, 2)
        y = PolyExpr.var(1, 2)
        p = x * x * x + x * y * y * 2 - y
        j = p.jet((0.4, -0.7), 4)
        for dx, dy in [(0.01, 0.02), (-0.03, 0.015)]:
            want = p(0.4 + dx, -0.7 + dy)
            assert abs(eval_jet(j, dx, dy) - want) < 1e-12

    def test_round_trip_through_jet(self):
        x = PolyExpr.var(0, 2)
        y = PolyExpr.var(1, 2)
        p = x * y + x * 2 - PolyExpr.const(1, 2)
        j = p.jet((0.0, 0.0), 6)
        back = jet_to_polyexpr(j)
        for pt in [(0.3, 0.8), (-1.1, 0.2)]:
            assert back(*pt) == pytest.approx(p(*pt))


# ---------------------------------------------------------------------------
# The index-plan kernel against the dense loops it replaced, bit for bit


def clear_above(arr, K):
    for j1 in range(min(arr.shape[0], K + 1)):
        arr[j1, K - j1 + 1:] = 0.0
    return arr


def dense_product(a, b, K):
    """Reference product: for each nonzero entry of a in row-major order, a
    shifted copy of b scaled by it is added onto +0.0."""
    out = np.zeros((K + 1, K + 1), dtype=complex)
    for j1, j2 in np.argwhere(a != 0):
        if j1 + j2 > K:
            continue
        out[j1:, j2:] += a[j1, j2] * b[: K + 1 - j1, : K + 1 - j2]
    return clear_above(out, K)


def dense_deriv(c, order, axis):
    K = order - 1
    out = np.zeros((K + 1, K + 1), dtype=complex)
    if axis == 0:
        for j1 in range(K + 1):
            out[j1, : K + 1 - j1] = (j1 + 1) * c[j1 + 1, : K + 1 - j1]
    else:
        for j1 in range(K + 1):
            for j2 in range(K + 1 - j1):
                out[j1, j2] = (j2 + 1) * c[j1, j2 + 1]
    return out


def dense_truncate(c, order):
    return clear_above(c[: order + 1, : order + 1].copy(), order)


def bits(arr):
    """The raw float64 words: tells -0.0 from +0.0."""
    return np.ascontiguousarray(arr).view(np.uint64)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(bits(x), bits(y))


def sparse_jet_coeffs(rng, order, zeros=0.3):
    """Coefficients over many magnitudes, ~30% exact zeros (some -0.0 parts)
    and nonzero junk above the triangle."""
    n = order + 1
    mag = lambda: 10.0 ** rng.integers(-6, 7, (n, n))
    c = (rng.standard_normal((n, n)) * mag()
         + 1j * rng.standard_normal((n, n)) * mag())
    c[rng.random((n, n)) < zeros] = 0.0
    c.real[rng.random((n, n)) < 0.1] = -0.0
    c.imag[rng.random((n, n)) < 0.1] = -0.0
    j = np.arange(n)
    above = j[:, None] + j[None, :] > order
    c[above] = rng.choice([3.5, -1e3, 7e-4], above.sum()) - 2j
    return c


class TestKernelExactness:
    @pytest.mark.parametrize("order", range(7))
    def test_product_bit_identical_to_dense_loop(self, order):
        rng = np.random.default_rng(1000 + order)
        base = (0.1, 1.0)
        for _ in range(300):
            a = sparse_jet_coeffs(rng, order)
            b = sparse_jet_coeffs(rng, order)
            got = (Jet(base, order, a.copy()) * Jet(base, order, b.copy())).c
            assert same_bits(got, dense_product(a, b, order))

    @pytest.mark.parametrize("order", range(7))
    def test_deriv_and_truncate_bit_identical(self, order):
        rng = np.random.default_rng(2000 + order)
        for _ in range(100):
            c = sparse_jet_coeffs(rng, order)
            jet = Jet((0.0, 0.0), order, c.copy())
            for k in range(order + 1):
                assert same_bits(jet.truncate(k).c, dense_truncate(c, k))
            if order:
                for axis in (0, 1):
                    assert same_bits(jet.deriv(axis).c,
                                     dense_deriv(c, order, axis))

    def test_no_negative_zero_where_reference_has_positive_zero(self):
        # -1 * (+0.0) is -0.0 term by term; the reference adds onto +0.0
        for order in range(7):
            n = order + 1
            neg_one = np.zeros((n, n), dtype=complex)
            neg_one[0, 0] = -1.0
            zero = np.zeros((n, n), dtype=complex)
            got = (Jet((0, 0), order, neg_one) * Jet((0, 0), order, zero)).c
            assert not np.signbit(got.view(np.float64)).any()
        rng = np.random.default_rng(3000)
        for _ in range(300):
            order = int(rng.integers(0, 7))
            a = sparse_jet_coeffs(rng, order, zeros=0.6)
            b = sparse_jet_coeffs(rng, order, zeros=0.6)
            results = [((Jet((0, 0), order, a) * Jet((0, 0), order, b)).c,
                        dense_product(a, b, order))]
            results += [(Jet((0, 0), order, a).truncate(k).c,
                         dense_truncate(a, k)) for k in range(order + 1)]
            if order:
                results += [(Jet((0, 0), order, a).deriv(axis).c,
                             dense_deriv(a, order, axis)) for axis in (0, 1)]
            for got, want in results:
                got_f, want_f = got.view(np.float64), want.view(np.float64)
                positive_zero = (want_f == 0) & ~np.signbit(want_f)
                assert not np.signbit(got_f[positive_zero]).any()


# ---------------------------------------------------------------------------
# Ring laws (property tests)

ORDERS = st.integers(min_value=0, max_value=6)


def jets_of(data, order, base=(0.1, 1.0), elements=st.floats(-1.0, 1.0),
            const=None):
    n = order + 1
    parts = data.draw(st.lists(elements, min_size=2 * n * n,
                               max_size=2 * n * n))
    c = (np.array(parts[: n * n], dtype=float)
         + 1j * np.array(parts[n * n:], dtype=float)).reshape(n, n)
    c = clear_above(c, order)
    if const is not None:
        c[0, 0] = const
    return Jet(base, order, c)


def close(x, y, tol=1e-12):
    scale = 1.0 + max(np.max(np.abs(x.c)), np.max(np.abs(y.c)))
    return x.order == y.order and np.max(np.abs(x.c - y.c)) <= tol * scale


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), ORDERS)
    def test_commutative_exactly_on_exact_arithmetic(self, data, order):
        # small Gaussian-integer coefficients: every product and partial sum
        # is exact, so a*b and b*a must agree bit for bit (with general
        # floats the complex multiply itself may round a*b and b*a apart)
        ints = st.integers(-64, 64).map(float)
        a = jets_of(data, order, elements=ints)
        b = jets_of(data, order, elements=ints)
        assert same_bits((a * b).c, (b * a).c)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), ORDERS)
    def test_associative_distributive_commutative(self, data, order):
        a, b, c = (jets_of(data, order) for _ in range(3))
        assert close((a * b) * c, a * (b * c))
        assert close((a + b) * c, a * c + b * c)
        assert close(a * b, b * a)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), ORDERS,
           st.floats(0.5, 2.0), st.floats(-np.pi, np.pi))
    def test_reciprocal_is_inverse(self, data, order, modulus, phase):
        a = jets_of(data, order, elements=st.floats(-0.5, 0.5),
                    const=modulus * np.exp(1j * phase))
        one = Jet.constant(1.0, a.base, order)
        assert close(a * a.reciprocal(), one)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=6),
           st.sampled_from((0, 1)))
    def test_leibniz_rule(self, data, order, axis):
        a, b = jets_of(data, order), jets_of(data, order)
        k = order - 1
        lhs = (a * b).deriv(axis)
        rhs = a.deriv(axis) * b.truncate(k) + a.truncate(k) * b.deriv(axis)
        assert close(lhs, rhs)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), ORDERS, st.floats(1e-3, 2.0), st.sampled_from((0, 1)),
           st.integers(1, 3))
    def test_mismatched_operands_raise(self, data, order, shift, axis,
                                       dorder):
        a = jets_of(data, order)
        # an equal base in a distinct tuple is the same base
        twin = jets_of(data, order, base=(0.1, 1.0))
        assert (a * twin).base == a.base and (a + twin).order == order
        moved_base = [0.1, 1.0]
        moved_base[axis] += shift
        moved = jets_of(data, order, base=tuple(moved_base))
        other = jets_of(data, order + dorder)
        for bad in (moved, other):
            for op in (lambda x, y: x * y, lambda x, y: x + y):
                with pytest.raises(JetError):
                    op(a, bad)
                with pytest.raises(JetError):
                    op(bad, a)


# ---------------------------------------------------------------------------
# The batch axis: a batch of jets equals its elements taken one by one

BATCHES = st.sampled_from([(), (1,), (5,), (2, 3)])


def batch_of(data, shape, order, const=None):
    """A jet over the batch shape (base points along it, random triangles;
    const sets the constant terms) and its elements as single jets."""
    n = order + 1
    part = arrays(np.float64, (n, n) + shape, elements=st.floats(-1.0, 1.0))
    c = data.draw(part) + 1j * data.draw(part)
    c[~(np.arange(n)[:, None] + np.arange(n) <= order)] = 0.0
    if const is not None:
        c[0, 0] = const
    x = np.linspace(-1.0, 1.0, max(1, int(np.prod(shape)))).reshape(shape)
    batch = Jet((x, x + 2.0), order, c)
    return batch, {i: Jet((x[i], x[i] + 2.0), order, c[(...,) + i].copy())
                   for i in np.ndindex(shape)}


def nonzero_constants(data, shape):
    modulus = data.draw(arrays(np.float64, shape, elements=st.floats(0.5, 2.0)))
    phase = data.draw(arrays(np.float64, shape,
                             elements=st.floats(-np.pi, np.pi)))
    return modulus * np.exp(1j * phase)


class TestBatchAxis:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), BATCHES, st.integers(0, 3))
    def test_operations_equal_their_elements_bit_for_bit(self, data, shape,
                                                         order):
        a, ea = batch_of(data, shape, order,
                         const=nonzero_constants(data, shape))
        b, eb = batch_of(data, shape, order)
        f = data.draw(arrays(np.float64, shape, elements=st.floats(-2, 2)))
        ops = [(lambda u, v, f: u * v),
               (lambda u, v, f: u + v),
               (lambda u, v, f: 2.0 - u * 3.5),
               (lambda u, v, f: (u * f) * (v + f)),
               (lambda u, v, f: Jet.constant(f, u.base, u.order) - v),
               (lambda u, v, f: u.reciprocal()),
               (lambda u, v, f: jet_pow(u, 0.5)),
               (lambda u, v, f: jet_cbrt(u))]
        ops += [(lambda u, v, f, k=k: u.truncate(k))
                for k in range(order + 1)]
        if order:
            ops += [(lambda u, v, f, k=k: u.deriv(k)) for k in (0, 1)]
        for op in ops:
            got = op(a, b, f).c
            assert got.shape == (got.shape[0],) * 2 + shape
            for i in np.ndindex(shape):
                want = op(ea[i], eb[i], f[i]).c
                assert same_bits(got[(...,) + i], want)

    @pytest.mark.parametrize("order", [0, 2])
    def test_one_element_batch_times_numbers_equals_its_jet(self, order):
        """numpy multiplies a one-element array broadcast against another
        one-element array by a loop that can round the last bit apart from
        the loop it uses for a number or a longer array (here the cube root
        of exp(1j) turned by exp(2.094j)), so a one-element factor is taken
        as a number."""
        x = np.zeros(1)
        c = np.zeros((order + 1, order + 1, 1), dtype=complex)
        c[0, 0] = [0.9449569463147377 + 0.3271946967961522j]
        f = np.array([-0.49999999999999967 + 0.8660254037844386j])
        batch = Jet((x, x + 2.0), order, c) * f
        one = Jet((0.0, 2.0), order, c[..., 0].copy()) * f[0]
        assert same_bits(batch.c[..., 0], one.c)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_coefficients_first_batch_axes_last(self, shape):
        # c[j1, j2] is one coefficient: a number, or an array over the batch
        x = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
        point = (x, 1.0 - x) if shape else (0.3, 0.7)
        u, v = PolyExpr.var(0), PolyExpr.var(1)
        a, b = ((u * v + 2).jet(point, 2), (u - v * 3 + 1).jet(point, 2))
        got = [a, b, a * b, a * 2.0, a + 1.0, 1.0 - a, a.reciprocal(),
               a.deriv(0), a.deriv(1), a.truncate(1), a.truncate(0),
               replay(cubic.discriminant_of_coeffs, a, b, a * b, b),
               *replay(every_kind, a, b)[0]]
        for jet in got:
            assert jet.c.shape == (jet.order + 1,) * 2 + shape
        assert np.shape(a.value) == shape

    def test_single_jet_values_are_numpy_scalars(self):
        # scalar code keeps numpy's scalar arithmetic, which rounds complex
        # products unlike its vectorised loops
        a = random_jet(order=2)
        assert isinstance(a.value, np.complex128)
        assert isinstance(a.reciprocal().value, np.complex128)

    def test_mismatched_batch_bases_raise(self):
        c = np.ones((2, 2, 3), dtype=complex)
        x = np.array([0.0, 0.1, 0.2])
        a = Jet((x, x), 1, c)
        assert np.array_equal((a * Jet((x.copy(), x), 1, c)).c, (a * a).c)
        with pytest.raises(JetError):
            a * Jet((x + 1.0, x), 1, c)

    @pytest.mark.parametrize("order", range(4))
    def test_lift_of_real_points_equals_single_lifts(self, order):
        # every product has a real factor at real points, and integer powers
        # agree up to the sign of a zero imaginary part: the lifts agree bit
        # for bit (negative coordinates and signed zeros included)
        rng = np.random.default_rng(4000 + order)
        x = PolyExpr.var(0, 2)
        y = PolyExpr.var(1, 2)
        p = (x * y * y * y * (2.5 - 1j) + x * x * x * x * x * 3
             - y * y * (0.7 + 2j) + PolyExpr.const(1.25, 2))
        pts = rng.uniform(-2.0, 2.0, (2, 4, 3))
        pts[:, 0, 0] = 0.0
        pts[0, 1, 1] = -0.0
        got = p.jet(pts, order).c
        for i in np.ndindex(pts.shape[1:]):
            want = p.jet((pts[0][i], pts[1][i]), order).c
            assert same_bits(got[(...,) + i], want)


# ---------------------------------------------------------------------------
# Programs: traced formulas replayed on stacked registers equal the eager
# formulas bit for bit


def every_kind(a, b):
    """Each traced operation, numbers on both sides (complex ones too),
    signed-zero summands, repeated operations and a nested result."""
    ab = a * b
    c = ab + (2.5 - 1j) * a - b * 3 + 0.5
    d = 1 - a * b - (a - 2) + (-b) * ab + (a * b) * (0.25 + 2j)
    return [(c, d + 0.0, d + -0.0), -c, (c * d - d).reciprocal(), 7 - ab]


FORMULAS = [(chern._gamma_formula, 12), (cubic.discriminant_of_coeffs, 4),
            (cubic._normalization_formula, 6), (cubic._scaled, 7),
            (chern._expressions_formula, 13), (cubic._chord_steps, 6),
            (every_kind, 2)]


def leaves(tree):
    if isinstance(tree, (tuple, list)):
        return [x for t in tree for x in leaves(t)]
    return [tree]


def outcome(fn, args):
    """The coefficient arrays of fn(*args), or the JetError it raises."""
    try:
        return [j.c for j in leaves(fn(*args))]
    except JetError as e:
        return str(e)


class TestPrograms:
    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.sampled_from(FORMULAS), BATCHES, st.integers(0, 2))
    def test_program_equals_eager_formula(self, data, formula, shape, order):
        fn, arity = formula
        n = order + 1
        args = []
        for _ in range(arity):
            jet, _ = batch_of(data, shape, order)
            # exact zeros, signed zeros among them
            for part, value in ((jet.c, 0.0), (jet.c.real, -0.0),
                                (jet.c.imag, -0.0)):
                part[data.draw(arrays(np.bool_, (n, n) + shape))] = value
            args.append(jet)
        with np.errstate(all="ignore"):  # tiny pivots may overflow: alike
            want = outcome(fn, args)
            got = outcome(lambda *a: replay(fn, *a), args)
        if isinstance(want, str):
            assert got == want
        else:
            assert len(got) == len(want)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("fn", [
        lambda a, b: a if a.value else b,
        lambda a, b: a * b if a else b,
        lambda a, b: a if a < b else b,
        lambda a, b: a if a == b else b,
        lambda a, b: a * abs(b),
        lambda a, b: a * a.c[0, 0],
        lambda a, b: a * float(b),
        lambda a, b: a * np.array([1.0, 2.0]),
        lambda a, b: (a, 1.0),
    ])
    def test_tracing_refuses_what_reads_data(self, fn):
        a, b = random_jet(order=2), random_jet(order=2)
        with pytest.raises(TypeError):
            replay(fn, a, b)

    @pytest.mark.parametrize("order", [0, 1])
    def test_one_gamma_cubic_makes_few_products(self, order, monkeypatch):
        # 132 eager Jet.__mul__ calls before programs; now a few stacked ones
        field = frobenius.solution_potential("A").characteristic_field()
        kernel, calls = jets._sum_products, {"kernel": 0, "jet": 0}

        def counted(*args):
            calls["kernel"] += 1
            return kernel(*args)

        def jet_mul(*args):
            calls["jet"] += 1
            return mul(*args)

        mul = Jet.__mul__
        monkeypatch.setattr(jets, "_sum_products", counted)
        monkeypatch.setattr(Jet, "__mul__", jet_mul)
        monkeypatch.setattr(Jet, "__rmul__", jet_mul)
        chern.gamma_cubic(field, (0.1, 1.0), order=order)
        assert calls["jet"] == 0
        assert calls["kernel"] <= (8 if order == 0 else 9)

    def test_no_plan_is_built_twice(self):
        field = frobenius.solution_potential("A").characteristic_field()
        xs = np.linspace(-0.5, 0.5, 64)

        def run():
            for pt in ((0.1, 1.0), (xs, 1.0 + 0.2 * xs)):
                chern.gamma_cubic(field, pt)
                chern.curvature(field, pt)
                cubic.normalize_roots(field, pt)

        caches = (jets._product_plan, jets._program)
        run()
        misses = [c.cache_info().misses for c in caches]
        run()
        assert [c.cache_info().misses for c in caches] == misses


# ---------------------------------------------------------------------------
# The lift: every entry point that evaluates a polynomial against the dense
# loop it replaced, bit for bit


def reference_lift(p, x0, y0, order):
    """The dense loop: each c[j1, j2] adds its terms onto +0.0 in the order
    of p's terms, at a base (x0, y0) as base_point gives it."""
    c = np.zeros((order + 1, order + 1) + np.shape(x0), dtype=complex)
    for (e1, e2), cc in p.terms:
        for j1 in range(min(e1, order) + 1):
            for j2 in range(min(e2, order - j1) + 1):
                k1, n1 = math.comb(e1, j1), e1 - j1
                k2, n2 = math.comb(e2, j2), e2 - j2
                c[j1, j2] += complex(cc) * (k1 * x0 ** n1) * k2 * y0 ** n2
    return c


COEFS = st.one_of(
    st.fractions(-50, 50, max_denominator=60),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False))
POLYS = st.lists(
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), COEFS,
                    max_size=6).map(PolyExpr.from_dict),
    min_size=4, max_size=4)
REALS = st.floats(-3.0, 3.0)
COMPLEXES = st.complex_numbers(max_magnitude=3.0)
NUMBER_POINTS = st.one_of(st.tuples(REALS, REALS),
                          st.tuples(COMPLEXES, COMPLEXES))
ARRAY_POINTS = st.integers(1, 3).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=REALS),
    st.one_of(REALS, arrays(np.float64, (2, n), elements=REALS))))


# points whose coordinates have signed zero parts, real or complex
SIGNED_ZEROS = st.sampled_from([
    0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    complex(-1.5, -0.0), complex(-0.0, 2.0), 0.5])


class TestLift:
    """PolyExpr.__call__ and .jet, and PolyCoeffField.coeffs, .first_order
    and .coeff_jets, all run jets.lift; each equals the dense loop.  At a
    point, lift runs the function it generates from the term table."""

    @staticmethod
    def check(polys, point, order, field=None):
        field = field or cubic.PolyCoeffField(*polys)
        x0, y0 = jets.base_point(*point)
        want = [reference_lift(p, x0, y0, order) for p in polys]
        for p, w in zip(polys, want):
            assert same_bits(p.jet(point, order).c, w)
            assert same_bits(np.asarray(p(*point), dtype=complex), w[0, 0])
        for jet, w in zip(field.coeff_jets(*point, order), want):
            assert same_bits(jet.c, w)
        values = np.moveaxis(np.array([w[0, 0] for w in want]), 0, -1)
        assert same_bits(field.coeffs(*point), values)

    @staticmethod
    def check_first_order(polys, point, field):
        got = field.first_order(*point)
        assert all(type(v) is complex for row in got for v in row)
        want = [reference_lift(p, *jets.base_point(*point), 1) for p in polys]
        assert same_bits(np.array(got), np.array(
            [[w[i, j] for w in want] for i, j in ((0, 0), (1, 0), (0, 1))]))

    @settings(max_examples=100, deadline=None)
    @given(POLYS, NUMBER_POINTS, st.integers(0, 3))
    def test_numbers_equal_the_dense_loop(self, polys, point, order):
        self.check(polys, point, order)
        self.check_first_order(polys, point, cubic.PolyCoeffField(*polys))

    @settings(max_examples=30, deadline=None)
    @given(POLYS, st.tuples(SIGNED_ZEROS, SIGNED_ZEROS))
    def test_signed_zeros_and_complex_points_equal_the_dense_loop(
            self, polys, point):
        field = cubic.PolyCoeffField(*polys)
        for order in range(4):
            self.check(polys, point, order, field)
        self.check_first_order(polys, point, field)

    @settings(max_examples=30, deadline=None)
    @given(POLYS, NUMBER_POINTS, ARRAY_POINTS, st.integers(0, 3))
    def test_a_point_arrays_and_the_point_again_on_one_owner(
            self, polys, point, arrays_of_points, order):
        field = cubic.PolyCoeffField(*polys)
        for at in (point, arrays_of_points, point):
            self.check(polys, at, order, field)
            self.check_first_order(polys, point, field)

    def test_one_point_function_per_owner_and_order(self, monkeypatch):
        sources = []

        def counted_exec(source, scope):
            sources.append(source)
            exec(source, scope)

        monkeypatch.setattr(jets, "exec", counted_exec, raising=False)
        X, Y = PolyExpr.var(0), PolyExpr.var(1)
        polys = [X * X * Y * 0.3 + 2, Y * (1.5 - 2j), X * X * X * (1 / 7),
                 PolyExpr.zero()]
        field = cubic.PolyCoeffField(*polys)
        tables = field._lift_tables
        xs = np.linspace(-1.0, 1.0, 5)
        field.coeffs(xs, xs)
        field.coeff_jets(xs, 0.5, 2)
        assert not sources
        assert [tables[k][3] for k in (0, 2)] == [None, None]
        field.coeffs(0.1, 0.2)
        at_point = tables[0][3]
        field.coeffs(-0.3, 0.7j)
        field.coeff_jets(0.1, 0.2, 0)
        field.coeffs(xs, xs)
        assert tables[0][3] is at_point and len(sources) == 1
        field.first_order(0.1, 0.2)
        field.first_order(1.0, 2.0)
        assert len(sources) == 2 and tables[2][3] is None
        polys[0](0.1, 0.2)  # another owner, with its own tables
        assert len(sources) == 3 and sorted(tables) == [0, 1, 2]
        for source in sources:  # names and ints only: no coefficient
            assert all(type(node.value) is int
                       for node in ast.walk(ast.parse(source))
                       if isinstance(node, ast.Constant))

    @settings(max_examples=40, deadline=None)
    @given(POLYS, ARRAY_POINTS, st.integers(0, 3))
    def test_arrays_of_real_points_equal_the_dense_loop(self, polys, point,
                                                        order):
        self.check(polys, point, order)
