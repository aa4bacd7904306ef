"""Cubic binary fields: roots, discriminant, normalized factorization,
depressed form."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hexweb import cubic
from hexweb.cubic import (MAX_MOVE, MIN_PIECE, PERMS, CallableJetField,
                          DegenerateFieldError, DirectionField,
                          PolyCoeffField, SingularPointError, TranslatedField,
                          _root_jets, coeff_values, continue_along,
                          depress_jets, discriminant_of_coeffs,
                          discriminant_scale, factorization_residual,
                          least_cost_perm, match_roots, nonvanishing,
                          normalize_roots, proj_distance, regular_cutoff,
                          root_distance, roots_proj)
from hexweb.frobenius import (idempotents, multiplication_table,
                              solution_potential)
from hexweb.jets import JetError, PolyExpr, base_point
from hexweb.singular import normal_form_field, symmetry_losing_web
from test_chern import FRAME_WINDOWS
from webs import (CONTROL_GENERIC, CONTROL_SLOPES, moved_triples,
                  random_poly, root_triples, search_per_permutation)

RNG = np.random.default_rng(8571)


def random_field():
    return PolyCoeffField(*(random_poly(RNG) for _ in range(4)))


def cubic_value(coeffs, p, q):
    a, b, c, r = coeffs
    return a * p ** 3 + b * p * p * q + c * p * q * q + r * q ** 3


class TestDiscriminant:
    def test_zero_iff_repeated_root(self):
        # (p - q)^2 (p - 2q): a=1, roots 1,1,2 -> D = 0
        # expand: p^3 - 4 p^2 q + 5 p q^2 - 2 q^3
        assert discriminant_of_coeffs(1.0, -4.0, 5.0, -2.0) == pytest.approx(0.0)
        # distinct roots 0, 1, -1: p(p-q)(p+q) = p^3 - p q^2
        assert abs(discriminant_of_coeffs(1.0, 0.0, -1.0, 0.0)) > 0.1

    def test_matches_product_of_root_differences(self):
        # for monic a=1: D = (s1-s2)^2 (s1-s3)^2 (s2-s3)^2 with slopes s_i
        for _ in range(10):
            s = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            b = -(s[0] + s[1] + s[2])
            c = s[0] * s[1] + s[0] * s[2] + s[1] * s[2]
            r = -s[0] * s[1] * s[2]
            want = ((s[0] - s[1]) * (s[0] - s[2]) * (s[1] - s[2])) ** 2
            got = discriminant_of_coeffs(1.0, b, c, r)
            assert abs(got - want) < 1e-10 * (1 + abs(want))


class TestRoots:
    def test_roots_satisfy_cubic(self):
        for _ in range(20):
            f = random_field()
            x, y = RNG.standard_normal(2)
            co = f.coeffs(x, y)
            if abs(discriminant_of_coeffs(*co)) <= regular_cutoff(co):
                continue
            for p, q in roots_proj(co):
                assert max(abs(p), abs(q)) == pytest.approx(1.0)
                scale = 1 + max(abs(z) for z in co)
                assert abs(cubic_value(co, p, q)) < 1e-9 * scale

    def test_match_roots_recovers_permutation(self):
        f = random_field()
        x, y = 0.37, -0.81
        ref = roots_proj(nonvanishing(f.coeffs(x, y), x, y))
        perm = [2, 0, 1]
        shuffled = [ref[i] for i in perm]
        matched, _ = match_roots(ref, shuffled)
        for u, v in zip(ref, matched):
            assert proj_distance(u, v) < 1e-12

    @pytest.mark.parametrize("perm", [[0, 2, 1], [1, 2, 0], [2, 1, 0]])
    def test_match_roots_custom_distance_recovers_idempotents(self, perm,
                                                              monkeypatch):
        # 3-vectors with their slice part (X, Y) first, as
        # frobenius_transport walks the idempotents: root_distance reads
        # that pair and ignores the third component
        fp = multiplication_table(solution_potential("A"), (0.0, 0.3, 0.9))
        ref = np.roll(idempotents(fp), -1, axis=-1)  # three (X, Y, T)
        calls = []

        def counted(u, v):
            calls.append(np.broadcast_shapes(u.shape, v.shape))
            return root_distance(u, v)

        monkeypatch.setattr(cubic, "root_distance", counted)
        matched, d = match_roots(ref, ref[perm])
        assert d.max() < 1e-30  # complex cross products of equal pairs
        assert calls == [(3, 3, 3)]  # one call, on the nine pairs
        assert np.array_equal(bits(matched), bits(ref))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(root_triples(), root_triples()),
                    min_size=1, max_size=6))
    def test_a_batch_equals_its_rows_alone(self, pairs):
        ref, new = (np.array(side) for side in zip(*pairs))
        calls = []

        def counted(u, v):
            calls.append(1)
            return root_distance(u, v)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cubic, "root_distance", counted)
            got, d = match_roots(ref, new)
        assert len(calls) == 1 and d.shape == (len(pairs), 3)
        for i, (r, n) in enumerate(pairs):
            want, want_d = match_roots(r, n)
            assert np.array_equal(bits(got[i]), bits(want))
            assert d[i].tobytes() == want_d.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_match_roots_equals_the_search_per_permutation(self, data):
        # exact ties (coinciding roots), near ties and random triples: the
        # same permutation wins with the same cost float as when each
        # permutation sums its own entries of the same distance table
        ref = np.array(data.draw(root_triples()))
        new = np.array(data.draw(moved_triples(ref)))
        table = root_distance(ref[:, None], new[None])
        want, want_cost = search_per_permutation(
            range(3), range(3), dist=lambda i, j: table[i, j])
        k = least_cost_perm(table)
        assert PERMS[k].tolist() == want
        t = table[range(3), PERMS[k]]
        assert float(t[0] + t[1] + t[2]).hex() == float(want_cost).hex()
        got, d = match_roots(ref, new)
        assert np.array_equal(bits(got), bits(new[want]))
        assert d.tobytes() == t.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(root_triples(), root_triples()),
                    min_size=1, max_size=6))
    def test_label_distances_sum_to_the_least_cost(self, pairs):
        # each label's distance is root_distance of the matched pair, and
        # the three, summed in ref's order, are the least cost that
        # least_cost_perm minimised, bit for bit
        ref, new = (np.array(side) for side in zip(*pairs))
        got, d = match_roots(ref, new)
        assert d.tobytes() == root_distance(ref, got).tobytes()
        table = root_distance(ref[:, :, None], new[:, None])
        cost = [min(sum(table[i][m, p[m]] for m in range(3)) for p in PERMS)
                for i in range(len(pairs))]
        assert (d[:, 0] + d[:, 1] + d[:, 2]).tolist() == cost

    def test_root_jets_follow_the_root(self):
        # d/dx of the tracked slope matches a finite difference
        f = PolyCoeffField(
            PolyExpr.const(1, 2),
            PolyExpr.from_dict({(1, 0): 1}),
            PolyExpr.from_dict({(0, 1): -2}),
            PolyExpr.const(1, 2),
        )
        x, y = 0.2, 0.9
        rj = _root_jets(f.coeff_jets(x, y, 1), x, y, 1, None)
        h = 1e-6
        ref = [(p.value, q.value) for p, q in rj]
        rp = _root_jets(f.coeff_jets(x + h, y, 1), x + h, y, 1, None)
        newvals, _ = match_roots(ref, [(p.value, q.value) for p, q in rp])
        for (pj, qj), (pn, qn), (p0, q0) in zip(rj, newvals, ref):
            # compare in the slope chart s = p/q (projective scale drops out)
            s0 = p0 / q0
            sn = pn / qn
            ds = (pj.deriv(0).value * q0 - p0 * qj.deriv(0).value) / q0 ** 2
            assert abs((sn - s0) / h - ds) < 1e-4 * (1 + abs(ds))


def cubic_from_roots(slopes, vertical):
    """Coefficients of prod (p - s q) over the slopes, times q when
    vertical (a root at [1 : 0])."""
    s1, s2 = slopes[:2]
    if vertical:
        return np.array([0.0, 1.0, -(s1 + s2), s1 * s2])
    s3 = slopes[2]
    return np.array([1.0, -(s1 + s2 + s3), s1 * s2 + s1 * s3 + s2 * s3,
                     -s1 * s2 * s3])


# slopes on a lattice of step 1/8, so that equal real parts are exact ties
# and distinct keys are far apart at the sort's 12 decimals
LATTICE_SLOPES = st.lists(
    st.tuples(st.integers(-16, 16), st.integers(-16, 16)),
    min_size=3, max_size=3, unique=True).map(
        lambda ab: [complex(a / 8, b / 8) for a, b in ab])
SCALES = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                            allow_nan=False, allow_infinity=False)


# coefficients for single rows: zeros (vertical roots, a zero end in one or
# both charts), tiny ends near the chart tolerance, NaN (which numpy's max
# passes on and Python's max may skip), and general values
ROW_COEFS = st.one_of(
    st.just(0j), st.sampled_from([1e-13, -1e-15j, 1e-300, 5e-324, math.nan]),
    st.floats(-4, 4).map(complex),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))
RANDOM_ROWS = st.lists(ROW_COEFS, min_size=4, max_size=4)
# two slopes whose real parts lie within or across a rounding step of the
# sort's 12 decimals, the third anywhere; optionally a vertical root
TIED_ROWS = st.builds(
    lambda re, gap, im, c, vertical, g: g * cubic_from_roots(
        [complex(re, im[0]), complex(re + gap, im[1]), c], vertical),
    st.sampled_from([0.25, 0.3333333333335, -0.7, 1.5, 12.0]),
    st.sampled_from([0.0, 1e-16, 1e-13, 4.9e-13, 5e-13, 1e-12, 3e-12]),
    st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    st.complex_numbers(max_magnitude=8, allow_nan=False,
                       allow_infinity=False),
    st.booleans(), SCALES)


def outcome(fn):
    """The bits fn() returns, or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):  # subnormal ends, NaN, zero leads
            return bits(fn()).tolist()
    except Exception as e:  # the single row must raise as the batch does
        return type(e), str(e)


class TestRootKernel:
    """roots_proj: one batched code path for arrays of rows, and a scalar
    path for a single row that gives the batch of one's floats."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(RANDOM_ROWS, TIED_ROWS))
    @example([0, math.nan, 1, 0])  # no chart by Python's max, NaN by numpy's
    def test_single_row_equals_its_batch_of_one(self, row):
        co = np.array(row, dtype=complex)
        assert outcome(lambda: roots_proj(co)) \
            == outcome(lambda: roots_proj(co[None])[0])

    @pytest.mark.parametrize("row, message", [
        ([0, 0, 0, 0], "all cubic coefficients are zero"),
        ([0, 1, -1, 0], "cubic degenerate in both charts"),
        ([1e-16, 1j, 2, 1e-17], "cubic degenerate in both charts")])
    def test_degenerate_row_raises_as_its_batch(self, row, message):
        co = np.array(row, dtype=complex)
        for rows in (co, co[None]):
            with pytest.raises(DegenerateFieldError, match=message):
                roots_proj(rows)

    def test_one_eigvals_call_for_a_batch(self, monkeypatch):
        calls = {"eigvals": 0, "roots": 0}
        eigvals = np.linalg.eigvals

        def counted(a):
            calls["eigvals"] += 1
            return eigvals(a)

        def no_roots(p):
            calls["roots"] += 1
            return np.array([])

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(np, "roots", no_roots)
        co = np.random.default_rng(8573).standard_normal((1000, 4))
        got = roots_proj(co)
        assert got.shape == (1000, 3, 2)
        assert calls == {"eigvals": 1, "roots": 0}
        scale = 1 + np.max(np.abs(co), axis=1)
        residual = cubic_value(co.T[:, :, None], got[..., 0], got[..., 1])
        assert np.max(np.abs(residual) / scale[:, None]) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(LATTICE_SLOPES, st.booleans(), SCALES)
    def test_scaled_row_gives_the_same_labelled_roots(self, slopes, vertical,
                                                      g):
        # a vertical root and a zero slope leave no chart (a = r = 0)
        assume(not (vertical and 0 in slopes[:2]))
        co = cubic_from_roots(slopes, vertical)
        want = roots_proj(co)
        got = roots_proj(g * co)
        for u, v in zip(want, got):
            assert proj_distance(u, v) <= 1e-12
        for c, row in ((co, want), (g * co, got)):
            scale = np.max(np.abs(c))
            for p, q in row:
                assert max(abs(p), abs(q)) == pytest.approx(1.0)
                assert abs(cubic_value(c, p, q)) <= 1e-12 * scale
        # finite slopes first, then by Re and Im of the slope w = p / q
        keys = []
        for p, q in want:
            w = p / q if abs(q) > 1e-6 else None
            keys.append((1,) if w is None
                        else (0, round(w.real, 12), round(w.imag, 12)))
        assert keys == sorted(keys)
        assert keys.count((1,)) == int(vertical)


class TestNormalizeRoots:
    def test_sigma_sums_to_zero_and_factorizes(self):
        for _ in range(15):
            f = random_field()
            x, y = RNG.standard_normal(2)
            co = f.coeffs(x, y)
            if abs(discriminant_of_coeffs(*co)) <= 1e-6:
                continue
            tr = normalize_roots(f, (x, y), order=2)
            vals = tr.values()
            sp = sum(v[0] for v in vals)
            sq = sum(v[1] for v in vals)
            norm = max(abs(v[0]) + abs(v[1]) for v in vals)
            assert abs(sp) < 1e-9 * (1 + norm)
            assert abs(sq) < 1e-9 * (1 + norm)
            assert factorization_residual(f, tr) < 1e-9

    def test_singular_point_raises(self):
        # a p^3: triple root everywhere
        zero = PolyExpr.zero()
        f = PolyCoeffField(PolyExpr.const(1, 2), zero, zero, zero)
        with pytest.raises(SingularPointError):
            normalize_roots(f, (0.0, 0.0))


class TestDepress:
    def test_depressed_roots_are_shifted_slopes(self):
        f = PolyCoeffField(
            PolyExpr.const(1, 2),
            PolyExpr.from_dict({(0, 1): 1}),
            PolyExpr.from_dict({(1, 0): 1, (0, 0): -2}),
            PolyExpr.const(1, 2),
        )
        x, y = 0.5, 0.2
        dep = depress_jets(f.coeff_jets(x, y, 1), x, y)
        assert dep.chart in ("xy", "yx")
        A, B = dep.A.value, dep.B.value
        # the depressed cubic's roots are slopes shifted by k2/3
        a, b, c, r = f.coeffs(x, y)
        K = [-a, b, -c, r]  # slope cubic K3 s^3 + K2 s^2 + K1 s + K0
        if dep.chart == "yx":
            K = K[::-1]
        slopes = np.roots(K)
        shifted = slopes + K[1] / (3 * K[0])
        for s in shifted:
            assert abs(s ** 3 + A * s + B) < 1e-9

    def test_degenerate_field_raises(self):
        zero = PolyExpr.zero()
        with pytest.raises(DegenerateFieldError):
            nonvanishing(PolyCoeffField(zero, zero, zero, zero).coeffs(0, 0),
                         0, 0)

    def test_depressing_a_vanishing_field_raises(self):
        zero = PolyExpr.zero()
        jets = PolyCoeffField(zero, zero, zero, zero).coeff_jets(0.1, 0.2, 1)
        with pytest.raises(DegenerateFieldError, match="all coefficients"):
            depress_jets(jets, 0.1, 0.2)

    def test_depressing_without_an_end_coefficient_raises(self):
        # a = r = 0: the slope cubic has no leading term in either chart
        zero, one = PolyExpr.zero(), PolyExpr.const(1)
        jets = PolyCoeffField(zero, one, one, zero).coeff_jets(0.1, 0.2, 1)
        with pytest.raises(SingularPointError, match="no valid affine chart"):
            depress_jets(jets, 0.1, 0.2)


class TestCallableJetField:
    def test_matches_polynomial_twin(self):
        poly = PolyCoeffField(
            PolyExpr.const(1, 2),
            PolyExpr.from_dict({(1, 0): 2.0}),
            PolyExpr.from_dict({(0, 2): -1.0}),
            PolyExpr.from_dict({(1, 1): 0.5}),
        )

        def fn(x, y, order):
            return poly.coeff_jets(x, y, order)

        cj = CallableJetField(fn)
        x, y = -0.8, 0.6
        assert np.allclose(cj.coeffs(x, y), poly.coeffs(x, y))
        tr1 = normalize_roots(poly, (x, y))
        tr2 = normalize_roots(cj, (x, y))
        for u, v in zip(tr1.values(), tr2.values()):
            assert abs(u[0] - v[0]) + abs(u[1] - v[1]) < 1e-10

    @pytest.mark.parametrize("fid, m0", [(5, 0), (6, 0), (6, 1), (6, 2)])
    def test_catalog_lifts_equal_stacked_single_points(self, fid, m0):
        """Forms 5 and 6 lift arrays of real points in one closure call,
        each point's coefficients the floats of its own lift."""
        field = normal_form_field(fid, m0).field
        rng = np.random.default_rng(2417 + 10 * fid + m0)
        if fid == 5:
            x, y = rng.uniform(-0.35, 0.35, 24), rng.uniform(0.3, 1.2, 24)
        else:
            x = rng.uniform(0.02, 0.2 / (m0 + 1), 24)
            y = rng.uniform(0.5, 1.0, 24)
        x, y = x.reshape(4, 6), y.reshape(4, 6)
        for order in (0, 1, 2):
            got = field.coeff_jets(x, y, order)
            # the reference: one closure call per point, stacked
            X, Y = base_point(x, y)
            each = [field.coeff_jets(a, b, order)
                    for a, b in zip(X.flat, Y.flat)]
            for k, jet in enumerate(got):
                want = np.stack([e[k].c for e in each], axis=-1,
                                dtype=complex).reshape(jet.c.shape)
                assert np.array_equal(bits(jet.c), bits(want))

    def test_form6_checks_its_domain_on_every_point(self):
        # Re y <= 0 at point 2; then t = x sqrt(y) beyond t_max at point 3
        field = normal_form_field(6, 0).field
        x = np.array([0.05, 0.06, 0.1, 0.9])
        for y, i in ((np.array([0.8, 0.7, -0.5, 0.6]), 2),
                     (np.array([0.8, 0.7, 0.9, 0.6]), 3)):
            with pytest.raises(JetError) as batch:
                field.coeff_jets(x, y, 1)
            with pytest.raises(JetError) as single:
                field.coeff_jets(x[i], y[i], 1)
            assert str(batch.value) == str(single.value)
            assert f"({x[i]}, {y[i]})" in str(batch.value)


class TestFirstOrder:
    """first_order returns exactly the entries of the order-1 jets."""

    @staticmethod
    def from_jets(field, x, y):
        jets = field.coeff_jets(x, y, 1)
        return [[j.c[0, 0] for j in jets], [j.c[1, 0] for j in jets],
                [j.c[0, 1] for j in jets]]

    def check(self, field, points):
        for x, y in points:
            got = field.first_order(x, y)
            assert all(type(v) is complex for row in got for v in row)
            want = self.from_jets(field, x, y)
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(got), bits(
                DirectionField.first_order(field, x, y)))

    def test_polynomial_fields(self):
        rng = np.random.default_rng(8573)
        points = [(0.1, 1.0), (-0.37, 0.2), (0.0, 0.0), (2, -3),
                  *rng.uniform(-2.0, 2.0, (8, 2))]
        fields = [solution_potential("A").characteristic_field(),  # Fraction
                  solution_potential("B").characteristic_field(),
                  CONTROL_GENERIC, CONTROL_SLOPES,               # complex
                  PolyCoeffField(PolyExpr.from_dict({(1, 0): 2.5}),
                                 PolyExpr.from_dict({(2, 1): -0.3,
                                                     (0, 0): 1.1}),
                                 PolyExpr.from_dict({(0, 3): 0.7}),
                                 PolyExpr.from_dict({(3, 3): -1e-3}))]
        fields += [PolyCoeffField(*(random_poly(rng, 3) for _ in range(4)))
                   for _ in range(12)]                     # complex
        for field in fields:
            self.check(field, points)

    def test_fields_through_the_base_class(self):
        A = solution_potential("A").characteristic_field()
        points = [(0.1, 1.0), (-0.25, 0.6)]
        self.check(TranslatedField(A, 0.1, -0.2), points)
        self.check(CallableJetField(A.coeff_jets), points)

    def test_coeffs_on_arrays_equal_each_point(self):
        # (..., 4) over arrays of points, each row the floats of its point
        A = solution_potential("A").characteristic_field()
        xs, ys = np.array([0.1, -0.25, -0.0]), np.array([1.0, 0.6, -2.0])
        for x, y in ((xs, ys), (xs, 0.6), (0.1, ys[:1]), (xs[:, None], ys)):
            got = A.coeffs(x, y)
            x, y = np.broadcast_arrays(x, y)
            assert got.shape == x.shape + (4,)
            for i in np.ndindex(x.shape):
                assert np.array_equal(bits(got[i]), bits(A.coeffs(x[i], y[i])))
        with pytest.raises(TypeError):
            A.coeffs(None, 1.0)
        assert np.array_equal(A.coeffs(np.float64(0.1), np.array(1.0)),
                              A.coeffs(0.1, 1.0))


class TestContinueAlong:
    """The shared subdivision walker on toys over arrays: three real
    projective pairs a point."""

    PATH = [(0.0, 0.0), (1.0, 0.0)]

    @staticmethod
    def turning(rate):
        """at: three directions pi / 3 apart, turned by rate x; a step of
        dx moves each by sin(rate dx), and costs 3 sin(rate dx)."""
        def at(x, y):
            t = rate * np.real(x)[:, None] + np.arange(3) * np.pi / 3
            return np.stack([np.cos(t), np.sin(t)], axis=-1)
        return at

    def test_one_piece_per_segment_by_default(self):
        # a step of 1 costs 3 sin(0.01), under MAX_MOVE
        path = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        at = self.turning(0.01)
        x, vals = continue_along(path, at)
        assert [tuple(pt) for pt in x] == path
        assert np.array_equal(vals, at(*x.T))

    def test_costly_move_halves_the_step(self):
        # a step of 1/4 costs 0.150 and passes, a step of 1/2 costs 0.300
        x, vals = continue_along(self.PATH, self.turning(0.2))
        assert x[:, 0].real.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert np.array_equal(vals, self.turning(0.2)(*x.T))

    def test_halving_stops_at_the_floor(self):
        # the values jump at x = 1/2: no piece across it is cheap enough
        def at(x, y):
            return self.turning(0.2)((np.real(x) >= 0.5) * 1.0, y)

        x, vals = continue_along(self.PATH, at)
        xs = x[:, 0].real
        jumps = np.flatnonzero(np.diff(vals[:, 0, 0])) + 1
        assert len(jumps) == 1
        gap = xs[jumps[0]] - xs[jumps[0] - 1]
        assert MIN_PIECE / 2 < gap <= MIN_PIECE
        assert xs[jumps[0]] == 0.5 and xs[-1] == 1.0

    def test_labels_follow_the_values_past_a_sort_swap(self):
        # three points of the unit circle, 2 pi / 3 apart, turn by 3 pi / 4:
        # at lists them sorted by their first coordinate, and the turn
        # changes that order; continued, each keeps its label
        phase = np.array([4, 2, 0]) * np.pi / 3  # the order at x = 0

        def at(x, y):
            t = np.pi * x.real[:, None] + phase[::-1]
            pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
            order = np.argsort(pts[..., 0], axis=-1)
            return np.take_along_axis(pts, order[..., None], axis=1)

        x, vals = continue_along([(0.0, 0.0), (0.75, 0.0)], at)
        assert len(x) == 65  # a move of 3 pi / 256 per point costs 0.110
        t = np.pi * x[:, :1].real + phase
        assert np.allclose(vals, np.stack([np.cos(t), np.sin(t)], axis=-1),
                           rtol=0, atol=1e-15)
        assert not np.array_equal(vals[-1], at(x[-1:, 0], x[-1:, 1])[0])


def walk_per_point(path, at):
    """The walker continue_along replaced: a stack of pieces, one at(point)
    call a point, each point relabelled by the per-permutation loop on
    proj_distance against the last accepted one.  Returns the points, the
    labelled values and how many times the deepest piece was halved."""
    pts = [np.asarray(p, dtype=complex) for p in path]
    trail, depth = [(pts[0], at(*pts[0]))], 0
    for P0, P1 in zip(pts[:-1], pts[1:]):
        stack = [(0.0, 1.0, 0)]
        while stack:
            t0, t1, d = stack.pop()
            depth = max(depth, d)
            pt = P0 + t1 * (P1 - P0)
            vals, cost = search_per_permutation(trail[-1][1], at(*pt))
            if cost > MAX_MOVE and (t1 - t0) > MIN_PIECE:
                mid = 0.5 * (t0 + t1)
                stack += [(mid, t1, d + 1), (t0, mid, d + 1)]
            else:
                trail.append((pt, vals))
    return (np.array([pt for pt, _ in trail]),
            np.array([vals for _, vals in trail]), depth)


def roots_at(field):
    """PathFrame's values: the sorted roots, at a point or point arrays."""
    def at(x, y):
        return roots_proj(nonvanishing(coeff_values(field.coeff_jets(
            x, y, 0)), x, y))
    return at


def idempotents_at(pot):
    """frobenius_transport's values: the idempotents on the t = 0 slice,
    their slice part (X, Y) first."""
    return lambda x, y: np.roll(
        idempotents(multiplication_table(pot, (0.0, x, y))), -1, axis=-1)


def walker_cases():
    """(name, at, path): random four-vertex paths (seeded) on the
    path-frame windows and on the idempotent frames of potentials A (two
    windows) and B, a one-point path and paths with a repeated vertex."""
    rng = np.random.default_rng(2511)
    frames = [(name, roots_at(field), window)
              for name, (field, window) in FRAME_WINDOWS.items()]
    for name, case, window in (
            ("A", "A", ((-0.4, 0.4), (0.5, 1.0))),
            ("A, y >= 0.75", "A", ((-0.4, 0.4), (0.75, 1.3))),
            ("B", "B", ((-0.8, 0.8), (-0.8, 0.8)))):
        frames.append((f"idempotents {name}",
                       idempotents_at(solution_potential(case)), window))
    out = []
    for name, at, ((x0, x1), (y0, y1)) in frames:
        paths = [[(rng.uniform(x0, x1), rng.uniform(y0, y1))
                  for _ in range(4)] for _ in range(6)]
        paths[0] = paths[0][:1]
        paths[1] = paths[1][:2] + paths[1][1:]
        out += [(name, at, path) for path in paths]
    return out


class TestWalkerReference:
    def test_equals_the_walk_a_point_at_a_time(self):
        """The points and labelled values equal the per-point stack walk's
        bit for bit, and at is called once per round: once for the
        vertices and once per depth of halving."""
        refined = set()
        for name, at, path in walker_cases():
            calls = []

            def counted(x, y):
                calls.append(len(x))
                return at(x, y)

            x, vals = continue_along(path, counted)
            x_w, vals_w, depth = walk_per_point(path, at)
            assert np.array_equal(bits(x), bits(x_w)), name
            assert np.array_equal(bits(vals), bits(vals_w)), name
            assert len(calls) == depth + 1 and sum(calls) == len(x)
            if depth:
                refined.add(name)
        # B's table is constant, so its idempotents never move; A's turn
        # enough between vertices to be halved in both windows
        assert refined == {"A", "control D > 0", "control D < 0", "complex",
                           "idempotents A", "idempotents A, y >= 0.75"}


# ---------------------------------------------------------------------------
# Arrays of points: each row exactly as the single point gives it

def bits(arr):
    return np.ascontiguousarray(arr, dtype=complex).view(np.uint64)


def regular_grid(field, window=((-0.9, 0.9), (-0.9, 1.3)), n=7):
    """Points of an n x n grid where the normalized triple exists."""
    (x0, x1), (y0, y1) = window
    pts = []
    for x in np.linspace(x0, x1, n):
        for y in np.linspace(y0, y1, n):
            try:
                normalize_roots(field, (x, y), order=1)
            except (SingularPointError, DegenerateFieldError):
                continue
            pts.append((x, y))
    return np.array(pts).T


ARRAY_FIELDS = {
    "web A": solution_potential("A").characteristic_field(),
    "web B": solution_potential("B").characteristic_field(),
    "symmetry-losing": symmetry_losing_web(),
    "control": CONTROL_GENERIC,
}


class TestPointArrays:
    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_roots_and_triples_equal_stacked_single_points(self, name):
        f = ARRAY_FIELDS[name]
        x, y = regular_grid(f)
        assert len(x) >= 10
        co = np.array([f.coeffs(*p) for p in zip(x, y)])
        assert np.array_equal(bits(roots_proj(co)),
                              bits([roots_proj(c) for c in co]))
        for order in (0, 1):
            got = normalize_roots(f, (x, y), order=order)
            for i, p in enumerate(zip(x, y)):
                want = normalize_roots(f, p, order=order)
                assert np.array_equal(bits(got.lam[i]), bits(want.lam))
                for (P, Q), (Pw, Qw) in zip(got.sigma, want.sigma):
                    assert np.array_equal(bits(P.c[..., i]), bits(Pw.c))
                    assert np.array_equal(bits(Q.c[..., i]), bits(Qw.c))

    def test_rows_in_both_charts_and_with_zero_end_coefficients(self):
        co = np.array([
            [1.0, 0.3, -2.0, 0.5],         # |a| >= |r|: slope chart
            [0.2, 1.0, -1.0, 3.0],         # |r| > |a|: inverse-slope chart
            [1.0, -3.0, 2.0, 0.0],         # numpy.roots drops r = 0 ...
            [0.0, 1.0, -1.0, 3.0],         # ... and a = 0 in the other chart
            [1.0, 0.0, 1.0, 1.0],          # a conjugate pair: tied sort keys
            [2.0 + 1j, 0.5j, -1.0, 1e-13],
            [1e-15, 2.0, -1.0, 1.0 - 1j],
        ], dtype=complex)
        got = roots_proj(co)
        assert np.array_equal(bits(got), bits([roots_proj(c) for c in co]))
        assert np.array_equal(bits(roots_proj(co[[2, 4]].reshape(2, 1, 4))),
                              bits(got[[2, 4]].reshape(2, 1, 3, 2)))
        for c, row in zip(co, got):
            for p, q in row:
                assert abs(cubic_value(c, p, q)) < 1e-12

    def test_random_rows_and_near_ties_equal_single_rows(self):
        # real rows carry conjugate pairs (equal real parts up to rounding);
        # the built rows put two slopes' real parts within and across a
        # 1e-12 rounding step of each other
        rng = np.random.default_rng(8572)
        co = [rng.standard_normal((300, 4)),
              rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))]
        for gap in (0.0, 1e-16, 1e-13, 4.9e-13, 5e-13, 1e-12, 3e-12, 2e-11):
            for re in (0.25, 0.3333333333335, -0.7, 1.5, 12.0):
                a, b = re + 0.2j, re + gap - 0.4j
                c = complex(rng.standard_normal(), rng.standard_normal())
                co.append(np.array([[1.0, -(a + b + c), a * b + a * c + b * c,
                                     -a * b * c]]))
        co = np.concatenate(co)
        assert np.array_equal(bits(roots_proj(co)),
                              bits([roots_proj(c) for c in co]))

    def test_errors_name_the_first_offending_point(self):
        zero = PolyExpr.zero()
        x = PolyExpr.var(0, 2)
        f = PolyCoeffField(x, zero, x, zero)  # vanishes on x = 0
        xs = np.array([0.5, 0.0, -0.3, 0.0])
        with pytest.raises(DegenerateFieldError,
                           match=r"vanish at \(0\.0, 0\.25\)"):
            normalize_roots(f, (xs, np.array([0.1, 0.25, 0.3, 0.4])))
        # p^3 - p q^2 = p (p - q)(p + q) has simple roots; a p^3 does not
        cube = PolyCoeffField(PolyExpr.const(1, 2), zero, zero, zero)
        with pytest.raises(SingularPointError, match="repeated root"):
            normalize_roots(cube, (np.zeros(3), np.ones(3)))


# ---------------------------------------------------------------------------
# True error of the root jets against a 40-digit reference

def mp_taylor(poly, x, y, order=2):
    """{(j1, j2): d^(j1+j2) poly / (j1! j2!)} at (x, y) in mpmath numbers."""
    c = {}
    for (i, j), coef in poly.terms:
        for j1 in range(min(i, order) + 1):
            for j2 in range(min(j, order - j1) + 1):
                c[j1, j2] = c.get((j1, j2), 0) + (
                    mpmath.mpmathify(coef) * math.comb(i, j1)
                    * math.comb(j, j2) * mpmath.mpf(x) ** (i - j1)
                    * mpmath.mpf(y) ** (j - j2))
    return c


def mp_root_jet(cs, s_near):
    """The order-2 jet {(j1, j2): coefficient} of the root near s_near of
    sum_i cs[i] s^(3 - i) (cs[i] Taylor dicts), by implicit
    differentiation of F(s, x, y) = 0 at the root from mpmath.polyroots."""
    s = min(mpmath.polyroots([c.get((0, 0), 0) for c in cs], extraprec=80),
            key=lambda r: abs(r - s_near))

    def F(k, j):  # d^k/ds^k of F, its Taylor coefficient j in (x, y)
        return sum(c.get(j, 0) * math.perm(3 - i, k) * s ** (3 - i - k)
                   for i, c in enumerate(cs) if 3 - i >= k)

    Fs, Fss = F(1, (0, 0)), F(2, (0, 0))
    sx, sy = -F(0, (1, 0)) / Fs, -F(0, (0, 1)) / Fs
    sxx = -(2 * F(0, (2, 0)) + 2 * F(1, (1, 0)) * sx + Fss * sx * sx) / Fs
    sxy = -(F(0, (1, 1)) + F(1, (1, 0)) * sy + F(1, (0, 1)) * sx
            + Fss * sx * sy) / Fs
    syy = -(2 * F(0, (0, 2)) + 2 * F(1, (0, 1)) * sy + Fss * sy * sy) / Fs
    return {(0, 0): s, (1, 0): sx, (0, 1): sy, (2, 0): sxx / 2, (1, 1): sxy,
            (0, 2): syy / 2}


COMPLEX_RNG = np.random.default_rng(8573)
TRUE_ERROR_FIELDS = {
    "web A": solution_potential("A").characteristic_field(),
    "web B": solution_potential("B").characteristic_field(),
    "complex": PolyCoeffField(*(random_poly(COMPLEX_RNG) for _ in range(4))),
}


class TestRootJetTrueError:
    @pytest.mark.parametrize("name", TRUE_ERROR_FIELDS)
    def test_order_1_and_2_coefficients_match_40_digits(self, name):
        f = TRUE_ERROR_FIELDS[name]
        rng = np.random.default_rng(8574)
        xs, ys = rng.uniform(-0.5, 0.5, 24), rng.uniform(0.5, 1.5, 24)
        co = np.array([f.coeffs(*p) for p in zip(xs, ys)])
        keep = (np.abs(discriminant_of_coeffs(*co.T))
                > 1e-3 * discriminant_scale(co))
        xs, ys = xs[keep][:8], ys[keep][:8]
        assert len(xs) == 8
        charts, worst = set(), 0.0
        with mpmath.workdps(40):
            for order in (1, 2):
                got = _root_jets(f.coeff_jets(xs, ys, order), xs, ys, order,
                                 None)
                unit = np.zeros((order + 1, order + 1))
                unit[0, 0] = 1.0  # the chart component: the constant jet 1
                for n, (x, y) in enumerate(zip(xs, ys)):
                    abcr = [mp_taylor(p, x, y) for p in f.abcr]
                    for P, Q in got:
                        p, q = P.c[..., n], Q.c[..., n]
                        chart = np.array_equal(q, unit)  # q = 1, slope p
                        s, one = (p, q) if chart else (q, p)
                        assert np.array_equal(one, unit)
                        charts.add(chart)
                        ref = mp_root_jet(abcr if chart else abcr[::-1],
                                          s[0, 0])
                        for j, want in ref.items():
                            if sum(j) <= order:
                                worst = max(worst, float(
                                    abs(s[j] - want) / (1 + abs(want))))
        assert worst < 1e-14
        if name == "web A":
            assert charts == {True, False}
