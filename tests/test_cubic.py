"""Cubic binary fields: roots, discriminant, normalized factorization,
depressed form."""

import numpy as np
import pytest

from hexweb.cubic import (MIN_PIECE, CallableJetField, DegenerateFieldError,
                          PolyCoeffField, SingularPointError, continue_along,
                          depress, discriminant_of_coeffs,
                          factorization_residual, match_roots,
                          normalize_roots, proj_distance, regular_cutoff,
                          root_jets, roots, roots_proj)
from hexweb.frobenius import (idempotents, multiplication_table,
                              solution_potential)
from hexweb.jets import PolyExpr
from webs import random_poly

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
        ref = roots(f, (x, y))
        perm = [2, 0, 1]
        shuffled = [ref[i] for i in perm]
        matched, _ = match_roots(ref, shuffled)
        for u, v in zip(ref, matched):
            assert proj_distance(u, v) < 1e-12

    @pytest.mark.parametrize("perm", [[0, 2, 1], [1, 2, 0], [2, 1, 0]])
    def test_match_roots_custom_distance_recovers_idempotents(self, perm):
        # 3-vectors, which the default projective distance cannot compare
        fp = multiplication_table(solution_potential("A"), (0.0, 0.3, 0.9))
        ref = idempotents(fp, rng=5)
        calls = []

        def max_abs(u, v):
            calls.append(1)
            return float(np.max(np.abs(u - v)))

        matched, cost = match_roots(ref, [ref[i] for i in perm],
                                    dist=max_abs)
        assert cost == 0.0
        assert len(calls) == 6 * 3
        for u, v in zip(ref, matched):
            assert u is v

    def test_root_jets_follow_the_root(self):
        # d/dx of the tracked slope matches a finite difference
        f = PolyCoeffField(
            PolyExpr.const(1, 2),
            PolyExpr.from_dict({(1, 0): 1}),
            PolyExpr.from_dict({(0, 1): -2}),
            PolyExpr.const(1, 2),
        )
        x, y = 0.2, 0.9
        rj = root_jets(f, x, y, 1)
        h = 1e-6
        ref = [(p.value, q.value) for p, q in rj]
        rp = root_jets(f, x + h, y, 1, root_values=None)
        newvals, _ = match_roots(ref, [(p.value, q.value) for p, q in rp])
        for (pj, qj), (pn, qn), (p0, q0) in zip(rj, newvals, ref):
            # compare in the slope chart s = p/q (projective scale drops out)
            s0 = p0 / q0
            sn = pn / qn
            ds = (pj.deriv(0).value * q0 - p0 * qj.deriv(0).value) / q0 ** 2
            assert abs((sn - s0) / h - ds) < 1e-4 * (1 + abs(ds))


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

    def test_label_ref_keeps_ordering(self):
        f = random_field()
        x, y = 0.4, 0.1
        co = f.coeffs(x, y)
        if abs(discriminant_of_coeffs(*co)) <= 1e-8:
            pytest.skip("random field singular at probe point")
        tr = normalize_roots(f, (x, y))
        ref = tr.values()
        tr2 = normalize_roots(f, (x + 1e-3, y), label_ref=ref,
                              lam_target=tr.lam)
        for u, v in zip(ref, tr2.values()):
            assert proj_distance(u, v) < 1e-2
        assert abs(tr2.lam - tr.lam) < 1e-2 * (1 + abs(tr.lam))

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
        dep = depress(f, (x, y))
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
            PolyCoeffField(zero, zero, zero, zero).check_nondegenerate(0, 0)


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
        tr2 = normalize_roots(cj, (x, y), label_ref=tr1.values(),
                              lam_target=tr1.lam)
        for u, v in zip(tr1.values(), tr2.values()):
            assert abs(u[0] - v[0]) + abs(u[1] - v[1]) < 1e-10


class TestContinueAlong:
    """The shared subdivision walker on a toy state: the x coordinate."""

    PATH = [(0.0, 0.0), (1.0, 0.0)]

    @staticmethod
    def xs(trail):
        return [float(pt[0].real) for pt, _ in trail]

    @staticmethod
    def slide(prev, pt):
        x = float(pt[0].real)
        return x, abs(x - prev)

    def test_pieces_set_the_initial_steps(self):
        trail = continue_along(self.PATH, 0.0, self.slide, 1.0,
                               pieces=lambda P0, P1: 4)
        assert self.xs(trail) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert [s for _, s in trail] == self.xs(trail)
        assert trail[0][1] == 0.0

    def test_one_piece_per_segment_by_default(self):
        path = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        trail = continue_along(path, 0, lambda prev, pt: (prev + 1, 0.0),
                               0.5)
        assert [s for _, s in trail] == [0, 1, 2]
        assert [tuple(pt) for pt, _ in trail] == path

    def test_costly_move_halves_the_step(self):
        trail = continue_along(self.PATH, 0.0, self.slide, 0.3)
        assert self.xs(trail) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_halving_stops_at_the_floor(self):
        # the state jumps at x = 1/2: no piece across it is cheap enough
        def step(prev, pt):
            state = float(pt[0].real >= 0.5)
            return state, abs(state - prev)

        trail = continue_along(self.PATH, 0.0, step, 0.5)
        xs = self.xs(trail)
        jumps = [i for i in range(1, len(trail))
                 if trail[i][1] != trail[i - 1][1]]
        assert len(jumps) == 1
        gap = xs[jumps[0]] - xs[jumps[0] - 1]
        assert MIN_PIECE / 2 < gap <= MIN_PIECE
        assert xs[jumps[0]] == 0.5 and xs[-1] == 1.0
