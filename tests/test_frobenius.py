"""Tangent algebras of associativity-equation solutions: multiplication,
idempotents, Euler weights, booklet directions, series solver."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexweb import frobenius
from hexweb.cubic import characteristic_coeffs_from_f3, match_roots, roots_proj
from hexweb.frobenius import (SPLIT_C1, SPLIT_TOL, FrobeniusPoint,
                              NonSemisimpleError, NotQuasiHomogeneousError,
                              Potential, booklet_directions, euler_data,
                              frobenius_transport, idempotents, mu_E,
                              mult_operator, multiplication_table, multiply,
                              solution_potential, taylor_solve,
                              theorem2_residual)
from hexweb.jets import PolyExpr
from webs import RECORDED_DRAWS

RNG = np.random.default_rng(77123)


class TestPotentials:
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_solutions_satisfy_the_equation(self, case):
        pot = solution_potential(case)
        for _ in range(20):
            x, y = RNG.standard_normal(2)
            assert abs(pot.associativity_residual(x, y)) < 1e-12

    def test_non_solution_detected(self):
        bad = Potential(case="A", f=PolyExpr.from_dict({(3, 1): 1.0}))
        assert abs(bad.associativity_residual(0.5, 0.7)) > 1e-2

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_characteristic_field_is_built_once(self, case):
        pot = solution_potential(case)
        assert pot.characteristic_field() is pot.characteristic_field()

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_characteristic_field_coeffs(self, case):
        pot = solution_potential(case)
        field = pot.characteristic_field()
        x, y = 0.4, 0.9
        co = field.coeffs(x, y)
        d = {k: complex(p(x, y)) for k, p in pot.f3.items()}
        if case == "A":
            want = (d["xyy"], -2 * d["xxy"], d["xxx"], 1.0)
        else:
            want = (d["yyy"], -d["xyy"], -d["xxy"], d["xxx"])
        assert np.allclose(co, want)

    @pytest.mark.parametrize("make", [
        lambda: Potential(case="C", f=PolyExpr.zero()),
        lambda: solution_potential("C"),
        lambda: taylor_solve("C", [PolyExpr.zero()] * 3),
        lambda: characteristic_coeffs_from_f3("C", 1, 2, 3, 4, 1)],
        ids=["Potential", "solution_potential", "taylor_solve",
             "characteristic_coeffs_from_f3"])
    def test_unknown_case(self, make):
        with pytest.raises(ValueError, match="unknown case 'C'"):
            make()


class TestAlgebra:
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_unity_commutativity_associativity(self, case):
        pot = solution_potential(case)
        for _ in range(10):
            t, x, y = RNG.uniform(-0.5, 0.5), *RNG.uniform(0.2, 1.2, 2)
            fp = multiplication_table(pot, (t, x, y))
            u = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            v = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            w = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            assert np.allclose(multiply(fp.e, u, fp), u)
            assert np.allclose(multiply(u, v, fp), multiply(v, u, fp))
            lhs = multiply(multiply(u, v, fp), w, fp)
            rhs = multiply(u, multiply(v, w, fp), fp)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.max(np.abs(lhs)))

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_metric_is_frobenius_compatible(self, case):
        pot = solution_potential(case)
        fp = multiplication_table(pot, (0.1, 0.4, 0.9))
        for _ in range(5):
            u, v, w = (RNG.standard_normal(3) for _ in range(3))
            lhs = multiply(u, v, fp) @ fp.eta @ w
            rhs = u @ fp.eta @ multiply(v, w, fp)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_non_associative_when_not_a_solution(self):
        bad = Potential(case="A", f=PolyExpr.from_dict({(3, 1): 1.0}))
        fp = multiplication_table(bad, (0.0, 0.5, 0.7))
        u = np.array([0.0, 1.0, 0.0])
        v = np.array([0.0, 0.0, 1.0])
        lhs = multiply(multiply(u, u, fp), v, fp)
        rhs = multiply(u, multiply(u, v, fp), fp)
        assert np.max(np.abs(lhs - rhs)) > 1e-2


class TestIdempotents:
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_partition_of_unity(self, case):
        # 10 semisimple points of [-0.4, 0.4] x [-1, 1] x [0.3, 1.3]
        pot = solution_potential(case)
        for pt in RECORDED_DRAWS["partition_of_unity"][case]:
            fp = multiplication_table(pot, pt)
            ids = idempotents(fp)
            assert len(ids) == 3
            assert np.allclose(np.sum(ids, axis=0), fp.e, atol=1e-8)
            for i, ei in enumerate(ids):
                for j, ej in enumerate(ids):
                    want = np.asarray(ei) if i == j else np.zeros(3)
                    assert np.allclose(multiply(ei, ej, fp), want, atol=1e-7)

    def test_nilpotent_point_rejected(self):
        pot = solution_potential("A")
        with pytest.raises(NonSemisimpleError):
            idempotents(multiplication_table(pot, (0.0, 0.0, 0.0)))

    def test_error_names_the_first_nilpotent_point(self):
        # the algebra of web A is nilpotent where x = y = 0, for every t
        t = np.array([0.0, 0.1, 0.2, 0.3])
        x = np.array([0.3, 0.0, 0.2, 0.0])
        y = np.array([0.9, 0.0, 1.0, 0.0])
        fp = multiplication_table(solution_potential("A"), (t, x, y))
        with pytest.raises(NonSemisimpleError,
                           match=r"at \(0\.1, 0\.0, 0\.0\)"):
            idempotents(fp)

    def test_second_element_splits_where_the_first_does_not(self):
        # an algebra built on a chosen idempotent basis, in which w = (0, 1,
        # SPLIT_C1) has coordinates (SPLIT_C1, SPLIT_C1, 2 SPLIT_C1 - 1):
        # basis vector a is the sum over i of P[i, a] e_i
        P = np.array([[1, SPLIT_C1, 0], [1, 0, 1], [1, -1, 2]])
        E = np.linalg.inv(P.T)  # rows: the idempotents
        c = np.einsum("ia,ib,ig->abg", P, P, E)
        synthetic = FrobeniusPoint((0.0, 0.0, 0.0), "A", c, np.eye(3))
        vals = np.linalg.eigvals(mult_operator((0.0, 1.0, SPLIT_C1),
                                               synthetic))
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(3)
        assert gaps.min() <= SPLIT_TOL  # the first element fails here
        ids = idempotents(synthetic)
        assert np.allclose(np.sum(ids, axis=0), synthetic.e, atol=1e-12)
        for e in ids:
            assert np.allclose(multiply(e, e, synthetic), e, atol=1e-12)
        assert all(np.abs(ids - e).max(axis=-1).min() < 1e-12 for e in E)
        # in a batch beside a point the first element splits, the same bits
        good = multiplication_table(solution_potential("A"), (0.0, 0.3, 0.9))
        both = FrobeniusPoint((0.0, 0.0, 0.0), "A",
                              np.stack([good.c, c]), np.eye(3))
        batch = idempotents(both)
        assert batch[0].tobytes() == idempotents(good).tobytes()
        assert batch[1].tobytes() == ids.tobytes()


class TestEuler:
    def test_solution_weights(self):
        assert euler_data(solution_potential("A")).weights == (1, 0.75, 0.5, 2.5)
        assert euler_data(solution_potential("B")).weights == (1, 1, 1, 3)

    @pytest.mark.parametrize("f, weights", [
        ({(3, 1): "1/6", (2, 3): "1/6", (0, 7): "1/210"},
         ("1", "2/3", "1/3", "7/3")),
        ({(3, 2): "1/6", (2, 5): "1/20", (0, 11): "1/3960"},
         ("1", "3/5", "1/5", "11/5"))], ids=["B3", "H3"])
    def test_coxeter_weights(self, f, weights):
        # the polynomial potentials of B3 and H3 in case A (Dubrovin 1996)
        pot = Potential(case="A", f=PolyExpr.from_dict(f))
        assert euler_data(pot).weights == tuple(map(Fraction, weights))

    def test_rejects_inhomogeneous(self):
        mixed = Potential(case="A", f=PolyExpr.from_dict(
            {(2, 2): "1/4", (0, 5): "1/60", (4, 1): 0.01}))
        # x^4 y breaks the [1 : 3/4 : 1/2] system of solution A
        with pytest.raises(NotQuasiHomogeneousError):
            euler_data(mixed)

    def test_canonical_values_are_idempotent_eigenvalues(self):
        pot = solution_potential("A")
        ed = euler_data(pot)
        pt = (0.2, 0.4, 1.2)
        fp = multiplication_table(pot, pt)
        E = ed.euler_vector(fp.point)
        lams = []
        for e in idempotents(fp):
            w = multiply(E, e, fp)
            i = int(np.argmax(np.abs(e)))
            lam = w[i] / e[i]
            assert np.max(np.abs(w - lam * np.asarray(e))) < 1e-12
            lams.append(complex(lam))
        lams.sort(key=lambda z: (round(z.real, 10), round(z.imag, 10)))
        cv = mu_E(pot, pt)
        assert cv.semisimple
        assert np.allclose(lams, cv.lambdas, atol=1e-10)
        assert cv.lambdas[0] == pytest.approx(-0.5535308618, abs=1e-9)

    def test_mu_e_solves_the_euler_system_once_per_potential(self,
                                                             monkeypatch):
        solves = []

        def counted(pot):
            solves.append(pot)
            return euler_data(pot)

        monkeypatch.setattr(frobenius, "euler_data", counted)
        for case in ("A", "B"):
            pot = solution_potential(case)
            ed = euler_data(pot)  # this module's name: not counted
            for pt in [(0.2, 0.4, 1.2), (-0.1, 0.3, 0.9), (0.0, 0.1, 0.5)]:
                want = np.linalg.eigvals(mult_operator(
                    ed.euler_vector(pt), multiplication_table(pot, pt)))
                assert np.array_equal(np.sort_complex(mu_E(pot, pt).lambdas),
                                      np.sort_complex(want))
            assert solves.count(pot) == 1


class TestBooklet:
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_booklet_matches_characteristic_directions(self, case):
        # 10 semisimple points of [-0.4, 0.4] x [-1, 1] x [0.3, 1.3]
        pot = solution_potential(case)
        for t, x, y in RECORDED_DRAWS["booklet"][case]:
            assert theorem2_residual(pot, (t, x, y)) < 1e-8

    def test_foreign_table_is_detected(self):
        # booklet directions taken from the wrong point disagree with the
        # characteristic web by a visible margin
        pot = solution_potential("A")
        wrong = multiplication_table(pot, (0.0, 0.55, 0.9))
        dirs = booklet_directions(pot, (0.3, 1.1), table=wrong)
        pq = roots_proj(pot.characteristic_field().coeffs(0.3, 1.1))
        _, d = match_roots(dirs, np.stack([pq[:, 1], -pq[:, 0]], axis=-1))
        res = d.max()
        assert res > 1e-4
        assert res == pytest.approx(0.17621, rel=1e-3)


# points (t, x, y) of the criterion-4 window
POINTS = st.tuples(st.floats(-0.4, 0.4), st.floats(-1.0, 1.0),
                   st.floats(0.3, 1.3))


def raised(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (NonSemisimpleError, ValueError) as err:
        return type(err), str(err)


class TestPointArrays:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from("AB"),
           pts=st.lists(POINTS, min_size=1, max_size=10),
           one_t=st.booleans(), column=st.booleans())
    def test_arrays_equal_each_point_alone(self, case, pts, one_t, column):
        # a point's idempotents and Theorem 2 residual, computed among
        # others (t may be one number for all), are its floats alone
        pot = solution_potential(case)
        t, x, y = np.array(pts).T
        if one_t:
            t = float(t[0])
            pts = [(t, px, py) for _, px, py in pts]
        if column:  # points (n, 1)
            t, x, y = (np.reshape(v, (-1, 1)) if np.ndim(v) else v
                       for v in (t, x, y))

        def ids(point):
            return idempotents(multiplication_table(pot, point))

        alone = [(raised(ids, p), raised(theorem2_residual, pot, p))
                 for p in pts]
        together = (raised(ids, (t, x, y)),
                    raised(theorem2_residual, pot, (t, x, y)))
        for k in range(2):
            fails = [a[k] for a in alone if isinstance(a[k], tuple)]
            if fails:  # the error of the first failing point
                assert together[k] == fails[0]
            else:
                got = together[k].reshape(len(pts), *np.shape(alone[0][k]))
                for row, (a, b) in zip(got, alone):
                    want = (a, b)[k]
                    assert np.asarray(row).tobytes() == np.asarray(
                        want).tobytes()
                    if k:
                        assert type(want) is float


class TestSliceIndependence:
    """The unity e = dt is flat, so the structure constants do not depend on
    t: the table and Theorem 2's residual on any slice are those of t = 0,
    bit for bit, at a point and at arrays of points."""

    @pytest.mark.parametrize("case", ["A", "B"])
    @pytest.mark.parametrize("t", [0.3, -0.37, 2.5,
                                   np.array([0.3, -0.37, 2.5])],
                             ids=["0.3", "-0.37", "2.5", "array"])
    def test_every_slice_has_the_floats_of_t_zero(self, case, t):
        pot = solution_potential(case)
        x, y = np.array([0.1, -0.3, 0.4]), np.array([1.0, 0.8, 1.2])
        points = [(x, y)] + ([] if np.ndim(t) else [(x[1], y[1])])
        for xy in points:
            for fn in (lambda p: multiplication_table(pot, p).c,
                       lambda p: theorem2_residual(pot, p)):
                got, want = fn((t, *xy)), fn((0.0, *xy))
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(
                    want).tobytes()


class TestTaylorSolve:
    def test_reconstructs_solution_a(self):
        x = PolyExpr.var(0, 2)
        data = [PolyExpr.zero(), PolyExpr.zero(),
                PolyExpr.from_dict({(2, 0): "1/2"})]
        pot = taylor_solve("A", data, order=8)
        ref = solution_potential("A")
        for px, py in [(0.3, 0.2), (-0.5, 0.4), (1.1, -0.3)]:
            assert complex(pot.f(px, py)) == pytest.approx(
                complex(ref.f(px, py)), abs=1e-12)

    def test_reconstructs_solution_b(self):
        data = [PolyExpr.from_dict({(3, 0): "1/6"}), PolyExpr.zero(),
                PolyExpr.zero()]
        pot = taylor_solve("B", data, order=8, x0=1.0)
        ref = solution_potential("B")
        for px, py in [(0.8, 0.2), (1.3, -0.4)]:
            assert complex(pot.f(px, py)) == pytest.approx(
                complex(ref.f(px, py)), abs=1e-10)

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_random_data_satisfies_equation_to_order(self, case):
        rng = np.random.default_rng(3)
        for _ in range(3):
            data = []
            for _ in range(3):
                d = {(int(j), 0): rng.standard_normal() * 0.3
                     for j in range(4)}
                data.append(PolyExpr.from_dict(d))
            if case == "B":
                data[0] = data[0] + PolyExpr.from_dict({(3, 0): 1.0})
            order = 8
            pot = taylor_solve(case, data, order=order)
            res = pot.residual_poly.jet((0.0, 0.0), order - 3)
            assert np.max(np.abs(res.c)) < 1e-10

    def test_case_b_needs_fxxx(self):
        data = [PolyExpr.zero(), PolyExpr.zero(), PolyExpr.zero()]
        with pytest.raises(ValueError):
            taylor_solve("B", data, order=6)

    @pytest.mark.parametrize("case", ["A", "B"])
    def test_data_in_x_alone(self, case):
        # the documented input, polynomials in x, gives the Taylor
        # polynomial of the same data written in (x, y)
        in_xy = [PolyExpr.from_dict({(1, 0): "1/3", (3, 0): 1.0}),
                 PolyExpr.from_dict({(2, 0): 0.5 - 0.25j}),
                 PolyExpr.from_dict({(0, 0): -0.25, (4, 0): "1/5"})]
        in_x = [PolyExpr(tuple(((e[0],), c) for e, c in p.terms))
                for p in in_xy]
        assert [p.nvars for p in in_x] == [1, 1, 1]
        assert (taylor_solve(case, in_x, order=7).f
                == taylor_solve(case, in_xy, order=7).f)

    def test_data_in_three_variables_is_refused(self):
        with pytest.raises(ValueError, match=r"in x or in \(x, y\)"):
            taylor_solve("A", [PolyExpr.var(0, 3)] * 3)


class TestTransport:
    def test_transport_is_linear_and_invertible(self):
        pot = solution_potential("A")
        curve = [(0.0, 1.0), (0.2, 1.1), (0.35, 1.25)]
        a = np.array(frobenius_transport(pot, curve, (1.0, 0.0)))
        b = np.array(frobenius_transport(pot, curve, (0.0, 1.0)))
        c = np.array(frobenius_transport(pot, curve, (2.0, -1.5)))
        assert np.allclose(c, 2 * a - 1.5 * b, atol=1e-9)
        # round trip
        back = frobenius_transport(pot, curve[::-1],
                                   (complex(c[0]), complex(c[1])))
        assert abs(back[0] - 2.0) + abs(back[1] + 1.5) < 1e-7

    def test_large_idempotents_walk_a_few_points(self, monkeypatch):
        # |e| grows large near this path on potential A; a walk on the
        # idempotents' absolute move halved it to 11,018 points, and the
        # slice directions' projective move takes 16 to the same floats
        points = []

        def counted(fp):
            points.append(fp.c[..., 0, 0, 0].size)
            return idempotents(fp)

        monkeypatch.setattr(frobenius, "idempotents", counted)
        path = [(-0.391, 0.464), (-0.363, 0.536), (-0.015, 0.521),
                (-0.286, 0.324)]
        got = frobenius_transport(solution_potential("A"), path, (1.0, 0.0))
        assert sum(points) <= 64
        assert got == (0.5130187651299178 - 1.1934151904488686e-15j,
                       -1.2354596252168863 - 2.0981285057149887e-15j)
