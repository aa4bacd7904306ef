"""Acceptance gate: the eleven package-level invariants.

Each test prints exactly one pass/fail line (run with -s or read the
captured output) and asserts the invariant at its stated tolerance.
"""

import numpy as np

from hexweb.chern import (blaschke_transport, corollary_residual, curvature,
                          frame_components, gamma_cubic, gamma_depressed,
                          gamma_expressions_from_sigma, gamma_from_definition)
from hexweb.cubic import (PolyCoeffField, discriminant_of_coeffs,
                          discriminant_scale, normalize_roots)
from hexweb.frobenius import (frobenius_transport, mu_E, solution_potential,
                              taylor_solve, theorem2_residual)
from hexweb.jets import PolyExpr
from hexweb.singular import (f_ode_residual, normal_form_field, solve_F,
                             symmetry_losing_web, trace_discriminant)
from hexweb.webgeo import first_integrals, symmetry_residual, thomsen_closure
from webs import CONTROL_GENERIC, CONTROL_SLOPES, RECORDED_DRAWS

POT_A = solution_potential("A")
POT_B = solution_potential("B")
FIELD_A = POT_A.characteristic_field()
FIELD_B = POT_B.characteristic_field()


def verdict(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def regular_points(field, rng, count, window=((-1, 1), (0.3, 1.3)),
                   dmin=1e-3):
    (x0, x1), (y0, y1) = window
    pts = []
    while len(pts) < count:
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        co = field.coeffs(x, y)
        if abs(discriminant_of_coeffs(*co)) > dmin * discriminant_scale(co):
            pts.append((x, y))
    return pts


def random_taylor_potentials(case, rng, count=5, order=8):
    pots = []
    while len(pots) < count:
        data = []
        for _ in range(3):
            d = {(int(j), 0): rng.standard_normal() * 0.3 for j in range(4)}
            data.append(PolyExpr.from_dict(d))
        if case == "B":
            data[0] = data[0] + PolyExpr.from_dict({(3, 0): 1.0})
        pots.append(taylor_solve(case, data, order=order))
    return pots


def test_criterion_01_gamma_is_log_derivative_of_discriminant():
    rng = np.random.default_rng(101)
    worst = 0.0
    pots = [POT_A, POT_B]
    pots += random_taylor_potentials("A", rng)
    pots += random_taylor_potentials("B", rng)
    for k, pot in enumerate(pots):
        field = pot.characteristic_field()
        # taylor-solved potentials satisfy the equation only near their
        # base point, so those are probed within a small disk around it
        window = (((-1, 1), (0.3, 1.3)) if k < 2
                  else ((-0.012, 0.012), (-0.012, 0.012)))
        pts = regular_points(field, rng, 100, window=window)
        worst = max(worst, float(np.max(corollary_residual(
            pot, tuple(np.array(pts).T), assoc_tol=1e-8))))
    verdict(1, "connection equals -(1/6) dln(discriminant) on solutions",
            worst <= 1e-8, f"max relative residual {worst:.2e}")


def test_criterion_02_triple_oracle_gamma_agreement():
    rng = np.random.default_rng(102)
    worst_route = 0.0
    worst_expr = 0.0
    for _ in range(20):
        polys = []
        for _ in range(4):
            d = {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                 complex(rng.standard_normal(), rng.standard_normal())
                 for _ in range(int(rng.integers(1, 4)))}
            polys.append(PolyExpr.from_dict(d))
        field = PolyCoeffField(*polys)
        pts = tuple(np.array(regular_points(field, rng, 100,
                                            window=((-1, 1), (-1, 1)))).T)
        # (2, n) components, one column per point
        g1 = np.array(gamma_cubic(field, pts).values())
        g2 = np.array(gamma_from_definition(field, pts).values())
        worst_route = max(worst_route, float(np.max(
            np.max(np.abs(g1 - g2), axis=0)
            / (1.0 + np.max(np.abs(g1), axis=0)))))
        exprs = gamma_expressions_from_sigma(
            normalize_roots(field, pts, order=1).sigma)
        vals = np.array([e.values() for e in exprs])  # (3, 2, n)
        worst_expr = max(worst_expr, float(np.max(
            np.max(np.abs(vals - vals[0]), axis=(0, 1))
            / (1.0 + np.max(np.abs(vals), axis=(0, 1))))))
    ok = worst_route <= 1e-7 and worst_expr <= 1e-9
    verdict(2, "closed formula matches the definition of the connection",
            ok, f"routes {worst_route:.2e}, expressions {worst_expr:.2e}")


def test_criterion_03_flatness_and_control():
    rng = np.random.default_rng(103)
    worst = 0.0
    for field, window in ((FIELD_A, ((-1, 1), (0.3, 1.3))),
                          (FIELD_B, ((-1, 1), (-1, 1))),
                          (symmetry_losing_web(), ((0.2, 0.8), (0.4, 1.1)))):
        pts = tuple(np.array(regular_points(field, rng, 40, window=window)).T)
        worst = max(worst, float(np.max(np.abs(
            curvature(field, pts, route="cubic").K))))
    control_ok = all(
        abs(curvature(CONTROL_GENERIC, pt, route="cubic").K) >= 1e-2
        for pt in [(-2.2, 0.3), (0.5, 0.5), (1.0, -0.3)])
    ok = worst <= 1e-7 and control_ok
    verdict(3, "characteristic and fixture webs are flat, control is not",
            ok, f"max |curvature| {worst:.2e}, control >= 1e-2: {control_ok}")


def test_criterion_04_booklet_web_matches_characteristic_web():
    # 100 semisimple points per potential, drawn uniformly from t in
    # [-0.4, 0.4], x in [-1, 1], y in [0.3, 1.3] (recorded draws)
    pts = np.array(RECORDED_DRAWS["criterion_04"])
    assert pts.shape == (200, 3)
    assert (np.abs(pts[:, :2]).max(axis=0) <= (0.4, 1.0)).all()
    assert (np.abs(pts[:, 2] - 0.8) <= 0.5).all()
    worst = 0.0
    for pot, block in ((POT_A, pts[:100]), (POT_B, pts[100:])):
        assert all(mu_E(pot, tuple(p)).semisimple for p in block)
        worst = max(worst, float(np.max(
            theorem2_residual(pot, tuple(block.T)))))
    verdict(4, "idempotent booklet directions equal web leaf directions",
            worst <= 1e-8, f"max projective distance {worst:.2e}")


def test_criterion_05_thomsen_closure():
    gap = thomsen_closure(FIELD_A, (0.0, 1.0), 0.05, tol=1e-10).gap
    gaps = [thomsen_closure(CONTROL_SLOPES, (0.0, 0.0), 0.05 / 2 ** i,
                            tol=1e-10).gap for i in range(4)]
    ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
    stable = all(abs(r / 8.0 - 1.0) <= 0.2 for r in ratios)
    ok = gap <= 1e-6 and gaps[0] >= 1e-3 and stable
    verdict(5, "hexagon construction closes on the flat web only", ok,
            f"flat gap {gap:.2e}, control gap {gaps[0]:.2e}, "
            f"gap/eps^3 ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_06_abelian_relation():
    rng = np.random.default_rng(106)
    fixtures = [
        (FIELD_A, (0.0, 1.0), ((-0.45, 0.45), (0.7, 1.35))),
        (FIELD_B, (0.0, 0.0), ((-0.8, 0.8), (-0.8, 0.8))),
        (symmetry_losing_web(), (0.5, 0.7), ((0.25, 0.75), (0.45, 1.0))),
    ]
    worst_res = 0.0
    worst_unique = 0.0
    for field, base, ((x0, x1), (y0, y1)) in fixtures:
        for _ in range(10):
            verts = [base] + [(rng.uniform(x0, x1), rng.uniform(y0, y1))
                              for _ in range(3)]
            st = first_integrals(field, base, verts)
            worst_res = max(worst_res, st.abelian_residual)
        end = (0.5 * (x0 + x1), 0.75 * y1 + 0.25 * y0)
        mid1 = (x0 + 0.3 * (x1 - x0), y0 + 0.6 * (y1 - y0))
        mid2 = (x0 + 0.7 * (x1 - x0), y0 + 0.7 * (y1 - y0))
        s1 = first_integrals(field, base, [base, mid1, end])
        s2 = first_integrals(field, base, [base, mid2, end])
        worst_unique = max(
            worst_unique, float(np.max(np.abs(s1.u_end - s2.u_end))),
            abs(s1.k_end - s2.k_end))
    ok = worst_res <= 1e-7 and worst_unique <= 1e-6
    verdict(6, "leaf integrals satisfy u1+u2+u3=0 and are path-independent",
            ok, f"residual {worst_res:.2e}, two-path gap {worst_unique:.2e}")


def test_criterion_07_euler_scaling_symmetry():
    samples = [(0.1, 1.0), (0.3, 0.9), (-0.2, 1.1), (0.05, 1.3)]
    good = symmetry_residual(FIELD_A, (3, 2), samples)
    bad = symmetry_residual(FIELD_A, (1, 1), samples)
    ok = good <= 1e-8 and bad >= 1e-2
    verdict(7, "the web scales with weights [3:2] and not [1:1]", ok,
            f"[3:2] residual {good:.2e}, [1:1] residual {bad:.2e}")


def test_criterion_08_normal_form_catalog():
    worst_k = 0.0
    worst_sym = 0.0
    cases = [
        (1, 0, [(0.3, 0.5), (-0.4, 0.8)]),
        (2, 0, [(0.3, 0.5), (-0.4, 0.8)]),
        (3, 0, [(0.3, 0.5), (-0.4, 0.8)]),
        (4, 0, [(0.3, 0.8), (-0.2, 0.9)]),
        (5, 0, [(0.1, 0.8), (-0.2, 0.6)]),
        (6, 0, [(0.05, 0.8), (0.1, 0.6)]),
        (6, 1, [(0.05, 0.8), (0.08, 0.6)]),
        (6, 2, [(0.04, 0.8), (0.06, 0.9)]),
    ]
    for fid, m0, samples in cases:
        nf = normal_form_field(fid, m0)
        for pt in samples:
            co = nf.field.coeffs(*pt)
            if abs(discriminant_of_coeffs(*co)) < \
                    1e-6 * discriminant_scale(co):
                continue
            worst_k = max(worst_k, abs(
                curvature(nf.field, pt, route="cubic").K))
        worst_sym = max(worst_sym, symmetry_residual(
            nf.field, nf.weights, samples, a=0.05))
    gnorm = max(gamma_depressed(normal_form_field(2).field, pt).norm()
                for pt in [(0.3, 0.4), (-0.5, 0.7)])
    worst_f = 0.0
    slope_ok = True
    for m0 in (0, 1, 2):
        fs = solve_F(m0, t_max=1.0)
        # the quasilinear factor vanishes inside [0, 1]; the residual is
        # checked on the maximal domain of existence
        ts = np.linspace(0.01, 0.9 * fs.t_max, 30)
        worst_f = max(worst_f, f_ode_residual(fs, ts))
        h = 1e-6
        want = 2 * (m0 + 3) / (3 * (m0 + 1))
        slope_ok = slope_ok and abs(fs(0.0)) < 1e-12 and \
            abs((fs(h) - fs(0.0)) / h - want) < 1e-3 * want
    ok = (worst_k <= 1e-7 and worst_sym <= 1e-7 and gnorm <= 1e-12
          and worst_f <= 1e-8 and slope_ok)
    verdict(8, "catalog forms are flat with their printed symmetries", ok,
            f"curvature {worst_k:.2e}, symmetry {worst_sym:.2e}, "
            f"form-2 gamma {gnorm:.2e}, F-ODE residual {worst_f:.2e}")


def test_criterion_09_discriminant_tracing():
    trace_a = trace_discriminant(FIELD_A, ((-1.0, 1.0), (-0.2, 1.0)))
    pts = trace_a.all_points()
    worst_d = 0.0
    for field, tr in ((FIELD_A, trace_a),):
        for x, y in tr.all_points():
            co = field.coeffs(x, y)
            worst_d = max(worst_d, abs(discriminant_of_coeffs(*co))
                          / discriminant_scale(co))
    cubic_res = float(np.max(np.abs(32 * pts[:, 1] ** 3
                                    - 27 * pts[:, 0] ** 2)))
    trace_b = trace_discriminant(FIELD_B, ((-1.0, 1.0), (-1.0, 1.0)))
    ok = worst_d <= 1e-8 and cubic_res <= 1e-6 and trace_b.empty
    verdict(9, "discriminant curves are traced to the stated accuracy", ok,
            f"max scaled |D| {worst_d:.2e}, |32y^3-27x^2| {cubic_res:.2e}, "
            f"second trace empty: {trace_b.empty}")


def test_criterion_10_series_solver():
    rng = np.random.default_rng(110)
    order = 8
    worst = 0.0
    for case in ("A", "B"):
        for pot in random_taylor_potentials(case, rng, count=5, order=order):
            res = pot.residual_poly.jet((0.0, 0.0), order - 3)
            worst = max(worst, float(np.max(np.abs(res.c))))
    data = [PolyExpr.zero(), PolyExpr.zero(),
            PolyExpr.from_dict({(2, 0): "1/2"})]
    rebuilt = taylor_solve("A", data, order=order)
    exact = max(abs(complex(rebuilt.f(px, py)) - complex(POT_A.f(px, py)))
                for px, py in [(0.3, 0.2), (-0.5, 0.4), (1.1, -0.3)])
    ok = worst <= 1e-10 and exact <= 1e-12
    verdict(10, "series solver satisfies the equation within its order", ok,
            f"max residual coefficient {worst:.2e}, "
            f"reconstruction error {exact:.2e}")


def test_criterion_11_transport_agreement():
    # 10 paths from (0, 1) through two points of [-0.4, 0.4] x [0.75, 1.3],
    # with standard normal vectors v (recorded draws)
    draws = RECORDED_DRAWS["criterion_11"]
    assert len(draws) == 10
    worst = 0.0
    for draw in draws:
        pts = [tuple(p) for p in draw["path"]]
        v = tuple(draw["v"])
        assert pts[0] == (0.0, 1.0) and len(pts) == 3
        assert all(abs(px) <= 0.4 and 0.75 <= py <= 1.3 for px, py in pts[1:])
        start = normalize_roots(FIELD_A, pts[0])
        xi = frame_components(start, v)
        got = np.array(blaschke_transport(FIELD_A, pts, xi).vector)
        want = np.array(frobenius_transport(POT_A, pts, v))
        worst = max(worst, float(np.max(np.abs(got - want)))
                    / (1.0 + float(np.max(np.abs(want)))))
    loop = [(0.0, 1.0), (0.25, 1.1), (0.1, 1.3), (-0.2, 1.15), (0.0, 1.0)]
    start = normalize_roots(FIELD_A, loop[0])
    v0 = (0.6, -0.8)
    back = blaschke_transport(FIELD_A, loop, frame_components(start, v0))
    hol = abs(back.vector[0] - v0[0]) + abs(back.vector[1] - v0[1])
    ok = worst <= 1e-6 and hol <= 1e-7
    verdict(11, "connection transport equals idempotent-frame transport",
            ok, f"max difference {worst:.2e}, loop holonomy {hol:.2e}")
