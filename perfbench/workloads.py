"""Seeded inputs and verified work items of the three benchmark workloads.

An item is one unit of verified work.  Calling it returns its checks; each
check is (kind, label, value, limit):

- "acc": an accuracy residual, passing when value <= limit; these give the
  pass's residual_log10 = max log10(value / limit);
- "min": a witness, passing when value >= limit (the non-flat control must
  stay non-flat, a command must produce output);
- "eq": passing when value == limit (exit codes, expected counts).

The acceptance thresholds are those of tests/test_acceptance.py and
hexweb.cli.DEFAULT_TOLERANCES.  Library functions are reached through
their modules (chern.gamma_cubic, not a local alias) so that the tracer's
patches apply to every call made here.

Why the workloads exist, and what each layer is predicted to move on each
of them, is written down in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import hexweb.chern as chern
import hexweb.cli as cli
import hexweb.cubic as cubic
import hexweb.frobenius as frobenius
import hexweb.singular as singular
import hexweb.webgeo as webgeo
from hexweb.jets import PolyExpr

TOL = dict(cli.DEFAULT_TOLERANCES)
TOL.update({
    "abelian": 1e-7,            # criterion 6
    "path_independence": 1e-6,  # criterion 6
    "transport": 1e-6,          # criterion 11
    "holonomy": 1e-7,           # criterion 11
    "trace_cubic": 1e-6,        # criterion 9: |32 y^3 - 27 x^2|
    "leaf_return": 1e-6,        # leaf integrated out and back
    "classify": 1e-6,           # classify_singularity residual_tol
})
CONTROL_MIN_K = 1e-2        # criterion 3: the control is not flat
CONTROL_MIN_GAP = 1e-3      # criterion 5: control gap at eps = 0.05
CONTROL_GAP_EPS = 0.05
CONTROL_RATIO = (8.0, 0.2)  # criterion 5: gap ratios within 8 +- 20%
REGULAR_DMIN = 1e-3         # |D| / scale of sampled points, as the tests

X = PolyExpr.var(0, 2)
Y = PolyExpr.var(1, 2)

# size of one pass; "smoke" is the tiny-input mode of the self-test
SIZES = {
    "full": {
        "pot_points": 25, "rand_fields": 25, "rand_points": 2,
        "form_points": 3, "check_samples": 10, "gamma_grid": 8,
        "ladder_eps": 0.00625, "ladder": 3, "closure_eps": 0.003125,
        "leaf_points": 12, "ctrl_points": 24, "ctrl_curved": 4,
        "leaf_length": 0.03, "leaves_grid": 2,
        "fi_paths": 2, "fi_rhombi": 2, "fi_side": 0.04, "transports": 5,
        "transport_side": 0.06, "disc_grid": 16,
    },
    "smoke": {
        "pot_points": 2, "rand_fields": 1, "rand_points": 2,
        "form_points": 1, "check_samples": 3, "gamma_grid": 3,
        "ladder_eps": 0.00625, "ladder": 2, "closure_eps": 0.00625,
        "leaf_points": 1, "ctrl_points": 1, "ctrl_curved": 1,
        "leaf_length": 0.05, "leaves_grid": 1,
        "fi_paths": 1, "fi_rhombi": 1, "fi_side": 0.02, "transports": 1,
        "transport_side": 0.05, "disc_grid": 12,
    },
}


@dataclass
class Item:
    kind: str
    label: str
    run: object          # () -> list of checks


@dataclass
class Workload:
    name: str
    seed: int
    items: list = field(default_factory=list)
    inputs: list = field(default_factory=list)   # live objects, digested
    workdir: Path = None

    def digest(self):
        """sha256 of the generated inputs, walked from the live objects."""
        h = hashlib.sha256()
        for obj in self.inputs:
            h.update(_canon(obj).encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


def _canon(obj):
    if isinstance(obj, PolyExpr):
        return "P(" + ",".join(f"{e}:{_canon(c)}" for e, c in obj.terms) + ")"
    if isinstance(obj, cubic.PolyCoeffField):
        return "F(" + ",".join(_canon(p) for p in obj.abcr) + ")"
    if isinstance(obj, Path):
        return obj.name + ":" + obj.read_text()
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (complex, np.complexfloating)):
        return f"{float(obj.real).hex()}+{float(obj.imag).hex()}j"
    return repr(obj)


# ---------------------------------------------------------------------------
# Fields and samplers


def slope_web(s1, s2, s3):
    """Field whose three leaf slopes are the given polynomials."""
    def P(v):
        return v if isinstance(v, PolyExpr) else PolyExpr.const(v, 2)
    s1, s2, s3 = P(s1), P(s2), P(s3)
    k2 = PolyExpr.zero() - s1 - s2 - s3
    k1 = s1 * s2 + s1 * s3 + s2 * s3
    k0 = PolyExpr.zero() - s1 * s2 * s3
    return cubic.PolyCoeffField(PolyExpr.const(-1, 2), k2,
                                PolyExpr.zero() - k1, k0)


def control_generic():
    """Non-flat control of criterion 3."""
    return cubic.PolyCoeffField(PolyExpr.const(1, 2), PolyExpr.zero(),
                                X + Y * Y, PolyExpr.const(1, 2))


def control_slopes():
    """Non-flat control of criterion 5: slopes 0, 1 and 8x + 2.5."""
    return slope_web(0.0, 1.0, X * 8 + 2.5)


def random_field(rng):
    """Random complex field with coefficients of degree <= 2 in each
    variable, drawn as in criterion 2."""
    polys = []
    for _ in range(4):
        d = {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
             complex(rng.standard_normal(), rng.standard_normal())
             for _ in range(int(rng.integers(1, 4)))}
        polys.append(PolyExpr.from_dict(d))
    return cubic.PolyCoeffField(*polys)


def is_regular(f, x, y, dmin=REGULAR_DMIN):
    co = f.coeffs(x, y)
    return abs(cubic.discriminant_of_coeffs(*co)) > \
        dmin * cubic.discriminant_scale(co)


def regular_points(f, rng, count, window, max_tries=10000):
    (x0, x1), (y0, y1) = window
    pts = []
    for _ in range(max_tries):
        if len(pts) == count:
            return pts
        x, y = float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))
        if is_regular(f, x, y):
            pts.append((x, y))
    if len(pts) < count:
        raise RuntimeError(f"no regular points found in {window}")
    return pts


def _inside(p, window):
    (x0, x1), (y0, y1) = window
    return x0 <= p[0] <= x1 and y0 <= p[1] <= y1


def _step(rng, p, side, window):
    """A point at distance `side` from p in a random direction, in window."""
    while True:
        a = rng.uniform(0.0, 2.0 * np.pi)
        q = (p[0] + side * math.cos(a), p[1] + side * math.sin(a))
        if _inside(q, window):
            return q


# ---------------------------------------------------------------------------
# CLI items


def _monomials(poly):
    out = []
    for exps, c in poly.terms:
        if isinstance(c, Fraction):
            coef = str(c)
        else:
            c = complex(c)
            coef = [c.real, c.imag] if c.imag else c.real
        out.append({"exps": list(exps), "coef": coef})
    return out


def potential_spec(pot):
    return {"kind": "potential", "case": pot.case,
            "monomials": _monomials(pot.f)}


def field_spec(f):
    spec = {"kind": "field"}
    for name, poly in zip("abcr", f.abcr):
        spec[name] = _monomials(poly)
    return spec


def _write_config(wl, command, spec, **extra):
    path = wl.workdir / f"{command}.json"
    cfg = {"input": spec}
    cfg.update(extra)
    path.write_text(json.dumps(cfg, sort_keys=True))
    wl.inputs.append(path)
    return path


def cli_item(wl, command, spec, verify, **extra):
    """One CLI command run in-process; exit code 0 is its verdict, and
    `verify(report, outdir)` adds checks read from its artifacts."""
    cfg = _write_config(wl, command, spec, **extra)
    outdir = wl.workdir / "out"
    argv = [command, "--config", str(cfg), "--out", str(outdir),
            "--seed", str(wl.seed)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        report = json.loads(
            (outdir / f"{command}_report.json").read_text())
        return [("eq", "exit", code, 0)] + verify(report, outdir)

    return Item(f"cli.{command}", command, run)


def _invariant_checks(report, outdir):
    return [("acc", k, v["max_residual"], TOL[k])
            for k, v in sorted(report["invariants"].items())]


def _gamma_checks(grid):
    def verify(report, outdir):
        lines = (outdir / "gamma.csv").read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        K = np.hypot(rows[:, 8], rows[:, 9])
        K = K[np.isfinite(K)]
        return [("eq", "rows", len(rows), grid * grid),
                ("min", "regular_rows", len(K), 1),
                ("acc", "curvature", float(np.max(K)), TOL["curvature"])]
    return verify


def _normalforms_checks(report, outdir):
    out = []
    for e in report["catalog"]:
        tag = f"form{e['id']}.{e['m0']}"
        out.append(("acc", tag + ".curvature", e["max_curvature"],
                    TOL["curvature"]))
        out.append(("acc", tag + ".symmetry", e["symmetry_residual"],
                    TOL["symmetry"]))
        if "gamma_norm" in e:
            out.append(("acc", tag + ".gamma", e["gamma_norm"], 1e-12))
    for m0, r in sorted(report["f_ode"].items()):
        out.append(("acc", f"f_ode.{m0}", r["residual"], TOL["f_ode"]))
    return out


def _closure_checks(report, outdir):
    return [("acc", "gap", report["closure"]["gap"], TOL["closure_gap"])]


def _leaves_checks(expected):
    def verify(report, outdir):
        return [("eq", "leaf_count", report["leaf_count"], expected)]
    return verify


def _discriminant_checks(report, outdir):
    tr = report["trace"]
    return [("min", "points", tr["points"], 1),
            ("acc", "scaled_D", tr["max_scaled_D"], TOL["discriminant"])]


def _classify_checks(form_id):
    def verify(report, outdir):
        c = report["classification"]
        return [("eq", "matched_id", c["matched_id"], form_id),
                ("acc", "residual", c["residual"], TOL["classify"])]
    return verify


# ---------------------------------------------------------------------------
# pointwise: independent regular points through the three connection routes


def _point_item(kind, f, p, flat, pot=None, t0=0.0, rng_seed=0):
    def run():
        g1 = np.array(chern.gamma_cubic(f, p).values())
        g2 = np.array(chern.gamma_from_definition(f, p).values())
        scale = 1.0 + float(np.max(np.abs(g1)))
        K = chern.curvature(f, p, route="cubic").K
        triple = cubic.normalize_roots(f, p)
        out = [("acc", "gamma_agreement",
                float(np.max(np.abs(g1 - g2))) / scale,
                TOL["gamma_agreement"]),
               ("acc", "factorization",
                cubic.factorization_residual(f, triple),
                TOL["factorization"])]
        if flat:
            out.append(("acc", "curvature", abs(K), TOL["curvature"]))
        else:
            out.append(("eq", "curvature_finite", bool(np.isfinite(K)),
                        True))
        if pot is not None:
            out.append(("acc", "corollary", chern.corollary_residual(pot, p),
                        TOL["corollary"]))
            out.append(("acc", "theorem2", frobenius.theorem2_residual(
                pot, (t0, p[0], p[1]), rng=rng_seed), TOL["theorem2"]))
        return out
    return Item(kind, f"{p[0]:.4f},{p[1]:.4f}", run)


def _control_item(f, p):
    def run():
        return [("min", "control_curvature",
                 abs(chern.curvature(f, p, route="cubic").K), CONTROL_MIN_K)]
    return Item("control", f"{p}", run)


# regions sampled per catalog form, as hexweb.cli.run_normalforms samples
def _form_window(fid, m0):
    if fid == 6:
        return ((0.02, 0.4 / (m0 + 1)), (0.5, 1.0))
    if fid == 5:
        return ((-0.35, 0.35), (0.3, 1.2))
    return ((-1.0, 1.0), (0.2, 1.2))


CATALOG = ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (6, 1), (6, 2))


def build_pointwise(wl, rng, size):
    pots = [(frobenius.solution_potential("A"), ((-1, 1), (0.3, 1.3))),
            (frobenius.solution_potential("B"), ((-1, 1), (-1, 1)))]
    for pot, window in pots:
        f = pot.characteristic_field()
        got = 0
        while got < size["pot_points"]:
            (x, y), = regular_points(f, rng, 1, window)
            t0 = float(rng.uniform(-0.4, 0.4))
            # criterion 4 samples only where the algebra is semisimple
            if not frobenius.mu_E(pot, (t0, x, y)).semisimple:
                continue
            seed = int(rng.integers(1 << 31))
            wl.inputs.append((pot.case, x, y, t0, seed))
            wl.items.append(_point_item(f"potential.{pot.case}", f, (x, y),
                                        True, pot, t0, seed))
            got += 1
    for _ in range(size["rand_fields"]):
        f = random_field(rng)
        wl.inputs.append(f)
        for p in regular_points(f, rng, size["rand_points"],
                                ((-1, 1), (-1, 1))):
            wl.inputs.append(p)
            wl.items.append(_point_item("random", f, p, False))
    for fid, m0 in CATALOG:
        nf = singular.normal_form_field(fid, m0)
        pts = []
        while len(pts) < size["form_points"]:
            try:
                pts += regular_points(nf.field, rng, 1, _form_window(fid, m0))
            except (cubic.SingularPointError, ValueError):
                continue    # form 6 leaves the F-interpolant's range
        for p in pts:
            wl.inputs.append((fid, m0, p))
            wl.items.append(_point_item("form", nf.field, p, True))
    ctrl = control_generic()
    for p in [(-2.2, 0.3), (0.5, 0.5), (1.0, -0.3)]:
        wl.items.append(_control_item(ctrl, p))
    pot_a, pot_b = pots[0][0], pots[1][0]
    wl.items.append(cli_item(wl, "check", potential_spec(pot_a),
                             _invariant_checks,
                             samples=size["check_samples"]))
    grid = size["gamma_grid"]
    wl.items.append(cli_item(wl, "gamma", potential_spec(pot_b),
                             _gamma_checks(grid), grid=grid,
                             window=[[-1.0, 1.0], [-1.0, 1.0]]))
    wl.items.append(cli_item(wl, "normalforms", potential_spec(pot_a),
                             _normalforms_checks))


# ---------------------------------------------------------------------------
# curves: real leaves and Thomsen hexagons


def _ladder_items(f, base, eps_list):
    gaps = {}

    def hexagon(i, eps):
        def run():
            if i == 0:
                gaps.clear()
            gaps[i] = webgeo.thomsen_closure(f, base, eps, tol=1e-10).gap
            if i < len(eps_list) - 1:
                return []
            # the ladder's verdict, once all its gaps are in
            g = [gaps[j] for j in range(len(eps_list))]
            ratio, spread = CONTROL_RATIO
            # the criterion-5 threshold carried to the ladder's largest
            # eps by the eps^3 law that the ratio checks verify
            min_gap = CONTROL_MIN_GAP * (eps_list[0] / CONTROL_GAP_EPS) ** 3
            out = [("min", "control_gap", g[0], min_gap)]
            for j in range(len(g) - 1):
                dev = abs(g[j] / g[j + 1] / ratio - 1.0)
                out.append(("acc", f"gap_ratio{j}", dev, spread))
            return out
        return Item("closure", f"control eps={eps}", run)

    return [hexagon(i, eps) for i, eps in enumerate(eps_list)]


def _flatness_item(f, p, flat):
    def run():
        K = abs(chern.curvature(f, p, route="cubic").K)
        if flat:
            return [("acc", "curvature", K, TOL["curvature"])]
        return [("min", "control_curvature", K, CONTROL_MIN_K)]
    return Item("flatness", f"{p}", run)


def _leaf_item(f, p, branch, sign, length, pot=None):
    """Leaf out and back: the return must land on the start point."""
    def run():
        out_leaf = webgeo.integrate_leaf(f, p, branch, sign * length,
                                         tol=1e-10)
        end, tangent = out_leaf.points[-1], out_leaf.tangents[-1]
        dirs = webgeo.real_directions(f, (end[0], end[1]))
        k = int(np.argmax([abs(np.dot(d, tangent)) for d in dirs]))
        back_sign = -1.0 if np.dot(dirs[k], tangent) > 0 else 1.0
        back = webgeo.integrate_leaf(f, (end[0], end[1]), k + 1,
                                     back_sign * length, tol=1e-10)
        miss = float(np.linalg.norm(back.points[-1] - np.asarray(p)))
        checks = [("eq", "ended_out", out_leaf.termination, "length"),
                  ("eq", "ended_back", back.termination, "length"),
                  ("acc", "return", miss, TOL["leaf_return"])]
        if pot is not None:
            # theorem 2: the leaf starts along an idempotent direction
            t = out_leaf.tangents[0]
            dist = min(cubic.proj_distance(d, (t[0], t[1]))
                       for d in frobenius.booklet_directions(pot, p, rng=0))
            checks.append(("acc", "booklet", dist, TOL["theorem2"]))
        return checks
    return Item("leaf", f"{p} b{branch} {sign:+.0f}", run)


def build_curves(wl, rng, size):
    pot_a = frobenius.solution_potential("A")
    web_a = pot_a.characteristic_field()
    ctrl = control_slopes()
    eps_list = [size["ladder_eps"] / 2 ** i for i in range(size["ladder"])]
    wl.items += _ladder_items(ctrl, (0.0, 0.0), eps_list)
    wl.items.append(cli_item(wl, "closure", potential_spec(pot_a),
                             _closure_checks, base=[0.0, 1.0],
                             eps=size["closure_eps"]))
    wl.items.append(_flatness_item(web_a, (0.0, 1.0), True))
    wl.items.append(_flatness_item(ctrl, (0.0, 0.0), False))
    # leaf windows keep leaves of the chosen length clear of the
    # discriminant (web A: 32 y^3 = 27 x^2; control: x = -0.3125, -0.1875)
    # control branches 1 and 2 are straight lines (slopes 0 and 1) whose
    # leaves all cost the same; they are the majority of the items, so
    # that the median item has the same cost for every seed
    length = size["leaf_length"]
    for p in regular_points(web_a, rng, size["leaf_points"],
                            ((-0.15, 0.15), (0.95, 1.1))):
        wl.inputs.append(p)
        for branch in (1, 2, 3):
            for sign in (1.0, -1.0):
                wl.items.append(_leaf_item(web_a, p, branch, sign, length,
                                           pot_a))
    ctrl_pts = regular_points(ctrl, rng, size["ctrl_points"],
                              ((0.2, 0.3), (-0.3, 0.3)))
    for i, p in enumerate(ctrl_pts):
        wl.inputs.append(p)
        branches = (1, 2, 3) if i < size["ctrl_curved"] else (1, 2)
        for branch in branches:
            for sign in (1.0, -1.0):
                wl.items.append(_leaf_item(ctrl, p, branch, sign, length))
    n = size["leaves_grid"]
    wl.items.append(cli_item(wl, "leaves", potential_spec(pot_a),
                             _leaves_checks(3 * n * n), grid=n,
                             window=[[-0.3, 0.3], [0.9, 1.3]],
                             leaf_length=size["leaf_length"]))


# ---------------------------------------------------------------------------
# continuation: path-dependent, batch-size-one use of the pointwise layer


def _fi_item(f, base, path, pair=None, role=None):
    """first_integrals along a path; the second path of a pair (role 1)
    must reach the same values at the end point it shares with the first
    (role 0)."""
    def run():
        if role == 0:
            pair.clear()
        st = webgeo.first_integrals(f, base, path)
        out = [("acc", "abelian", st.abelian_residual, TOL["abelian"])]
        if role == 0:
            pair[0] = st
        elif role == 1:
            s1 = pair.pop(0)
            gap = max(float(np.max(np.abs(s1.u_end - st.u_end))),
                      abs(s1.k_end - st.k_end))
            out.append(("acc", "path_independence", gap,
                        TOL["path_independence"]))
        return out
    return Item("first_integrals", f"{len(path) - 1} segments", run)


def _transport_item(pot, f, path, v, seed):
    def run():
        start = cubic.normalize_roots(f, path[0])
        xi = chern.frame_components(start, v)
        got = np.array(chern.blaschke_transport(f, path, xi).vector)
        want = np.array(frobenius.frobenius_transport(pot, path, v,
                                                      rng=seed))
        diff = float(np.max(np.abs(got - want))) / (
            1.0 + float(np.max(np.abs(want))))
        return [("acc", "transport", diff, TOL["transport"])]
    return Item("transport", f"{path}", run)


def _loop_item(f, loop, v):
    def run():
        start = cubic.normalize_roots(f, loop[0])
        back = chern.blaschke_transport(f, loop,
                                        chern.frame_components(start, v))
        hol = abs(back.vector[0] - v[0]) + abs(back.vector[1] - v[1])
        return [("acc", "holonomy", hol, TOL["holonomy"])]
    return Item("transport", "loop", run)


def _trace_item(f, window, expect_empty):
    def run():
        tr = singular.trace_discriminant(f, window)
        if expect_empty:
            return [("eq", "empty", tr.empty, True)]
        pts = tr.all_points()
        worst = max(abs(cubic.discriminant_of_coeffs(*f.coeffs(x, y)))
                    / cubic.discriminant_scale(f.coeffs(x, y))
                    for x, y in pts)
        cubic_res = float(np.max(np.abs(32 * pts[:, 1] ** 3
                                        - 27 * pts[:, 0] ** 2)))
        return [("min", "points", len(pts), 1),
                ("acc", "scaled_D", worst, TOL["discriminant"]),
                ("acc", "curve", cubic_res, TOL["trace_cubic"])]
    return Item("trace", f"{window}", run)


def build_continuation(wl, rng, size):
    pot_a = frobenius.solution_potential("A")
    web_a = pot_a.characteristic_field()
    web_b = frobenius.solution_potential("B").characteristic_field()
    side = size["fi_side"]
    fixtures = [  # criterion 6
        (web_a, (0.0, 1.0), ((-0.45, 0.45), (0.7, 1.35))),
        (web_b, (0.0, 0.0), ((-0.8, 0.8), (-0.8, 0.8))),
        (singular.symmetry_losing_web(), (0.5, 0.7),
         ((0.25, 0.75), (0.45, 1.0))),
    ]
    # fixed segment lengths keep the node count, and so the work, the
    # same for every seed; 3-segment paths are as long as a rhombus side
    # pair, so that all first-integral items cost about the same
    for f, base, window in fixtures:
        for _ in range(size["fi_paths"]):
            path = [base]
            for _ in range(3):
                path.append(_step(rng, path[-1], side * 2 / 3, window))
            wl.inputs.append(path)
            wl.items.append(_fi_item(f, base, path))
        for _ in range(size["fi_rhombi"]):
            while True:
                a = _step(rng, base, side, window)
                b = _step(rng, base, side, window)
                end = (a[0] + b[0] - base[0], a[1] + b[1] - base[1])
                if _inside(end, window):
                    break
            pair = {}
            for role, mid in enumerate((a, b)):
                wl.inputs.append([base, mid, end])
                wl.items.append(_fi_item(f, base, [base, mid, end], pair,
                                         role))
    window = ((-0.4, 0.4), (0.75, 1.3))     # criterion 11
    tside = size["transport_side"]
    for _ in range(size["transports"]):
        path = [(0.0, 1.0)]
        for _ in range(2):
            path.append(_step(rng, path[-1], tside, window))
        v = (float(rng.standard_normal()), float(rng.standard_normal()))
        seed = int(rng.integers(1 << 31))
        wl.inputs.append((path, v, seed))
        wl.items.append(_transport_item(pot_a, web_a, path, v, seed))
    loop = [(0.0, 1.0)]
    for _ in range(3):
        loop.append(_step(rng, loop[-1], tside, window))
    loop.append((0.0, 1.0))
    v = (float(rng.standard_normal()), float(rng.standard_normal()))
    wl.inputs.append((loop, v))
    wl.items.append(_loop_item(web_a, loop, v))
    wl.items.append(_trace_item(web_a, ((-1.0, 1.0), (-0.2, 1.0)), False))
    wl.items.append(_trace_item(web_b, ((-1.0, 1.0), (-1.0, 1.0)), True))
    wl.items.append(cli_item(wl, "discriminant", potential_spec(pot_a),
                             _discriminant_checks, grid=size["disc_grid"],
                             window=[[-0.8, 0.8], [-0.1, 0.9]]))
    form_id = int(rng.choice([2, 3, 4]))
    nf = singular.normal_form_field(form_id)
    wl.items.append(cli_item(wl, "classify", field_spec(nf.field),
                             _classify_checks(form_id), point=[0.0, 0.0]))


BUILDERS = {
    "pointwise": build_pointwise,
    "curves": build_curves,
    "continuation": build_continuation,
}


def build(name, seed, size, workdir):
    """Generate the workload's inputs from the seed; returns a Workload."""
    workdir = Path(workdir) / name
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    wl = Workload(name=name, seed=seed, workdir=workdir)
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    BUILDERS[name](wl, rng, SIZES[size])
    return wl


def evaluate(checks):
    """(all passed, worst log10(residual / tolerance) or None)."""
    ok = True
    worst = None
    for kind, _label, value, limit in checks:
        if kind == "acc":
            passed = bool(np.isfinite(value)) and value <= limit
            r = math.log10(max(float(value) / limit, 1e-30)) \
                if np.isfinite(value) else math.inf
            worst = r if worst is None else max(worst, r)
        elif kind == "min":
            passed = value >= limit
        else:
            passed = value == limit
        ok = ok and passed
    return ok, worst
