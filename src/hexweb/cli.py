"""Batch front-end: load a potential or field, run suites, emit artifacts.

Usage: hexweb <command> --config <file> [--out <dir>] [--seed <n>] [--strict]

Commands: check, gamma, leaves, closure, discriminant, normalforms, classify.
Exit codes: 0 all suites pass, 1 suite failure (report still written),
2 usage or schema error, 3 strict-validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chern import (corollary_residual, curvature, gamma_cubic,
                    gamma_depressed, gamma_from_definition)
from .cubic import (PolyCoeffField, discriminant_of_coeffs,
                    discriminant_scale, factorization_residual,
                    normalize_roots, regular_cutoff)
from .frobenius import Potential, theorem2_residual
from .jets import PolyExpr, modulus
from .singular import (classify_singularity, f_ode_residual,
                       normal_form_field, trace_discriminant)
from .webgeo import (_stitched, integrate_leaf, symmetry_residual,
                     thomsen_closure)

COMMANDS = ("check", "gamma", "leaves", "closure", "discriminant",
            "normalforms", "classify")

DEFAULT_TOLERANCES = {
    "associativity": 1e-8,
    "corollary": 1e-8,
    "gamma_agreement": 1e-7,
    "curvature": 1e-7,
    "factorization": 1e-10,
    "theorem2": 1e-8,
    "closure_gap": 1e-6,
    "symmetry": 1e-7,
    "f_ode": 1e-8,
    "discriminant": 1e-8,
}

BRANCH_COLORS = {1: "#1f77b4", 2: "#d62728", 3: "#2ca02c"}


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Input parsing


def _is_number(v):
    """A finite JSON number (booleans, and ints beyond float range,
    excluded)."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def _is_positive(v):
    return _is_number(v) and v > 0


def _is_pair(v):
    """A list of two finite numbers."""
    return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))


# optional config keys that hold one value: the test a given value must pass
VALUE_KEYS = {
    "eps": (_is_positive, "a positive number"),
    "leaf_length": (_is_positive, "a positive number"),
    "base": (_is_pair, "a list of two finite numbers [x, y]"),
    "point": (_is_pair, "a list of two finite numbers [x, y]"),
}


def _parse_coef(raw):
    if isinstance(raw, str):
        try:
            finite = math.isfinite(Fraction(raw))
        except (ValueError, ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise SchemaError(f"bad coefficient {raw!r}: not a rational 'p/q' "
                              "within float range")
        return raw  # exact rational "p/q"; PolyExpr coerces it
    if _is_number(raw):
        return raw
    if _is_pair(raw):
        return complex(raw[0], raw[1])
    raise SchemaError(f"bad coefficient {raw!r}: expected a finite number, "
                      "[re, im] or 'p/q'")


# largest exponent: up to it, powers of a complex coordinate are repeated
# products and the lifts' binomial factors are floats; beyond it Python's
# complex power raises OverflowError where the value leaves float range
MAX_EXPONENT = 100
# the most samples (check) and grid points per side (gamma, leaves,
# discriminant) a run may ask for: gamma on a 100 x 100 grid holds about
# 160 MB of jets
COUNT_LIMITS = {"samples": 1000, "grid": 100}
# every top-level config key; any other (a typo, say) is a schema error
CONFIG_KEYS = {"input", "tolerances", "window", *COUNT_LIMITS, *VALUE_KEYS}


def _parse_monomials(items, nvars):
    if not isinstance(items, list):
        raise SchemaError(f"monomials {items!r} must be a list")
    d = {}
    for it in items:
        if not isinstance(it, dict) or "exps" not in it or "coef" not in it:
            raise SchemaError(f"monomial entry {it!r} needs 'exps' and 'coef'")
        exps = it["exps"]
        if not (isinstance(exps, list) and len(exps) == nvars
                and all(type(e) is int and 0 <= e <= MAX_EXPONENT
                        for e in exps)):
            raise SchemaError(f"exponents {exps!r} must be {nvars} integers "
                              f"from 0 to {MAX_EXPONENT}")
        exps = tuple(exps)
        if exps in d:
            raise SchemaError(f"duplicate exponent tuple {exps}")
        d[exps] = _parse_coef(it["coef"])
    return PolyExpr.from_dict(d)


def load_spec(spec):
    """Validated Potential or PolyCoeffField from a parsed JSON object."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("input spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "potential":
        case = spec.get("case")
        if case not in ("A", "B"):
            raise SchemaError("potential spec needs 'case': 'A' or 'B'")
        pot = Potential(case=case, f=_parse_monomials(
            spec.get("monomials", []), 2))
        try:  # the conversion that every lift of them makes
            for p in (*pot.f3.values(), *pot.characteristic_field().abcr,
                      pot.residual_poly):
                for _, c in p.terms:
                    complex(c)
        except OverflowError:
            raise SchemaError("a third derivative or the associativity "
                              "residual has a coefficient beyond float range")
        return pot
    if kind == "field":
        coeffs = []
        for name in ("a", "b", "c", "r"):
            if name not in spec:
                raise SchemaError(f"field spec missing coefficient '{name}'")
            coeffs.append(_parse_monomials(spec[name], 2))
        return PolyCoeffField(*coeffs)
    raise SchemaError(f"unknown kind {kind!r}")


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict) or "input" not in cfg:
        raise SchemaError("config must be an object with an 'input' spec")
    unknown = [k for k in cfg if k not in CONFIG_KEYS]
    if unknown:
        raise SchemaError(f"unknown config key {unknown[0]!r}")
    given = cfg.get("tolerances", {})
    if not isinstance(given, dict):
        raise SchemaError("tolerances must be an object")
    unknown = [k for k in given if k not in DEFAULT_TOLERANCES]
    if unknown:
        raise SchemaError(f"unknown tolerance {unknown[0]!r}")
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(given)
    if not all(map(_is_positive, tol.values())):
        raise SchemaError("tolerances must be positive numbers")
    cfg["tolerances"] = tol
    win = cfg.get("window", [[-1.0, 1.0], [0.5, 1.5]])
    if not (isinstance(win, list) and len(win) == 2
            and all(_is_pair(w) and w[0] < w[1] for w in win)):
        raise SchemaError("window must be [[xmin, xmax], [ymin, ymax]] "
                          "with xmin < xmax and ymin < ymax")
    cfg["window"] = win
    for key, most in COUNT_LIMITS.items():
        v = cfg.get(key, 1)
        if type(v) is not int or not 1 <= v <= most:
            raise SchemaError(f"{key} must be an integer from 1 to {most}")
    for key, (valid, what) in VALUE_KEYS.items():
        if key in cfg and not valid(cfg[key]):
            raise SchemaError(f"{key} must be {what}")
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Serialization helpers


def _json_default(o):
    if isinstance(o, np.bool_):  # the one numpy value in a report
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2,
                  default=_json_default)
        fh.write("\n")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


SVG_SIZE = 640  # width and height of an SVG figure, in pixels


def _svg_header(window):
    (x0, x1), (y0, y1) = window
    w = x1 - x0
    h = y1 - y0
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
            f'height="{SVG_SIZE}" viewBox="{x0} {-y1} {w} {h}">\n'
            f'<rect x="{x0}" y="{-y1}" width="{w}" height="{h}" '
            'fill="white"/>\n')


def _svg_polyline(points, color, width):
    body = " ".join(f"{p[0]:.6g},{-p[1]:.6g}" for p in points)
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{body}"/>\n')


def write_svg(path, window, layers):
    """layers: list of (points-array, color, width)."""
    (x0, x1), _ = window
    width_unit = (x1 - x0) / SVG_SIZE
    parts = [_svg_header(window)]
    for pts, color, w in layers:
        if len(pts) >= 2:
            parts.append(_svg_polyline(pts, color, w * width_unit))
    parts.append("</svg>\n")
    Path(path).write_text("".join(parts))


# ---------------------------------------------------------------------------
# Suites


def _field_of(obj):
    return obj.characteristic_field() if isinstance(obj, Potential) else obj


SAMPLE_DMIN_FACTOR = 1e-3  # scaled |D| below which a random sample is dropped
CLOSURE_LEAF_TOL = 1e-10  # leaf tolerance of the closure hexagon
NF2_GAMMA_TOL = 1e-12  # |gamma| of normal form 2 that counts as zero


def _random_regular_points(field, window, rng, count, tries):
    """Up to count points, in at most tries uniform draws (x, then y) from
    window, that the field evaluates and that lie well off D = 0 (scaled |D|
    above SAMPLE_DMIN_FACTOR), for a sharp test."""
    (x0, x1), (y0, y1) = window
    pts = []
    for _ in range(tries):
        if len(pts) >= count:
            break
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        try:  # SingularPointError and JetError are ValueErrors
            co = field.coeffs(x, y)
        except ValueError:
            continue
        D = discriminant_of_coeffs(*co)
        if abs(D) > SAMPLE_DMIN_FACTOR * discriminant_scale(co):
            pts.append((x, y))
    return pts


def run_check(obj, cfg, rng, report, outdir):
    tol = cfg["tolerances"]
    field = _field_of(obj)
    count = int(cfg.get("samples", 25))
    pts = _random_regular_points(field, cfg["window"], rng, count, 100 * count)
    if not pts:
        raise ValueError("no regular sample point found in the window")
    xy = tuple(np.array(pts).T)
    inv = {}
    if isinstance(obj, Potential):
        res = float(np.max(modulus(obj.associativity_residual(*xy))))
        inv["associativity"] = (res, res <= tol["associativity"])
        res = float(np.max(corollary_residual(
            obj, xy, assoc_tol=tol["associativity"])))
        inv["corollary"] = (res, res <= tol["corollary"])
        # on the slice t = 0: the table, and so the residual, is the same
        # on every slice, since the unity e = dt is flat
        res = float(np.max(theorem2_residual(obj, (0.0, *xy))))
        inv["theorem2"] = (res, res <= tol["theorem2"])
    g1 = np.array(gamma_cubic(field, xy).values())
    g2 = np.array(gamma_from_definition(field, xy).values())
    agree = float(np.max(np.max(np.abs(g1 - g2), axis=0)
                         / (1.0 + np.max(np.abs(g1), axis=0))))
    fact = float(np.max(factorization_residual(
        field, normalize_roots(field, xy))))
    inv["gamma_agreement"] = (agree, agree <= tol["gamma_agreement"])
    if isinstance(obj, Potential):
        curv = float(np.max(np.abs(curvature(field, xy, route="cubic").K)))
        inv["curvature"] = (curv, curv <= tol["curvature"])
    inv["factorization"] = (fact, fact <= tol["factorization"])
    report["invariants"] = {
        k: {"max_residual": v[0], "pass": v[1]} for k, v in inv.items()}
    return all(v[1] for v in inv.values())


def run_gamma(obj, cfg, rng, report, outdir):
    field = _field_of(obj)
    (x0, x1), (y0, y1) = cfg["window"]
    n = int(cfg.get("grid", 12))
    X, Y = (g.ravel() for g in np.meshgrid(
        np.linspace(x0, x1, n), np.linspace(y0, y1, n), indexing="ij"))
    co = field.coeffs(X, Y)
    cols = np.full((len(X), 4), complex(np.nan, np.nan))  # D, gx, gy, K
    # D row by row: numpy's scalar complex products round as one point's
    # call does, its array loops not always (complex coefficients)
    cols[:, 0] = [discriminant_of_coeffs(*row) for row in co]
    ok = abs(cols[:, 0]) > regular_cutoff(co)
    if ok.any():
        g = gamma_cubic(field, (X[ok], Y[ok]))
        K = curvature(field, (X[ok], Y[ok]), route="cubic").K
        cols[ok, 1:] = np.stack([g.gx.value, g.gy.value, K], -1)
    rows = np.column_stack([X, Y, cols.view(float)])
    path = outdir / "gamma.csv"
    write_csv(path, ["x", "y", "re_D", "im_D", "re_gamma_dx", "im_gamma_dx",
                     "re_gamma_dy", "im_gamma_dy", "re_K", "im_K"], rows)
    report["artifacts"] = [path.name]
    report["grid"] = n
    return bool(ok.any())  # no regular grid point: nothing was checked


def run_leaves(obj, cfg, rng, report, outdir):
    field = _field_of(obj)
    window = cfg["window"]
    (x0, x1), (y0, y1) = window
    n = int(cfg.get("grid", 4))
    length = float(cfg.get("leaf_length", 0.5 * max(x1 - x0, y1 - y0)))
    layers = []
    count = 0
    for x in np.linspace(x0, x1, n + 2)[1:-1]:
        for y in np.linspace(y0, y1, n + 2)[1:-1]:
            for branch in (1, 2, 3):
                try:
                    leaf = _stitched(*(
                        integrate_leaf(field, (x, y), branch, L, domain=window)
                        for L in (length, -length)))
                except ValueError:  # LeafIntegrationError, SingularPointError
                    continue
                layers.append((leaf.points, BRANCH_COLORS[branch], 1.5))
                count += 1
    report["leaf_count"] = count  # also when the trace raises
    trace = trace_discriminant(field, window, n=max(16, 4 * n))
    for curve in trace.curves:
        layers.append((curve, "#000000", 3.0))
    path = outdir / "leaves.svg"
    write_svg(path, window, layers)
    report["artifacts"] = [path.name]
    return count > 0


def run_closure(obj, cfg, rng, report, outdir):
    field = _field_of(obj)
    base = tuple(cfg.get("base", [0.0, 1.0]))
    eps = float(cfg.get("eps", 0.05))
    tol = cfg["tolerances"]
    rep = thomsen_closure(field, base, eps, tol=CLOSURE_LEAF_TOL)
    ok = rep.gap <= tol["closure_gap"]
    report["closure"] = {
        "base": list(rep.base),
        "eps": rep.eps,
        "gap": rep.gap,
        "vertices": [list(map(float, v)) for v in rep.vertices],
        "pass": ok,
    }
    write_json(outdir / "closure.json", report)
    report["artifacts"] = ["closure.json"]
    return ok


def run_discriminant(obj, cfg, rng, report, outdir):
    field = _field_of(obj)
    window = cfg["window"]
    n = int(cfg.get("grid", 32))
    tol = cfg["tolerances"]["discriminant"]
    trace = trace_discriminant(field, window, n=max(8, n))
    pts = trace.all_points()
    co = field.coeffs(pts[:, 0], pts[:, 1])
    D = discriminant_of_coeffs(*co.T)
    worst = float(np.max(abs(D) / discriminant_scale(co), initial=0.0))
    ci = np.repeat(range(len(trace.curves)), [len(c) for c in trace.curves])
    rows = np.stack([ci, pts[:, 0], pts[:, 1], D.real, D.imag], axis=1)
    write_csv(outdir / "discriminant.csv",
              ["curve", "x", "y", "re_D", "im_D"], rows)
    layers = [(c, "#000000", 2.0) for c in trace.curves]
    write_svg(outdir / "discriminant.svg", window, layers)
    report["trace"] = {"curves": len(trace.curves),
                       "points": int(sum(len(c) for c in trace.curves)),
                       "max_scaled_D": worst, "empty": trace.empty}
    report["artifacts"] = ["discriminant.csv", "discriminant.svg"]
    return trace.empty or worst <= tol


def run_normalforms(obj, cfg, rng, report, outdir):
    tol = cfg["tolerances"]
    entries = []
    f_sols = {}  # m0 -> form 6's F solution, checked below
    ok_all = True
    for fid, m0 in ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0),
                    (6, 0), (6, 1), (6, 2)):
        nf = normal_form_field(fid, m0)
        if nf.fs is not None:
            f_sols[m0] = nf.fs
        if fid == 6:
            window = ((0.02, 0.4 / (m0 + 1)), (0.5, 1.0))
        elif fid == 5:
            window = ((-0.35, 0.35), (0.3, 1.2))
        else:
            window = ((-1.0, 1.0), (0.2, 1.2))
        pts = _random_regular_points(nf.field, window, rng, 20, 400)
        worst_k = None  # no sample, no measured curvature
        if pts:  # regular well past the cutoff, so the batch cannot raise
            K = curvature(nf.field, tuple(np.array(pts).T), route="cubic").K
            worst_k = float(np.max(np.abs(K)))
        if fid == 6:
            samples = [(0.05, 0.8), (0.08, 0.6), (0.06, 1.0)]
        elif fid == 5:
            samples = [(0.1, 0.8), (-0.2, 0.6), (0.25, 1.0)]
        else:
            samples = [(0.3, 0.5), (-0.4, 0.8), (0.6, 0.4)]
        sym = symmetry_residual(nf.field, nf.weights, samples, a=0.05)
        entry = {"id": fid, "m0": m0, "weights": list(nf.weights),
                 "max_curvature": worst_k, "symmetry_residual": sym,
                 "pass": bool(pts) and worst_k <= tol["curvature"]
                         and sym <= tol["symmetry"]}
        if fid == 2:
            g = gamma_depressed(nf.field, (0.3, 0.4))
            gnorm = g.norm()
            entry["gamma_norm"] = gnorm
            entry["pass"] = entry["pass"] and gnorm <= NF2_GAMMA_TOL
        entries.append(entry)
        ok_all = ok_all and entry["pass"]
    fres = {}
    # the bracket halts the field's [0, 8] solves where [0, 1] solves halt
    for m0, fs in f_sols.items():
        ts = np.linspace(0.01, 0.9 * fs.t_max, 20)
        fres[str(m0)] = {"residual": f_ode_residual(fs, ts),
                         "t_max": fs.t_max,
                         "bracket_hit": not fs.bracket_ok}
        ok_all = ok_all and fres[str(m0)]["residual"] <= tol["f_ode"]
    report["catalog"] = entries
    report["f_ode"] = fres
    write_json(outdir / "normalforms.json", report)
    report["artifacts"] = ["normalforms.json"]
    return ok_all


def run_classify(obj, cfg, rng, report, outdir):
    field = _field_of(obj)
    point = tuple(cfg.get("point", [0.0, 0.0]))
    cls = classify_singularity(field, point=point)
    report["classification"] = {
        "point": list(point),
        "weights": list(cls.weights) if cls.weights else None,
        "matched_id": cls.matched_id,
        "residual": cls.residual,
        "status": cls.status,
    }
    write_json(outdir / "classify.json", report)
    report["artifacts"] = ["classify.json"]
    return cls.status != "unclassified"


RUNNERS = {
    "check": run_check,
    "gamma": run_gamma,
    "leaves": run_leaves,
    "closure": run_closure,
    "discriminant": run_discriminant,
    "normalforms": run_normalforms,
    "classify": run_classify,
}


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hexweb",
        description="verification suites for cubic-ODE 3-webs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strict", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0

    try:
        cfg = load_config(args.config)
        obj = load_spec(cfg["input"])
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.strict and isinstance(obj, Potential):
        x, y = np.random.default_rng(args.seed).uniform(-1, 1, (20, 2)).T
        worst = float(np.max(modulus(obj.associativity_residual(x, y))))
        if worst > cfg["tolerances"]["associativity"]:
            print(f"strict validation failed: associativity residual "
                  f"{worst:.3e}", file=sys.stderr)
            return 3

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    report = {
        "command": args.command,
        "seed": args.seed,
        "config_hash": config_hash(cfg),
        "tolerances": cfg["tolerances"],
    }
    try:
        ok = RUNNERS[args.command](obj, cfg, rng, report, outdir)
    except ValueError as e:  # SingularPointError, LeafIntegrationError too
        report["error"] = str(e)
        ok = False
    report["pass"] = bool(ok)
    write_json(outdir / f"{args.command}_report.json", report)
    print(f"{args.command}: {'PASS' if ok else 'FAIL'} "
          f"(report: {outdir / (args.command + '_report.json')})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
