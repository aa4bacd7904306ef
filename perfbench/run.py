"""hexweb benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 36 --trace 0

Load model: one process, one thread, a closed loop with one client; the
next item starts when the previous one returns, as the CLI and the test
suite use the library.  A pass runs every item of the workload once; the
run repeats passes while the next one is predicted to end within
--seconds, and reports per item the median over its passes (see
DESIGN.md).

Every time is reported at a fixed reference speed.  A yardstick, a fixed
piece of pure-Python work that uses no hexweb code, is timed between
the items, and each item's time is scaled by YARDSTICK_S / (the mean of
the two yardstick times just before and just after it).  On a shared host
the CPU flips between a fast and a slow speed, some 1.7 times apart, from
moment to moment, and a whole run can fall into a slow spell; the
yardstick slows with the items, while a change to hexweb leaves it as it
is.  The raw times are in the details line.

--trace 0 prints the end-to-end metrics.  Set-up time is measured in
fresh processes (import hexweb, build the fields, generate the inputs),
several times, and reported as the median.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see tracing.py), per pass, plus the tracing
overhead.  Tracing must leave the inputs and every residual unchanged.

The last line of standard output is the result; lines before it carry the
environment record, the input digest and per-kind details.  The run exits
with code 2, printing no result, when the hexweb sources are missing.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                                          # noqa: E402
import json                                              # noqa: E402
import math                                              # noqa: E402
import platform                                          # noqa: E402
import resource                                          # noqa: E402
import subprocess                                        # noqa: E402
import sys                                               # noqa: E402
import time                                              # noqa: E402
from pathlib import Path                                 # noqa: E402
from statistics import median                            # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
WORKLOADS = ("pointwise", "curves", "continuation")
SETUP_PROBES = 5
# the yardstick's time on the reference VM at its fast speed (see
# DESIGN.md): reported times are seconds on that VM at that speed
YARDSTICK_S = 0.65e-3
YARDSTICK_EVERY_S = 0.01    # least time between two yardstick runs
YARDSTICK_SETUP_RUNS = 11   # before and after set-up
LAYERS = ("jets", "cubic", "chern", "frobenius", "webgeo", "singular", "cli")
# traced functions called on every workload; the others report calls only,
# and their self time is part of their module's self_s
TIMED_FUNCTIONS = ("jets.mul", "jets.reciprocal", "jets.lift", "jets.eval",
                   "cubic.coeffs", "cubic.coeff_jets", "cubic.roots_proj",
                   "chern.gamma_cubic", "frobenius.idempotents")
COUNTED_FUNCTIONS = (
    "jets.mul", "jets.reciprocal", "jets.lift", "jets.eval", "jets.poly_mul",
    "cubic.coeffs", "cubic.coeff_jets", "cubic.roots_proj",
    "cubic.normalize_roots", "cubic.match_roots",
    "chern.gamma_cubic", "chern.gamma_from_definition", "chern.curvature",
    "chern.integrate_gamma", "chern.PathFrame",
    "frobenius.theorem2_residual", "frobenius.idempotents",
    "frobenius.frobenius_transport",
    "webgeo.integrate_leaf", "webgeo.point_at", "webgeo.thomsen_closure",
    "webgeo.first_integrals",
    "singular.trace_discriminant", "singular.classify_singularity",
    "singular.solve_F")
COUNTERS = ("webgeo.leaf.accepted_steps", "webgeo.leaf.ended.length",
            "webgeo.leaf.ended.domain",
            "webgeo.leaf.ended.discriminant-proximity",
            "webgeo.first_integrals.nodes",
            "singular.trace_discriminant.points",
            "chern.PathFrame.checkpoints")


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _load():
    """Import the workload code against this checkout's hexweb sources."""
    if not (SRC / "hexweb" / "__init__.py").is_file():
        _fail(f"hexweb sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import hexweb
    if Path(hexweb.__file__).resolve().parent != SRC / "hexweb":
        _fail(f"imported hexweb from {hexweb.__file__}, not {SRC}")
    import workloads
    return workloads


def _seed(seed):
    return seed % (1 << 63)


# ---------------------------------------------------------------------------
# Yardstick

def _cubic_root(a, b, c, z):
    """Newton's method on z^3 + a z^2 + b z + c from z."""
    for _ in range(8):
        f = ((z + a) * z + b) * z + c
        z = z - f / ((3 * z + 2 * a) * z + b)
    return z


def yardstick():
    """Time a fixed piece of work like hexweb's own, complex arithmetic and
    small containers in Python; it uses no hexweb code and no numpy, so it
    can also run before hexweb is imported."""
    t0 = time.perf_counter()
    z, acc, sums = complex(0.3, 0.1), 0.0, {}
    for i in range(150):
        z = z * z * 0.5 + complex(0.1, 0.05 * (i % 3))
        r = _cubic_root(-0.7 + 0.002 * i, 0.2, 0.3, complex(1.0, 0.5))
        acc += abs(z) / (1.0 + i) + abs(r)
        sums[i % 7] = sums.get(i % 7, 0.0) + r.real
    dt = time.perf_counter() - t0
    if not math.isfinite(acc + sum(sums.values())):
        raise RuntimeError("yardstick diverged")
    return dt


def slowdown(times):
    """How much slower than the reference speed the host ran, from
    yardstick times taken meanwhile."""
    return sum(times) / len(times) / YARDSTICK_S


def scaled(p):
    """A pass's item latencies at the reference speed."""
    y = p["yard"]
    return [lat / slowdown(y[a:a + 2])
            for lat, a in zip(p["lat"], p["yard_at"])]


# ---------------------------------------------------------------------------
# Set-up


def setup_probe(args):
    """Child process: time import + fields + inputs, print it with the
    digest of the generated inputs."""
    yard = [yardstick() for _ in range(YARDSTICK_SETUP_RUNS)]
    t0 = time.perf_counter()
    workloads = _load()
    wl = workloads.build(args.workload, _seed(args.seed), args.size, WORKDIR)
    dt = time.perf_counter() - t0
    yard += [yardstick() for _ in range(YARDSTICK_SETUP_RUNS)]
    print(json.dumps({"setup_s": dt, "slowdown": slowdown(yard),
                      "digest": wl.digest()}))


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times, slow, digests = [], [], set()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(rec["setup_s"])
        slow.append(rec["slowdown"])
        digests.add(rec["digest"])
    return times, slow, digests


# ---------------------------------------------------------------------------
# Passes


def tail(values):
    """Highest percentile with at least ten values beyond it: the value,
    the percentile and the count."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def run_pass(workloads, wl, tracer=None, yard=False):
    """Run every item once; per-item latency, verdict and check values,
    and with `yard` the yardstick times taken between the items."""
    lat, oks, worst, values, errors, yards = [], [], [], [], [], []
    yard_at = []    # per item: index of the yardstick run just before it
    clock = time.perf_counter
    t_pass = t_yard = clock()
    for it in wl.items:
        if yard:
            if not yards or clock() - t_yard >= YARDSTICK_EVERY_S:
                yards.append(yardstick())
                t_yard = clock()
            yard_at.append(len(yards) - 1)
        t0 = clock()
        try:
            if tracer is None:
                checks = it.run()
            else:
                name = it.kind if it.kind.startswith("cli.") \
                    else "bench." + it.kind
                checks = tracer.item(it.kind, name, it.run)
        except Exception as e:   # an item that raises is a failed item
            lat.append(clock() - t0)
            oks.append(False)
            values.append(f"raised {type(e).__name__}")
            errors.append(f"{it.kind} {it.label}: {type(e).__name__}: {e}")
            continue
        lat.append(clock() - t0)
        ok, r = workloads.evaluate(checks)
        oks.append(ok)
        if r is not None:
            worst.append((r, f"{it.kind} {it.label}"))
        values.append(repr([c[:3] for c in checks]))
        if not ok:
            bad = [c for c in checks if not workloads.evaluate([c])[0]]
            errors.append(f"{it.kind} {it.label}: failed {bad}")
    r, where = max(worst) if worst else (None, None)
    if yard:
        yards.append(yardstick())
    return {"wall": clock() - t_pass, "lat": lat, "ok": oks, "yard": yards,
            "yard_at": yard_at,
            "residual_log10": r, "worst_item": where,
            "values": values, "errors": errors}


def _keep_going(t_start, seconds, last):
    return time.perf_counter() - t_start + last <= seconds


# ---------------------------------------------------------------------------
# Reports


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": os.getloadavg(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "seed": seed,
            "threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")}}


def _kind_summary(wl, passes):
    out = {}
    for i, it in enumerate(wl.items):
        rec = out.setdefault(it.kind, {"items": 0, "failed": 0, "ms": []})
        rec["items"] += 1
        rec["failed"] += sum(not p["ok"][i] for p in passes)
        rec["ms"].append(1e3 * median([p["lat"][i] for p in passes]))
    for rec in out.values():
        ms = rec.pop("ms")
        rec["ms_p50"] = median(ms)
        rec["ms_sum"] = sum(ms)
    return out


def _consistent(passes):
    """Every pass computed exactly the same check values."""
    return all(p["values"] == passes[0]["values"] for p in passes[1:])


def end_to_end(args, workloads, wl, digest):
    setup_raw, setup_slow, digests = measure_setup(args)
    setup_times = [t / s for t, s in zip(setup_raw, setup_slow)]
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(workloads, wl, yard=True))
        if not _keep_going(t_start, args.seconds, passes[-1]["wall"]):
            break
    # per item, the median over passes of its latency at the reference
    # speed
    at_ref = [scaled(p) for p in passes]
    lat = [median(s[i] for s in at_ref) for i in range(len(wl.items))]
    raw = [median(p["lat"][i] for p in passes)
           for i in range(len(wl.items))]
    tail_ms, tail_pct, _ = tail(lat)
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["ok"])
    res = passes[0]["residual_log10"]
    same_inputs = digests == {digest} and wl.digest() == digest
    correct = failed == 0 and same_inputs and _consistent(passes) \
        and res is not None and res < 0
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (sum(lat), "s"),
        "item_ms.p50": (1e3 * median(lat), "ms"),
        "item_ms.tail": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "residual_margin_log10": (-res if res is not None else 0.0,
                                  "log10"),
    }
    details = {
        "passes": len(passes), "items_per_pass": len(wl.items),
        "tail_percentile": tail_pct, "setup_s_all": setup_times,
        "raw": {"setup_s_all": setup_raw, "wall_s": sum(raw),
                "item_ms.p50": 1e3 * median(raw),
                "item_ms.tail": 1e3 * tail(raw)[0]},
        "slowdown": {"setup": setup_slow,
                     "passes": [slowdown(p["yard"]) for p in passes]},
        "wall_s_all": [p["wall"] for p in passes],
        "setup_digests": sorted(digests), "residual_log10": res,
        "worst_item": passes[0]["worst_item"],
        "deterministic": _consistent(passes),
        "kinds": _kind_summary(wl, passes),
    }
    errors = [e for p in passes for e in p["errors"]]
    return correct, attempted, failed, metrics, details, errors


def per_layer(args, workloads, wl, digest):
    import tracing
    plain, traced = [], []
    tracer = tracing.Tracer()
    t_start = time.perf_counter()
    while True:
        plain.append(run_pass(workloads, wl))
        tracer.install(extra_modules=[workloads])
        try:
            traced.append(run_pass(workloads, wl, tracer))
        finally:
            tracer.uninstall()
        if not _keep_going(t_start, args.seconds,
                           plain[-1]["wall"] + traced[-1]["wall"]):
            break
    n = len(traced)
    passes = plain + traced
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["ok"])
    unchanged = _consistent(passes) and wl.digest() == digest
    correct = failed == 0 and unchanged

    tot = tracer.totals()
    metrics = {}
    self_by_module = {m: 0.0 for m in LAYERS + ("bench",)}
    for name, (_calls, _total, self_s) in tot.items():
        self_by_module[name.split(".")[0]] += self_s
    for m in LAYERS + ("bench",):
        metrics[f"{m}.self_s"] = (self_by_module[m] / n, "s")
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.self_s"] = (tot[name][2] / n, "s")
    for name in COUNTED_FUNCTIONS:
        metrics[f"{name}.calls"] = (tot[name][0] / n, "count")
    for name in COUNTERS:
        metrics[name] = (tracer.counts[name] / n, "count")
    leaves = tot["webgeo.integrate_leaf"][0]
    solves = tracer.calls_under("webgeo.integrate_leaf", "cubic.roots_proj")
    attempts = (solves - leaves) / 4.0
    metrics["webgeo.leaf.accept_ratio"] = (
        tracer.counts["webgeo.leaf.accepted_steps"] / attempts
        if attempts > 0 else 0.0, "ratio")
    hexagons = tot["webgeo.thomsen_closure"][0]
    metrics["webgeo.point_at.per_vertex"] = (
        tot["webgeo.point_at"][0] / (6 * hexagons) if hexagons else 0.0,
        "count")
    quads = tot["chern.integrate_gamma"][0]
    metrics["chern.integrate_gamma.evals_per_call"] = (
        tracer.calls_under("chern.integrate_gamma", "chern.gamma_cubic")
        / quads if quads else 0.0, "count")
    metrics["cli.s"] = (sum(v[1] for k, v in tot.items()
                            if k.startswith("cli.")) / n, "s")
    metrics["trace.overhead_s"] = (
        median([p["wall"] for p in traced])
        - median([p["wall"] for p in plain]), "s")

    by_kind = {}
    for kind in sorted({k for k, _, _ in tracer.spans}):
        t = tracer.totals(kinds={kind})
        by_kind[kind] = {name: {"calls": v[0] / n, "self_s": v[2] / n}
                         for name, v in sorted(t.items())}
    details = {"traced_passes": n,
               "wall_s_untraced": median([p["wall"] for p in plain]),
               "wall_s_traced": median([p["wall"] for p in traced]),
               "residual_log10": [plain[0]["residual_log10"],
                                  traced[0]["residual_log10"]],
               "unchanged_by_tracing": unchanged, "by_kind": by_kind}
    errors = [e for p in passes for e in p["errors"]]
    return correct, attempted, failed, metrics, details, errors


# ---------------------------------------------------------------------------


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = _load()
    seed = _seed(args.seed)
    wl = workloads.build(args.workload, seed, args.size, WORKDIR)
    digest = wl.digest()
    print(json.dumps({"env": environment(args.seed),
                      "workload": args.workload, "size": args.size,
                      "inputs_digest": digest}))
    measure = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics, details, errors = measure(
        args, workloads, wl, digest)
    for e in errors[:20]:
        print(f"item failed: {e}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
