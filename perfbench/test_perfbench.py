"""Self-test of the benchmark: tiny-input smoke runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that no item fails at the seed, that the closure items of `curves`
make no jet products, that tracing patches every binding and restores it,
and that the benchmark refuses to run without the hexweb sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(workload, trace, cwd=ROOT, runner=None):
    runner = runner or HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _, res = result(smoke(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["ok_frac"]["value"] == 1.0
    assert res["metrics"]["residual_margin_log10"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    details, res = result(smoke(workload, 1))
    assert res["correct"] and res["failed"] == 0
    assert details["unchanged_by_tracing"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for layer in ("jets", "cubic", "chern", "frobenius", "webgeo",
                  "singular", "cli"):
        assert res["metrics"][f"{layer}.self_s"]["value"] > 0, layer
    if workload == "curves":
        by_kind = details["by_kind"]
        for kind in ("closure", "cli.closure"):
            spans = by_kind[kind]
            assert spans["webgeo.thomsen_closure"]["calls"] >= 1
            assert spans.get("jets.mul", {"calls": 0})["calls"] == 0, kind


def test_tracer_patches_every_binding_and_restores():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hexweb.cli
    import hexweb.jets
    import hexweb.webgeo
    import tracing

    Jet = hexweb.jets.Jet
    originals = (Jet.__mul__, Jet.__rmul__, hexweb.webgeo.gamma_cubic,
                 hexweb.cli.normalize_roots, hexweb.cli.integrate_leaf)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = (Jet.__mul__, Jet.__rmul__, hexweb.webgeo.gamma_cubic,
                   hexweb.cli.normalize_roots, hexweb.cli.integrate_leaf)
        assert all(p is not o for p, o in zip(patched, originals))
        one = Jet.constant(1.0, (0.0, 0.0), 2)
        _ = 3 * one, one * one
    finally:
        tracer.uninstall()
    assert tracer.totals()["jets.mul"][0] == 2
    assert (Jet.__mul__, Jet.__rmul__, hexweb.webgeo.gamma_cubic,
            hexweb.cli.normalize_roots, hexweb.cli.integrate_leaf) \
        == originals


def test_refuses_without_sources():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = smoke("pointwise", 0, cwd=bare,
                 runner=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
