"""Batch command-line front-end: schema validation, exit codes, reports,
determinism of emitted artifacts."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexweb import cli, singular
from hexweb.cli import SchemaError, load_spec, main
from hexweb.cubic import PolyCoeffField
from hexweb.frobenius import Potential

SOLUTION_A = {
    "kind": "potential",
    "case": "A",
    "monomials": [
        {"exps": [2, 2], "coef": "1/4"},
        {"exps": [0, 5], "coef": "1/60"},
    ],
}

FORM3_FIELD = {
    "kind": "field",
    "a": [{"exps": [0, 0], "coef": -1}],
    "b": [],
    "c": [{"exps": [2, 0], "coef": "2/3"}, {"exps": [0, 1], "coef": -1}],
    "r": [{"exps": [3, 0], "coef": "4/27"}, {"exps": [1, 1], "coef": "-2/3"}],
}


# values that are no finite number, alone or nested: a config that holds one
# where it needs a number (or a list of numbers) is broken there
NOT_A_NUMBER = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(2 ** 1024, 10 ** 400),     # beyond float range
              st.integers(-10 ** 400, -2 ** 1024),
              st.sampled_from([math.nan, math.inf, -math.inf, "", "x",
                               "1e999", "-2e400", "1/0", "nan", "1/3/4"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=2)),
    max_leaves=5)
NOT_POSITIVE = st.one_of(NOT_A_NUMBER, st.integers(max_value=0),
                         st.floats(max_value=0.0))
NOT_A_COUNT = st.one_of(NOT_POSITIVE, st.floats(1.0, 1e6),
                        st.integers(max(cli.COUNT_LIMITS.values()) + 1,
                                    10 ** 12))
HOSTILE_SITES = {
    "input": NOT_A_NUMBER,
    "tolerance": NOT_POSITIVE,
    "tolerance name": st.text(min_size=1, max_size=12).filter(
        lambda k: k not in cli.DEFAULT_TOLERANCES),
    "coef": NOT_A_NUMBER,
    "exps": NOT_A_NUMBER,
    "exponent": st.one_of(NOT_A_NUMBER, st.integers(max_value=-1),
                          st.integers(cli.MAX_EXPONENT + 1, 10 ** 400),
                          st.floats()),
    "window": NOT_A_NUMBER,
    "window bound": NOT_A_NUMBER,
    "samples": NOT_A_COUNT,
    "grid": NOT_A_COUNT,
    "eps": NOT_POSITIVE,
    "leaf_length": NOT_POSITIVE,
    "t0": NOT_A_NUMBER,
    "base": NOT_A_NUMBER,
    "point": NOT_A_NUMBER,
}


def write_config(tmp_path, inp, **extra):
    cfg = {"input": inp}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# a = 1e160 (1 + x): a^2 overflows, so D is nan + nanj wherever x != -1
OVERFLOWING_FIELD = {"kind": "field",
                     "a": [{"exps": [0, 0], "coef": 1e160},
                           {"exps": [1, 0], "coef": 1e160}],
                     "b": [{"exps": [0, 0], "coef": 1}],
                     "c": [{"exps": [0, 1], "coef": 1}],
                     "r": [{"exps": [0, 0], "coef": 1}]}


class TestLoadSpec:
    def test_potential(self):
        pot = load_spec(SOLUTION_A)
        assert isinstance(pot, Potential)
        assert pot.case == "A"
        assert abs(pot.associativity_residual(0.4, 0.8)) < 1e-12

    def test_field(self):
        field = load_spec(FORM3_FIELD)
        assert isinstance(field, PolyCoeffField)
        a, b, c, r = field.coeffs(0.5, 0.2)
        assert a == -1 and b == 0
        assert c == pytest.approx(2 / 3 * 0.25 - 0.2)

    def test_complex_coefficient(self):
        spec = {"kind": "field",
                "a": [{"exps": [0, 0], "coef": [1.0, -2.0]}],
                "b": [], "c": [], "r": [{"exps": [0, 0], "coef": 1}]}
        field = load_spec(spec)
        assert field.coeffs(0, 0)[0] == 1 - 2j

    def test_duplicate_exponents_named_in_error(self):
        bad = {"kind": "potential", "case": "A", "monomials": [
            {"exps": [2, 2], "coef": 1}, {"exps": [2, 2], "coef": 2}]}
        with pytest.raises(SchemaError, match=r"\(2, 2\)"):
            load_spec(bad)

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            load_spec({"kind": "metric"})

    def test_bad_case(self):
        with pytest.raises(SchemaError):
            load_spec({"kind": "potential", "case": "C", "monomials": []})

    def test_negative_exponent(self):
        with pytest.raises(SchemaError):
            load_spec({"kind": "potential", "case": "A",
                       "monomials": [{"exps": [-1, 2], "coef": 1}]})


class TestExitCodes:
    def test_check_passes_on_solution(self, tmp_path):
        cfg = write_config(tmp_path, SOLUTION_A, samples=5,
                           window=[[-0.5, 0.5], [0.6, 1.4]])
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = dict(SOLUTION_A, monomials=[
            {"exps": [2, 2], "coef": 1}, {"exps": [2, 2], "coef": 2}])
        cfg = write_config(tmp_path, bad)
        assert main(["check", "--config", cfg]) == 2
        assert "(2, 2)" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2

    def test_strict_rejects_non_solution(self, tmp_path, capsys):
        bad = {"kind": "potential", "case": "A",
               "monomials": [{"exps": [3, 1], "coef": 1}]}
        cfg = write_config(tmp_path, bad)
        assert main(["check", "--config", cfg, "--strict",
                     "--out", str(tmp_path / "out")]) == 3
        assert "associativity" in capsys.readouterr().err

    def test_strict_accepts_solution(self, tmp_path):
        cfg = write_config(tmp_path, SOLUTION_A, samples=5,
                           window=[[-0.5, 0.5], [0.6, 1.4]])
        assert main(["check", "--config", cfg, "--strict",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command, inp, extra", [
        ("check", SOLUTION_A, {"window": "abc"}),
        ("check", SOLUTION_A, {"window": [[0, 1]]}),
        ("check", SOLUTION_A, {"window": [[0, 1], [0, "1"]]}),
        ("check", SOLUTION_A, {"tolerances": {"corollary": "1e-8"}}),
        ("check", SOLUTION_A, {"tolerances": [1e-8]}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [2, 2],
                                              "coef": "nan"}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [2, 2],
                                              "coef": [1, "x"]}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": ["a", 2],
                                              "coef": 1}]), {}),
        ("check", dict(SOLUTION_A, monomials=5), {}),
        ("check", SOLUTION_A, {"samples": 0}),
        ("gamma", SOLUTION_A, {"grid": -3}),
        ("leaves", SOLUTION_A, {"grid": 2.5}),
        ("closure", SOLUTION_A, {"eps": float("nan")}),
        ("closure", SOLUTION_A, {"eps": "abc"}),
        ("closure", SOLUTION_A, {"eps": 0}),
        ("closure", SOLUTION_A, {"base": [0]}),
        ("closure", SOLUTION_A, {"base": "ab"}),
        ("classify", SOLUTION_A, {"point": 5}),
        ("classify", SOLUTION_A, {"point": "ab"}),
        ("leaves", SOLUTION_A, {"leaf_length": [1]}),
        ("check", SOLUTION_A, {"t0": [1]}),
        ("check", SOLUTION_A, {"tolerances": {"corollary": 10**400}}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [2, 2],
                                              "coef": 10**400}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [2, 2],
                                              "coef": "1e999"}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [1.7, 0],
                                              "coef": 1}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": "10",
                                              "coef": 1}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [True, 0],
                                              "coef": 1}]), {}),
        ("check", SOLUTION_A, {"tolerances": {"curvture": 1e-30}}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [10 ** 400, 0],
                                              "coef": 1}]), {}),
        ("gamma", dict(FORM3_FIELD, b=[{"exps": [10 ** 400, 0],
                                        "coef": 1}]), {}),
        ("gamma", dict(FORM3_FIELD, b=[{"exps": [cli.MAX_EXPONENT + 1, 0],
                                        "coef": 1}]), {}),
        ("check", dict(SOLUTION_A, monomials=[{"exps": [3, 0],
                                              "coef": 10 ** 308}]), {}),
        ("check", SOLUTION_A, {"samples": 10 ** 12}),
        ("gamma", SOLUTION_A, {"grid": cli.COUNT_LIMITS["grid"] + 1}),
        ("leaves", SOLUTION_A, {"grid": 10 ** 12}),
    ], ids=["window-string", "window-one-row", "window-string-bound",
            "tolerance-string", "tolerances-list", "coef-nan",
            "coef-string-imag", "exponent-string", "monomials-number",
            "samples-zero", "grid-negative", "grid-float", "eps-nan",
            "eps-string", "eps-zero", "base-one-number", "base-string",
            "point-number", "point-string", "leaf-length-list", "t0-list",
            "tolerance-huge-int", "coef-huge-int", "coef-huge-rational",
            "exponent-float", "exponents-string", "exponent-bool",
            "tolerance-unknown-name", "exponent-huge-potential",
            "exponent-huge-field", "exponent-over-limit",
            "derived-coef-overflow", "samples-over-limit",
            "grid-over-limit", "grid-huge"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, command, inp,
                                    extra):
        cfg = write_config(tmp_path, inp, **extra)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unknown_tolerance_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLUTION_A,
                           tolerances={"curvature": 1e-7, "curvture": 1e-30})
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "'curvture'" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(HOSTILE_SITES)).flatmap(
        lambda site: st.tuples(st.just(site), HOSTILE_SITES[site])))
    def test_hostile_configs_exit_2_for_every_command(self, hostile):
        """A config broken in one place exits 2 with a message, for every
        command, and writes nothing."""
        site, bad = hostile
        cfg = {"input": json.loads(json.dumps(SOLUTION_A))}
        monomial = cfg["input"]["monomials"][0]
        if site == "tolerance":
            cfg["tolerances"] = {"corollary": bad}
        elif site == "tolerance name":
            cfg["tolerances"] = {bad: 1e-8}
        elif site in ("coef", "exps"):
            monomial[site] = bad
        elif site == "exponent":
            monomial["exps"][1] = bad
        elif site == "window bound":
            cfg["window"] = [[-1.0, 1.0], [0.5, bad]]
        else:
            cfg[site] = bad
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            for command in cli.COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(path),
                                 "--out", str(out)])
                assert code == 2
                assert err.getvalue().startswith("error: ")
            assert not out.exists()

    def test_check_without_regular_samples_fails(self, tmp_path):
        zero = {"kind": "field", "a": [], "b": [], "c": [], "r": []}
        cfg = write_config(tmp_path, zero, samples=3)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "check_report.json").read_text())
        assert rep["pass"] is False
        assert "no regular sample" in rep["error"]

    def test_classify_on_vanishing_cubic_reports_error(self, tmp_path,
                                                       capsys):
        zero = {"kind": "field", "a": [], "b": [], "c": [], "r": []}
        cfg = write_config(tmp_path, zero)
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "classify_report.json").read_text())
        assert rep["pass"] is False
        assert "vanish" in rep["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_suite_failure_exits_1(self, tmp_path):
        # the generic non-flat field fails the closure suite at a regular base
        nonflat = {"kind": "field",
                   "a": [{"exps": [0, 0], "coef": 1}],
                   "b": [],
                   "c": [{"exps": [1, 0], "coef": 1},
                         {"exps": [0, 2], "coef": 1}],
                   "r": [{"exps": [0, 0], "coef": 1}]}
        cfg = write_config(tmp_path, nonflat, base=[-2.2, 0.3], eps=0.03)
        out = tmp_path / "out"
        assert main(["closure", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "closure_report.json").read_text())
        assert rep["pass"] is False
        assert rep["closure"]["gap"] > 1e-6

    def test_closure_names_the_discriminant(self, tmp_path, capsys):
        # H3 (flat, case A) at (0.2, 0.8): at eps 0.01 the second moving
        # leaf runs into D = 0 before it meets its target
        h3 = {"kind": "potential", "case": "A",
              "monomials": [{"exps": [3, 2], "coef": "1/6"},
                            {"exps": [2, 5], "coef": "1/20"},
                            {"exps": [0, 11], "coef": "1/3960"}]}
        cfg = write_config(tmp_path, h3, base=[0.2, 0.8], eps=0.01)
        out = tmp_path / "out"
        assert main(["closure", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "closure_report.json").read_text())
        assert rep["pass"] is False
        assert rep["error"] == ("hexagon leaf 2 reached the discriminant "
                                "(D = 0) before meeting the target leaf 3")
        assert "Traceback" not in capsys.readouterr().err


    def test_overflowing_field_reports_its_start(self, tmp_path, capsys):
        # the discriminant at the leaf start is nan + nanj
        cfg = write_config(tmp_path, OVERFLOWING_FIELD)
        out = tmp_path / "out"
        assert main(["closure", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "closure_report.json").read_text())
        assert rep["pass"] is False and "not finite" in rep["error"]
        assert main(["leaves", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "leaves_report.json").read_text())
        assert rep["pass"] is False and rep["leaf_count"] == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_field_has_no_discriminant_trace(self, tmp_path,
                                                         capsys):
        # D = nan + nanj on the grid: no trace, rather than an empty one
        cfg = write_config(tmp_path, OVERFLOWING_FIELD)
        out = tmp_path / "out"
        assert main(["discriminant", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "discriminant_report.json").read_text())
        assert rep["pass"] is False and "trace" not in rep
        assert rep["error"].startswith(
            "discriminant not finite at the grid node (")
        assert "Traceback" not in capsys.readouterr().err


class TestReports:
    def test_report_metadata(self, tmp_path):
        cfg = write_config(tmp_path, SOLUTION_A, samples=4,
                           window=[[-0.5, 0.5], [0.6, 1.4]])
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out),
                     "--seed", "9"]) == 0
        rep = json.loads((out / "check_report.json").read_text())
        assert rep["seed"] == 9
        assert len(rep["config_hash"]) == 16
        assert "associativity" in rep["tolerances"]
        for inv in rep["invariants"].values():
            assert inv["pass"] is True
            assert inv["max_residual"] >= 0

    def test_gamma_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, SOLUTION_A, grid=4,
                           window=[[-0.5, 0.5], [0.6, 1.4]])
        out = tmp_path / "out"
        assert main(["gamma", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "gamma.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "x", "y", "re_D", "im_D", "re_gamma_dx", "im_gamma_dx",
            "re_gamma_dy", "im_gamma_dy", "re_K", "im_K"]
        assert len(lines) == 1 + 16

    def test_classify_matches_catalog(self, tmp_path):
        cfg = write_config(tmp_path, FORM3_FIELD, point=[0.0, 0.0])
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "classify.json").read_text())
        assert rep["classification"]["matched_id"] == 3
        assert rep["classification"]["weights"] == [1, 2]

    def test_leaves_svg(self, tmp_path):
        cfg = write_config(tmp_path, SOLUTION_A, grid=2, leaf_length=0.2,
                           window=[[-0.4, 0.4], [0.7, 1.3]])
        out = tmp_path / "out"
        assert main(["leaves", "--config", cfg, "--out", str(out)]) == 0
        svg = (out / "leaves.svg").read_text()
        assert svg.startswith("<svg")
        # all three branch styles appear
        for color in ("#1f77b4", "#d62728", "#2ca02c"):
            assert color in svg


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SOLUTION_A, samples=4, grid=4,
                           window=[[-0.5, 0.5], [0.6, 1.4]], eps=0.01)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            for command in ("gamma", "check", "closure"):
                assert main([command, "--config", cfg, "--out", str(out),
                             "--seed", "3"]) == 0
            outs.append(out)
        for fname in ("gamma.csv", "gamma_report.json", "check_report.json",
                      "closure.json", "closure_report.json"):
            b1 = (outs[0] / fname).read_bytes()
            b2 = (outs[1] / fname).read_bytes()
            assert b1 == b2

    def test_byte_identical_discriminant(self, tmp_path):
        # a window that the discriminant 32 y^3 = 27 x^2 crosses
        cfg = write_config(tmp_path, SOLUTION_A, grid=16,
                           window=[[-0.8, 0.8], [-0.1, 0.9]])
        outs = [tmp_path / name for name in ("o1", "o2")]
        for out in outs:
            assert main(["discriminant", "--config", cfg, "--out", str(out),
                         "--seed", "3"]) == 0
        report = json.loads((outs[0] / "discriminant_report.json").read_text())
        assert report["trace"]["points"] > 0
        for fname in ("discriminant.csv", "discriminant.svg"):
            assert (outs[0] / fname).read_bytes() == \
                (outs[1] / fname).read_bytes()


# gamma.csv on web A for a grid that holds the singular origin exactly (one
# all-NaN row) and normalforms.json at one seed, recorded when both commands
# evaluated their points one call at a time; web A's closure.json and
# leaves_report.json, recorded before single rows left the batched root
# kernel; web A's discriminant.csv (an open cusp), recorded before closed
# loops repeated their first point
CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
NAN_ROW = "0.0,0.0,0.0,0.0,nan,nan,nan,nan,nan,nan"
DEGENERATE_FIELD = {"kind": "field", "a": [{"exps": [0, 0], "coef": 1}],
                    "b": [], "c": [], "r": []}  # dy^3 = 0: D = 0 everywhere


def counting(module, name, calls, monkeypatch):
    """Route module.name through a wrapper that logs each call's batch size."""
    fn = getattr(module, name)

    def counted(field, point, *args, **kwargs):
        calls.append(np.broadcast(*point).size)
        return fn(field, point, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestPointSets:
    @pytest.mark.parametrize("case", json.loads(CLI_GOLDEN.read_text()),
                             ids=lambda c: c["command"])
    def test_outputs_equal_their_recorded_bytes(self, tmp_path, case):
        cfg = write_config(tmp_path, SOLUTION_A, **case["config"])
        out = tmp_path / "out"
        assert main([case["command"], "--config", cfg, "--out", str(out),
                     "--seed", str(case["seed"])]) == 0
        assert (out / case["file"]).read_text() == case["text"]
        if case["command"] == "gamma":
            assert case["text"].splitlines().count(NAN_ROW) == 1

    def test_gamma_grid_is_one_batch(self, tmp_path, monkeypatch):
        gammas, curvatures = [], []
        counting(cli, "gamma_cubic", gammas, monkeypatch)
        counting(cli, "curvature", curvatures, monkeypatch)
        cfg = write_config(tmp_path, SOLUTION_A, grid=19,
                           window=[[-1.0, 1.0], [-0.5, 1.3]])
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 0
        # every grid point but the singular origin, in one call each
        assert gammas == [19 * 19 - 1] and curvatures == [19 * 19 - 1]

    def test_all_singular_window_makes_no_batch_call(self, tmp_path,
                                                     monkeypatch):
        calls = []
        counting(cli, "gamma_cubic", calls, monkeypatch)
        counting(cli, "curvature", calls, monkeypatch)
        cfg = write_config(tmp_path, DEGENERATE_FIELD, grid=5)
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == []
        rows = (tmp_path / "gamma.csv").read_text().splitlines()[1:]
        assert len(rows) == 25
        assert all(r.endswith(",nan" * 6) for r in rows)

    def test_check_evaluates_its_samples_in_one_call(self, tmp_path,
                                                     monkeypatch):
        names = ("gamma_cubic", "curvature", "gamma_from_definition",
                 "normalize_roots", "corollary_residual", "theorem2_residual")
        calls = {name: [] for name in names}
        for name in names:
            counting(cli, name, calls[name], monkeypatch)
        cfg = write_config(tmp_path, SOLUTION_A, samples=6)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == {name: [6] for name in names}

    def test_normalforms_one_curvature_call_per_form(self, tmp_path,
                                                     monkeypatch):
        calls = []
        counting(cli, "curvature", calls, monkeypatch)
        cfg = write_config(tmp_path, SOLUTION_A)
        assert main(["normalforms", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
        assert calls == [20] * 8

    def test_normalforms_solves_each_F_once(self, tmp_path, monkeypatch):
        # the F-ODE check reuses the solves form 6's fields interpolate
        solves = []
        solve = singular.solve_F
        monkeypatch.setattr(singular, "solve_F", lambda m0, t_max=1.0: (
            solves.append((m0, t_max)) or solve(m0, t_max)))
        cfg = write_config(tmp_path, SOLUTION_A)
        assert main(["normalforms", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
        assert solves == [(0, 8.0), (1, 8.0), (2, 8.0)]

    def test_form_without_accepted_sample_reports_zero(self, tmp_path,
                                                       monkeypatch):
        # no sample clears an infinite prefilter: no batch, max_curvature 0
        calls = []
        counting(cli, "curvature", calls, monkeypatch)
        monkeypatch.setattr(cli, "SAMPLE_DMIN_FACTOR", math.inf)
        cfg = write_config(tmp_path, SOLUTION_A)
        main(["normalforms", "--config", cfg, "--out", str(tmp_path)])
        rep = json.loads((tmp_path / "normalforms.json").read_text())
        assert calls == []
        assert [e["max_curvature"] for e in rep["catalog"]] == [0.0] * 8
