"""Batch command-line front-end: schema validation, exit codes, reports,
determinism of emitted artifacts."""

import json

import pytest

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


def write_config(tmp_path, inp, **extra):
    cfg = {"input": inp}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


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
    ], ids=["window-string", "window-one-row", "window-string-bound",
            "tolerance-string", "tolerances-list", "coef-nan",
            "coef-string-imag", "exponent-string", "monomials-number",
            "samples-zero", "grid-negative", "grid-float", "eps-nan",
            "eps-string", "eps-zero", "base-one-number", "base-string",
            "point-number", "point-string", "leaf-length-list", "t0-list"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, command, inp,
                                    extra):
        cfg = write_config(tmp_path, inp, **extra)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
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
