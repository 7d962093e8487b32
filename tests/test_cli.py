"""End-to-end tests of the command-line interface.

Golden files in ``tests/golden/`` pin the exact output text of each
subcommand (benchmark timings excepted: the ``median_ns`` column is
masked).  Alongside every golden comparison there is an independent
check of the parsed values against closed forms, so the goldens cannot
silently drift into agreement with a wrong implementation.
"""

import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from persymjac.benchmark import CSV_HEADER
from persymjac.cli import _emit_json, _powers, main
from persymjac.deformation import deform_closed_form, deform_conjugate
from persymjac.jacobi import SymmetricJacobi
from persymjac.reconstruction import reconstruct_lagrange_euclid

GOLDEN = Path(__file__).parent / "golden"

MAT_2X2 = {"n": 1, "b": [0, 0], "a": [1]}
SYM4 = [-1.5, -0.5, 0.5, 1.5]
THETA = 0.5235987755982988  # pi/6 to the double closest
TINY_BENCH = {"families": [{"kind": "uniform-linear", "N": 2},
                           {"kind": "random-gap", "N": 5, "seed": 42, "min_gap": 0.05}],
              "algorithms": ["gs", "mf"], "reps": 2}


def _write(tmp_path: Path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# golden outputs
# ----------------------------------------------------------------------


class TestGoldenOutputs:
    def test_forward(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", MAT_2X2)
        out = tmp_path / "got.json"
        assert main(["forward", mat, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == _golden("forward_2x2.json")
        # stdout route emits the same text
        assert main(["forward", mat]) == 0
        assert capsys.readouterr().out == _golden("forward_2x2.json")
        doc = json.loads(_golden("forward_2x2.json"))
        assert np.max(np.abs(np.array(doc["spectrum"]) - [-1.0, 1.0])) <= 1e-12
        assert np.max(np.abs(np.array(doc["weights"]) - 0.5)) <= 1e-12

    def test_reconstruct(self, tmp_path):
        spec = _write(tmp_path, "s.json", SYM4)
        out = tmp_path / "got.json"
        assert main(["reconstruct", spec, "--algorithm", "mf", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == _golden("reconstruct_sym4.json")
        doc = json.loads(_golden("reconstruct_sym4.json"))
        root3_2 = np.sqrt(3.0) / 2.0
        assert doc["n"] == 3
        assert np.max(np.abs(np.array(doc["b"]))) <= 1e-12
        assert np.max(np.abs(np.array(doc["a"]) - [root3_2, 1.0, root3_2])) <= 1e-10
        assert doc["residual"] <= 1e-12

    def test_deform(self, tmp_path):
        mat = _write(tmp_path, "m.json", MAT_2X2)
        out = tmp_path / "got.json"
        assert main(["deform", mat, "--theta", repr(THETA), "--weights",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == _golden("deform_pi6.json")
        doc = json.loads(_golden("deform_pi6.json"))
        root3_2 = np.sqrt(3.0) / 2.0
        assert np.max(np.abs(np.array(doc["b"]) - [root3_2, -root3_2])) <= 1e-15
        assert abs(doc["a"][0] - 0.5) <= 1e-15
        assert doc["theta"] == THETA
        want_w = [0.5 * (1.0 - root3_2), 0.5 * (1.0 + root3_2)]
        assert np.max(np.abs(np.array(doc["weights"]) - want_w)) <= 1e-15

    def test_verify(self, tmp_path):
        spec = _write(tmp_path, "s.json", SYM4)
        out = tmp_path / "got.json"
        assert main(["verify", spec, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == _golden("verify_sym4.json")
        doc = json.loads(_golden("verify_sym4.json"))
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "spectral-roundtrip", "mirror-relation", "sublattice-moments",
            "midpoint-closure", "four-way-agreement"]
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert all(c["residual"] <= 1e-12 for c in doc["checks"])

    def test_bench_masked(self, tmp_path):
        config = _write(tmp_path, "c.json", TINY_BENCH)
        out = tmp_path / "got.csv"
        assert main(["bench", "--config", config, "--out", str(out)]) == 0
        got = out.read_text(encoding="utf-8").splitlines()
        want = _golden("bench_tiny.csv").splitlines()
        assert got[0] == want[0] == CSV_HEADER
        assert len(got) == len(want) == 5
        for g_line, w_line in zip(got[1:], want[1:]):
            g, w = g_line.split(","), w_line.split(",")
            assert int(g[3]) >= 0  # timing is machine-dependent; mask it
            assert g[:3] == w[:3]
            assert g[4:] == w[4:]

    @pytest.mark.parametrize("doc", [
        {"n": 0, "b": [0.5], "a": []},
        {"n": 3, "tolerance": 1e-08, "checks": [
            {"name": "spectral-roundtrip", "status": "fail", "residual": math.inf},
            {"name": "sublattice-moments", "status": "skipped", "residual": None}],
         "passed": False},
        {"n": 2, "b": [1, -2, 30000000000000000000000], "a": [0.5, 2], "flags": [True, False],
         "mixed": [1, True], "spectrum": [-math.inf, -0.0, 5e-324, 1e+300, math.inf],
         "tolerance": math.inf, "passed": True, "residual": None, "nested": [[1.0, 2], []]},
        {"name": "Ré Ø ∞", "values": [0.1, -2.5]},
        {},
        {"n": 4, "tolerance": 1e-08, "checks": [
            {"name": "spectral-roundtrip", "status": "pass",
             "residual": np.float64(2.220446049250313e-16)},
            {"name": "mirror-relation", "status": "fail", "residual": math.inf},
            {"name": "sublattice-moments", "status": "skipped", "residual": None},
            {"name": "Ré Ø ∞ },\n   {\"", "passed": True, "skipped": False, "count": -3,
             "big": 30000000000000000000000, "neg": -math.inf, "zero": -0.0},
            {"one": 5e-324}],
         "passed": False},
        {"one-check": [{"name": "midpoint-closure", "status": "pass", "residual": 0.0}]},
        {"empty-object": [{"residual": 1.0}, {}], "only-empty": [{}]},
        {"nested-list": [{"name": "a", "values": [1.0, 2]}],
         "nested-object": [{"name": "a", "inner": {"residual": 1.0}}],
         "tuple": [{"name": "a", "pair": (1.0, 2.0)}],
         "mixed": [{"name": "a"}, [1.0], 2.0]},
    ], ids=["one-point", "failing-verify", "ints-and-booleans", "non-ascii", "empty",
            "verify-checks", "one-flat-object", "empty-object", "nested"])
    def test_writer_is_json_dumps_with_one_space_indent(self, doc, capsys):
        # flat arrays of numbers and lists of flat objects go through the C
        # encoder; lists holding an empty object or a nested value do not;
        # the bytes must not change
        _emit_json(doc, None)
        assert capsys.readouterr().out == json.dumps(doc, indent=1) + "\n"


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


class TestExitCodes:
    def test_malformed_json_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["forward", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, tmp_path):
        assert main(["forward", str(tmp_path / "absent.json")]) == 2

    def test_forward_single_point(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", {"n": 0, "b": [5], "a": []})
        assert main(["forward", mat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"spectrum": [5.0], "weights": [1.0]}

    def test_forward_schema_errors(self, tmp_path):
        assert main(["forward", _write(tmp_path, "m1.json", {"b": [0], "a": []})]) == 2
        assert main(["forward", _write(tmp_path, "m2.json",
                                       {"n": 1, "b": [0], "a": [1]})]) == 2
        assert main(["forward", _write(tmp_path, "m3.json",
                                       {"n": 1, "b": [0, None], "a": [1]})]) == 2

    def test_reconstruct_duplicate_points(self, tmp_path):
        assert main(["reconstruct", _write(tmp_path, "s.json", [0.0, 0.0, 1.0])]) == 2

    def test_reconstruct_empty_spectrum(self, tmp_path):
        assert main(["reconstruct", _write(tmp_path, "s.json", [])]) == 2
        assert main(["reconstruct", _write(tmp_path, "s2.json", {"spectrum": "x"})]) == 2

    def test_reconstruct_three_points(self, tmp_path, capsys):
        spec = _write(tmp_path, "s.json", [-1.0, 0.0, 1.0])
        assert main(["reconstruct", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["a"][0] - 0.7071067811865476) <= 1e-12

    def test_reconstruct_breakdown_is_a_numerical_failure(self, tmp_path, capsys):
        # the top-down descent degenerates on wide equally spaced spectra
        spec = _write(tmp_path, "s.json",
                      list(np.linspace(-1.0, 1.0, 65)))
        assert main(["reconstruct", spec, "--algorithm", "le"]) == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_reconstruct_tolerance_gate(self, tmp_path):
        # the symmetric four-point spectrum round-trips exactly, so even
        # an absurd tolerance passes ...
        spec = _write(tmp_path, "s.json", SYM4)
        assert main(["reconstruct", spec, "--tolerance", "1e-300"]) == 0
        # ... while a 12-point random spectrum has a residual around 1e-14
        from persymjac.benchmark import SpectrumFamily, generate_spectrum
        vals = list(generate_spectrum(SpectrumFamily("random-gap", 12, {"seed": 42})).values)
        spec = _write(tmp_path, "s12.json", vals)
        assert main(["reconstruct", spec, "--tolerance", "1e-300"]) == 3
        assert main(["reconstruct", spec, "--tolerance", "1e-8"]) == 0

    @pytest.mark.parametrize("command", ["reconstruct", "verify"])
    @pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
    def test_nan_or_negative_tolerance_is_an_input_error(self, tmp_path, capsys, command, value):
        spec = _write(tmp_path, "s.json", SYM4)
        assert main([command, spec, f"--tolerance={value}"]) == 2
        assert "error: --tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "verify"])
    def test_infinite_tolerance_is_valid(self, tmp_path, command):
        spec = _write(tmp_path, "s.json", SYM4)
        assert main([command, spec, "--tolerance", "inf"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_an_input_error(self, tmp_path, capsys, value):
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [0, 0, 0], "a": [1, 1]})
        assert main(["deform", mat, f"--theta={value}", "--weights"]) == 2
        assert capsys.readouterr().err == f"error: --theta must be a finite number, not {value}\n"

    @pytest.mark.parametrize("value", ["8.98846567431158e307", "-8.98846567431158e307",
                                       "1.7976931348623157e308"])
    @pytest.mark.parametrize("points", [1, 2, 3])
    @pytest.mark.parametrize("weights", [[], ["--weights"]])
    def test_theta_past_two_to_the_1023_is_an_input_error(self, tmp_path, capsys, value,
                                                          points, weights):
        # 2 theta overflows there; its sine was NaN, with a RuntimeWarning
        mat = _write(tmp_path, "m.json", {"n": points - 1, "b": [0] * points,
                                          "a": [1] * (points - 1)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["deform", mat, f"--theta={value}", *weights]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: deformation angle theta = {float(value)!r} is out of range: "
                       "|theta| must be below 2**1023, so that 2 theta is finite\n")

    def test_theta_past_two_to_the_1023_under_dash_w_error(self, tmp_path, child_env):
        mat = _write(tmp_path, "m.json", {"n": 1, "b": [0, 0], "a": [1]})
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "persymjac", "deform", mat,
                               "--theta", "1e308", "--weights"],
                              capture_output=True, text=True, timeout=60, env=child_env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: deformation angle theta = 1e+308 is out of range")

    def test_large_finite_theta_is_valid(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [0, 0, 0], "a": [1, 1]})
        assert main(["deform", mat, "--theta", "1e300", "--weights"]) == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 1e300

    def test_deform_identity_angle(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [1, 2, 1], "a": [0.5, 0.5]})
        assert main(["deform", mat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b"] == [1.0, 2.0, 1.0]
        assert doc["a"] == [0.5, 0.5]
        assert doc["theta"] == 0.0

    def test_deform_rejects_non_persymmetric(self, tmp_path):
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [1, 2, 3], "a": [0.5, 0.5]})
        assert main(["deform", mat, "--theta", "0.3"]) == 2

    def test_deform_weights_on_a_three_point_matrix(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [0, 0, 0], "a": [0.5, 0.5]})
        assert main(["deform", mat, "--theta", "0.3", "--weights"]) == 0
        doc = json.loads(capsys.readouterr().out)
        _, vec = eigh_tridiagonal(np.array(doc["b"]), np.array(doc["a"]))
        assert np.max(np.abs(np.array(doc["weights"]) - vec[0] ** 2)) <= 1e-12

    def test_deform_weights_on_a_single_point(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", {"n": 0, "b": [2.5], "a": []})
        assert main(["deform", mat, "--theta", "0.3", "--weights"]) == 0
        assert json.loads(capsys.readouterr().out)["weights"] == [1.0]

    def test_deform_weights_with_zero_coupling_is_numerical(self, tmp_path):
        mat = _write(tmp_path, "m.json", {"n": 1, "b": [0, 0], "a": [0]})
        assert main(["deform", mat, "--theta", "0.3", "--weights"]) == 3

    def test_deform_weights_on_a_persymmetric_64_point_matrix(self, tmp_path):
        # the forward-recurrence weights of this matrix are off by 1.8e-4
        # and their sublattice masses differ by 1.5e-4, which made the
        # tilted table fail its mass check: exit 2 on valid input
        rng = np.random.default_rng(2)
        b, a = rng.uniform(-1.0, 1.0, 64), rng.uniform(0.3, 1.0, 63)
        b, a = 0.5 * (b + b[::-1]), 0.5 * (a + a[::-1])
        mat = _write(tmp_path, "m.json", {"n": 63, "b": list(b), "a": list(a)})
        out = tmp_path / "got.json"
        assert main(["deform", mat, "--theta", "0.3", "--weights", "--out", str(out)]) == 0
        got = np.array(json.loads(out.read_text(encoding="utf-8"))["weights"])
        lam, vec = eigh_tridiagonal(b, a)
        want = vec[0] ** 2
        want[0::2] *= 1.0 - np.sin(0.6)
        want[1::2] *= 1.0 + np.sin(0.6)
        # a closed-form weight moves by w_s * sum_t |dx_s - dx_t| / |x_s - x_t|
        # when the spectrum moves by dx, plus the normalization's share of
        # every other weight's move; this matrix has eigenvalue pairs
        # 6.1e-14 and 2.3e-13 apart, whose weights are loose by ~1e-3
        eta = 8.0 * np.finfo(float).eps * float(np.max(np.abs(lam)))
        gaps = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(gaps, np.inf)
        cond = 2.0 * eta * np.sum(1.0 / gaps, axis=1)
        tol = want * (1e-10 + cond + np.sum(want * cond))
        assert np.all(np.abs(got - want) <= tol)

    def test_verify_two_points_skips_sublattices(self, tmp_path, capsys):
        spec = _write(tmp_path, "s.json", [-1.0, 1.0])
        assert main(["verify", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["sublattice-moments"]["status"] == "skipped"
        assert by_name["sublattice-moments"]["residual"] is None

    def test_verify_reports_honest_failure_on_tight_spectra(self, tmp_path, capsys):
        # 21 points with gap 0.01: every algorithm completes, but the
        # cross-algorithm agreement genuinely degrades past 1e-8
        spec = _write(tmp_path, "s.json", list(np.linspace(0.0, 0.20, 21)))
        assert main(["verify", spec]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        failed = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
        assert failed == ["four-way-agreement"]

    def test_bench_config_errors(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "absent.json")]) == 2
        bad = _write(tmp_path, "c.json", {"families": [], "reps": 0})
        assert main(["bench", "--config", str(bad)]) == 2

    def test_bench_config_with_a_fractional_n_is_an_input_error(self, tmp_path, capsys):
        # N = 3.7 used to run as N = 3
        bad = _write(tmp_path, "c.json", {"families": [{"kind": "uniform-linear", "N": 3.7}]})
        assert main(["bench", "--config", bad]) == 2
        assert capsys.readouterr().err == "error: N must be an integer, not 3.7\n"

    def test_bench_config_with_a_misspelled_parameter_is_an_input_error(self, tmp_path, capsys):
        # "stpe" used to be dropped, and the family ran with step 1
        bad = _write(tmp_path, "c.json",
                     {"families": [{"kind": "uniform-linear", "N": 3, "stpe": 2}]})
        assert main(["bench", "--config", bad]) == 2
        assert capsys.readouterr().err == ("error: unknown parameter 'stpe' for family "
                                           "'uniform-linear'; its parameters are offset, step\n")

    def test_bench_unwritable_output(self, tmp_path):
        config = _write(tmp_path, "c.json", {"families": []})
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["bench", "--config", config, "--out", str(missing_dir)]) == 2

    def test_bench_json_format(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", TINY_BENCH)
        assert main(["bench", "--config", config, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 4
        assert doc[2]["entry_err"] is None  # nan maps to null
        assert doc[0]["entry_err"] <= 1e-12

    def test_bench_round_trip_breakdown_at_512_stays_in_band(self, tmp_path, capsys):
        # gs completes at N = 512, but its drifted matrix makes the
        # round-trip eigensolve break down: that cell reads inf, the
        # report is still written
        config = _write(tmp_path, "c.json", {
            "families": [{"kind": "symmetric-linear", "N": 512}],
            "algorithms": ["hl", "gs"], "reps": 1})
        assert main(["bench", "--config", config]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        cells = {row[2]: (float(row[4]), float(row[5])) for row in rows}
        assert cells["gs"] == (np.inf, np.inf)
        assert np.all(np.isfinite(cells["hl"]))

    def test_verify_at_513_points_fails_instead_of_aborting(self, tmp_path, capsys):
        spec = _write(tmp_path, "s.json", list(range(-256, 257)))
        assert main(["verify", spec]) == 1
        doc = json.loads(capsys.readouterr().out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["spectral-roundtrip"]["status"] == "fail"
        assert by_name["four-way-agreement"]["status"] == "fail"
        # the moments x**k overflow here: a NaN residual must fail as inf,
        # never pass or reach the JSON as NaN
        assert by_name["sublattice-moments"] == {
            "name": "sublattice-moments", "status": "fail", "residual": np.inf}
        # gs drifts on the full lattice, so its vectors are far from
        # mirror-symmetric; on unit vectors the residual is finite, at most 2
        mirror = by_name["mirror-relation"]
        assert mirror["status"] == "fail" and 0.1 < mirror["residual"] <= 2.0

    @pytest.mark.parametrize("n", (30, 41))
    def test_verify_on_equally_spaced_points_fails_only_four_way_agreement(
            self, tmp_path, capsys, n):
        spec = _write(tmp_path, "s.json", np.linspace(-1.0, 1.0, n).tolist())
        assert main(["verify", spec]) == 1
        doc = json.loads(capsys.readouterr().out)
        # le breaks down from N = 29; every other check holds
        assert [c["name"] for c in doc["checks"] if c["status"] != "pass"] == [
            "four-way-agreement"]

    def test_coefficients_beyond_double_range_are_numerical_failures(self, tmp_path, capsys):
        # u = a^2 or rho^2 * u overflows: a breakdown (3), not bad input (2)
        spec = _write(tmp_path, "s.json", [-1e200, 0.0, 1e200])
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [0, 0, 0], "a": [1e200, 1e200]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alg in ("gs", "le", "mf", "hl"):
                assert main(["reconstruct", spec, "--algorithm", alg]) == 3
            assert main(["forward", mat]) == 3
            assert main(["deform", mat, "--theta", "0.3", "--weights"]) == 3
            assert "at degree 1" in capsys.readouterr().err
            assert main(["verify", spec]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["status"] for c in doc["checks"]] == ["fail", "fail", "pass", "fail", "fail"]

    @pytest.mark.parametrize("command, doc", [
        ("forward", {"n": 2, "b": [1e300, 0, 1e300], "a": [1, 1]}),
        ("deform", {"n": 2, "b": [1e300, 0, 1e300], "a": [1, 1]}),
        ("forward", {"n": 1, "b": [-1e308, 1e308], "a": [1]}),
    ])
    def test_spreads_beyond_double_range_are_numerical_failures(self, tmp_path, capsys,
                                                                command, doc):
        # the eigensolver's bisection level count was int(inf)
        argv = [command, _write(tmp_path, "m.json", doc)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + (["--weights"] if command == "deform" else [])) == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_verify_single_point_beyond_the_square_root_of_double_range(self, tmp_path, capsys):
        # the midpoint-closure scale radius**2 raised OverflowError
        assert main(["verify", _write(tmp_path, "s.json", [-7.85e214])]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("command, doc", [
        ("verify", [[-1, 1], [2, 3]]),
        ("reconstruct", {"spectrum": [[-1.0], [1.0]]}),
        ("forward", {"n": 1, "b": [[0], [0]], "a": [1]}),
        ("deform", {"n": 1, "b": [0, 0], "a": [[1]]}),
    ])
    def test_nested_arrays_are_input_errors(self, tmp_path, capsys, command, doc):
        assert main([command, _write(tmp_path, "in.json", doc)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [None, [0], {}, 1.5, "1", True])
    def test_n_that_is_not_len_b_minus_one_is_an_input_error(self, tmp_path, capsys, n):
        mat = _write(tmp_path, "m.json", {"n": n, "b": [0, 0], "a": [1]})
        assert main(["forward", mat]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("forward", {"n": 1, "b": [{}, 1], "a": [1]}),
        ("forward", {"n": 0, "b": [10 ** 400], "a": []}),
        ("bench", {"families": [{"kind": "quadratic", "N": None}]}),
        ("bench", {"families": [{"kind": "quadratic", "N": float("inf")}]}),
        ("bench", {"families": [{"kind": "random-gap", "N": 3, "seed": None}]}),
        ("bench", {"families": [{"kind": "quadratic", "N": 3, "step": [1]}]}),
        ("bench", {"families": [], "reps": None}),
        ("bench", {"families": [], "algorithms": 5}),
        ("bench", {"families": [], "algorithms": [["gs"]]}),
        ("bench", {"families": 5}),
        # NumPy reads strings and booleans as numbers; the files are refused
        ("forward", {"n": True, "b": ["0", " 0 "], "a": ["1_0"]}),
        ("forward", {"n": 1, "b": [True, 1], "a": [1]}),
        ("deform", {"n": 1, "b": [0, 0], "a": [False]}),
        ("reconstruct", [False, True, "2"]),
        ("reconstruct", {"spectrum": [True, 2]}),
        ("verify", ["-1", "1"]),
    ])
    def test_non_numeric_values_are_input_errors(self, tmp_path, capsys, command, doc):
        path = _write(tmp_path, "in.json", doc)
        argv = ["bench", "--config", path] if command == "bench" else [command, path]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_successive_calls_share_one_parser(self, tmp_path, capsys):
        mat = _write(tmp_path, "m.json", MAT_2X2)
        spec = _write(tmp_path, "s.json", SYM4)
        runs = [["forward", mat], ["verify", spec], ["forward", mat], ["verify", spec]]
        outs = []
        for argv in runs:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2] == _golden("forward_2x2.json")
        assert outs[1] == outs[3]
        assert json.loads(outs[1])["passed"] is True
        with pytest.raises(SystemExit) as exc:
            main(["forward", mat, "--no-such-flag"])
        assert exc.value.code == 2
        assert main(["forward", mat]) == 0
        assert capsys.readouterr().out == outs[0]


# ----------------------------------------------------------------------
# the library and the command line deform the same matrices
# ----------------------------------------------------------------------


class TestDeformAgreement:
    def test_library_and_cli_share_the_persymmetry_bound(self, tmp_path):
        # the le reconstruction of this 12-point spectrum is palindromic
        # only to 1.6e-10, above rounding but within DEFORM_TOL: the
        # library and the command line must both deform it
        rng = np.random.default_rng(4004)
        x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, 11))))
        jac = SymmetricJacobi.from_monic(reconstruct_lagrange_euclid(x))
        err = max(float(np.max(np.abs(jac.b - jac.b[::-1]))),
                  float(np.max(np.abs(jac.a - jac.a[::-1]))))
        assert 1e-10 < err <= 1e-8
        mat = _write(tmp_path, "m.json", {"n": jac.n, "b": list(jac.b), "a": list(jac.a)})
        for theta in (0.1, 0.3, 0.6, 1.2):
            closed = deform_closed_form(jac, theta)
            conj = deform_conjugate(jac, theta)
            assert np.max(np.abs(closed.b - conj.b)) <= err
            assert np.max(np.abs(closed.a - conj.a)) <= err
            out = tmp_path / "d.json"
            assert main(["deform", mat, "--theta", repr(theta), "--out", str(out)]) == 0
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["b"] == list(closed.b) and doc["a"] == list(closed.a)


# ----------------------------------------------------------------------
# reconstruct is inverse to forward
# ----------------------------------------------------------------------


class TestRoundTripIdentity:
    def test_forward_then_reconstruct_recovers_the_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(6001)
        algorithms = ("gs", "le", "mf", "hl")
        for i in range(8):
            n = int(rng.integers(1, 13))
            half_b = rng.uniform(-1.0, 1.0, (n + 2) // 2)
            half_a = rng.uniform(0.3, 1.2, (n + 1) // 2)
            b = np.concatenate((half_b, half_b[: (n + 1) // 2][::-1]))
            a = np.concatenate((half_a, half_a[: n // 2][::-1]))
            mat = _write(tmp_path, f"m{i}.json",
                         {"n": n, "b": list(b), "a": list(a)})
            assert main(["forward", mat]) == 0
            spectrum_doc = json.loads(capsys.readouterr().out)["spectrum"]
            spec = _write(tmp_path, f"s{i}.json", spectrum_doc)
            assert main(["reconstruct", spec, "--algorithm", algorithms[i % 4]]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["n"] == n
            assert np.max(np.abs(np.array(doc["b"]) - b)) <= 1e-8
            assert np.max(np.abs(np.array(doc["a"]) - a)) <= 1e-8


# ----------------------------------------------------------------------
# the verify exit-code contract (hypothesis)
# ----------------------------------------------------------------------


@st.composite
def _separated_spectra(draw, max_points: int = 40):
    """Finite spectra of 1..max_points points at scales 1e-300..1e300,
    with neighbour gaps of at least a twentieth of the scale."""
    count = draw(st.integers(1, max_points))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=count - 1, max_size=count - 1))
    gaps = scale * (0.05 + np.array(fracs, dtype=float))
    start = scale * draw(st.floats(-20.0, 20.0))
    return start + np.concatenate(([0.0], np.cumsum(gaps)))


class TestVerifyExitContract:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spectrum=_separated_spectra())
    def test_well_formed_spectra_never_exit_as_input_errors(self, tmp_path, spectrum):
        # exit 2 is for malformed input only; a verification failure is 1
        # and a numerical breakdown 3
        spec = _write(tmp_path, "s.json", [float(x) for x in spectrum])
        assert main(["verify", spec, "--out", str(tmp_path / "v.json")]) in (0, 1, 3)


class TestVerifyPowerTable:
    """``verify``'s sublattice moments take their powers from one table;
    row ``k`` must be the bits of ``x ** k``."""

    def test_rows_are_the_scalar_powers(self):
        rng = np.random.default_rng(2902)
        pow_rows_differ = 0  # draws where the array power's row 2 is not x ** 2
        with np.errstate(all="ignore"):
            for _ in range(300):
                points = int(rng.integers(1, 36))
                x = np.ldexp(rng.uniform(-1.0, 1.0, points), int(rng.integers(-60, 61)))
                orders = int(rng.integers(1, 70))
                table = _powers(x, orders)
                assert table.shape == (orders, points)
                for k in range(orders):
                    assert table[k].tobytes() == (x ** k).tobytes(), k
                pow_rows_differ += not np.array_equal((x ** np.arange(3)[:, None])[2], x ** 2)
        # without row 2 taken on its own, the table would be wrong here
        assert pow_rows_differ > 0


@st.composite
def _persymmetric_matrices(draw, max_points: int = 24):
    """Matrix files of 1..max_points points at scales 1e-300..1e300:
    palindromic ``b`` from ``scale * [-1, 1]`` and ``a`` from
    ``scale * [0.05, 1]``."""
    size = draw(st.integers(1, max_points))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    half_b = draw(st.lists(st.floats(-1.0, 1.0), min_size=(size + 1) // 2,
                           max_size=(size + 1) // 2))
    half_a = draw(st.lists(st.floats(0.05, 1.0), min_size=size // 2, max_size=size // 2))
    b = half_b + half_b[:size // 2][::-1]
    a = half_a + half_a[:(size - 1) // 2][::-1]
    return {"n": size - 1, "b": [scale * v for v in b], "a": [scale * v for v in a]}


class TestMatrixExitContract:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(matrix=_persymmetric_matrices())
    def test_well_formed_matrices_never_exit_as_input_errors(self, tmp_path, matrix):
        # a coupling whose square leaves double range is a breakdown (3),
        # never malformed input (2)
        mat = _write(tmp_path, "m.json", matrix)
        out = str(tmp_path / "out.json")
        assert main(["forward", mat, "--out", out]) in (0, 3)
        assert main(["deform", mat, "--theta", "0.3", "--weights", "--out", out]) in (0, 3)


# ----------------------------------------------------------------------
# the exit-code contract on arbitrary JSON (hypothesis)
# ----------------------------------------------------------------------

_numbers = st.integers(-3, 3)
_json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | _numbers,
    lambda inner: (st.lists(inner, max_size=8)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=12)


@st.composite
def _matrix_docs(draw):
    """Matrix files of up to 8 points with entries that are all small
    integers or all arbitrary JSON, half of them palindromic; in two of
    three ``n``, ``b``, ``a`` or the whole document is arbitrary JSON."""
    size = draw(st.integers(1, 8))
    entries = draw(st.sampled_from((_numbers, _json_values)))
    b = draw(st.lists(entries, min_size=size, max_size=size))
    a = draw(st.lists(entries, min_size=size - 1, max_size=size - 1))
    if draw(st.booleans()):
        b = b[:(size + 1) // 2] + b[:size // 2][::-1]
        a = a[:size // 2] + a[:(size - 1) // 2][::-1]
    doc = {"n": size - 1, "b": b, "a": a}
    key = draw(st.sampled_from((None, None, "n", "b", "a", "doc")))
    if key == "doc":
        return draw(_json_values)
    if key is not None:
        doc[key] = draw(_json_values)
    return doc


_spectrum_arrays = (st.lists(_numbers, max_size=8, unique=True)
                    | st.lists(_json_values, max_size=8))
_spectrum_docs = (_spectrum_arrays | st.fixed_dictionaries({"spectrum": _spectrum_arrays})
                  | _json_values)


class TestExitContract:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(matrix=_matrix_docs(), spectrum=_spectrum_docs)
    def test_any_json_document_exits_with_a_contract_code(self, tmp_path, matrix, spectrum):
        # whatever the documents hold, every subcommand returns 0, 2 or 3,
        # verify also 1, and none raises
        mat = _write(tmp_path, "m.json", matrix)
        spec = _write(tmp_path, "s.json", spectrum)
        out = str(tmp_path / "out.json")
        assert main(["forward", mat, "--out", out]) in (0, 2, 3)
        assert main(["deform", mat, "--theta", "0.3", "--weights", "--out", out]) in (0, 2, 3)
        assert main(["reconstruct", spec, "--out", out]) in (0, 2, 3)
        assert main(["verify", spec, "--out", out]) in (0, 1, 2, 3)


# ----------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------


class TestEntryPoint:
    def test_python_dash_m_smoke(self, tmp_path, child_env):
        mat = _write(tmp_path, "m.json", MAT_2X2)
        proc = subprocess.run([sys.executable, "-m", "persymjac", "forward", mat],
                              capture_output=True, text=True, timeout=60, env=child_env)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert np.max(np.abs(np.array(doc["spectrum"]) - [-1.0, 1.0])) <= 1e-12

    def test_runtime_loads_no_test_only_package(self, tmp_path, child_env):
        # SciPy, mpmath and Hypothesis are test-only oracles and tools; the
        # package reaches LAPACK through NumPy alone.  A 32-point forward
        # solve takes the dense estimate that guides it.
        rng = np.random.default_rng(7)
        mat = _write(tmp_path, "m.json", {"n": 31, "b": rng.uniform(-1.0, 1.0, 32).tolist(),
                                          "a": rng.uniform(0.3, 1.2, 31).tolist()})
        code = ("import sys, persymjac\n"
                "from persymjac import cli\n"
                f"assert cli.main(['forward', {mat!r}, '--out', {str(tmp_path / 'f.json')!r}]) == 0\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('scipy', 'mpmath', 'hypothesis')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert len(json.loads((tmp_path / "f.json").read_text())["spectrum"]) == 32

    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        names = [re.split(r"[<>=!~; \[]", dep, maxsplit=1)[0]
                 for dep in project["project"]["dependencies"]]
        assert names == ["numpy"]
