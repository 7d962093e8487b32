"""End-to-end tests of the command-line interface.

Golden files in ``tests/golden/`` pin the exact output text of each
subcommand (benchmark timings excepted: the ``median_ns`` column is
masked).  Alongside every golden comparison there is an independent
check of the parsed values against closed forms, so the goldens cannot
silently drift into agreement with a wrong implementation.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from persymjac.benchmark import CSV_HEADER
from persymjac.cli import main

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

    def test_deform_weights_need_odd_n(self, tmp_path):
        mat = _write(tmp_path, "m.json", {"n": 2, "b": [0, 0, 0], "a": [0.5, 0.5]})
        assert main(["deform", mat, "--theta", "0.3", "--weights"]) == 2

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
        # the moments x**k and the orthonormal values overflow here: a NaN
        # residual must fail as inf, never pass or reach the JSON as NaN
        for name in ("sublattice-moments", "mirror-relation"):
            assert by_name[name] == {"name": name, "status": "fail", "residual": np.inf}

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
    """Finite spectra of 1..max_points points at scales 1e-6..1e6, with
    neighbour gaps of at least a twentieth of the scale."""
    count = draw(st.integers(1, max_points))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
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
