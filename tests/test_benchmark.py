"""Tests for the benchmark harness.

The RNG is pinned twice: against an independently written splitmix64
(the reference constants are public domain) and against frozen output
words, so a silent constant change cannot slip through.  Accuracy
reporting is tested for its failure-handling contract: breakdowns come
back as infinite errors in-band, suspicious-but-finite cells warn and
stay in the report.
"""

import json
import math

import numpy as np
import pytest

from persymjac.benchmark import (ACCURACY_FLAG, CSV_HEADER, BenchConfig,
                                 BenchRecord, SpectrumFamily, SplitMix64,
                                 config_from_dict, default_config,
                                 generate_spectrum, linear_ground_truth,
                                 records_to_csv, records_to_json,
                                 roundtrip_error, run_benchmark)
from persymjac.jacobi import eigenvalues

_MASK = (1 << 64) - 1


def _ref_splitmix64(seed: int, count: int) -> list[int]:
    """Independent splitmix64, written from the published recipe."""
    out, state = [], seed & _MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


# ----------------------------------------------------------------------
# deterministic RNG
# ----------------------------------------------------------------------


class TestSplitMix64:
    def test_matches_reference_words_for_seed_zero(self):
        g = SplitMix64(0)
        got = [g.next_u64() for _ in range(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_frozen_words_for_seed_42(self):
        g = SplitMix64(42)
        got = [g.next_u64() for _ in range(3)]
        assert got == [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]

    def test_agrees_with_independent_implementation(self):
        for seed in (0, 1, 42, 2**63, _MASK):
            g = SplitMix64(seed)
            assert [g.next_u64() for _ in range(50)] == _ref_splitmix64(seed, 50)

    def test_floats_are_the_top_53_bits(self):
        g = SplitMix64(0)
        got = [g.next_float() for _ in range(3)]
        want = [w >> 11 for w in _ref_splitmix64(0, 3)]
        assert got == [w * 2.0**-53 for w in want]
        assert got[0] == 0.8833108082136426
        assert all(0.0 <= f < 1.0 for f in got)

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(7), SplitMix64(7)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


# ----------------------------------------------------------------------
# spectrum families
# ----------------------------------------------------------------------


class TestSpectrumFamilies:
    def test_uniform_linear_defaults(self):
        spec = generate_spectrum(SpectrumFamily("uniform-linear", 2))
        assert np.array_equal(spec.values, [0.0, 1.0, 2.0])

    def test_symmetric_linear(self):
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 3))
        assert np.array_equal(spec.values, [-1.5, -0.5, 0.5, 1.5])

    def test_quadratic(self):
        spec = generate_spectrum(SpectrumFamily("quadratic", 3))
        assert np.array_equal(spec.values, [0.0, 1.0, 4.0, 9.0])

    def test_random_gap_is_frozen_and_respects_the_gap(self):
        fam = SpectrumFamily("random-gap", 5, {"seed": 42, "min_gap": 0.05})
        spec = generate_spectrum(fam)
        want = [0.0, 0.7915648787718234, 1.0014752716487434, 1.330076401903882,
                1.7242671184275196, 1.8122972869677658]
        assert np.array_equal(spec.values, want)
        assert np.array_equal(spec.values, generate_spectrum(fam).values)
        assert np.min(np.diff(spec.values)) >= 0.05

    def test_random_gap_matches_the_reference_stream(self):
        fam = SpectrumFamily("random-gap", 4, {"seed": 9, "min_gap": 0.1})
        spec = generate_spectrum(fam)
        gaps = [0.1 + (w >> 11) * 2.0**-53 for w in _ref_splitmix64(9, 4)]
        want = np.concatenate(([0.0], np.cumsum(gaps)))
        assert np.array_equal(spec.values, want)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            SpectrumFamily("cubic", 3)
        with pytest.raises(ValueError):
            SpectrumFamily("quadratic", 0)
        with pytest.raises(ValueError):
            generate_spectrum(SpectrumFamily("random-gap", 3, {"min_gap": 0.0}))
        # a misspelled or foreign parameter used to be dropped silently
        for kind, params in (("uniform-linear", {"stpe": 2}),
                             ("symmetric-linear", {"offset": 1.0}),
                             ("random-gap", {"step": 1.0})):
            with pytest.raises(ValueError, match="unknown parameter"):
                SpectrumFamily(kind, 3, params)
        # N itself: 2.5 used to give 4 points, True 2, and "4" a TypeError
        for n in (2.5, True, "4", None, 1e400):
            with pytest.raises(ValueError, match="^N must be"):
                SpectrumFamily("uniform-linear", n)
        fam = SpectrumFamily("uniform-linear", 3.0)
        assert type(fam.n) is int and len(generate_spectrum(fam)) == 4
        assert linear_ground_truth(fam).n == 3

    def test_param_lookup_with_default(self):
        fam = SpectrumFamily("uniform-linear", 2, {"step": 0.5})
        assert fam.param("step") == 0.5
        assert fam.param("offset") == 0.0
        assert SpectrumFamily("random-gap", 2).param("seed") == 0


class TestLinearGroundTruth:
    def test_uniform_two_step(self):
        truth = linear_ground_truth(SpectrumFamily("uniform-linear", 2))
        assert np.array_equal(truth.b, [1.0, 1.0, 1.0])
        assert np.array_equal(truth.u, [0.5, 0.5])

    def test_symmetric_three_step(self):
        truth = linear_ground_truth(SpectrumFamily("symmetric-linear", 3))
        assert np.array_equal(truth.b, [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(truth.u, [0.75, 1.0, 0.75])

    def test_no_closed_form_families(self):
        assert linear_ground_truth(SpectrumFamily("quadratic", 3)) is None
        assert linear_ground_truth(SpectrumFamily("random-gap", 3)) is None

    def test_truth_actually_has_the_family_spectrum(self):
        for kind in ("uniform-linear", "symmetric-linear"):
            fam = SpectrumFamily(kind, 8, {"step": 0.25})
            got = eigenvalues(linear_ground_truth(fam)).values
            assert np.max(np.abs(got - generate_spectrum(fam).values)) <= 1e-10


# ----------------------------------------------------------------------
# accuracy measurement
# ----------------------------------------------------------------------


class TestRoundtripError:
    def test_small_spectra_are_exact_to_rounding(self):
        entry, residual = roundtrip_error([-1.0, 0.0, 1.0], "mf")
        assert math.isnan(entry)  # no ground truth supplied
        assert residual < 1e-12
        fam = SpectrumFamily("uniform-linear", 2)
        entry, residual = roundtrip_error(generate_spectrum(fam), "gs",
                                          linear_ground_truth(fam))
        assert entry < 1e-12
        assert residual < 1e-12

    def test_breakdown_is_reported_in_band(self):
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 64, {"step": 2.0 / 64}))
        assert roundtrip_error(spec, "le") == (math.inf, math.inf)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            roundtrip_error([-1.0, 1.0], "qr")


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


def _tiny_config(reps: int = 2) -> BenchConfig:
    return BenchConfig(
        families=(SpectrumFamily("uniform-linear", 2),
                  SpectrumFamily("random-gap", 5, {"seed": 42, "min_gap": 0.05})),
        algorithms=("gs", "mf"),
        reps=reps,
    )


class TestRunBenchmark:
    def test_empty_config_gives_no_records(self):
        assert run_benchmark(BenchConfig(families=(), algorithms=("gs",))) == []

    def test_record_layout(self):
        records = run_benchmark(_tiny_config(reps=1))
        assert [(r.family, r.n, r.algorithm) for r in records] == [
            ("uniform-linear", 2, "gs"), ("uniform-linear", 2, "mf"),
            ("random-gap", 5, "gs"), ("random-gap", 5, "mf")]
        for r in records:
            assert r.reps == 1
            assert r.median_ns >= 0
            assert r.spectral_residual < 1e-10
        assert records[0].entry_err < 1e-12
        assert math.isnan(records[2].entry_err)  # random-gap has no truth

    def test_accuracy_fields_are_deterministic(self):
        first = run_benchmark(_tiny_config())
        second = run_benchmark(_tiny_config())
        for r1, r2 in zip(first, second):
            assert (r1.family, r1.n, r1.algorithm, r1.reps) == \
                   (r2.family, r2.n, r2.algorithm, r2.reps)
            assert (r1.entry_err == r2.entry_err or
                    (math.isnan(r1.entry_err) and math.isnan(r2.entry_err)))
            assert r1.spectral_residual == r2.spectral_residual

    def test_inaccurate_cell_warns_but_stays_in_the_report(self):
        config = BenchConfig(
            families=(SpectrumFamily("symmetric-linear", 128, {"step": 2.0 / 128}),),
            algorithms=("gs",), reps=1)
        with pytest.warns(UserWarning, match="exceeds"):
            records = run_benchmark(config)
        assert len(records) == 1
        assert math.isfinite(records[0].entry_err)
        assert records[0].entry_err > ACCURACY_FLAG

    def test_breakdown_cell_is_kept_with_infinite_errors(self):
        config = BenchConfig(
            families=(SpectrumFamily("symmetric-linear", 64, {"step": 2.0 / 64}),),
            algorithms=("le",), reps=1)
        records = run_benchmark(config)
        assert len(records) == 1
        assert records[0].entry_err == math.inf
        assert records[0].spectral_residual == math.inf
        assert records[0].median_ns > 0


class TestConfig:
    def test_default_config_shape(self):
        config = default_config(seed=7)
        kinds = [(f.kind, f.n) for f in config.families]
        assert kinds == [("symmetric-linear", 64), ("symmetric-linear", 128),
                         ("symmetric-linear", 256), ("random-gap", 12)]
        assert config.families[-1].params["seed"] == 7
        assert config.algorithms == ("gs", "le", "mf", "hl")
        assert config.reps == 20

    def test_from_dict_full(self):
        doc = {"families": [{"kind": "uniform-linear", "N": 4, "step": 0.5}],
               "algorithms": ["mf", "hl"], "reps": 3}
        config = config_from_dict(doc)
        assert config.families[0].kind == "uniform-linear"
        assert config.families[0].n == 4
        assert config.families[0].params == {"step": 0.5}
        assert config.algorithms == ("mf", "hl")
        assert config.reps == 3

    def test_from_dict_defaults(self):
        config = config_from_dict({"families": [{"kind": "quadratic", "N": 2}]})
        assert set(config.algorithms) == {"gs", "le", "mf", "hl"}
        assert config.reps == 20

    def test_from_dict_validation(self):
        with pytest.raises(ValueError):
            config_from_dict([])
        with pytest.raises(ValueError):
            config_from_dict({"families": [{"kind": "quadratic"}]})
        with pytest.raises(ValueError):
            config_from_dict({"families": [{"N": 2}]})
        with pytest.raises(ValueError):
            config_from_dict({"families": [], "algorithms": ["qr"]})
        with pytest.raises(ValueError):
            config_from_dict({"families": [], "reps": 0})
        # strings, booleans and fractional counts or seeds are not numbers here
        fam = {"kind": "random-gap", "N": 3}
        for field, value in [("N", "3"), ("N", True), ("N", 3.7), ("reps", True),
                             ("reps", 2.5), ("min_gap", True), ("seed", 1.9), ("seed", "1"),
                             ("min_gap", None)]:
            doc = {"families": [{**fam, field: value}]}
            if field == "reps":
                doc = {"families": [fam], "reps": value}
            with pytest.raises(ValueError, match=f"^{field} must be"):
                config_from_dict(doc)
        # integral values written as floats are integers
        config = config_from_dict({"families": [{**fam, "N": 3.0, "seed": 2.0}], "reps": 2.0})
        assert (config.families[0].n, config.reps) == (3, 2)


# ----------------------------------------------------------------------
# report formats
# ----------------------------------------------------------------------


_SAMPLE = [
    BenchRecord("uniform-linear", 2, "gs", 1500, 1.25e-15, 2.5e-16, 2),
    BenchRecord("random-gap", 5, "le", 2000, math.nan, math.inf, 2),
]


class TestReports:
    def test_csv_header_and_tokens(self):
        text = records_to_csv(_SAMPLE)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "family,N,algorithm,median_ns,entry_err,spectral_residual,reps"
        assert lines[1] == "uniform-linear,2,gs,1500,1.25e-15,2.5e-16,2"
        assert lines[2] == "random-gap,5,le,2000,nan,inf,2"
        assert text.endswith("\n")

    def test_csv_floats_round_trip(self):
        row = records_to_csv(_SAMPLE).splitlines()[1].split(",")
        assert float(row[4]) == 1.25e-15
        assert float(row[5]) == 2.5e-16

    def test_json_replaces_non_finite_with_null(self):
        doc = json.loads(records_to_json(_SAMPLE))
        assert doc[0]["entry_err"] == 1.25e-15
        assert doc[0]["N"] == 2
        assert doc[1]["entry_err"] is None
        assert doc[1]["spectral_residual"] is None
        assert [r["algorithm"] for r in doc] == ["gs", "le"]
