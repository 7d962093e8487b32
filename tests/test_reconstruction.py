"""Tests for the four inverse spectral reconstruction algorithms.

Pinned cases use small spectra whose Jacobi data is known in closed
form.  Seeded loops check the round trip (reconstruct, then re-solve the
forward problem), cross-algorithm agreement, exact mirror symmetry of
the folded variants, and consistency of the moment/sublattice helpers
that the half-lattice algorithm is built from.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from persymjac.errors import NumericalError
from persymjac.jacobi import (MonicJacobi, Spectrum, _closed_form_logr, eigenvalues,
                              recurrence_polynomials, weights_persymmetric)
from persymjac.polynomials import Polynomial, poly_from_roots
from persymjac.benchmark import SpectrumFamily, generate_spectrum, linear_ground_truth
from persymjac.reconstruction import (ALGORITHMS, MidpointData, MomentSequence,
                                      midpoint_data, moments,
                                      reconstruct_gram_schmidt_full,
                                      reconstruct_half_lattice,
                                      reconstruct_lagrange_euclid,
                                      reconstruct_mirror_fold,
                                      sublattice_weights, _chain_arrays, _lanczos)

FROZEN_SPECTRA = (
    ((-1.0, 1.0), (0.0, 0.0), (1.0,)),
    ((-1.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.5, 0.5)),
    ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (0.5, 0.5)),
    ((-1.5, -0.5, 0.5, 1.5), (0.0, 0.0, 0.0, 0.0), (0.75, 1.0, 0.75)),
)


def _gapped_spectrum(rng: np.random.Generator, n: int) -> Spectrum:
    """n+1 sorted points in [-1, 1] with neighbor gaps of at least 0.05."""
    span, need = 2.0, 0.05 * n
    raw = rng.random(n)
    extra = raw / raw.sum() * rng.uniform(0.0, span - need)
    gaps = 0.05 + extra
    start = -1.0 + rng.uniform(0.0, span - gaps.sum())
    return Spectrum(start + np.concatenate(([0.0], np.cumsum(gaps))))


# ----------------------------------------------------------------------
# measure-side helpers
# ----------------------------------------------------------------------


class TestMoments:
    def test_pinned_sequences(self):
        assert np.array_equal(moments([-1.0, 1.0], 2).c, [1.0, 0.0, 1.0])
        got = moments([-1.0, 0.0, 1.0], 2)
        assert got.c[0] == 1.0
        assert np.max(np.abs(got.c - np.array([1.0, 0.0, 0.5]))) <= 1e-15

    def test_overflow_is_a_numerical_error_without_warnings(self):
        # 3.0 ** 647 is the first power of the end points above double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="order 647 "):
                moments(np.linspace(-1.0, 1.0, 1024) * 3.0, 2046)

    def test_symmetric_spectra_have_vanishing_odd_moments(self):
        rng = np.random.default_rng(4001)
        for _ in range(15):
            m = int(rng.integers(1, 7))
            half = np.sort(rng.uniform(0.1, 1.0, m))
            while np.min(np.diff(half, prepend=0.0)) < 0.02:
                half = np.sort(rng.uniform(0.1, 1.0, m))
            spec = np.concatenate((-half[::-1], half))
            c = moments(spec, 2 * m - 1).c
            assert np.max(np.abs(c[1::2])) <= 1e-12

    def test_order_range_is_enforced(self):
        with pytest.raises(ValueError):
            moments([-1.0, 0.0, 1.0], 5)
        with pytest.raises(ValueError):
            moments([-1.0, 0.0, 1.0], -1)


class TestSublatticeWeights:
    def test_four_point_tables(self):
        even, odd = sublattice_weights([-1.5, -0.5, 0.5, 1.5])
        assert np.array_equal(even.points.values, [-1.5, 0.5])
        assert np.max(np.abs(even.w - np.array([0.25, 0.75]))) <= 1e-14
        assert np.array_equal(odd.points.values, [-0.5, 1.5])
        assert np.max(np.abs(odd.w - np.array([0.75, 0.25]))) <= 1e-14
        # both restrictions are centered: first moment vanishes
        assert abs(np.sum(even.w * even.points.values)) <= 1e-14
        assert abs(np.sum(odd.w * odd.points.values)) <= 1e-14

    def test_two_point_tables(self):
        even, odd = sublattice_weights([-1.0, 1.0])
        assert np.array_equal(even.points.values, [-1.0])
        assert np.array_equal(even.w, [1.0])
        assert np.array_equal(odd.points.values, [1.0])
        assert np.array_equal(odd.w, [1.0])

    def test_three_point_tables(self):
        # at even N the even sublattice carries the orthogonality too
        even, odd = sublattice_weights([-1.0, 0.0, 1.0])
        assert np.array_equal(even.points.values, [-1.0, 1.0])
        assert np.max(np.abs(even.w - np.array([0.5, 0.5]))) <= 1e-15
        assert np.array_equal(odd.points.values, [0.0])
        assert np.array_equal(odd.w, [1.0])

    def test_single_point_is_refused(self):
        with pytest.raises(ValueError):
            sublattice_weights([5.0])

    def test_half_lattice_first_step_from_even_table(self):
        # the Stieltjes step on the even table of the four-point spectrum
        # starts at b_0 = 0 and u_1 = 3/4
        even, _ = sublattice_weights([-1.5, -0.5, 0.5, 1.5])
        x, w = even.points.values, even.w
        b0 = float(np.sum(w * x))
        u1 = float(np.sum(w * (x - b0) ** 2))
        assert abs(b0) <= 1e-14
        assert abs(u1 - 0.75) <= 1e-14


# ----------------------------------------------------------------------
# midpoint machinery
# ----------------------------------------------------------------------


class TestMidpointData:
    def test_three_point_spectrum(self):
        md = midpoint_data([-1.0, 0.0, 1.0])
        assert np.array_equal(md.omega0.coeffs, [-1.0, 0.0, 1.0])
        assert np.array_equal(md.omega1.coeffs, [0.0, 1.0])
        assert md.sigma0 == 0.0
        assert md.sigma1 == 0.0

    def test_four_point_spectrum(self):
        md = midpoint_data([-1.5, -0.5, 0.5, 1.5])
        assert md.sigma0 == -1.0
        assert md.sigma1 == 1.0
        assert np.array_equal(md.omega0.coeffs, poly_from_roots([-1.5, 0.5]).coeffs)
        assert np.array_equal(md.omega1.coeffs, poly_from_roots([-0.5, 1.5]).coeffs)

    def test_shifted_three_point_spectrum(self):
        md = midpoint_data([0.0, 1.0, 2.0])
        assert np.array_equal(md.omega0.coeffs, [0.0, -2.0, 1.0])  # x(x-2)
        assert np.array_equal(md.omega1.coeffs, [-1.0, 1.0])
        assert md.sigma0 == 2.0
        assert md.sigma1 == 1.0


class TestMidpointPolys:
    def test_sign_flip_in_even_combination_loses_the_degree(self):
        # P_{L+1} must combine the sublattice polynomials with a plus
        # sign; the minus combination cancels the leading terms and
        # cannot be the degree-(L+1) recurrence polynomial
        md = midpoint_data([-1.0, 0.0, 1.0])
        b_mid = md.sigma0 - md.sigma1
        alt = 0.5 * (md.omega0 - Polynomial([-b_mid, 1.0]) * md.omega1)
        assert alt.degree < 2
        good = 0.5 * (md.omega0 + Polynomial([md.sigma1 - md.sigma0, 1.0]) * md.omega1)
        assert good.degree == 2


class TestDescentChain:
    def test_pinned_steps(self):
        faults = []
        for hi, lo, b, u in (([-1.0, 0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0]),
                             ([-0.75, 0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.75]),
                             ([0.5, -2.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [0.5])):
            got_b, got_u = _chain_arrays(np.array(hi), np.array(lo), faults)
            assert np.array_equal(got_b, b)
            assert np.array_equal(got_u, u)
        assert faults == []

    def test_nonpositive_weight_is_recorded_and_the_descent_runs_on(self):
        faults = []
        b, u = _chain_arrays(np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0]), faults)
        assert faults == ["descent produced a degenerate weight u at degree 1; "
                          "spectrum is not realizable at working precision"]
        assert np.array_equal(b, [0.0, 0.0])
        assert np.array_equal(u, [-1.0])


# ----------------------------------------------------------------------
# the four reconstruction algorithms
# ----------------------------------------------------------------------


class TestReconstructorsPinned:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("spectrum,b,u", FROZEN_SPECTRA)
    def test_known_small_spectra(self, algorithm, spectrum, b, u):
        rec = ALGORITHMS[algorithm](spectrum)
        assert np.max(np.abs(rec.b - np.array(b))) <= 1e-10
        assert np.max(np.abs(rec.u - np.array(u))) <= 1e-10

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_single_point_spectrum(self, algorithm):
        rec = ALGORITHMS[algorithm]([5.0])
        assert np.array_equal(rec.b, [5.0])
        assert rec.u.size == 0

    def test_unsorted_input_is_sorted_first(self):
        rec = reconstruct_mirror_fold([1.0, -1.0, 0.0])
        assert np.max(np.abs(rec.b)) <= 1e-12
        assert np.max(np.abs(rec.u - 0.5)) <= 1e-12

    def test_duplicate_points_are_rejected(self):
        for fn in ALGORITHMS.values():
            with pytest.raises(ValueError):
                fn([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_points_that_collide_on_the_mapped_interval_break_down(self, algorithm):
        # distinct and increasing, so a well-formed spectrum; mapped onto
        # [-1, 1] its first two points round to the same double
        spec = Spectrum([1.0, 1.0 + 2.0**-52, 2048.0])
        with pytest.raises(NumericalError):
            ALGORITHMS[algorithm](spec)


class TestReconstructorsSeeded:
    def test_round_trip_and_four_way_agreement(self):
        rng = np.random.default_rng(4002)
        for i in range(40):
            n = 2 + i % 11
            spec = _gapped_spectrum(rng, n)
            recs = {name: fn(spec) for name, fn in ALGORITHMS.items()}
            for rec in recs.values():
                back = eigenvalues(rec)
                assert np.max(np.abs(back.values - spec.values)) <= 1e-8
            ref = recs["gs"]
            for rec in recs.values():
                assert np.max(np.abs(rec.b - ref.b)) <= 1e-8
                assert np.max(np.abs(rec.u - ref.u)) <= 1e-8

    def test_folded_variants_are_exactly_palindromic(self):
        rng = np.random.default_rng(4003)
        for i in range(20):
            spec = _gapped_spectrum(rng, 2 + i % 11)
            for fn in (reconstruct_mirror_fold, reconstruct_half_lattice):
                rec = fn(spec)
                assert np.array_equal(rec.b, rec.b[::-1])
                assert np.array_equal(rec.u, rec.u[::-1])

    def test_full_table_variants_are_persymmetric_within_tolerance(self):
        rng = np.random.default_rng(4004)
        for i in range(20):
            spec = _gapped_spectrum(rng, 2 + i % 11)
            for fn in (reconstruct_gram_schmidt_full, reconstruct_lagrange_euclid):
                rec = fn(spec)
                assert np.max(np.abs(rec.b - rec.b[::-1])) <= 1e-8
                assert np.max(np.abs(rec.u - rec.u[::-1])) <= 1e-8

    def test_affine_covariance(self):
        rng = np.random.default_rng(4005)
        for i in range(12):
            spec = _gapped_spectrum(rng, 2 + i % 11)
            alpha = rng.uniform(0.5, 2.0)
            beta = rng.uniform(-1.0, 1.0)
            moved = Spectrum(alpha * spec.values + beta)
            for fn in ALGORITHMS.values():
                rec = fn(spec)
                rec2 = fn(moved)
                assert np.max(np.abs(rec2.b - (alpha * rec.b + beta))) <= 1e-9
                assert np.max(np.abs(rec2.u - alpha * alpha * rec.u)) <= 1e-9

    def test_sublattice_moments_match_full_moments(self):
        rng = np.random.default_rng(4006)
        for n in (3, 5, 7, 9, 11, 2, 4, 6, 8, 10):
            spec = _gapped_spectrum(rng, n)
            full = moments(spec, n - 1).c
            even, odd = sublattice_weights(spec)
            for table in (even, odd):
                x, w = table.points.values, table.w
                got = np.array([np.sum(w * x**k) for k in range(n)])
                assert np.max(np.abs(got - full)) <= 1e-11

    def test_every_algorithm_returns_or_breaks_down_numerically(self):
        # le breaks down around N = 64; a breakdown must surface as a
        # NumericalError, never as another exception
        spec = Spectrum(np.arange(65, dtype=float))
        for fn in ALGORITHMS.values():
            try:
                rec = fn(spec)
            except NumericalError:
                continue
            assert rec.n == 64


class TestCoefficientRange:
    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    @pytest.mark.parametrize("scale", (1e200, 1e-170))
    def test_coefficients_outside_double_range_are_a_numerical_error(self, alg, scale):
        # u_1 = rho^2 / 2 overflows to inf or underflows to 0; the one
        # range check names degree 1, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at degree 1 do not form a matrix"):
                ALGORITHMS[alg]([-scale, 0.0, scale])

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_largest_representable_coefficients_pass(self, alg):
        rec = ALGORITHMS[alg]([-1e150, 0.0, 1e150])
        assert np.max(np.abs(rec.u - 0.5e300)) <= 1e-12 * 0.5e300

    def test_sublattice_mass_lost_far_from_unit_scale_is_a_numerical_error(self):
        # the closed form's log sums round to ~eps * N * |log x|: at 1e-292
        # the doubled halves of this 40-point spectrum miss unit mass by
        # 2.3e-12, against 1e-15 for the same spectrum at unit scale
        x = np.cumsum(0.05 + np.random.default_rng(8).uniform(0.0, 1.0, 40))
        with pytest.raises(NumericalError, match="sublattice weights"):
            sublattice_weights(1e-292 * x)
        even, _ = sublattice_weights(x)
        assert abs(np.sum(even.w) - 1.0) <= 1e-14


class TestLargeSpectra:
    def test_mirror_fold_overflowing_sublattice_polynomial_is_a_numerical_error(self):
        # at N = 359 the sublattice polynomials' coefficients pass 1e13,
        # so their leading terms fall below the trim threshold
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 359, {"step": 2 / 359}))
        with pytest.raises(NumericalError):
            reconstruct_mirror_fold(spec)

    @pytest.mark.parametrize("n", (1023, 1024))
    def test_half_lattice_is_exact_through_n_1024(self, n):
        fam = SpectrumFamily("symmetric-linear", n, {"step": 2 / n})
        rec = reconstruct_half_lattice(generate_spectrum(fam))
        truth = linear_ground_truth(fam)
        assert np.max(np.abs(rec.b - truth.b)) <= 1e-13
        assert np.max(np.abs(rec.u - truth.u)) <= 1e-13

    @pytest.mark.parametrize("n", (2047, 2048))
    def test_half_lattice_is_exact_through_n_2048(self, n):
        # the sublattice weights underflow here, but the Lanczos vectors
        # sqrt(w) chi_n(x) stay in range
        fam = SpectrumFamily("symmetric-linear", n, {"step": 2 / n})
        rec = reconstruct_half_lattice(generate_spectrum(fam))
        truth = linear_ground_truth(fam)
        assert np.max(np.abs(rec.b - truth.b)) <= 1e-13
        assert np.max(np.abs(rec.u - truth.u)) <= 1e-13

    def test_full_lattice_drifts_where_the_half_lattice_is_exact(self):
        # the paper's contrast: both run the same Lanczos kernel, but on
        # the full lattice its vectors lose orthogonality by 129 points
        fam = SpectrumFamily("symmetric-linear", 128, {"step": 2 / 128})
        spec, truth = generate_spectrum(fam), linear_ground_truth(fam)

        def entry_err(rec):
            return max(np.max(np.abs(rec.b - truth.b)), np.max(np.abs(rec.u - truth.u)))

        assert entry_err(reconstruct_gram_schmidt_full(spec)) > 1e-2
        assert entry_err(reconstruct_half_lattice(spec)) < 1e-13

    def test_full_lattice_completes_at_n_2049(self):
        # the last size whose full-lattice start vector stays normal
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 2049, {"step": 2 / 2049}))
        rec = reconstruct_gram_schmidt_full(spec)
        assert rec.b.size == 2050

    @pytest.mark.parametrize("alg", ("gs", "hl"))
    def test_half_lattice_start_vector_below_the_normal_range_is_a_numerical_error(self, alg):
        # at 3000 points some sqrt(w / max w) are subnormal; without the
        # guard the round trip comes back off by ~1e-1 and nothing is raised
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 2999, {"step": 2 / 2999}))
        with pytest.raises(NumericalError, match="start vector"):
            ALGORITHMS[alg](spec)

    def test_half_lattice_start_vector_message_at_2052_points(self):
        # the first size at which one sublattice component is subnormal
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 2051, {"step": 2 / 2051}))
        with pytest.raises(NumericalError) as err:
            reconstruct_half_lattice(spec)
        assert str(err.value) == ("Lanczos start vector underflows: 1 of 1026 "
                                  "components lie below the normal range")

    @pytest.mark.parametrize("seed", range(8))
    def test_half_lattice_round_trip_on_random_gap_n_1024(self, seed):
        spec = generate_spectrum(SpectrumFamily("random-gap", 1024, {"seed": seed}))
        rec = reconstruct_half_lattice(spec)
        back = eigh_tridiagonal(rec.b, np.sqrt(rec.u), eigvals_only=True)
        x = spec.values
        assert np.max(np.abs(back - x)) <= 1e-13 * 0.5 * (x[-1] - x[0])


def _ref_lanczos(x, logr, nb, nu, faults):
    """Reference Lanczos kernel, written with in-place operators, ``@``
    and ``np.sqrt``: ``_lanczos`` must give its bits."""
    half = 0.5 * (logr - np.max(logr))
    lost = int(np.count_nonzero(half < np.log(np.finfo(float).tiny)))
    if lost:
        faults.append(f"Lanczos start vector underflows: {lost} of {x.size} "
                      "components lie below the normal range")
    v = np.exp(half)
    v /= np.sqrt(v @ v)
    v_prev = np.zeros_like(x)
    r = np.empty_like(x)
    b = np.empty(nb)
    u = np.empty(nu)
    a_prev = 0.0
    for k in range(nb):
        np.multiply(x, v, out=r)
        v_prev *= a_prev
        r -= v_prev
        bk = float(r @ v)
        b[k] = bk
        if k == nu:
            break
        np.multiply(v, bk, out=v_prev)
        r -= v_prev
        uk = float(r @ r)
        a_prev = np.sqrt(uk)
        u[k] = uk
        r /= a_prev
        v_prev, v, r = v, r, v_prev
    return b, u


def _ref_closed_form_logr(x, first=0, step=1):
    """Reference closed-form log weights, the table formed by the
    broadcast ``x[rows, None] - x``: ``_closed_form_logr`` must give its
    bits."""
    k = max(0, math.frexp(np.abs(x).max())[1] - 1022)
    if k:
        x = np.ldexp(x, -k)
    rows = np.arange(first, x.size, step)
    diff = x[rows, None] - x
    diff[np.arange(rows.size), rows] = 1.0
    logr = -np.sum(np.log(np.abs(diff, out=diff), out=diff), axis=1)
    return logr - (x.size - 1) * k * math.log(2.0) if k else logr


class TestLanczosBits:
    """``_lanczos`` against ``_ref_lanczos`` on the inputs that ``_gs_core``
    (the full lattice) and ``_hl_core`` (one sublattice) give it."""

    @staticmethod
    def _inputs(spec, alg):
        x = spec.values
        xh = (x - 0.5 * (x[0] + x[-1])) / (0.5 * (x[-1] - x[0]))
        n = xh.size - 1
        if alg == "gs":
            return xh, _closed_form_logr(xh), n + 1, n
        first = 1 - n % 2
        return xh[first::2], _closed_form_logr(xh, first, 2), n // 2, (n - 1) // 2

    @pytest.mark.parametrize("alg", ("gs", "hl"))
    @pytest.mark.parametrize("kind", ("symmetric-linear", "random-gap"))
    @pytest.mark.parametrize("points", (2, 3, 11, 129, 512, 513, 1025, 2049))
    def test_bit_identical_to_the_reference_loop(self, alg, kind, points):
        n = points - 1
        params = {"step": 2 / n} if kind == "symmetric-linear" else {"seed": points}
        args = self._inputs(generate_spectrum(SpectrumFamily(kind, n, params)), alg)
        got_faults, want_faults = [], []
        with np.errstate(all="ignore"):
            got = _lanczos(*args, got_faults)
            want = _ref_lanczos(*args, want_faults)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got_faults == want_faults

    def test_reentrant(self):
        """A second call leaves the first call's result as it was, and a
        call run inside another, before each of the outer call's
        operations on a scalar, changes none of its bits and shares none
        of its 0-d scalars."""
        spec = generate_spectrum(SpectrumFamily("random-gap", 10, {"seed": 3}))
        outer = self._inputs(spec, "gs")
        inner = self._inputs(generate_spectrum(SpectrumFamily("quadratic", 14)), "hl")
        first = _lanczos(*outer, [])
        kept = first[0].tobytes(), first[1].tobytes()
        _lanczos(*inner, [])
        fresh = _lanczos(*outer, [])
        assert (first[0].tobytes(), first[1].tobytes()) == kept
        assert kept == (fresh[0].tobytes(), fresh[1].tobytes())

        seen = {"outer": [], "inner": []}
        log = seen["outer"]

        class Spy(np.ndarray):
            """Records the 0-d arrays each ufunc call and ``dot`` is given
            and, in the outer call, runs the inner call before every ufunc
            call that takes one."""

            def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
                scalars = [a for a in inputs + out if type(a) is np.ndarray and a.ndim == 0]
                log.extend(scalars)
                if scalars and log is seen["outer"]:
                    nested()
                plain = [a.view(np.ndarray) if isinstance(a, Spy) else a for a in inputs]
                outs = tuple(a.view(np.ndarray) for a in out)
                result = getattr(ufunc, method)(*plain, out=outs or None, **kwargs)
                if out:
                    return out[0]
                return result.view(Spy) if isinstance(result, np.ndarray) else result

            def dot(self, other, out=None):
                if out is not None:
                    log.append(out)
                return super().dot(other, out=out)

        runs = []

        def nested():
            nonlocal log
            log = seen["inner"]
            runs.append(None)
            _lanczos(inner[0].view(Spy), inner[1].view(Spy), *inner[2:], [])
            log = seen["outer"]

        got = _lanczos(outer[0].view(Spy), outer[1].view(Spy), *outer[2:], [])
        assert got[0].tobytes() == fresh[0].tobytes()
        assert got[1].tobytes() == fresh[1].tobytes()
        ids = {key: {id(a) for a in arrays} for key, arrays in seen.items()}
        assert len(ids["outer"]) == 3  # b_k, u_k and sqrt(u_k)
        # three ufunc calls a degree take a scalar, one at the last degree
        assert len(runs) == 3 * outer[2] - 2
        assert len(ids["inner"]) == 3 * len(runs)
        assert ids["outer"].isdisjoint(ids["inner"])


class TestClosedFormLogBits:
    """``_closed_form_logr`` against ``_ref_closed_form_logr`` on the rows
    ``_hl_core`` asks for (every second point from 0 or from 1) and on
    the full rows that ``_gs_core`` and ``weights_persymmetric`` use."""

    ROWS = pytest.mark.parametrize("first, step", ((0, 2), (1, 2), (0, 1)),
                                   ids=("even", "odd", "full"))

    @staticmethod
    def _assert_same(x, first, step):
        got = _closed_form_logr(x, first, step)
        assert got.tobytes() == _ref_closed_form_logr(x, first, step).tobytes()

    @ROWS
    @pytest.mark.parametrize("kind", ("symmetric-linear", "random-gap"))
    @pytest.mark.parametrize("points", (11, 512, 513, 1025, 2049))
    def test_bit_identical_to_the_broadcast_table(self, first, step, kind, points):
        n = points - 1
        params = {"step": 2 / n} if kind == "symmetric-linear" else {"seed": points}
        x = generate_spectrum(SpectrumFamily(kind, n, params)).values
        xh = (x - 0.5 * (x[0] + x[-1])) / (0.5 * (x[-1] - x[0]))
        self._assert_same(x, first, step)  # as weights_persymmetric calls it
        self._assert_same(xh, first, step)  # as the kernels call it

    @ROWS
    def test_bit_identical_on_the_scaled_branch(self, first, step):
        x = generate_spectrum(SpectrumFamily("random-gap", 512, {"seed": 1})).values
        x = np.ldexp((x - 0.5 * (x[0] + x[-1])) / (0.5 * (x[-1] - x[0])), 1022)
        assert math.frexp(np.abs(x).max())[1] > 1022  # differenced scaled by 2**-k
        self._assert_same(x, first, step)


# ----------------------------------------------------------------------
# moment-determinant oracle
# ----------------------------------------------------------------------


def poly_from_moments_hankel(moms, n: int) -> Polynomial:
    """Monic orthogonal ``P_n`` straight from the moment determinants.

    Expands the bordered Hankel determinant along its last row
    ``(1, x, ..., x^n)`` and divides by the leading Hankel minor.
    Exponentially ill-conditioned in ``n``; an independent cross-check
    for small degrees (``n <= 6``) of the recurrence construction.
    """
    c = moms.c if isinstance(moms, MomentSequence) else np.asarray(moms, dtype=float)
    if not 1 <= n <= 6:
        raise ValueError("moment-determinant construction is supported for 1 <= n <= 6")
    if c.size < 2 * n:
        raise ValueError("need moments up to order 2n - 1")
    hankel = np.array([[c[i + j] for j in range(n)] for i in range(n)])
    delta = float(np.linalg.det(hankel))
    if abs(delta) < 1e-10:
        raise NumericalError("Hankel determinant is numerically singular")
    bordered = np.array([[c[i + j] for j in range(n + 1)] for i in range(n)])
    coeffs = np.empty(n + 1)
    for k in range(n + 1):
        minor = np.delete(bordered, k, axis=1)
        coeffs[k] = (-1.0) ** (n + k) * float(np.linalg.det(minor)) / delta
    coeffs[n] = 1.0
    return Polynomial(coeffs)


class TestHankelOracle:
    def test_pinned_polynomials(self):
        c = moments([-1.0, 0.0, 1.0], 4)
        assert np.max(np.abs(poly_from_moments_hankel(c, 1).coeffs
                             - np.array([0.0, 1.0]))) <= 1e-14
        assert np.max(np.abs(poly_from_moments_hankel(c, 2).coeffs
                             - np.array([-0.5, 0.0, 1.0]))) <= 1e-14
        c = moments([0.0, 1.0, 2.0], 4)
        assert np.max(np.abs(poly_from_moments_hankel(c, 1).coeffs
                             - np.array([-1.0, 1.0]))) <= 1e-14

    def test_matches_recurrence_construction(self):
        rng = np.random.default_rng(4007)
        for i in range(10):
            raw = _gapped_spectrum(rng, 4 + i % 8).values
            # rescale to [-1, 1]: the determinant construction carries an
            # absolute singularity guard, and narrow spectra shrink the
            # Hankel minors below it without being degenerate
            spec = Spectrum(-1.0 + 2.0 * (raw - raw[0]) / (raw[-1] - raw[0]))
            sys = recurrence_polynomials(reconstruct_gram_schmidt_full(spec))
            c = moments(spec, min(2 * spec.n, 8))
            for k in range(1, min(4, spec.n) + 1):
                got = poly_from_moments_hankel(c, k)
                want = sys.polys[k]
                assert got.degree == want.degree
                assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8

    def test_degree_and_length_validation(self):
        c = moments([-1.0, 0.0, 1.0], 4)
        with pytest.raises(ValueError):
            poly_from_moments_hankel(c, 0)
        with pytest.raises(ValueError):
            poly_from_moments_hankel(c, 7)
        with pytest.raises(ValueError):
            poly_from_moments_hankel(c, 3)  # needs moments up to order 5

    def test_singular_hankel_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            poly_from_moments_hankel(np.array([1.0, 0.0, 0.0, 0.0]), 2)

    def test_accepts_raw_arrays(self):
        got = poly_from_moments_hankel(np.array([1.0, 0.0, 1.0, 0.0]), 1)
        assert np.array_equal(got.coeffs, [0.0, 1.0])
