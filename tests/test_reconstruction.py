"""Tests for the four inverse spectral reconstruction algorithms.

Pinned cases use small spectra whose Jacobi data is known in closed
form.  Seeded loops check the round trip (reconstruct, then re-solve the
forward problem), cross-algorithm agreement, exact mirror symmetry of
the folded variants, and consistency of the moment/sublattice helpers
that the half-lattice algorithm is built from.
"""

import numpy as np
import pytest

from persymjac.errors import NumericalError
from persymjac.jacobi import (MonicJacobi, Spectrum, eigenvalues,
                              recurrence_polynomials, weights_persymmetric)
from persymjac.polynomials import Polynomial, poly_from_roots
from persymjac.benchmark import SpectrumFamily, generate_spectrum, linear_ground_truth
from persymjac.reconstruction import (ALGORITHMS, MidpointData, MomentSequence,
                                      midpoint_data, moments,
                                      reconstruct_gram_schmidt_full,
                                      reconstruct_half_lattice,
                                      reconstruct_lagrange_euclid,
                                      reconstruct_mirror_fold,
                                      sublattice_weights, _chain_arrays)

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

    def test_sequence_protocol(self):
        got = moments([-1.0, 1.0], 2)
        assert len(got) == 3
        assert got[2] == 1.0

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

    def test_even_n_has_no_even_table(self):
        even, odd = sublattice_weights([-1.0, 0.0, 1.0])
        assert even is None
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
                if table is None:
                    continue
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

    def test_half_lattice_at_n_2048_is_a_numerical_error(self):
        # the sublattice weights underflow, and the Stieltjes sweep meets a
        # vanishing norm instead of returning a wrong matrix
        spec = generate_spectrum(SpectrumFamily("symmetric-linear", 2048, {"step": 2 / 2048}))
        with pytest.raises(NumericalError):
            reconstruct_half_lattice(spec)


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


class TestMomentSequenceType:
    def test_is_a_lightweight_sequence(self):
        ms = MomentSequence(np.array([1.0, 0.0, 0.5]))
        assert len(ms) == 3
        assert ms[0] == 1.0
        assert ms[2] == 0.5
