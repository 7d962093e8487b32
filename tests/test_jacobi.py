"""Tests for Jacobi matrix types and the forward spectral problem.

The eigensolver is checked against an independent dense solver
(``numpy.linalg.eigvalsh``) on seeded random matrices, the weight
formulas against their pinned rational values, and the mirror-symmetry
machinery against both positive and negative controls.
"""

import numpy as np
import pytest

from persymjac.errors import NumericalError
from persymjac.jacobi import (MonicJacobi, Spectrum, SymmetricJacobi, WeightTable,
                              eigenvalues, is_persymmetric, mirror_residual,
                              recurrence_polynomials, weights_general,
                              weights_persymmetric)


def _palindrome(rng: np.random.Generator, length: int, lo: float, hi: float) -> np.ndarray:
    """Random mirror-symmetric sequence of the given length."""
    half = rng.uniform(lo, hi, (length + 1) // 2)
    return np.concatenate((half, half[: length // 2][::-1]))


def _random_persymmetric(rng: np.random.Generator, n: int) -> MonicJacobi:
    b = _palindrome(rng, n + 1, -1.0, 1.0)
    a = _palindrome(rng, n, 0.3, 1.2)
    return MonicJacobi(b, a * a)


def _equally_spaced(n: int, centre: float) -> MonicJacobi:
    """The coupling profile ``u_n = h^2 n (N+1-n) / 4`` with constant
    diagonal, whose spectrum is exactly equally spaced with step ``h = 2/N``."""
    h = 2.0 / n
    idx = np.arange(1, n + 1, dtype=float)
    return MonicJacobi(np.full(n + 1, centre), h * h * idx * (n + 1 - idx) / 4.0)


# ----------------------------------------------------------------------
# value types
# ----------------------------------------------------------------------


class TestSpectrum:
    def test_sorts_on_from_values(self):
        s = Spectrum.from_values([2.0, -1.0, 0.5])
        assert np.array_equal(s.values, [-1.0, 0.5, 2.0])
        assert s.n == 2
        assert s.radius == 2.0
        assert len(s) == 3
        assert list(s) == [-1.0, 0.5, 2.0]

    def test_rejects_duplicates_exact_and_near(self):
        with pytest.raises(ValueError):
            Spectrum.from_values([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            Spectrum.from_values([1.0, 1.0 + 1e-14])

    def test_rejects_unsorted_in_strict_constructor(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 0.0])

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            Spectrum([])
        with pytest.raises(ValueError):
            Spectrum.from_values([0.0, float("nan")])

    def test_coerce_passes_instances_through(self):
        s = Spectrum([0.0, 1.0])
        assert Spectrum.coerce(s) is s


class TestMatrixTypes:
    def test_monic_rejects_nonpositive_u(self):
        with pytest.raises(NumericalError):
            MonicJacobi([0.0, 0.0], [0.0])
        with pytest.raises(NumericalError):
            MonicJacobi([0.0, 0.0], [-1.0])

    def test_monic_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MonicJacobi([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            MonicJacobi([], [])

    def test_norms_are_cumulative_products(self):
        k = MonicJacobi([0.0, 0.0, 0.0], [0.5, 2.0])
        assert np.array_equal(k.norms(), [1.0, 0.5, 1.0])

    def test_symmetric_round_trip(self):
        k = MonicJacobi([1.0, 2.0, 1.0], [0.25, 4.0])
        j = SymmetricJacobi.from_monic(k)
        assert np.array_equal(j.a, [0.5, 2.0])
        back = j.to_monic()
        assert np.array_equal(back.b, k.b)
        assert np.array_equal(back.u, k.u)

    def test_to_monic_rejects_zero_coupling(self):
        with pytest.raises(NumericalError):
            SymmetricJacobi([0.0, 0.0], [0.0]).to_monic()

    def test_dense_layout(self):
        j = SymmetricJacobi([1.0, 2.0, 3.0], [4.0, 5.0])
        want = np.array([[1.0, 4.0, 0.0], [4.0, 2.0, 5.0], [0.0, 5.0, 3.0]])
        assert np.array_equal(j.dense(), want)

    def test_weight_table_validation(self):
        with pytest.raises(ValueError):
            WeightTable([0.0, 1.0], [0.7, 0.7])  # mass != 1
        with pytest.raises(ValueError):
            WeightTable([0.0, 1.0], [1.5, -0.5])  # negative
        with pytest.raises(ValueError):
            WeightTable([0.0, 1.0], [1.0])  # length mismatch


# ----------------------------------------------------------------------
# recurrence polynomials
# ----------------------------------------------------------------------


class TestRecurrencePolynomials:
    def test_two_point_system(self):
        sys = recurrence_polynomials(MonicJacobi([0.0, 0.0], [1.0]))
        assert np.array_equal(sys.polys[1].coeffs, [0.0, 1.0])
        assert np.array_equal(sys.polys[2].coeffs, [-1.0, 0.0, 1.0])
        assert np.array_equal(sys.h, [1.0, 1.0])
        assert sys.n == 1

    def test_three_point_system(self):
        sys = recurrence_polynomials(MonicJacobi([0.0, 0.0, 0.0], [0.5, 0.5]))
        assert np.array_equal(sys.polys[2].coeffs, [-0.5, 0.0, 1.0])
        assert np.array_equal(sys.polys[3].coeffs, [0.0, -1.0, 0.0, 1.0])

    def test_diagonal_shift_translates_polynomials(self):
        rng = np.random.default_rng(3001)
        u = rng.uniform(0.2, 1.0, 5)
        c = 0.7
        base = recurrence_polynomials(MonicJacobi(np.zeros(6), u))
        shifted = recurrence_polynomials(MonicJacobi(np.full(6, c), u))
        xs = np.linspace(-2.0, 2.0, 9)
        for p, q in zip(base.polys, shifted.polys):
            assert np.max(np.abs(q(xs) - p(xs - c))) <= 1e-12

    def test_orthonormal_scaling(self):
        sys = recurrence_polynomials(MonicJacobi([0.0, 0.0, 0.0], [0.5, 0.5]))
        chi2 = sys.orthonormal(2)
        # P_2 = x^2 - 1/2 with h_2 = 1/4, so chi_2 = 2x^2 - 1
        assert np.max(np.abs(chi2.coeffs - np.array([-1.0, 0.0, 2.0]))) <= 1e-14


# ----------------------------------------------------------------------
# eigenvalues
# ----------------------------------------------------------------------


class TestEigenvalues:
    def test_pinned_two_and_three_point_spectra(self):
        got = eigenvalues(MonicJacobi([0.0, 0.0], [1.0]))
        assert np.max(np.abs(got.values - np.array([-1.0, 1.0]))) <= 1e-12
        got = eigenvalues(MonicJacobi([0.0, 0.0, 0.0], [0.5, 0.5]))
        assert np.max(np.abs(got.values - np.array([-1.0, 0.0, 1.0]))) <= 1e-12

    def test_single_point_matrix(self):
        got = eigenvalues(MonicJacobi([5.0], []))
        assert np.array_equal(got.values, [5.0])

    def test_diagonal_shift_equivariance(self):
        rng = np.random.default_rng(3002)
        b = rng.uniform(-1.0, 1.0, 7)
        u = rng.uniform(0.2, 1.0, 6)
        base = eigenvalues(MonicJacobi(b, u)).values
        shifted = eigenvalues(MonicJacobi(b + 0.37, u)).values
        assert np.max(np.abs(shifted - (base + 0.37))) <= 1e-12

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3003)
        for _ in range(60):
            n = int(rng.integers(0, 17))
            b = rng.uniform(-1.0, 1.0, n + 1)
            a = rng.uniform(0.3, 1.2, n)
            k = MonicJacobi(b, a * a)
            got = eigenvalues(k).values
            want = np.linalg.eigvalsh(SymmetricJacobi.from_monic(k).dense())
            assert np.max(np.abs(got - want)) <= 1e-11

    def test_equally_spaced_spectrum_at_large_size(self):
        n = 64
        want = -1.0 + (2.0 / n) * np.arange(n + 1)
        assert np.max(np.abs(eigenvalues(_equally_spaced(n, 0.0)).values - want)) <= 1e-12


# Reference forward solver: plain bisection with one Sturm count per
# bracket per sweep, the same Newton polish, and the weight formula on an
# unfused recurrence.  ``eigenvalues`` and ``weights_general`` evaluate
# the same roundings in a different order of NumPy calls, so they must
# agree with it bit for bit.


def _ref_sturm_count(b, u, xs, pivmin):
    d = b[0] - xs
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    cnt = (d < 0).astype(np.int64)
    for i in range(1, b.size):
        d = (b[i] - xs) - u[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        cnt += d < 0
    return cnt


def _ref_char_eval(b, u, xs):
    p_prev, p = np.ones_like(xs), xs - b[0]
    dp_prev, dp = np.zeros_like(xs), np.ones_like(xs)
    logscale = np.zeros_like(xs)
    for i in range(1, b.size):
        t = xs - b[i]
        p_next = t * p - u[i - 1] * p_prev
        dp_next = p + t * dp - u[i - 1] * dp_prev
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        m = np.maximum(np.maximum(np.abs(p), np.abs(p_prev)),
                       np.maximum(np.abs(dp), np.abs(dp_prev)))
        stretch = (m > 1e120) | ((m > 0) & (m < 1e-120))
        if np.any(stretch):
            s = np.where(stretch, 1.0 / m, 1.0)
            p_prev, p, dp_prev, dp = p_prev * s, p * s, dp_prev * s, dp * s
            logscale = logscale - np.log(s)
    return p_prev, p, dp, logscale


def _ref_eigenvalues(k: MonicJacobi) -> np.ndarray:
    b, u = k.b, k.u
    n1 = b.size
    if n1 == 1:
        return b.copy()
    reach = 2.0 * float(np.sum(np.sqrt(u)))
    lo0, hi0 = float(np.min(b)) - reach, float(np.max(b)) + reach
    pivmin = 1e-292 * max(1.0, float(np.max(u)))
    ks = np.arange(n1)
    lo, hi = np.full(n1, lo0), np.full(n1, hi0)
    iters = int(np.ceil(np.log2(max((hi0 - lo0) / 1e-13, 2.0)))) + 1
    for _ in range(min(iters, 200)):
        mid = 0.5 * (lo + hi)
        low_side = _ref_sturm_count(b, u, mid, pivmin) <= ks
        lo = np.where(low_side, mid, lo)
        hi = np.where(low_side, hi, mid)
    lam = 0.5 * (lo + hi)
    for _ in range(5):
        _, val, dval, _ = _ref_char_eval(b, u, lam)
        safe = dval != 0.0
        step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
        new = np.clip(lam - step, lo, hi)
        moved = float(np.max(np.abs(new - lam)))
        lam = new
        if moved == 0.0:
            break
    try:
        return Spectrum(lam).values
    except ValueError as exc:
        raise NumericalError(f"eigenvalues failed to separate: {exc}") from exc


def _ref_weights(k: MonicJacobi, x: np.ndarray):
    """Weights as ``weights_general`` computes them (None where it raises),
    and whether the recurrence had to rescale."""
    pN, _, dpN1, logscale = _ref_char_eval(k.b, k.u, x)
    rescaled = bool(np.any(logscale != 0.0))
    prod = pN * dpN1
    if np.any(prod <= 0) or not np.all(np.isfinite(prod)):
        return None, rescaled
    logh = float(np.sum(np.log(k.u))) if k.u.size else 0.0
    logw = logh - (np.log(prod) + 2.0 * logscale)
    top = float(np.max(logw))
    logw -= top + float(np.log(np.sum(np.exp(logw - top))))
    w = np.exp(logw)
    w /= np.sum(w)
    return np.maximum(w, 0.0), rescaled


def _forward_family():
    rng = np.random.default_rng(3010)
    yield MonicJacobi([0.7], [])
    yield MonicJacobi([0.1, -0.4], [0.3])
    for n in range(1, 41, 3):
        b = rng.uniform(-1.0, 1.0, n + 1)
        a = rng.uniform(0.3, 1.2, n)
        yield MonicJacobi(b, a * a)
        yield _random_persymmetric(rng, n)
        # tiny entries drive the recurrence below 1e-120 from 24 points
        # on, huge ones above 1e120 near 40: both take the rescale branch
        for scale in (1e-6, 1e4):
            yield MonicJacobi(b * scale, (a * scale) ** 2)
    for n in (1, 4, 31, 64, 169, 512):
        yield _equally_spaced(n, float(rng.uniform(-0.5, 0.5)))


class TestForwardSolverBits:
    def test_matches_the_reference_bit_for_bit(self):
        rescaled = 0
        for k in _forward_family():
            want = _ref_eigenvalues(k)
            got = eigenvalues(k).values
            assert got.tobytes() == want.tobytes(), k.n
            want_w, fired = _ref_weights(k, want)
            rescaled += fired
            if want_w is None:
                with pytest.raises(NumericalError):
                    weights_general(k, got)
            else:
                assert weights_general(k, got).w.tobytes() == want_w.tobytes(), k.n
        assert rescaled >= 3

    def test_near_degenerate_pair_fails_with_the_same_message(self):
        # Wilkinson's W_31^+: its top two eigenvalues agree in double precision
        k = MonicJacobi(np.abs(np.arange(-15.0, 16.0)), np.ones(30))
        with pytest.raises(NumericalError) as want:
            _ref_eigenvalues(k)
        with pytest.raises(NumericalError) as got:
            eigenvalues(k)
        assert str(got.value) == str(want.value)
        assert "failed to separate" in str(got.value)


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------


class TestWeightsGeneral:
    def test_pinned_small_cases(self):
        k = MonicJacobi([0.0, 0.0], [1.0])
        t = weights_general(k, eigenvalues(k))
        assert np.max(np.abs(t.w - 0.5)) <= 1e-14
        k = MonicJacobi([0.0, 0.0, 0.0], [0.5, 0.5])
        t = weights_general(k, eigenvalues(k))
        assert np.max(np.abs(t.w - np.array([0.25, 0.5, 0.25]))) <= 1e-14

    def test_zero_diagonal_gives_palindromic_weights(self):
        rng = np.random.default_rng(3004)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            u = rng.uniform(0.2, 1.0, n)
            k = MonicJacobi(np.zeros(n + 1), u)
            t = weights_general(k, eigenvalues(k))
            assert np.max(np.abs(t.w - t.w[::-1])) <= 1e-12

    def test_rejects_size_mismatch_and_foreign_spectrum(self):
        k = MonicJacobi([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            weights_general(k, [0.0, 1.0, 2.0])
        with pytest.raises(NumericalError):
            weights_general(k, [0.0, 1.0])  # P_1 vanishes at 0


class TestWeightsPersymmetric:
    def test_pinned_values_and_norms(self):
        t, h = weights_persymmetric([-1.0, 1.0])
        assert np.max(np.abs(t.w - 0.5)) <= 1e-14
        assert abs(h - 1.0) <= 1e-12
        t, h = weights_persymmetric([-1.0, 0.0, 1.0])
        assert np.max(np.abs(t.w - np.array([0.25, 0.5, 0.25]))) <= 1e-14
        assert abs(h - 0.25) <= 1e-12
        t, h = weights_persymmetric([-1.5, -0.5, 0.5, 1.5])
        assert np.max(np.abs(t.w - np.array([0.125, 0.375, 0.375, 0.125]))) <= 1e-14
        assert abs(h - 9.0 / 16.0) <= 1e-12

    def test_single_point(self):
        t, h = weights_persymmetric([3.0])
        assert np.array_equal(t.w, [1.0])
        assert h == 1.0

    def test_accepts_unsorted_input(self):
        t, _ = weights_persymmetric([1.0, -1.0, 0.0])
        assert np.array_equal(t.points.values, [-1.0, 0.0, 1.0])

    def test_agrees_with_general_formula_on_persymmetric_matrices(self):
        rng = np.random.default_rng(3005)
        tested = 0
        while tested < 30:
            n = int(rng.integers(1, 13))
            k = _random_persymmetric(rng, n)
            spec = eigenvalues(k)
            if n >= 1 and np.min(np.diff(spec.values)) < 1e-2:
                # a nearly degenerate pair costs both formulas the same
                # digits; the machine-precision agreement claim is about
                # well-separated spectra
                continue
            tested += 1
            t_general = weights_general(k, spec)
            t_sym, h = weights_persymmetric(spec)
            assert np.max(np.abs(t_general.w - t_sym.w)) <= 1e-12
            h_true = float(np.prod(k.u))
            assert abs(h - h_true) <= 1e-10 * h_true

    @staticmethod
    def _full_matrix_weights(x: np.ndarray) -> tuple[np.ndarray, float]:
        """Reference weights and ``h_N`` from the full (N+1)^2
        log-difference matrix, clamped at zero as ``WeightTable`` does."""
        if x.size == 1:
            return np.ones(1), 1.0
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        logr = -np.sum(np.log(np.abs(diff)), axis=1)
        m = float(np.max(logr))
        lse = m + float(np.log(np.sum(np.exp(logr - m))))
        w = np.exp(logr - lse)
        w /= np.sum(w)
        return np.maximum(w, 0.0), float(np.exp(-2.0 * lse))

    @pytest.mark.parametrize("size", (1, 2, 3, 12, 13, 512, 513))
    def test_bit_identical_to_the_full_matrix_formula(self, size):
        rng = np.random.default_rng(size)
        shapes = [np.linspace(-1.0, 1.0, size),
                  np.cumsum(rng.uniform(0.5, 1.5, size)) - 0.3 * size]
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for x in shapes:
                spec = Spectrum(scale * x)
                # h_N leaves double range at the largest sizes and scales
                with np.errstate(over="ignore"):
                    want_w, want_h = self._full_matrix_weights(spec.values)
                    got, got_h = weights_persymmetric(spec)
                assert got.w.tobytes() == want_w.tobytes()
                assert np.float64(got_h).tobytes() == np.float64(want_h).tobytes()


# ----------------------------------------------------------------------
# mirror symmetry
# ----------------------------------------------------------------------


class TestPersymmetryPredicates:
    def test_is_persymmetric_pinned(self):
        assert is_persymmetric(SymmetricJacobi([0.0, 0.0], [1.0]))
        assert is_persymmetric(SymmetricJacobi([1.0, 2.0, 1.0], [3.0, 3.0]))
        assert not is_persymmetric(SymmetricJacobi([1.0, 2.0, 3.0], [3.0, 3.0]))

    def test_tolerance_is_respected(self):
        j = SymmetricJacobi([0.0, 1e-6], [1.0])
        assert not is_persymmetric(j, tol=1e-10)
        assert is_persymmetric(j, tol=1e-3)

    def test_sign_alternation_of_top_polynomial(self):
        rng = np.random.default_rng(3006)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            k = _random_persymmetric(rng, n)
            spec = eigenvalues(k)
            sys = recurrence_polynomials(k)
            vals = sys.polys[n](spec.values)
            want_signs = np.where((n + np.arange(n + 1)) % 2 == 0, 1.0, -1.0)
            assert np.all(np.sign(vals) == want_signs)
            # the orthonormal values are exactly the signs
            chi_vals = vals / np.sqrt(sys.h[n])
            assert np.max(np.abs(chi_vals - want_signs)) <= 1e-9

    def test_gram_matrix_is_diagonal(self):
        rng = np.random.default_rng(3007)
        for _ in range(10):
            n = int(rng.integers(1, 13))
            k = _random_persymmetric(rng, n)
            spec = eigenvalues(k)
            table = weights_general(k, spec)
            sys = recurrence_polynomials(k)
            vals = np.array([p(spec.values) for p in sys.polys[: n + 1]])
            gram = (vals * table.w) @ vals.T
            assert np.max(np.abs(gram - np.diag(sys.h))) <= 1e-9


class TestMirrorResidual:
    def test_pinned_persymmetric_case(self):
        k = MonicJacobi([0.0, 0.0, 0.0], [0.5, 0.5])
        assert mirror_residual(k, eigenvalues(k)) < 1e-12

    def test_single_entry_matrix_is_exact(self):
        k = MonicJacobi([4.0], [])
        assert mirror_residual(k, eigenvalues(k)) == 0.0

    def test_negative_control(self):
        k = MonicJacobi([0.0, 1.0], [1.0])
        assert mirror_residual(k, eigenvalues(k)) > 0.1

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            mirror_residual(MonicJacobi([0.0, 0.0], [1.0]), [0.0])
