"""Tests for Jacobi matrix types and the forward spectral problem.

The eigensolver is checked against an independent solver (SciPy's
``eigvalsh_tridiagonal``; NumPy's ``eigvalsh`` guides the solver itself)
on seeded random matrices, the weight formulas against their pinned
rational values, and the mirror-symmetry machinery against both
positive and negative controls.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from persymjac import jacobi
from persymjac.errors import NumericalError
from persymjac.jacobi import (MonicJacobi, Spectrum, SymmetricJacobi, WeightTable,
                              eigenvalues, is_persymmetric, mirror_residual,
                              recurrence_polynomials, weights_general,
                              weights_persymmetric)
from persymjac.benchmark import SpectrumFamily, generate_spectrum
from persymjac.deformation import deform_closed_form
from persymjac.reconstruction import reconstruct_half_lattice


def _palindrome(rng: np.random.Generator, length: int, lo: float, hi: float) -> np.ndarray:
    """Random mirror-symmetric sequence of the given length."""
    half = rng.uniform(lo, hi, (length + 1) // 2)
    return np.concatenate((half, half[: length // 2][::-1]))


def _random_persymmetric(rng: np.random.Generator, n: int) -> MonicJacobi:
    b = _palindrome(rng, n + 1, -1.0, 1.0)
    a = _palindrome(rng, n, 0.3, 1.2)
    return MonicJacobi(b, a * a)


def _deformed(k: MonicJacobi, theta: float) -> SymmetricJacobi:
    """``k``, which must be persymmetric, deformed isospectrally by ``theta``."""
    return deform_closed_form(SymmetricJacobi.from_monic(k), theta)


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

    @pytest.mark.parametrize("values", [
        [False, True, "2"], ["0", " 0 "], ["1_0"], [True, 1.0], [1.0, np.True_],
        "3", True, np.array([False, True]), np.array(["1", "2"]),
        np.array([1.0, "2"], dtype=object), [1, True], [10 ** 400],
    ])
    def test_rejects_strings_and_booleans(self, values):
        # NumPy would read each of these as numbers
        with pytest.raises(ValueError, match="only numbers"):
            Spectrum.from_values(values)

    @pytest.mark.parametrize("values, message", [
        ([0.5, None], "only finite values"), ([[0.5]], "one-dimensional")])
    def test_lists_off_the_number_path_keep_their_messages(self, values, message):
        # NumPy reads None as NaN
        with pytest.raises(ValueError, match=message):
            Spectrum.from_values(values)

    def test_a_list_of_numbers_reads_as_its_tuple(self):
        values = [-2, 0.5, 3, 2 ** 60 + 1, 1e300]
        assert Spectrum(values).values.tobytes() == Spectrum(tuple(values)).values.tobytes()


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

    @pytest.mark.parametrize("a, degree", [
        ([1.0, 1e200], 2), ([1e-200, 1.0], 1), ([-1e155, 1e155], 1)])
    def test_to_monic_names_the_coupling_whose_square_leaves_range(self, a, degree):
        # a computed u_n outside double range is a breakdown, not bad input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"coupling a_{degree} squared"):
                SymmetricJacobi([0.0, 0.0, 0.0], a).to_monic()

    def test_constructors_copy_the_callers_arrays(self):
        b, u = np.array([0.0, 1.0, 2.0]), np.array([0.25, 4.0])
        objs = [Spectrum(b), MonicJacobi(b, u), SymmetricJacobi(b, u)]
        b[:], u[:] = -7.0, 9.0
        for held in (objs[0].values, objs[1].b, objs[2].b):
            assert np.array_equal(held, [0.0, 1.0, 2.0]) and not held.flags.writeable
        for held in (objs[1].u, objs[2].a):
            assert np.array_equal(held, [0.25, 4.0]) and not held.flags.writeable

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

    @pytest.mark.parametrize("b, u", [
        ([-1e308, 1e308], [1.0]), ([1e300, 0.0, 1e300], [1.0, 1.0])])
    def test_spread_beyond_double_range_is_a_numerical_error(self, b, u):
        # the bisection level count was int(inf): an OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                eigenvalues(MonicJacobi(b, u))

    def test_eigenvalues_above_half_the_largest_double(self):
        # the midpoint of a cell is halved before the sum, which would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigenvalues(MonicJacobi([1.5e308, 1e308], [1.0])).values
        assert got.tolist() == [1e308, 1.5e308]

    def test_eigenvalues_rounding_to_one_double_at_a_point_interval(self):
        # the padded Gershgorin interval is a single double, and both
        # eigenvalues, 1e300 -+ 1, round to it
        with pytest.raises(NumericalError, match="failed to separate"):
            eigenvalues(MonicJacobi([1e300, 1e300], [1.0]))

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
            want = scipy.linalg.eigvalsh_tridiagonal(k.b, np.sqrt(k.u))
            assert np.max(np.abs(got - want)) <= 1e-11

    def test_equally_spaced_spectrum_at_large_size(self):
        n = 64
        want = -1.0 + (2.0 / n) * np.arange(n + 1)
        assert np.max(np.abs(eigenvalues(_equally_spaced(n, 0.0)).values - want)) <= 1e-12


# Reference forward solver: plain bisection at integer midpoints of the
# same grid, one Sturm count per bracket per sweep, from the same
# starting cell down to one grid step, and the twisted factorization
# row by row.  A matrix exactly mirror-symmetric
# outside its centre is counted as its two mirror blocks, each built out
# and run row by row, their counts summed.  ``eigenvalues`` and
# ``weights_general`` evaluate the same roundings in a different order of
# NumPy calls, so they must agree with it bit for bit.


def _ref_clamp(d, pivmin):
    return np.where(np.abs(d) < pivmin, -pivmin, d)


def _ref_sturm_count(b, u, xs, pivmin):
    d = _ref_clamp(b[0] - xs, pivmin)
    cnt = (d < 0).astype(np.int64)
    for i in range(1, b.size):
        d = _ref_clamp((b[i] - xs) - u[i - 1] / d, pivmin)
        cnt += d < 0
    return cnt


def _ref_blocks(k: MonicJacobi):
    """The two blocks of the Cantoni & Butler split of ``k``, built row by row,
    when ``k`` is exactly mirror-symmetric outside its 2x2 (odd N) or 1x1
    (even N) centre, else None.  Their spectra are the two mirror classes:
    odd ``N = 2L+1`` ends both blocks on rows ``0..L-1`` with an eigenvalue
    of the centre, coupled by ``u_{L-1}``; even ``N = 2L`` gives rows
    ``0..L-1`` alone and rows ``0..L`` with the couplings of row ``L``
    summed, unless that sum overflows."""
    b, u = k.b, k.u
    n = b.size - 1
    half = n // 2
    outside = half if n % 2 else half - 1  # couplings outside the centre above it
    if any(b[i] != b[n - i] for i in range(half)) or any(
            u[i] != u[n - 1 - i] for i in range(outside)):
        return None
    if n % 2 == 0:
        join = float(u[half - 1]) + float(u[half])
        if not join < math.inf:
            return None
        return [(b[:half], u[:half - 1]), (b[:half + 1], np.append(u[:half - 1], join))]
    mean = 0.5 * b[half] + 0.5 * b[half + 1]
    radius = np.hypot(0.5 * (b[half] - b[half + 1]), math.sqrt(u[half]))
    return [(np.append(b[:half], mean + radius), u[:half]),
            (np.append(b[:half], mean - radius), u[:half])]


def _ref_count(k: MonicJacobi, xs, pivmin):
    """The Sturm count ``eigenvalues`` bisects on: the sum of the counts of
    the two blocks of ``k`` where it has them, else the count of ``k``."""
    blocks = _ref_blocks(k)
    if blocks is None:
        return _ref_sturm_count(k.b, k.u, xs, pivmin)
    return sum(_ref_sturm_count(bb, uu, xs, pivmin) for bb, uu in blocks)


def _ref_start(b, u):
    """The row-wise Gershgorin interval, padded by 2**-20 of its width."""
    a = np.concatenate(([0.0], np.sqrt(u), [0.0]))
    lo0 = min(float(b[i] - (a[i] + a[i + 1])) for i in range(b.size))
    hi0 = max(float(b[i] + (a[i] + a[i + 1])) for i in range(b.size))
    pad = (hi0 - lo0) / 2.0 ** 20
    return lo0 - pad, hi0 + pad


def _ref_grid_step(lo0, hi0):
    """The solver's grid step ``q = 2**(e - 55)``, ``2**e`` the least power
    of two above both ends of the starting interval."""
    return 2.0 ** (math.frexp(max(abs(lo0), abs(hi0)))[1] - 55)


def _ref_eigenvalues(k: MonicJacobi) -> np.ndarray:
    """Every bracket on its own, all at once: bisection at integer midpoints
    of the grid ``q Z``, from the starting cell down to one grid step."""
    b, u = k.b, k.u
    n1 = b.size
    if n1 == 1:
        return b.copy()
    lo0, hi0 = _ref_start(b, u)
    q = _ref_grid_step(lo0, hi0)
    pivmin = 1e-292 * max(1.0, float(np.max(u)))
    ks = np.arange(n1)
    lo = np.full(n1, math.floor(lo0 / q), dtype=np.int64)
    hi = np.full(n1, math.ceil(hi0 / q), dtype=np.int64)
    while np.any(hi - lo > 1):
        live = np.flatnonzero(hi - lo > 1)
        mid = (lo[live] + hi[live]) // 2
        low_side = _ref_count(k, mid * q, pivmin) <= ks[live]
        lo[live] = np.where(low_side, mid, lo[live])
        hi[live] = np.where(low_side, hi[live], mid)
    try:
        return Spectrum(0.5 * q * lo + 0.5 * q * hi).values
    except ValueError as exc:
        raise NumericalError(f"eigenvalues failed to separate: {exc}") from exc


def _ref_pivots(b, u, x, pivmin):
    d = [_ref_clamp(b[0] - x, pivmin)]
    for i in range(1, b.size):
        d.append(_ref_clamp((b[i] - x) - u[i - 1] / d[-1], pivmin))
    return d


def _ref_weights(k: MonicJacobi, x: np.ndarray):
    """Weights as ``weights_general`` computes them, or None where it raises:
    the twisted factorization at every node, a row at a time."""
    b, u = k.b, k.u
    n1 = b.size
    pivmin = 1e-292 * max(1.0, float(np.max(u, initial=0.0)))
    down = _ref_pivots(b, u, x, pivmin)
    up = _ref_pivots(b[::-1], u[::-1], x, pivmin)[::-1]
    gamma = np.array([down[i] + up[i] - (b[i] - x) for i in range(n1)])
    r = np.argmin(np.abs(gamma), axis=0)
    a = np.sqrt(u)
    # log|z_i| with z_r = 1, each summed outwards from the twist
    lz = [np.zeros_like(x) for _ in range(n1)]
    for i in range(n1 - 2, -1, -1):
        lz[i] = np.where(i < r, lz[i + 1] + np.log(a[i] / np.abs(down[i])), 0.0)
    for i in range(1, n1):
        lz[i] = np.where(i > r, lz[i - 1] + np.log(a[i - 1] / np.abs(up[i])), lz[i])
    top = np.max(lz, axis=0)
    total = np.zeros_like(x)
    for row in lz:
        total = total + np.exp(2.0 * (row - top))
    lnorm = top + 0.5 * np.log(total)
    res = np.abs(gamma[r, np.arange(n1)]) * np.exp(-lnorm)
    gaps = np.diff(x)
    half_gap = 0.5 * np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    if not np.all(res < half_gap):
        return None
    logw = 2.0 * (lz[0] - lnorm)
    top = float(np.max(logw))
    logw -= top + float(np.log(np.sum(np.exp(logw - top))))
    w = np.exp(logw)
    w /= np.sum(w)
    return np.maximum(w, 0.0)


def _scipy_weights(k: MonicJacobi) -> tuple[np.ndarray, float]:
    """Squared first components of SciPy's eigenvectors, the accuracy
    oracle, and a bound on how far from them computed weights may lie:
    eight times the first-order error ``eps * max|x| / (least gap)`` that
    a perturbation of ``eps * |J|`` makes in an eigenvector (renormalizing
    spreads a close pair's error to every weight)."""
    x, vecs = scipy.linalg.eigh_tridiagonal(k.b, np.sqrt(k.u))
    gap = float(np.min(np.diff(x), initial=np.inf))
    return vecs[0] ** 2, max(8.0 * np.finfo(float).eps * float(np.max(np.abs(x))) / gap, 1e-15)


def _late_zero_pivot() -> MonicJacobi:
    """201 points whose first Sturm sweep meets an exactly zero pivot in
    its last row, past the first block of rows.  A zero diagonal but for
    ``b_0 = 1`` and ``b_N = -1`` centres the starting bracket, so that
    sweep counts at ``x = 0`` exactly; unit couplings make the pivots
    alternate ``+1, -1, ...`` there until ``b_N`` cancels the last one.
    The clamp makes it negative, which decides the count at 0."""
    b = np.zeros(201)
    b[0], b[-1] = 1.0, -1.0
    return MonicJacobi(b, np.ones(200))


def _late_rescale() -> MonicJacobi:
    """200 points, zero diagonal and constant couplings ``u = 0.0025``:
    ``|P_n| ~ 0.05**n`` at the eigenvalues, which leaves the range of 1e-120
    at degree 95, while the pivots stay near 0.05."""
    return MonicJacobi(np.zeros(200), np.full(199, 0.0025))


def _zero_pivots_in_two_blocks() -> MonicJacobi:
    """301 points whose first Sturm sweep, at ``x = 0`` exactly as in
    ``_late_zero_pivot``, meets exactly zero pivots in two blocks of rows
    (the sweep's blocks start every 64 rows: 150 lies in the third, 300 in
    the fifth).  The pivots
    alternate ``+1, -1, ...`` from ``b_0 = 1``; ``b_150 = -1`` cancels row
    150's, whose clamped ``-pivmin`` makes row 151's ``1e292``; ``b_152 = 1``
    then restarts the alternation at ``+1``, and ``b_N = -1`` cancels the
    last pivot."""
    b = np.zeros(301)
    b[0], b[150], b[152], b[300] = 1.0, -1.0, 1.0, -1.0
    return MonicJacobi(b, np.ones(300))


def _mirrored(n1: int, entries) -> MonicJacobi:
    """``n1`` mirror-symmetric points with unit couplings, a zero diagonal
    but for the ``(row, value)`` entries and their mirror images."""
    b = np.zeros(n1)
    for i, v in entries:
        b[i] = b[n1 - 1 - i] = v
    return MonicJacobi(b, np.ones(n1 - 1))


def _late_zero_pivot_mirrored() -> MonicJacobi:
    """399 points whose folded first Sturm sweep, at ``x = 0`` exactly,
    meets an exactly zero pivot in its last shared row, 198, past the
    first block of shared rows (the sweep's blocks start every 64 rows,
    the last at 192).  As in ``_late_zero_pivot`` the pivots alternate ``+1, -1, ...``
    from ``b_0 = 1`` until ``b_198 = -1`` cancels row 198's; ``b_199 = 1``
    at the centre centres the starting bracket."""
    return _mirrored(399, [(0, 1.0), (198, -1.0), (199, 1.0)])


def _zero_pivots_in_two_blocks_mirrored() -> MonicJacobi:
    """529 points whose folded first Sturm sweep, at ``x = 0`` exactly,
    meets exactly zero pivots in two blocks of shared rows (the sweep's
    511 points run in blocks of 64 rows, the last two from rows 192 and
    256).  The pivots alternate from ``b_0 = 1``; ``b_255 = 1`` cancels
    row 255's, whose clamped ``-pivmin`` makes row 256's ``1e292``;
    ``b_257 = -1`` restarts the alternation at ``-1``, and ``b_263 = 1``
    cancels the last shared pivot.  The entries lie within 9 rows of the
    centre row 264, so the states they bind and their mirror images stay
    apart: bound far from it, such a pair rounds to one double."""
    return _mirrored(529, [(0, 1.0), (255, 1.0), (257, -1.0), (263, 1.0)])


# the fixtures whose first Sturm sweep meets exactly zero pivots
_ZERO_PIVOTS = [_late_zero_pivot, _zero_pivots_in_two_blocks, _late_zero_pivot_mirrored,
                _zero_pivots_in_two_blocks_mirrored]


def _far_scale_blocks() -> MonicJacobi:
    """300 random points scaled by 1e-6: ``|P_n|`` at the eigenvalues
    shrinks by about 1e-6 a row, while the pivots stay near 1e-6."""
    rng = np.random.default_rng(3012)
    b = rng.uniform(-1.0, 1.0, 300) * 1e-6
    a = rng.uniform(0.3, 1.2, 299) * 1e-6
    return MonicJacobi(b, a * a)


def _forward_family():
    rng = np.random.default_rng(3010)
    yield MonicJacobi([0.7], [])
    yield MonicJacobi([0.1, -0.4], [0.3])
    for n in range(1, 41, 3):
        b = rng.uniform(-1.0, 1.0, n + 1)
        a = rng.uniform(0.3, 1.2, n)
        yield MonicJacobi(b, a * a)
        persymmetric = _random_persymmetric(rng, n)
        yield persymmetric
        # the deformations change the centre only: the output still folds
        yield _deformed(persymmetric, 0.3 + 0.1 * n).to_monic()
        # tiny entries drive P_n below 1e-120 from 24 points on, huge
        # ones above 1e120 near 40; the pivots scale with the entries
        for scale in (1e-6, 1e4):
            yield MonicJacobi(b * scale, (a * scale) ** 2)
    for n in (1, 4, 31, 64, 169, 512):
        yield _equally_spaced(n, float(rng.uniform(-0.5, 0.5)))
    yield _late_zero_pivot()
    yield _late_rescale()
    yield _zero_pivots_in_two_blocks()
    yield _late_zero_pivot_mirrored()
    yield _zero_pivots_in_two_blocks_mirrored()
    yield _far_scale_blocks()
    # the 32-point deformations the secant steps finish in half the sweeps:
    # folded, and one ulp off the mirror, counted on the whole chain; off in
    # the top row no row is mirrored, off in row 5 or in the coupling above
    # it the five rows above it are
    for theta in rng.uniform(0.1, 0.6, 3):
        deformed = _deformed(_random_persymmetric(rng, 31), theta).to_monic()
        yield deformed
        for row in (0, 5):
            b = deformed.b.copy()
            b[row] = np.nextafter(b[row], np.inf)
            yield MonicJacobi(b, deformed.u)
        u = deformed.u.copy()
        u[4] = np.nextafter(u[4], np.inf)
        yield MonicJacobi(deformed.b, u)
    # scaled by powers of two to near both ends of the double range
    b, a = rng.uniform(-1.0, 1.0, 32), rng.uniform(0.3, 1.2, 31)
    for k in (-500, -80, 80, 500):
        yield MonicJacobi(np.ldexp(b, k), np.ldexp(a * a, 2 * k))


def _guarded_starts(monkeypatch, rows: str) -> list[int]:
    """The first row of every guarded pass of ``jacobi.<rows>`` from here on:
    ``_pivot_rows`` given a clamp."""
    starts = []
    inner = getattr(jacobi, rows)

    def spy(first, *args, **guard):
        if guard:
            starts.append(first)
        return inner(first, *args, **guard)

    monkeypatch.setattr(jacobi, rows, spy)
    return starts


def _mirrored_rows(k: MonicJacobi) -> int:
    """How many rows from the top the matrix mirrors: row ``i`` while
    ``b_i = b_{N-i}`` and, below row 0, ``u_{i-1} = u_{N-i}``."""
    n, i = k.n, 0
    while i <= n and k.b[i] == k.b[n - i] and (i == 0 or k.u[i - 1] == k.u[n - i]):
        i += 1
    return i


class TestForwardSolverBits:
    def test_matches_the_reference_bit_for_bit(self):
        chunked = 0
        # the reversed chain of _twisted starts below the rows the matrix mirrors
        shared = set()
        for k in _forward_family():
            rows = _mirrored_rows(k)
            shared.add("all" if rows == k.b.size else "some" if rows else "none")
            want = _ref_eigenvalues(k)
            got = eigenvalues(k)
            assert got.values.tobytes() == want.tobytes(), k.n
            want_w = _ref_weights(k, want)
            if want_w is None:
                with pytest.raises(NumericalError):
                    weights_general(k, got)
            else:
                assert weights_general(k, got).w.tobytes() == want_w.tobytes(), k.n
            # the reference takes every node at once, weights_general in chunks
            chunked += k.b.size ** 2 > jacobi._CHUNK
        assert chunked >= 1
        assert shared == {"all", "some", "none"}

    def test_weights_match_scipy(self):
        for k in _forward_family():
            got = weights_general(k, eigenvalues(k)).w
            want, tol = _scipy_weights(k)
            assert np.max(np.abs(got - want)) <= tol, k.n

    @pytest.mark.parametrize("make, rows, first_block", [
        (_late_zero_pivot, "_pivot_rows", 0), (_late_zero_pivot_mirrored, "_pivot_rows", 0)])
    def test_guard_first_fires_past_the_first_block(self, monkeypatch, make, rows, first_block):
        # the guarded pass runs, and only on later blocks: the bits above
        # then cover a guarded pass that starts from the previous block's last row
        starts = _guarded_starts(monkeypatch, rows)
        eigenvalues(make())
        assert starts and min(starts) > first_block

    @pytest.mark.parametrize("make, rows", [
        (_zero_pivots_in_two_blocks, "_pivot_rows"),
        (_zero_pivots_in_two_blocks_mirrored, "_pivot_rows")])
    def test_guarded_pass_runs_in_several_blocks(self, monkeypatch, make, rows):
        starts = _guarded_starts(monkeypatch, rows)
        eigenvalues(make())
        assert len(set(starts)) >= 2

    @pytest.mark.parametrize("make", _ZERO_PIVOTS)
    def test_pivots_match_the_reference_bit_for_bit(self, make):
        # at x = 0, where the zero pivots lie, and at the eigenvalues, down
        # the rows and up them, in one pass and in blocks of 64 rows
        k = make()
        x = np.concatenate(([0.0], eigenvalues(k).values))
        pivmin = 1e-292 * max(1.0, float(np.max(k.u)))
        for b, u in ((k.b, k.u), (k.b[::-1], k.u[::-1])):
            want = np.array(_ref_pivots(b, u, x, pivmin))
            for step in (b.size, 64):
                d, prev = np.empty((b.size, x.size)), x
                for first in range(0, b.size, step):
                    # the unguarded pass divides by the zero pivots
                    with np.errstate(all="ignore"):
                        jacobi._pivots(b, u.tolist(), x, first, d[first:first + step], prev, pivmin)
                    prev = d[min(first + step, b.size) - 1]
                assert d.tobytes() == want.tobytes(), step

    @pytest.mark.parametrize("make", [_late_zero_pivot_mirrored,
                                      _zero_pivots_in_two_blocks_mirrored])
    @pytest.mark.parametrize("centre", [False, True], ids=["mirrored", "centre-coupling-off"])
    def test_shared_pivots_match_the_reversed_reference_bit_for_bit(self, make, centre):
        # as _twisted takes the reversed chain: the forward chain's rows that
        # the matrix mirrors, then _pivots from the first row it does not.
        # With the coupling below the centre row L changed, rows 0..L-1 stay
        # mirrored, and the last of them meets the clamp at x = 0.
        k = make()
        n1, centre_row = k.b.size, k.n // 2
        if centre:
            u = k.u.copy()
            u[centre_row] = 2.0
            k = MonicJacobi(k.b, u)
        shared = _mirrored_rows(k)
        assert shared == (centre_row if centre else n1)
        x = np.concatenate(([0.0], eigenvalues(k).values))
        pivmin = 1e-292 * max(1.0, float(np.max(k.u)))
        down, up = np.empty((n1, x.size)), np.empty((n1, x.size))
        with np.errstate(all="ignore"):
            jacobi._pivots(k.b, k.u.tolist(), x, 0, down, x, pivmin)
            up[:shared] = down[:shared]
            if shared < n1:
                jacobi._pivots(k.b[::-1], k.u[::-1].tolist(), x, shared, up[shared:],
                               down[shared - 1], pivmin)
        want = np.array(_ref_pivots(k.b[::-1], k.u[::-1], x, pivmin))
        assert up.tobytes() == want.tobytes()
        # the clamp fires in the last shared row, where the unmirrored rows, if any, start
        assert np.any(down[shared - 1] == -pivmin)

    @pytest.mark.parametrize("make", _ZERO_PIVOTS)
    def test_clamped_pass_starts_at_the_first_failing_row(self, monkeypatch, make):
        # the rows above the first whose unclamped pivot fails the guard are
        # kept from the unguarded pass, not run again
        runs = []
        inner_pivots, inner_rows = jacobi._pivots, jacobi._pivot_rows

        def pivots_spy(b, ul, x, first, d, prev, pivmin):
            runs.append((b, ul, x.copy(), first, d.shape[0], prev.copy(), pivmin, []))
            inner_pivots(b, ul, x, first, d, prev, pivmin)

        def rows_spy(first, d, ul, prev, clamp=None):
            if clamp is not None:
                runs[-1][-1].append(first)
            inner_rows(first, d, ul, prev, clamp)

        monkeypatch.setattr(jacobi, "_pivots", pivots_spy)
        monkeypatch.setattr(jacobi, "_pivot_rows", rows_spy)
        k = make()
        weights_general(k, eigenvalues(k))
        later = 0
        for b, ul, x, first, rows, d, pivmin, starts in runs:
            if not starts:
                continue
            # the row-by-row chain from the block's entry pivots, unclamped
            # until the first row whose pivot fails the guard
            for i in range(first, first + rows):
                d = (b[i] - x) - ul[i - 1] / d if i else b[i] - x
                if not np.all(np.abs(d) >= pivmin):
                    break
            assert starts == [i]
            later += i > first
        assert later >= 1

    def test_far_scale_forward_warns_nothing_and_matches_scipy(self):
        # persymmetric draws scaled by 1e100-1e120: no warning escapes, the
        # spectrum separates and the weights are SciPy's
        rng = np.random.default_rng(3)
        for _ in range(300):
            scale = rng.uniform(1e100, 1e120)
            n1 = int(rng.integers(1, 25))
            b = _palindrome(rng, n1, -1.0, 1.0) * scale
            a = _palindrome(rng, n1 - 1, 0.05, 1.0) * scale
            k = SymmetricJacobi(b, a).to_monic()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = weights_general(k, eigenvalues(k)).w
            want, tol = _scipy_weights(SymmetricJacobi(b / scale, a / scale).to_monic())
            assert np.max(np.abs(got - want)) <= tol, n1

    def test_near_degenerate_pair_fails_with_the_same_message(self):
        # Wilkinson's W_31^+: its top two eigenvalues agree in double precision
        k = MonicJacobi(np.abs(np.arange(-15.0, 16.0)), np.ones(30))
        with pytest.raises(NumericalError) as want:
            _ref_eigenvalues(k)
        with pytest.raises(NumericalError) as got:
            eigenvalues(k)
        assert str(got.value) == str(want.value)
        assert "failed to separate" in str(got.value)


def _folds(k: MonicJacobi) -> bool:
    """Whether ``eigenvalues`` counts ``k`` on folded rows."""
    return jacobi._fold(k.b, k.u).tail.size > 0


def _within_forward_bound(got: np.ndarray, want: np.ndarray) -> bool:
    return float(np.max(np.abs(got - want))) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))


class TestFoldedEigenvalues:
    """A matrix exactly mirror-symmetric outside its centre is counted on
    its folded rows: the shared half twice, then one tail row per block."""

    @pytest.mark.parametrize("n1", [2, 3, 4, 5, 8, 9, 32, 33])
    def test_persymmetric_matrices_fold_and_match_scipy(self, n1):
        rng = np.random.default_rng(3020 + n1)
        for _ in range(10):
            k = _random_persymmetric(rng, n1 - 1)
            rows = jacobi._fold(k.b, k.u)
            # odd N = 2L+1: two tail rows b_L -+ a_L; even N = 2L: one, b_L
            half = (n1 - 1) // 2
            assert rows.b.size == half
            if n1 % 2:
                assert rows.tail.tolist() == [k.b[half]] and rows.join == 2.0 * k.u[half - 1]
            else:
                a = math.sqrt(k.u[half])
                assert rows.tail.tolist() == [k.b[half] - a, k.b[half] + a]
            want = scipy.linalg.eigh_tridiagonal(k.b, np.sqrt(k.u), eigvals_only=True)
            assert _within_forward_bound(eigenvalues(k).values, want), n1

    def test_count_is_the_sum_of_the_block_counts(self):
        # at the tail diagonals too: with no shared row (N = 1) a tail pivot
        # vanishes there, and counts as negative, as the clamp makes it
        folded = 0
        for k in _forward_family():
            rows = jacobi._fold(k.b, k.u)
            if not rows.tail.size:
                continue
            folded += 1
            x = eigenvalues(k).values
            pts = np.concatenate((x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), rows.tail))
            pivmin = 1e-292 * max(1.0, float(np.max(k.u)))
            with np.errstate(all="ignore"):
                got, _ = jacobi._sturm_count(rows, pts)
            assert np.array_equal(got, _ref_count(k, pts, pivmin)), k.n
        assert folded >= 20

    @pytest.mark.parametrize("theta", [-0.4, 0.2, 0.7, 1.0, 2.0])
    def test_deformed_matrices_fold_and_keep_the_spectrum(self, theta):
        rng = np.random.default_rng(3021)
        for n in (1, 2, 3, 4, 9, 10, 21, 22):
            j = SymmetricJacobi.from_monic(_random_persymmetric(rng, n))
            deformed = deform_closed_form(j, theta)
            # past pi/4 a centre coupling turns negative; its square is the same
            assert bool(np.any(deformed.a < 0.0)) == (theta > np.pi / 4.0)
            k = deformed.to_monic()
            assert _folds(k)
            want = scipy.linalg.eigh_tridiagonal(j.b, j.a, eigvals_only=True)
            assert _within_forward_bound(eigenvalues(k).values, want), n

    @pytest.mark.parametrize("n", [6, 7])
    def test_one_ulp_off_centre_takes_the_full_chain(self, monkeypatch, n):
        k = _deformed(_random_persymmetric(np.random.default_rng(3022), n), 0.3).to_monic()
        half, paired = n // 2, (n + 1) // 2 - 1  # entries of b and of u above the centre
        moved = [("b", 0), ("b", n), ("b", half - 1), ("u", 0), ("u", n - 1), ("u", paired - 1)]
        seen = _sweeps(monkeypatch, take=lambda rows, xs, scale: rows)
        for name, i in moved:
            b, u = k.b.copy(), k.u.copy()
            v = b if name == "b" else u
            v[i] = np.nextafter(v[i], np.inf)
            off = MonicJacobi(b, u)
            assert _ref_blocks(off) is None
            seen.clear()
            got = eigenvalues(off).values
            assert {(r.tail.size, r.b.size) for r in seen} == {(0, n + 1)}, (name, i)
            assert got.tobytes() == _ref_eigenvalues(off).tobytes(), (name, i)
        # the centre may move: the deformations move it
        b, u = k.b.copy(), k.u.copy()
        b[half] = np.nextafter(b[half], np.inf)
        u[half] = np.nextafter(u[half], np.inf)
        seen.clear()
        eigenvalues(MonicJacobi(b, u))
        assert {r.tail.size for r in seen} == {1 + n % 2}

    @pytest.mark.parametrize("n", [2, 6])
    def test_centre_couplings_summing_past_the_double_range_take_the_full_chain(
            self, monkeypatch, n):
        # u_{L-1} + u_L overflows: the folded tail pivot would be an infinity
        # signed by d_{L-1} alone, and the outer brackets would run out to
        # the ends of the starting interval
        k = _random_persymmetric(np.random.default_rng(3023), n)
        u = k.u / np.max(k.u) * 1.44e308
        u[n // 2 - 1:n // 2 + 1] = 1.44e308
        k = MonicJacobi(k.b, u)
        assert _ref_blocks(k) is None
        seen = _sweeps(monkeypatch, take=lambda rows, xs, scale: rows)
        got = eigenvalues(k).values
        assert {r.tail.size for r in seen} == {0}
        assert got.tobytes() == _ref_eigenvalues(k).tobytes()
        want = scipy.linalg.eigh_tridiagonal(k.b, np.sqrt(k.u), eigvals_only=True)
        assert _within_forward_bound(got, want)
        # every eigenvalue inside the spectral radius 2 max a, not at the ends
        # of the starting interval, as the folded count left the outer two
        assert np.max(np.abs(got)) <= 2.0 * math.sqrt(1.44e308)


def _grid_step(k: MonicJacobi) -> float:
    """The solver's grid step for ``k``."""
    return _ref_grid_step(*jacobi._start(k.b, k.u))


def _guides(k: MonicJacobi, x: np.ndarray) -> list[np.ndarray]:
    """Guesses at the spectrum ``x`` of ``k``: exact, a few ulps off, off by
    the grid step either way, far off, all zeros, in reverse order and at
    either end of the double range."""
    ulps = 3.0 * np.spacing(np.abs(x))
    far = 1e-3 * max(1.0, float(np.max(np.abs(x))))
    return [x, x + ulps, x - ulps, x + _grid_step(k), x - _grid_step(k),
            x + far, np.zeros_like(x), x[::-1], np.full_like(x, 1.7e308),
            np.full_like(x, -1.7e308)]


def _sweeps(monkeypatch, take=lambda rows, xs, scale: xs.copy()) -> list:
    """The points of every Sturm sweep from here on, in call order, or what
    ``take`` picks of the rows, points and scale of each."""
    seen = []
    inner = jacobi._sturm_count

    def spy(r, xs, scale=None):
        seen.append(take(r, xs, scale))
        return inner(r, xs, scale)

    monkeypatch.setattr(jacobi, "_sturm_count", spy)
    return seen


def _unguided(monkeypatch) -> None:
    """From here on an eigensolve called without a guess runs unguided at
    every size: the dense estimate that guides it up to ``_DENSE_POINTS``
    points is patched out."""
    monkeypatch.setattr(jacobi, "_DENSE_POINTS", 0)


def _first_ladder(monkeypatch) -> list:
    """The grid indices of the first sweep from here on, the ladder's."""
    seen = []
    inner = jacobi._narrow

    def spy(r, q, pts, cell, val, scale=None):
        if not seen:
            seen.append(pts.copy())
        inner(r, q, pts, cell, val, scale)

    monkeypatch.setattr(jacobi, "_narrow", spy)
    return seen


def _clipped_ladder(k: MonicJacobi, near: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``np.unique`` of the grid indices ``offsets`` around each guess of
    ``near``, the guesses clipped to the starting cell and the ladder to
    the points inside it."""
    lo0, hi0 = jacobi._start(k.b, k.u)
    q = _ref_grid_step(lo0, hi0)
    lo, hi = math.floor(lo0 / q), math.ceil(hi0 / q)
    with np.errstate(over="ignore"):
        at = np.clip(near / q, lo, hi).astype(np.int64)
    return np.unique(np.clip(at[:, None] + offsets, lo + 1, hi - 1))


def _random_gap_reconstruction(n1: int, seed: int = 0):
    """``hl``'s matrix for ``n1`` points with random gaps, and the points."""
    rng = np.random.default_rng(seed)
    x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n1 - 1))))
    x = 2.0 * x / x[-1] - 1.0
    return reconstruct_half_lattice(Spectrum(x)), x


class TestGuidedEigenvalues:
    """``eigenvalues(K, near=g)`` is ``eigenvalues(K)`` to the last bit."""

    def test_bits_do_not_depend_on_the_guess(self, monkeypatch):
        # against a truly unguided solve; the dense estimate is one more guess
        for k in _forward_family():
            with monkeypatch.context() as m:
                _unguided(m)
                want = eigenvalues(k).values
            assert eigenvalues(k).values.tobytes() == want.tobytes(), k.n
            for g in _guides(k, want):
                assert eigenvalues(k, near=g).values.tobytes() == want.tobytes(), k.n

    def test_near_degenerate_pair_fails_with_the_same_message_for_any_guess(self, monkeypatch):
        k = MonicJacobi(np.abs(np.arange(-15.0, 16.0)), np.ones(30))
        with monkeypatch.context() as m:
            _unguided(m)
            with pytest.raises(NumericalError) as want:
                eigenvalues(k)
        dense = np.linalg.eigvalsh(SymmetricJacobi.from_monic(k).dense())
        for g in [None, *_guides(k, dense)]:
            with pytest.raises(NumericalError) as got:
                eigenvalues(k, near=g)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("near", [[0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]], [0.0, np.nan]])
    def test_malformed_guess_is_a_value_error(self, near):
        with pytest.raises(ValueError):
            eigenvalues(MonicJacobi([0.0, 0.0], [1.0]), near=near)
        if len(near) != 1:
            with pytest.raises(ValueError):
                eigenvalues(MonicJacobi([5.0], []), near=near)

    @pytest.mark.parametrize("spectrum", ["random-gap", "equally-spaced"])
    def test_own_spectrum_needs_at_most_two_sweeps_at_11_points(self, monkeypatch, spectrum):
        # the reconstruction's eigenvalues lie a few ulps off the points it
        # was built from: the ladder sweep leaves each in a cell that one
        # multisection sweep finishes.  The middle point of the equally
        # spaced spectrum is the midpoint of the starting interval.
        if spectrum == "random-gap":
            k, x = _random_gap_reconstruction(11)
        else:
            x = np.linspace(-1.0, 1.0, 11)
            k = reconstruct_half_lattice(Spectrum(x))
        want = eigenvalues(k).values
        sweeps = _sweeps(monkeypatch)
        assert eigenvalues(k, near=x).values.tobytes() == want.tobytes()
        assert len(sweeps) <= 2

    def test_guess_saves_sweeps_over_no_guess_at_129_points(self, monkeypatch):
        # a guess right to the last few ulps counts fewer points in fewer
        # sweeps; one right to about nine digits still spares the sweeps
        # above its rung of the ladder, though its ladder sweep, 23 points a
        # guess, can count more points than no guess does
        k, x = _random_gap_reconstruction(129)
        sweeps = _sweeps(monkeypatch)
        want = eigenvalues(k).values
        unguided = (len(sweeps), sum(s.size for s in sweeps))
        for g in (x, want + 1e-9):
            sweeps.clear()
            assert eigenvalues(k, near=g).values.tobytes() == want.tobytes()
            assert len(sweeps) < unguided[0]
            if g is x:
                assert sum(s.size for s in sweeps) < unguided[1]

    def test_ladder_sweep_larger_than_one_block(self, monkeypatch):
        # 23 ladder points for each of 1500 brackets: more than one block holds
        rng = np.random.default_rng(3011)
        k = MonicJacobi(rng.uniform(-1.0, 1.0, 1500), rng.uniform(0.1, 1.4, 1499))
        want = eigenvalues(k).values
        sweeps = _sweeps(monkeypatch)
        for g in (want, want + _grid_step(k)):
            sweeps.clear()
            ladder = _first_ladder(monkeypatch)
            assert eigenvalues(k, near=g).values.tobytes() == want.tobytes()
            assert sweeps[0].size > jacobi._BLOCK
            # the points np.unique would give, each counted once, in order
            assert np.all(np.diff(ladder[0]) > 0)
            assert np.array_equal(ladder[0], _clipped_ladder(k, g, jacobi._LADDER))

    @pytest.mark.parametrize("far", [1e300, 1.7e308, -1.7e308])
    def test_guess_at_the_ends_of_the_double_range(self, monkeypatch, far):
        # the guesses are clipped into the starting cell before they turn
        # into grid indices, so nothing overflows and nothing warns; every
        # guess lands on the same end, and the ladder counts each point once
        k, _ = _random_gap_reconstruction(11)
        want = eigenvalues(k).values
        near = np.full(want.size, far)
        ladder = _first_ladder(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigenvalues(k, near=near).values
        assert got.tobytes() == want.tobytes()
        assert np.all(np.diff(ladder[0]) > 0)
        assert np.array_equal(ladder[0], _clipped_ladder(k, near, jacobi._LADDER))


class TestMultisection:
    def test_sturm_count_is_monotone(self):
        # the property the solver rests on: ``_narrow`` reads every
        # bracket's cell off by count rank, whichever points it counts
        ulps = np.arange(-60.0, 61.0)
        rel = np.linspace(-1e-12, 1e-12, 41)
        for k in _forward_family():
            x = eigenvalues(k).values
            scale = float(np.max(np.abs(x)))
            # the first midpoint too: the zero-pivot members meet their clamp there
            lo0, hi0 = jacobi._start(k.b, k.u)
            mid = 0.5 * (lo0 + hi0)
            centres = np.append(x, mid)
            pts = np.unique(np.concatenate((
                (centres[:, None] + ulps * np.spacing(centres)[:, None]).ravel(),
                (centres[:, None] + rel * scale).ravel())))
            with np.errstate(all="ignore"):
                cnt, _ = jacobi._sturm_count(jacobi._fold(k.b, k.u), pts)
            assert np.all(np.diff(cnt) >= 0), k.n

    def test_any_counted_points_leave_the_same_bits(self, monkeypatch):
        # random subsets of the points an unguided solve counts, and random
        # grid points near the eigenvalues and anywhere in the starting
        # cell, counted before the multisection, every other time with the
        # values that feed the secant steps: the cells it ends in, and so
        # the bits, are the same
        rng = np.random.default_rng(3014)
        inner = jacobi._narrow
        _unguided(monkeypatch)
        for k in _forward_family():
            seen, extra = [], []

            def spy(r, q, pts, cell, val, scale=None):
                seen.append(pts)
                if extra:
                    more, logs = extra.pop()
                    inner(r, q, more, cell, val, np.ldexp(q, 55) if logs else None)
                inner(r, q, pts, cell, val, scale)

            monkeypatch.setattr(jacobi, "_narrow", spy)
            want = eigenvalues(k).values
            if not seen:
                continue
            counted = np.unique(np.concatenate(seen))
            lo0, hi0 = jacobi._start(k.b, k.u)
            q = _ref_grid_step(lo0, hi0)
            cell = (math.floor(lo0 / q) + 1, math.ceil(hi0 / q))
            for trial in range(4):
                near = np.floor(want / q).astype(np.int64)[:, None] + rng.integers(-40, 41, 5)
                extra.append((np.unique(np.clip(np.concatenate((
                    rng.choice(counted, int(rng.integers(1, counted.size + 1)), replace=False),
                    near.ravel(), rng.integers(*cell, 20))), cell[0], cell[1] - 1)), trial % 2))
                assert eigenvalues(k).values.tobytes() == want.tobytes(), k.n
                assert not extra


def _multisection_sweeps(k: MonicJacobi) -> int:
    """Sweeps of the plain multisection, with no secant step: each distinct
    open cell split into the most power-of-two parts whose inner points fit
    in ``_SWEEP_WIDTH``, from the starting cell down to one grid step."""
    b, u = k.b, k.u
    if b.size == 1:
        return 0
    with np.errstate(all="ignore"):
        lo0, hi0 = jacobi._start(b, u)
        rows, q = jacobi._fold(b, u), _ref_grid_step(lo0, hi0)
        lo = np.full(b.size, math.floor(lo0 / q), dtype=np.int64)
        hi = np.full(b.size, math.ceil(hi0 / q), dtype=np.int64)
        sweeps = 0
        while True:
            cell, first = np.unique(lo, return_index=True)
            width = hi[first] - cell
            cell, width = cell[width > 1, None], width[width > 1, None]
            if not cell.size:
                return sweeps
            fit = max(1, (jacobi._SWEEP_WIDTH // cell.size + 1).bit_length() - 1)
            parts = 1 << min(fit, (int(np.max(width)) - 1).bit_length())
            step = (width * (np.arange(1, parts) / parts)).astype(np.int64)
            pts = (cell + np.clip(step, 1, width - 1)).ravel()
            cnt, _ = jacobi._sturm_count(rows, pts * q)
            at = np.searchsorted(cnt, np.arange(b.size), side="right")
            ends = np.concatenate((lo[:1], pts, hi[-1:]))
            lo, hi = np.maximum(lo, ends[at]), np.minimum(hi, ends[at + 1])
            sweeps += 1


def _scales(monkeypatch) -> list:
    """The ``scale`` of every Sturm sweep from here on: ``None`` where the
    sweep counts only, and takes no ``log|det|``."""
    return _sweeps(monkeypatch, take=lambda rows, xs, scale: scale)


def _deformed_32_point_matrices():
    """Sixteen deformed 32-point matrices, like the ``deform`` benchmark's:
    ten of random-gap and two of equally spaced spectra, then four random
    persymmetric ones, whose close pairs isolate late."""
    rng = np.random.default_rng(3017)
    for i in range(16):
        if i < 12:
            k = _random_gap_reconstruction(32, seed=i)[0] if i < 10 else _equally_spaced(31, 0.1 * i)
        else:
            k = _random_persymmetric(rng, 31)
        yield i, _deformed(k, float(rng.uniform(0.1, 0.6))).to_monic()


class TestSecantSteps:
    """Secant steps on ``log|det(J - x)|`` inside isolated cells: fewer
    sweeps, never more than the plain multisection, and the same bits."""

    def test_log_det_is_the_sum_of_the_pivot_logs(self):
        # against the row-by-row pivots of the blocks, or of the whole chain,
        # at 40 points, so that one block of the chain holds every row: the
        # value is exact wherever each partial product of the pivots stays
        # in the normal double range
        rng = np.random.default_rng(3015)
        exact = 0
        for k in _forward_family():
            if k.b.size == 1:
                continue
            lo0, hi0 = jacobi._start(k.b, k.u)
            scale = np.ldexp(_ref_grid_step(lo0, hi0), 55)
            x = eigenvalues(k).values
            pts = np.sort(np.concatenate((np.nextafter(rng.choice(x, min(x.size, 20)), np.inf),
                                          rng.uniform(lo0, hi0, 20))))
            pivmin = 1e-292 * max(1.0, float(np.max(k.u)))
            want, inside = 0.0, True
            for bb, uu in _ref_blocks(k) or [(k.b, k.u)]:
                logs = np.cumsum([np.log(np.abs(d / scale)) for d in _ref_pivots(bb, uu, pts, pivmin)],
                                 axis=0)
                want, inside = want + logs[-1], inside & np.all(np.abs(logs) < 700.0, axis=0)
            with np.errstate(all="ignore"):
                cnt, got = jacobi._sturm_count(jacobi._fold(k.b, k.u), pts, scale)
            assert np.array_equal(cnt, _ref_count(k, pts, pivmin)), k.n
            assert np.allclose(got[inside], want[inside], rtol=1e-12, atol=1e-9), k.n
            exact += int(np.sum(inside))
        assert exact >= 3000

    def test_no_family_member_takes_more_sweeps_than_plain_multisection(self, monkeypatch):
        # an aimed cell gets the secant point, its rungs and the midpoint in
        # place of the multisection's points: the midpoint at least halves it
        _unguided(monkeypatch)
        sweeps = _sweeps(monkeypatch)
        fewer = 0
        for k in _forward_family():
            plain = _multisection_sweeps(k)
            sweeps.clear()
            eigenvalues(k)
            assert len(sweeps) <= plain, k.n
            fewer += len(sweeps) < plain
        assert fewer >= 40

    @pytest.mark.parametrize("n1, bound, plain", [(11, 5, 11), (32, 6, 13), (129, 6, 25),
                                                  (513, 8, 48)])
    def test_unguided_sweeps(self, monkeypatch, n1, bound, plain):
        k, _ = _random_gap_reconstruction(n1)
        assert _multisection_sweeps(k) == plain
        _unguided(monkeypatch)
        sweeps = _sweeps(monkeypatch)
        eigenvalues(k)
        assert len(sweeps) <= bound

    @pytest.mark.parametrize("n1, most, points", [(11, 2, 470), (32, 3, 1005), (129, 3, 3685),
                                                  (513, 6, 13109)])
    def test_guided_sweeps_and_points_are_the_plain_multisections(self, monkeypatch, n1, most,
                                                                  points):
        # the round trip's guess leaves cells the multisection finishes, or
        # so narrow that a secant step would not pay for its logs
        k, x = _random_gap_reconstruction(n1)
        sweeps = _sweeps(monkeypatch)
        eigenvalues(k, near=x)
        assert len(sweeps) <= most
        assert sum(s.size for s in sweeps) <= points

    @pytest.mark.parametrize("n1", [10, 11, 129, 513])
    def test_guided_round_trip_takes_no_logs_on_its_ladder(self, monkeypatch, n1):
        # guided by the spectrum it was built from, as ``verify`` checks a
        # reconstruction, no sweep takes them up to 11 points; a guess off by
        # about 1e-6 leaves cells wide enough for secant steps after it
        if n1 == 10:
            x = np.linspace(-1.0, 1.0, n1)
            k = reconstruct_half_lattice(Spectrum(x))
        else:
            k, x = _random_gap_reconstruction(n1)
        noise = 1e-6 * np.random.default_rng(3016).standard_normal(n1)
        for g in (x, x + noise):
            scales = _scales(monkeypatch)
            eigenvalues(k, near=g)
            assert scales[0] is None
            if g is x and n1 <= 11:
                assert all(s is None for s in scales)

    def test_deformed_32_point_matrices_take_at_most_6_sweeps(self, monkeypatch):
        # spectra like the ``deform`` benchmark's: random gaps and equally
        # spaced points; random persymmetric matrices, whose close pairs
        # isolate late, take at most 7.  Unguided: at 32 points the
        # solve is otherwise guided by the dense estimate (TestDenseEstimate)
        _unguided(monkeypatch)
        points = []
        for i, deformed in _deformed_32_point_matrices():
            seen = _sweeps(monkeypatch, take=lambda rows, xs, scale: (xs.size, scale))
            eigenvalues(deformed)
            assert len(seen) <= (6 if i < 12 else 7), i
            # the first sweep takes the logs, so the second aims
            assert seen[0][1] is not None, i
            if i < 12:
                points.append(sum(size for size, _ in seen))
        assert np.mean(points) <= 1700


def _solve(k: MonicJacobi) -> bytes | str:
    """The eigenvalue bytes of ``k``, or the message of its ``NumericalError``."""
    try:
        return eigenvalues(k).values.tobytes()
    except NumericalError as exc:
        return str(exc)


# the sizes the dense estimate guides, read before any test patches it out
_DENSE_POINTS = jacobi._DENSE_POINTS


def _dense_family():
    """The ``_forward_family`` members of 2 to 64 points, the sizes the dense
    estimate guides, and four that raise: Wilkinson's near-degenerate pair,
    a starting interval of one double, and two spread past double range."""
    yield from (k for k in _forward_family() if 2 <= k.b.size <= _DENSE_POINTS)
    yield MonicJacobi(np.abs(np.arange(-15.0, 16.0)), np.ones(30))
    yield MonicJacobi([1e300, 1e300], [1.0])
    yield MonicJacobi([-1e308, 1e308], [1.0])
    yield MonicJacobi([1e300, 0.0, 1e300], [1.0, 1.0])


def _solves_and_sweeps(monkeypatch) -> list[tuple[bytes | str, int]]:
    """``_solve`` of each ``_dense_family`` member, with its number of
    sweeps, under warnings as errors."""
    sweeps = _sweeps(monkeypatch)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in _dense_family():
            sweeps.clear()
            out.append((_solve(k), len(sweeps)))
    return out


class TestDenseEstimate:
    """An eigensolve of at most ``_DENSE_POINTS`` points called without a
    guess is guided by LAPACK's dense eigenvalues: fewer sweeps, the same
    bits and the same errors as the unguided solve."""

    def test_guides_only_unguided_solves_of_at_most_64_points(self, monkeypatch):
        calls = []
        inner = np.linalg.eigvalsh

        def spy(m):
            calls.append(m.shape)
            return inner(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for n1 in (2, 3, 11, 32, 64):
            k, x = _random_gap_reconstruction(n1)
            calls.clear()
            eigenvalues(k)
            assert calls == [(n1, n1)]
            calls.clear()
            eigenvalues(k, near=x)
            assert not calls
        eigenvalues(MonicJacobi([0.5], []))
        eigenvalues(_random_gap_reconstruction(65)[0])
        assert not calls

    def test_same_bits_and_messages_as_the_unguided_solve_in_fewer_sweeps(self, monkeypatch):
        with monkeypatch.context() as m:
            _unguided(m)
            want = _solves_and_sweeps(m)
        got = _solves_and_sweeps(monkeypatch)
        assert [v for v, _ in got] == [v for v, _ in want]
        assert sum(isinstance(v, str) for v, _ in got) == 4
        assert all(g <= w for (_, g), (_, w) in zip(got, want))
        assert sum(g < w for (_, g), (_, w) in zip(got, want)) >= len(got) - 5

    @pytest.mark.parametrize("fault", ["LinAlgError", "nan", "inf", "-inf", "shifted"])
    def test_a_failing_estimate_runs_the_unguided_solve(self, monkeypatch, fault):
        # the same bits, the same messages and the same sweeps as with the
        # estimate patched out, and no warning: the estimate never reaches
        # the validation of a caller's guess.  An estimate shifted by 1e-6
        # of its radius, about 2**34 grid steps, lies far outside the dense
        # ladder: it still gives the same bits and messages, at the cost of
        # at most the ladder's sweep
        with monkeypatch.context() as m:
            _unguided(m)
            want = _solves_and_sweeps(m)
        inner = np.linalg.eigvalsh

        def broken(m):
            if fault == "LinAlgError":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            x = inner(m)
            if fault == "shifted":
                return x + 1e-6 * np.max(np.abs(x))
            x[x.size // 2] = float(fault)
            return x

        monkeypatch.setattr(np.linalg, "eigvalsh", broken)
        got = _solves_and_sweeps(monkeypatch)
        if fault == "shifted":
            assert [v for v, _ in got] == [v for v, _ in want]
            assert all(g <= w + 1 for (_, g), (_, w) in zip(got, want))
        else:
            assert got == want

    @pytest.mark.parametrize("n1, most", [(11, 2), (32, 2), (64, 3)])
    def test_reconstructions_take_2_sweeps_to_32_points_3_at_64_and_no_logs(self, monkeypatch,
                                                                              n1, most):
        # unguided they take 5, 6 and 6 (TestSecantSteps)
        k, _ = _random_gap_reconstruction(n1)
        scales = _scales(monkeypatch)
        eigenvalues(k)
        assert len(scales) <= most
        assert all(s is None for s in scales)

    def test_deformed_32_point_matrices_take_at_most_3_sweeps(self, monkeypatch):
        # the matrices of TestSecantSteps's unguided test: the first sweep is
        # the dense ladder around the estimate and takes no logs; the
        # estimate lands some tens of grid steps off, inside the ladder's
        # rungs, so one multisection sweep mostly finishes, about 770
        # points where unguided it takes 1,600
        sweeps, points = [], []
        for i, deformed in _deformed_32_point_matrices():
            seen = _sweeps(monkeypatch, take=lambda rows, xs, scale: (xs.size, scale))
            eigenvalues(deformed)
            assert len(seen) <= 3, i
            assert seen[0][1] is None, i
            sweeps.append(len(seen))
            points.append(sum(size for size, _ in seen))
        assert np.mean(sweeps) <= 2.2
        assert np.mean(points) <= 800


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

    def test_array_of_eigenvalues_closer_than_the_duplicate_gap(self):
        # the deformed random persymmetric 32-point members of the family
        # have two eigenvalues 8.2e-14 of the radius apart, which
        # ``Spectrum.from_values`` takes for duplicates; as an array, in any
        # order, they give the Spectrum's weights and mirror residual
        close = 0
        for k in _forward_family():
            spec = eigenvalues(k)
            x = spec.values
            if x.size < 2 or np.min(np.diff(x)) > jacobi._DUP_REL * spec.radius:
                continue
            close += 1
            with pytest.raises(ValueError):
                Spectrum.from_values(x)
            want = weights_general(k, spec).w.tobytes()
            for nodes in (x, x[::-1], list(x)):
                assert weights_general(k, nodes).w.tobytes() == want
                assert mirror_residual(k, nodes) == mirror_residual(k, spec)
            # an exact duplicate is still malformed input
            twice = np.concatenate((x[:1], x[:-1]))
            with pytest.raises(ValueError):
                weights_general(k, twice)
            with pytest.raises(ValueError):
                mirror_residual(k, twice)
        assert close >= 2

    def test_rejects_size_mismatch_and_foreign_spectrum(self):
        k = MonicJacobi([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            weights_general(k, [0.0, 1.0, 2.0])
        with pytest.raises(NumericalError):
            weights_general(k, [0.0, 1.0])  # P_1 vanishes at 0


class TestForwardProblem:
    """``eigenvalues`` then ``weights_general``, as ``persymjac forward`` runs them,
    on matrices that the characteristic-polynomial weight formula failed."""

    def test_random_32_point_weights_match_scipy(self):
        rng = np.random.default_rng(1)
        k = SymmetricJacobi(rng.uniform(-1.0, 1.0, 32), rng.uniform(0.3, 1.0, 31)).to_monic()
        got = weights_general(k, eigenvalues(k)).w
        want, tol = _scipy_weights(k)
        assert np.max(np.abs(got - want)) <= tol
        assert abs(got[30] - 5.82e-2) <= 1e-4

    @pytest.mark.parametrize("n", (62, 128, 256))
    def test_equally_spaced_weights_are_binomial(self, n):
        # the closed form: w_s = C(N, s) / 2**N on the points -1 + 2s/N
        k = _equally_spaced(n, 0.0)
        spec = eigenvalues(k)
        assert np.max(np.abs(spec.values - (-1.0 + (2.0 / n) * np.arange(n + 1)))) <= 1e-14
        want = np.array([math.comb(n, s) for s in range(n + 1)]) / 2.0 ** n
        assert np.max(np.abs(weights_general(k, spec).w - want)) <= 1e-14

    def test_half_lattice_reconstructions_of_65_points(self):
        for seed in range(20):
            fam = SpectrumFamily("random-gap", 64, {"seed": seed, "min_gap": 0.05})
            k = reconstruct_half_lattice(generate_spectrum(fam))
            got = weights_general(k, eigenvalues(k)).w
            want, tol = _scipy_weights(k)
            assert np.max(np.abs(got - want)) <= tol, seed

    def test_tiny_persymmetric_matrices(self):
        # an absolute bracket width of 1e-13 could not separate these
        rng = np.random.default_rng(12)
        for _ in range(60):
            scale = 10.0 ** -rng.uniform(14.0, 20.0)
            b = _palindrome(rng, 12, -1.0, 1.0)
            a = _palindrome(rng, 11, 0.3, 1.2)
            k = SymmetricJacobi(b * scale, a * scale).to_monic()
            spec = eigenvalues(k)
            unit = SymmetricJacobi(b, a).to_monic()
            want_x = scipy.linalg.eigh_tridiagonal(b, a, eigvals_only=True)
            assert np.max(np.abs(spec.values / scale - want_x)) <= 1e-14
            want, tol = _scipy_weights(unit)
            assert np.max(np.abs(weights_general(k, spec).w - want)) <= tol

    def test_foreign_spectrum_names_the_node_and_its_residual(self):
        k = MonicJacobi([0.0, 0.0], [1.0])
        with pytest.raises(NumericalError, match=r"node x_0 = 0 has residual 1\.000e\+00"):
            weights_general(k, [0.0, 1.0])

    def test_eigenvalues_scale_exactly_with_powers_of_two(self):
        rng = np.random.default_rng(3)
        k = reconstruct_half_lattice(Spectrum.from_values(rng.uniform(-1.0, 1.0, 12)))
        # a half-lattice reconstruction is exactly palindromic: it folds
        assert _folds(k)
        self._scales_exactly(k)

    @pytest.mark.parametrize("theta", [0.4, 1.1])
    @pytest.mark.parametrize("size", [11, 12])
    def test_deformed_eigenvalues_scale_exactly_with_powers_of_two(self, theta, size):
        rng = np.random.default_rng(3)
        k = reconstruct_half_lattice(Spectrum.from_values(rng.uniform(-1.0, 1.0, size)))
        k = _deformed(k, theta).to_monic()
        assert _folds(k)
        self._scales_exactly(k)

    @staticmethod
    def _scales_exactly(k: MonicJacobi):
        base = eigenvalues(k).values
        for e in range(-500, 451, 10):
            scaled = MonicJacobi(np.ldexp(k.b, e), np.ldexp(k.u, 2 * e))
            assert eigenvalues(scaled).values.tobytes() == np.ldexp(base, e).tobytes(), e


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

    def test_differences_past_double_range_are_scaled_first(self):
        # x_s - x_t overflows at +-1e308: the spectrum is differenced
        # scaled by 2**-2, and 2 * 2 * log 2 comes off every row's log.
        # Logs of differences near 2.5e307 carry ~1e-13 each, so the
        # weights are 1/4, 1/2, 1/4 to about 1e-14, not to the last bit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, h = weights_persymmetric([-1e308, 0.0, 1e308])
        assert np.max(np.abs(t.w - np.array([0.25, 0.5, 0.25]))) <= 1e-13
        assert h == np.inf

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
    def test_is_persymmetric_overflowing_difference_is_not_persymmetric(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_persymmetric(SymmetricJacobi([-1e308, 1e308], [1.0]))

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

    @pytest.mark.parametrize("n", (41, 129, 513, 1025))
    def test_exact_on_half_lattice_reconstructions_without_warnings(self, n):
        x = np.linspace(-1.0, 1.0, n)
        k = reconstruct_half_lattice(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mirror_residual(k, x) <= 1e-12

    def test_twisted_vectors_are_scipys_eigenvectors(self):
        # the signed unit vectors mirror_residual measures are SciPy's
        # eigenvectors up to the sign of each, within 8 times the
        # first-order error eps * max|x| / (least gap) of an eigenvector;
        # on the persymmetric draws the mirror relation holds to twice that
        rng = np.random.default_rng(3019)
        eps = np.finfo(float).eps
        for i in range(200):
            if i % 2:
                k = _random_persymmetric(rng, int(rng.integers(1, 48)))
            else:
                n1 = int(rng.integers(2, 81))
                k = MonicJacobi(rng.uniform(-1.0, 1.0, n1), rng.uniform(0.3, 1.2, n1 - 1) ** 2)
            x, vecs = scipy.linalg.eigh_tridiagonal(k.b, np.sqrt(k.u))
            tol = 8.0 * eps * float(np.max(np.abs(x))) / float(np.min(np.diff(x)))
            with np.errstate(all="ignore"):
                q = np.hstack([sign * np.exp(lz - lnorm) for _, lz, sign, lnorm, _
                               in jacobi._twisted(k, eigenvalues(k).values)])
            cols = np.arange(x.size)
            big = np.argmax(np.abs(vecs), axis=0)
            vecs *= np.sign(vecs[big, cols]) * np.sign(q[big, cols])
            assert np.max(np.abs(q - vecs)) <= tol, (i, k.n)
            if i % 2:
                assert mirror_residual(k, eigenvalues(k)) <= 2.0 * tol, (i, k.n)
