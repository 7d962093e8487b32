"""Tests for the isospectral center-block deformations.

The two constructions (explicit conjugation by the mixing involution,
and the closed-form edit of the central entries) are checked against
each other on seeded persymmetric matrices of both parities, and the
deformed weight/polynomial formulas are checked, for both parities,
against a full re-solution of the forward problem for the deformed
matrix and against SciPy's eigenvectors of it (SciPy is a test-only
oracle).
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from persymjac.deformation import (build_involution, deform_closed_form,
                                   deform_conjugate, deformed_polynomials,
                                   deformed_weights)
from persymjac.errors import NumericalError
from persymjac.jacobi import (MonicJacobi, SymmetricJacobi, WeightTable, _mirror_signs,
                              eigenvalues, recurrence_polynomials, weights_general,
                              weights_persymmetric)

ROOT3 = np.sqrt(3.0)


def _palindrome(rng: np.random.Generator, length: int, lo: float, hi: float) -> np.ndarray:
    half = rng.uniform(lo, hi, (length + 1) // 2)
    return np.concatenate((half, half[: length // 2][::-1]))


def _random_persymmetric(rng: np.random.Generator, n: int) -> SymmetricJacobi:
    b = _palindrome(rng, n + 1, -1.0, 1.0)
    a = _palindrome(rng, n, 0.3, 1.2)
    return SymmetricJacobi(b, a)


def _safe_angles(count: int = 16) -> np.ndarray:
    """Angles over a full period staying away from cos(2 theta) = 0."""
    grid = np.linspace(0.0, 2.0 * np.pi, 4 * count, endpoint=False)
    keep = grid[np.abs(np.cos(2.0 * grid)) >= 0.05]
    return keep[:count]


# ----------------------------------------------------------------------
# the involution
# ----------------------------------------------------------------------


class TestInvolution:
    def test_two_point_layout(self):
        theta = 0.7
        s, c = np.sin(theta), np.cos(theta)
        assert np.array_equal(build_involution(2, theta), [[s, c], [c, -s]])

    def test_theta_zero_is_the_reversal(self):
        assert np.array_equal(build_involution(2, 0.0), [[0.0, 1.0], [1.0, 0.0]])
        want = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        assert np.array_equal(build_involution(3, 0.0), want)

    def test_single_point(self):
        assert np.array_equal(build_involution(1, 1.3), [[1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_involution(0, 0.0)

    def test_symmetric_and_involutive(self):
        for n_points in range(1, 14):
            for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
                v = build_involution(n_points, theta)
                assert np.array_equal(v, v.T)
                assert np.max(np.abs(v @ v - np.eye(n_points))) <= 1e-13


# ----------------------------------------------------------------------
# the two deformation constructions
# ----------------------------------------------------------------------


class TestClosedForm:
    def test_two_point_at_pi_over_six(self):
        j = deform_closed_form(SymmetricJacobi([0.0, 0.0], [1.0]), np.pi / 6.0)
        assert np.max(np.abs(j.b - np.array([ROOT3 / 2.0, -ROOT3 / 2.0]))) <= 1e-15
        assert np.max(np.abs(j.a - np.array([0.5]))) <= 1e-15

    def test_two_point_decouples_at_pi_over_four(self):
        j = deform_closed_form(SymmetricJacobi([0.0, 0.0], [1.0]), np.pi / 4.0)
        assert np.max(np.abs(j.b - np.array([1.0, -1.0]))) <= 1e-15
        assert abs(j.a[0]) <= 1e-15
        got = np.linalg.eigvalsh(j.dense())
        assert np.max(np.abs(got - np.array([-1.0, 1.0]))) <= 1e-12

    def test_even_n_preserves_coupling_energy(self):
        a_c = np.sqrt(0.5)
        j0 = SymmetricJacobi([0.0, 0.0, 0.0], [a_c, a_c])
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            j = deform_closed_form(j0, theta)
            assert np.array_equal(j.b, j0.b)
            assert abs(j.a[0] ** 2 + j.a[1] ** 2 - 1.0) <= 1e-14
            got = np.linalg.eigvalsh(j.dense())
            assert np.max(np.abs(got - np.array([-1.0, 0.0, 1.0]))) <= 1e-12

    def test_single_point_returns_equal_copy(self):
        j0 = SymmetricJacobi([3.0], [])
        j = deform_closed_form(j0, 0.9)
        assert np.array_equal(j.b, [3.0])
        assert j.b is not j0.b

    def test_rejects_non_persymmetric_input(self):
        j = SymmetricJacobi([0.0, 1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            deform_closed_form(j, 0.3)
        with pytest.raises(ValueError):
            deform_conjugate(j, 0.3)

    def test_theta_zero_is_the_identity(self):
        rng = np.random.default_rng(5001)
        j = _random_persymmetric(rng, 6)
        got = deform_closed_form(j, 0.0)
        assert np.array_equal(got.b, j.b)
        assert np.array_equal(got.a, j.a)

    def test_periodic_in_theta(self):
        rng = np.random.default_rng(5002)
        for n in (3, 4, 7, 10):
            j = _random_persymmetric(rng, n)
            for theta in (0.3, 1.1, 2.9):
                p1 = deform_closed_form(j, theta)
                p2 = deform_closed_form(j, theta + 2.0 * np.pi)
                assert np.max(np.abs(p1.b - p2.b)) <= 1e-13
                assert np.max(np.abs(p1.a - p2.a)) <= 1e-13


class TestConjugateAgreesWithClosedForm:
    def test_two_point_at_pi_over_six(self):
        j = deform_conjugate(SymmetricJacobi([0.0, 0.0], [1.0]), np.pi / 6.0)
        assert np.max(np.abs(j.b - np.array([ROOT3 / 2.0, -ROOT3 / 2.0]))) <= 1e-15
        assert np.max(np.abs(j.a - np.array([0.5]))) <= 1e-15

    def test_seeded_matrices_both_parities(self):
        rng = np.random.default_rng(5003)
        for n in range(1, 13):
            j = _random_persymmetric(rng, n)
            for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
                via_v = deform_conjugate(j, theta)
                direct = deform_closed_form(j, theta)
                assert np.max(np.abs(via_v.b - direct.b)) <= 1e-13
                assert np.max(np.abs(via_v.a - direct.a)) <= 1e-13

    def test_isospectrality(self):
        rng = np.random.default_rng(5004)
        for n in range(1, 13):
            j = _random_persymmetric(rng, n)
            want = eigenvalues(j.to_monic()).values
            for theta in _safe_angles():
                deformed = deform_closed_form(j, theta)
                got = eigenvalues(deformed.to_monic()).values
                assert np.max(np.abs(got - want)) <= 1e-10


# ----------------------------------------------------------------------
# deformed measure
# ----------------------------------------------------------------------


class TestDeformedWeights:
    def test_two_point_formula(self):
        table, _ = weights_persymmetric([-1.0, 1.0])
        got = deformed_weights(table, np.pi / 6.0)
        want = np.array([0.5 * (1.0 - ROOT3 / 2.0), 0.5 * (1.0 + ROOT3 / 2.0)])
        assert np.max(np.abs(got.w - want)) <= 1e-15
        assert abs(np.sum(got.w) - 1.0) <= 1e-15

    def test_theta_zero_is_the_identity(self):
        table, _ = weights_persymmetric([-1.5, -0.5, 0.5, 1.5])
        got = deformed_weights(table, 0.0)
        assert np.array_equal(got.w, table.w)

    def test_quarter_turn_empties_the_even_sublattice(self):
        table, _ = weights_persymmetric([-1.5, -0.5, 0.5, 1.5])
        got = deformed_weights(table, np.pi / 4.0)
        assert np.max(np.abs(got.w - np.array([0.0, 0.75, 0.0, 0.25]))) <= 1e-15

    def test_single_point_is_unchanged(self):
        table, _ = weights_persymmetric([0.3])
        assert deformed_weights(table, 0.7) is table

    def test_even_n_matches_scipy_on_the_deformed_matrix(self):
        # the closed-form table of the computed spectrum, as `deform
        # --weights` tilts it; the smallest relative gap here is 8.7e-4
        rng = np.random.default_rng(5008)
        for n_points in (3, 5, 9, 17):
            j = _random_persymmetric(rng, n_points - 1)
            table, _ = weights_persymmetric(eigenvalues(j.to_monic()))
            for theta in _safe_angles(8):
                got = deformed_weights(table, theta)
                deformed = deform_closed_form(j, theta)
                _, vec = eigh_tridiagonal(deformed.b, deformed.a)
                assert np.max(np.abs(got.w - vec[0] ** 2)) <= 1e-12
                assert abs(np.sum(got.w) - 1.0) <= 1e-12

    def test_matches_forward_solution_of_deformed_matrix(self):
        rng = np.random.default_rng(5005)
        for n in (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12):
            j = _random_persymmetric(rng, n)
            k = j.to_monic()
            spec = eigenvalues(k)
            table = weights_general(k, spec)
            for theta in _safe_angles(8):
                got = deformed_weights(table, theta)
                deformed = deform_closed_form(j, theta)
                want = weights_general(deformed.to_monic(), eigenvalues(deformed.to_monic()))
                assert np.max(np.abs(got.w - want.w)) <= 1e-9
                assert abs(np.sum(got.w) - 1.0) <= 1e-12

    def test_unequal_class_masses_are_a_numerical_error(self):
        # a well-formed table whose mirror classes carry 0.6 and 0.4
        table = WeightTable([-1.0, 0.0, 1.0], [0.4, 0.4, 0.2])
        with pytest.raises(NumericalError, match="mirror classes"):
            deformed_weights(table, np.pi / 12.0)
        # the forward-recurrence table of a 32-point persymmetric matrix
        # (draw 10) unbalances its classes by 3.3e-10; the tilt used to
        # raise ValueError("weights must sum to one")
        rng = np.random.default_rng(5)
        for _ in range(11):
            b = rng.uniform(-0.5, 0.5, 32)
            a = rng.uniform(0.5, 1.0, 31)
            k = SymmetricJacobi(0.5 * (b + b[::-1]), 0.5 * (a + a[::-1])).to_monic()
            theta = rng.uniform(0.1, 0.7, 5)[0]
        with pytest.raises(NumericalError, match="mirror classes"):
            deformed_weights(weights_general(k, eigenvalues(k)), theta)


# ----------------------------------------------------------------------
# deformed polynomials
# ----------------------------------------------------------------------


class TestDeformedPolynomials:
    def test_two_point_family(self):
        sys = recurrence_polynomials(MonicJacobi([0.0, 0.0], [1.0]))
        got = deformed_polynomials(sys, np.pi / 6.0)
        assert np.array_equal(got[0].coeffs, [1.0])
        # (x - sin 2t) / cos 2t with sin = sqrt(3)/2, cos = 1/2
        assert np.max(np.abs(got[1].coeffs - np.array([-ROOT3, 2.0]))) <= 1e-14

    def test_theta_zero_is_the_identity(self):
        sys = recurrence_polynomials(MonicJacobi([0.0] * 4, [0.75, 1.0, 0.75]))
        got = deformed_polynomials(sys, 0.0)
        for k in range(4):
            assert np.max(np.abs(got[k].coeffs - sys.orthonormal(k).coeffs)) <= 1e-15

    def test_lower_half_is_untouched(self):
        rng = np.random.default_rng(5006)
        b = _palindrome(rng, 8, -1.0, 1.0)
        a = _palindrome(rng, 7, 0.3, 1.2)
        sys = recurrence_polynomials(MonicJacobi(b, a * a))
        got = deformed_polynomials(sys, 0.8)
        for k in range((sys.n - 1) // 2 + 1):
            assert np.array_equal(got[k].coeffs, sys.orthonormal(k).coeffs)

    def test_singular_angle_is_refused(self):
        sys = recurrence_polynomials(MonicJacobi([0.0, 0.0], [1.0]))
        with pytest.raises(NumericalError):
            deformed_polynomials(sys, np.pi / 4.0)

    def test_single_point_family(self):
        sys = recurrence_polynomials(MonicJacobi([0.4], []))
        got = deformed_polynomials(sys, np.pi / 4.0)
        assert len(got) == 1
        assert np.array_equal(got[0].coeffs, [1.0])

    def test_even_n_rescales_the_centre(self):
        # three points: chi_1 = x / sqrt(0.5) and q_1 = chi_1 / (cos t + sin t)
        sys = recurrence_polynomials(MonicJacobi([0.0, 0.0, 0.0], [0.5, 0.5]))
        theta = 0.3
        got = deformed_polynomials(sys, theta)
        want = np.sqrt(2.0) / (np.cos(theta) + np.sin(theta))
        assert np.array_equal(got[0].coeffs, [1.0])
        assert np.max(np.abs(got[1].coeffs - np.array([0.0, want]))) <= 1e-15

    def test_matches_recurrence_of_deformed_matrix(self):
        rng = np.random.default_rng(5007)
        for n in (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12):
            j = _random_persymmetric(rng, n)
            k = j.to_monic()
            spec = eigenvalues(k)
            sys = recurrence_polynomials(k)
            for theta in _safe_angles(8):
                got = deformed_polynomials(sys, theta)
                deformed = deform_closed_form(j, theta)
                dsys = recurrence_polynomials(deformed.to_monic())
                # orthonormalize with the signed coupling products so the
                # sign convention matches the mixing formula
                prods = np.concatenate(([1.0], np.cumprod(deformed.a)))
                for m in range(n + 1):
                    want = dsys.polys[m](spec.values) / prods[m]
                    have = got[m](spec.values)
                    scale = max(1.0, float(np.max(np.abs(want))))
                    assert np.max(np.abs(have - want)) <= 1e-9 * scale


# ----------------------------------------------------------------------
# the valid angles
# ----------------------------------------------------------------------

# 2 theta overflows from |theta| = 2**1023 on, and its sine is NaN
_TOO_LARGE = [2.0 ** 1023, -2.0 ** 1023, np.nextafter(2.0 ** 1023, np.inf),
              np.finfo(float).max, np.float64(2.0 ** 1023), np.inf, -np.inf, np.nan]
_LARGEST_VALID = [np.nextafter(2.0 ** 1023, 0.0), -np.nextafter(2.0 ** 1023, 0.0), 1e300]


class TestAngleRange:
    @pytest.mark.parametrize("theta", _TOO_LARGE)
    @pytest.mark.parametrize("points", [1, 2, 3, 4])
    def test_too_large_an_angle_is_one_value_error(self, theta, points):
        j = SymmetricJacobi(np.zeros(points), np.ones(points - 1))
        table, _ = weights_persymmetric(eigenvalues(j.to_monic()))
        system = recurrence_polynomials(j.to_monic())
        message = f"deformation angle theta = {float(theta)!r} is out of range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: deform_closed_form(j, theta),
                         lambda: deformed_weights(table, theta),
                         lambda: deformed_polynomials(system, theta)):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value).startswith(message)
                assert "2**1023" in str(exc.value)

    @pytest.mark.parametrize("theta", _LARGEST_VALID)
    @pytest.mark.parametrize("points", [2, 3, 4, 5])
    def test_the_largest_valid_angles_keep_the_double_angle_sine(self, theta, points):
        rng = np.random.default_rng(5040 + points)
        j = _random_persymmetric(rng, points - 1)
        table, _ = weights_persymmetric(eigenvalues(j.to_monic()))
        tilt = np.sin(2.0 * theta)
        assert np.isfinite(tilt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = deformed_weights(table, theta).w
            except NumericalError:
                got = None
            deformed = deform_closed_form(j, theta)
        if got is not None:
            want = table.w * (1.0 + _mirror_signs(points - 1) * tilt)
            assert got.tobytes() == np.maximum(want, 0.0).tobytes()
        if points % 2 == 0:
            mid = points // 2 - 1
            assert deformed.a[mid] == j.a[mid] * np.cos(2.0 * theta)
            assert deformed.b[mid] == j.b[mid] + j.a[mid] * tilt
