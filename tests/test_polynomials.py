"""Tests for the dense polynomial layer.

Pinned small cases are checked exactly (their arithmetic is dyadic),
distribution-level properties run over seeded random draws, and the
structural algebra (degrees, monicity, division contracts) is fuzzed
with hypothesis on parameter ranges where double precision provably
holds the asserted tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persymjac.polynomials import (Polynomial, lagrange_interpolate, poly_derivative,
                                   poly_divrem, poly_from_roots)


def _coeffs(p: Polynomial, size: int) -> np.ndarray:
    """Coefficient vector padded with zeros up to ``size`` entries."""
    out = np.zeros(size)
    out[: p.coeffs.size] = p.coeffs
    return out


def _gapped_points(rng: np.random.Generator, count: int,
                   lo: float = -2.0, hi: float = 2.0, min_gap: float = 0.05) -> np.ndarray:
    """``count`` increasing points in [lo, hi] with consecutive gaps >= min_gap."""
    span = hi - lo
    if count == 1:
        return np.array([lo + rng.uniform(0.0, span)])
    need = min_gap * (count - 1)
    raw = rng.random(count - 1)
    extra = raw / raw.sum() * rng.uniform(0.0, span - need)
    gaps = min_gap + extra
    start = lo + rng.uniform(0.0, span - gaps.sum())
    return start + np.concatenate(([0.0], np.cumsum(gaps)))


# ----------------------------------------------------------------------
# construction and basic queries
# ----------------------------------------------------------------------


class TestPolynomialBasics:
    def test_zero_polynomial(self):
        z = Polynomial()
        assert z.is_zero
        assert z.degree == float("-inf")
        assert z(3.7) == 0.0
        with pytest.raises(ValueError):
            z.lead

    def test_all_zero_coefficients_normalize_to_zero(self):
        assert Polynomial([0.0, 0.0, 0.0]).is_zero

    def test_trailing_trim_is_relative(self):
        p = Polynomial([1.0, 1e-20])
        assert p.degree == 0
        # the same tiny number is kept when everything is tiny
        q = Polynomial([1e-20, 1e-20])
        assert q.degree == 1

    def test_rejects_non_finite_and_bad_shape(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, float("inf")])
        with pytest.raises(ValueError):
            Polynomial(np.ones((2, 2)))

    def test_coefficients_are_immutable(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_equality_and_hash(self):
        assert Polynomial([1.0, 2.0]) == Polynomial([1.0, 2.0, 0.0])
        assert Polynomial([1.0]) != Polynomial([2.0])
        assert len({Polynomial([1.0, 2.0]), Polynomial([1.0, 2.0])}) == 1

    def test_arithmetic_small_cases(self):
        x2m1 = Polynomial([-1.0, 0.0, 1.0])
        xp1 = Polynomial([1.0, 1.0])
        assert np.array_equal((x2m1 + xp1).coeffs, [0.0, 1.0, 1.0])
        assert np.array_equal((x2m1 - x2m1).coeffs, [])
        assert np.array_equal((-xp1).coeffs, [-1.0, -1.0])
        assert np.array_equal((xp1 * xp1).coeffs, [1.0, 2.0, 1.0])
        assert np.array_equal((2.0 * xp1).coeffs, [2.0, 2.0])
        assert (xp1 * Polynomial()).is_zero

    def test_monic_rescale(self):
        p = Polynomial([2.0, 4.0]).monic()
        assert np.array_equal(p.coeffs, [0.5, 1.0])
        assert p.lead == 1.0

    def test_evaluate_on_arrays(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        got = p(np.array([-2.0, 0.0, 2.0]))
        assert np.array_equal(got, [3.0, -1.0, 3.0])


# ----------------------------------------------------------------------
# pinned examples
# ----------------------------------------------------------------------


class TestFromRoots:
    def test_empty_root_list_gives_one(self):
        assert np.array_equal(poly_from_roots([]).coeffs, [1.0])

    def test_two_symmetric_roots(self):
        assert np.array_equal(poly_from_roots([-1.0, 1.0]).coeffs, [-1.0, 0.0, 1.0])

    def test_three_integer_roots(self):
        # (x)(x-1)(x-2) = x^3 - 3x^2 + 2x, sequential convolution is exact here
        assert np.array_equal(poly_from_roots([0.0, 1.0, 2.0]).coeffs, [0.0, 2.0, -3.0, 1.0])


class TestEval:
    def test_root_evaluates_to_zero(self):
        assert Polynomial([-1.0, 0.0, 1.0])(1.0) == 0.0

    def test_constant(self):
        assert Polynomial([1.0])(7.3) == 1.0

    def test_cubic_at_three(self):
        assert Polynomial([0.0, 2.0, -3.0, 1.0])(3.0) == 6.0


class TestDivRem:
    def test_exact_factor(self):
        q, r = poly_divrem(Polynomial([-1.0, 0.0, 1.0]), Polynomial([-1.0, 1.0]))
        assert np.array_equal(q.coeffs, [1.0, 1.0])
        assert r.is_zero

    def test_monomial_division(self):
        q, r = poly_divrem(Polynomial([1.0, 0.0, 1.0]), Polynomial([0.0, 1.0]))
        assert np.array_equal(q.coeffs, [0.0, 1.0])
        assert np.array_equal(r.coeffs, [1.0])

    def test_long_division(self):
        # (x^3 - x) / (x^2 - 3/4) = x with remainder -x/4
        q, r = poly_divrem(Polynomial([0.0, -1.0, 0.0, 1.0]), Polynomial([-0.75, 0.0, 1.0]))
        assert np.array_equal(q.coeffs, [0.0, 1.0])
        assert np.array_equal(r.coeffs, [0.0, -0.25])

    def test_smaller_numerator_passes_through(self):
        num = Polynomial([3.0, 1.0])
        q, r = poly_divrem(num, Polynomial([0.0, 0.0, 1.0]))
        assert q.is_zero
        assert r == num

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem(Polynomial([1.0]), Polynomial())


class TestDerivative:
    def test_quadratic(self):
        assert np.array_equal(poly_derivative(Polynomial([-1.0, 0.0, 1.0])).coeffs, [0.0, 2.0])

    def test_constant_derives_to_zero(self):
        assert poly_derivative(Polynomial([1.0])).is_zero
        assert poly_derivative(Polynomial()).is_zero

    def test_cubic(self):
        got = poly_derivative(Polynomial([0.0, -1.0, 0.0, 1.0]))
        assert np.array_equal(got.coeffs, [-1.0, 0.0, 3.0])


class TestInterpolate:
    def test_constant_data(self):
        p = lagrange_interpolate([(0.0, 1.0), (1.0, 1.0)])
        assert np.array_equal(p.coeffs, [1.0])

    def test_alternating_values_on_three_nodes(self):
        # the +-1 pattern on {-1, 0, 1} interpolates to 2x^2 - 1
        p = lagrange_interpolate([(-1.0, 1.0), (0.0, -1.0), (1.0, 1.0)])
        assert np.array_equal(p.coeffs, [-1.0, 0.0, 2.0])

    def test_cubic_data_on_three_nodes(self):
        p = lagrange_interpolate([(0.0, 0.0), (1.0, 1.0), (2.0, 8.0)])
        assert np.array_equal(p.coeffs, [0.0, -2.0, 3.0])

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(0.0, 1.0), (0.0, 2.0)])

    def test_empty_and_non_finite_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([])
        with pytest.raises(ValueError):
            lagrange_interpolate([(0.0, float("nan"))])


# ----------------------------------------------------------------------
# distribution-level properties (seeded)
# ----------------------------------------------------------------------


def test_random_root_sets_evaluate_to_zero():
    rng = np.random.default_rng(20101)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 11))
        roots = _gapped_points(rng, n)
        p = poly_from_roots(roots)
        assert p.degree == n
        assert p.lead == 1.0
        worst = max(worst, float(np.max(np.abs(p(roots)))))
    assert worst <= 1e-10


def test_division_round_trip_on_random_pairs():
    rng = np.random.default_rng(20102)
    worst = 0.0
    for _ in range(400):
        num = Polynomial(rng.uniform(-1.0, 1.0, int(rng.integers(1, 12))))
        den_c = rng.uniform(-1.0, 1.0, int(rng.integers(1, 12)))
        den_c[-1] = rng.uniform(0.1, 1.0)
        den = Polynomial(den_c)
        q, r = poly_divrem(num, den)
        assert r.is_zero or r.degree < den.degree
        back = q * den + r
        size = max(back.coeffs.size, num.coeffs.size)
        worst = max(worst, float(np.max(np.abs(_coeffs(back, size) - _coeffs(num, size)))))
    assert worst <= 1e-10


def test_interpolation_recovers_random_polynomials():
    # Well-separated nodes: recovering monomial coefficients from samples
    # on a tight cluster genuinely loses digits in double precision, so
    # the 1e-9 projector contract is asserted on spread-out node sets.
    rng = np.random.default_rng(20103)
    worst = 0.0
    for _ in range(200):
        deg = int(rng.integers(0, 11))
        n = int(rng.integers(deg, 11))
        p = Polynomial(rng.uniform(-1.0, 1.0, deg + 1))
        xs = _gapped_points(rng, n + 1, min_gap=0.25)
        q = lagrange_interpolate(zip(xs, np.atleast_1d(p(xs))))
        size = max(q.coeffs.size, p.coeffs.size)
        worst = max(worst, float(np.max(np.abs(_coeffs(q, size) - _coeffs(p, size)))))
    assert worst <= 1e-9


# ----------------------------------------------------------------------
# structural algebra (hypothesis)
# ----------------------------------------------------------------------

_unit = st.floats(-1.0, 1.0)


@st.composite
def _unit_polys(draw, max_deg: int = 8, min_lead: float = 0.0):
    deg = draw(st.integers(0, max_deg))
    c = draw(st.lists(_unit, min_size=deg + 1, max_size=deg + 1))
    if min_lead:
        c[-1] = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(min_lead, 1.0))
    return Polynomial(c)


@st.composite
def _wide_gapped_nodes(draw, max_count: int = 9, min_gap: float = 0.25):
    count = draw(st.integers(1, max_count))
    need = min_gap * (count - 1)
    start = draw(st.floats(-2.0, 2.0 - need))
    if count == 1:
        return np.array([start])
    fracs = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=count - 1,
                                   max_size=count - 1)))
    gaps = min_gap + fracs * ((2.0 - start - need) / (count - 1))
    return start + np.concatenate(([0.0], np.cumsum(gaps)))


@settings(deadline=None)
@given(num=_unit_polys(max_deg=8), den=_unit_polys(max_deg=8, min_lead=0.5))
def test_division_contract(num, den):
    q, r = poly_divrem(num, den)
    assert r.is_zero or r.degree < den.degree
    back = q * den + r
    size = max(back.coeffs.size, num.coeffs.size, 1)
    assert np.max(np.abs(_coeffs(back, size) - _coeffs(num, size))) <= 1e-10


@settings(deadline=None)
@given(roots=_wide_gapped_nodes(max_count=6))
def test_from_roots_is_monic_and_vanishes(roots):
    p = poly_from_roots(roots)
    assert p.degree == roots.size
    assert p.lead == 1.0
    assert np.max(np.abs(p(roots))) <= 1e-10


@settings(deadline=None)
@given(nodes=_wide_gapped_nodes(), data=st.data())
def test_interpolant_passes_through_nodes(nodes, data):
    ys = np.array(data.draw(st.lists(_unit, min_size=nodes.size, max_size=nodes.size)))
    p = lagrange_interpolate(zip(nodes, ys))
    assert p.is_zero or p.degree < nodes.size
    assert np.max(np.abs(np.atleast_1d(p(nodes)) - ys)) <= 1e-9


@settings(deadline=None)
@given(p=_unit_polys(max_deg=10))
def test_derivative_matches_reference(p):
    got = poly_derivative(p).coeffs
    want = np.polynomial.polynomial.polyder(p.coeffs) if p.coeffs.size > 1 else np.array([])
    size = max(got.size, want.size, 1)
    g = np.zeros(size); g[: got.size] = got
    w = np.zeros(size); w[: want.size] = want
    assert np.array_equal(g, w)


@settings(deadline=None)
@given(p=_unit_polys(min_lead=0.5))
def test_monic_lead_is_exactly_one(p):
    m = p.monic()
    assert m.lead == 1.0
    assert m.degree == p.degree


@settings(deadline=None)
@given(p=_unit_polys(), q=_unit_polys(), x=st.floats(-2.0, 2.0))
def test_addition_commutes_with_evaluation(p, q, x):
    assert abs((p + q)(x) - (p(x) + q(x))) <= 1e-9


@settings(deadline=None)
@given(p=_unit_polys(), x=st.floats(-2.0, 2.0))
def test_evaluation_matches_reference_horner(p, x):
    if p.is_zero:
        assert p(x) == 0.0
    else:
        want = float(np.polyval(p.coeffs[::-1], x))
        assert abs(p(x) - want) <= 1e-12 * (1.0 + abs(want))
