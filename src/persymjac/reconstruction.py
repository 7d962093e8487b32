"""Inverse spectral reconstruction of persymmetric Jacobi matrices.

Given a strictly increasing spectrum ``x_0 < ... < x_N``, there is a
unique persymmetric Jacobi matrix with that spectrum; this module
implements four independent routes to it:

``gs``  full Gram-Schmidt: the Stieltjes procedure over the persymmetric
        node weights, run as Lanczos on the full lattice;
``le``  Lagrange-Euclid: build the characteristic polynomial from its
        roots and the top orthonormal polynomial by interpolation of
        its alternating node values, then run the Euclidean descent;
``mf``  mirror-fold: assemble the two midpoint polynomials from the
        even/odd spectral sublattices, descend the lower half, and
        mirror;
``hl``  half-lattice: run Lanczos on one sublattice only, close the
        middle coefficients with the midpoint data, and mirror.

All four accept the spectrum unsorted (it is sorted on entry, with an
error on duplicates) and return the monic form with ``u_n > 0``.  The
spectrum is affinely mapped onto ``[-1, 1]`` internally and the
coefficients are mapped back exactly (``b -> rho*b + mu``,
``u -> rho^2 * u``), which keeps the coefficients well scaled.

Everything degrades gracefully rather than silently.  A guard never cuts
an algorithm short: the whole operation sequence runs, one check then
asks whether the mapped-back coefficients form a matrix (finite ``b``,
``0 < u < inf``, so spans past about 1e154 fail), and the first
breakdown is raised as ``NumericalError``.  The coefficient-space routes
(``le``, ``mf``) break down first as ``N`` grows -- representing
high-degree polynomials by monomial coefficients is exponentially
ill-conditioned.  ``gs`` and ``hl`` share one Lanczos kernel, whose
vectors stay representable after the weights underflow; each raises once
its start vector leaves the normal range, at about two thousand points.
``gs`` drifts long before that, from about a hundred points on: its
full-lattice recurrence loses orthogonality, while ``hl`` runs on one
sublattice only and stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .jacobi import (MonicJacobi, Spectrum, WeightTable, _closed_form_logr,
                     _first_bad_degree, _mirror_signs, weights_persymmetric)
# ``lagrange_interpolate`` is not called here; it stays bound so that
# perfbench/spans.py finds the polynomial layer through this module
# (tests/test_tracing.py checks every binding the tracer wraps).
from .polynomials import (TRIM_REL, Polynomial, _interp_coeffs, _roots_coeffs,
                          lagrange_interpolate, poly_from_roots)


@dataclass(frozen=True)
class MidpointData:
    """Sublattice characteristic polynomials and their root sums.

    ``omega0``/``omega1`` are the monic polynomials whose roots are the
    even-/odd-indexed spectral points; ``sigma0``/``sigma1`` are the
    corresponding root sums.
    """

    omega0: Polynomial
    omega1: Polynomial
    sigma0: float
    sigma1: float


@dataclass(frozen=True)
class MomentSequence:
    """Power moments ``c_n = sum_s w_s x_s^n`` of a discrete measure."""

    c: np.ndarray


# ----------------------------------------------------------------------
# measure-side helpers
# ----------------------------------------------------------------------


def moments(spectrum, upto: int) -> MomentSequence:
    """Moments ``c_0..c_upto`` of the persymmetric weight table.

    ``c_0`` is exactly one by normalization.  Orders above ``2N`` are
    refused: the table has only ``N+1`` points, so higher moments carry
    no new information and the callers here never need them.  A moment
    that leaves double range (``x_s^n`` overflowing at large ``|x|``)
    raises ``NumericalError`` naming the first such order.

    All orders come from one ``upto`` x (N+1) table: ``x`` in every row,
    ``np.multiply.accumulate`` down the rows (row ``k - 1`` is then
    ``x ** k`` as a running product), the weights multiplied in, and
    one row-wise ``np.sum``.  Each moment is the same float as the sum
    of ``w * x ** k`` over its own row, the running product taken one
    order at a time.
    """
    spec = Spectrum.coerce(spectrum)
    if not 0 <= upto <= 2 * spec.n:
        raise ValueError("moment order must lie in [0, 2N]")
    table, _ = weights_persymmetric(spec)
    x, w = table.points.values, table.w
    c = np.empty(upto + 1)
    c[0] = 1.0
    powers = np.empty((upto, x.size))
    powers[...] = x
    with np.errstate(all="ignore"):
        np.multiply.accumulate(powers, axis=0, out=powers)
        np.multiply(w, powers, out=powers).sum(axis=1, out=c[1:])
    lost = np.flatnonzero(~np.isfinite(c))
    if lost.size:
        raise NumericalError(f"moment of order {lost[0]} is not finite "
                             "at working precision")
    return MomentSequence(c)


def sublattice_weights(spectrum) -> tuple[WeightTable, WeightTable]:
    """Restrict the persymmetric weights to the even/odd sublattices.

    Each restriction is rescaled by two, which gives it unit mass.  At
    every ``N`` both restrictions reproduce the moments of orders
    ``0..N-1``, since ``sum_s (-1)^{N+s} w_s x_s^k = (J^k)_{0N}``
    vanishes below order ``N``; so the low polynomials are orthogonal on
    either sublattice.  Far from unit scale the closed form's log sums
    unbalance the two masses, which raises ``NumericalError``.
    """
    spec = Spectrum.coerce(spectrum)
    if spec.n == 0:
        raise ValueError("sublattices require at least two spectral points")
    full, _ = weights_persymmetric(spec)
    x, w = spec.values, full.w
    try:
        return (WeightTable(Spectrum(x[0::2]), 2.0 * w[0::2]),
                WeightTable(Spectrum(x[1::2]), 2.0 * w[1::2]))
    except ValueError as exc:  # the points are valid, so the masses failed
        raise NumericalError(f"sublattice weights at working precision: {exc}") from exc


def midpoint_data(spectrum) -> MidpointData:
    """Characteristic polynomials and root sums of the two sublattices."""
    spec = Spectrum.coerce(spectrum)
    if spec.n < 1:
        raise ValueError("midpoint data requires at least two spectral points")
    ev, od, sigma0, sigma1 = _sublattices(spec.values)
    return MidpointData(omega0=poly_from_roots(ev), omega1=poly_from_roots(od),
                        sigma0=sigma0, sigma1=sigma1)


# ----------------------------------------------------------------------
# the mirror construction: sublattice split, closing coefficient, mirror
# ----------------------------------------------------------------------


def _sublattices(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The even-/odd-indexed points of a sorted spectrum and their root
    sums ``sigma0``/``sigma1``."""
    ev, od = x[0::2], x[1::2]
    return ev, od, float(np.sum(ev)), float(np.sum(od))


def _closing(sigma0: float, sigma1: float, n: int) -> float:
    """The middle coefficient pinned by the sublattice root sums alone:
    ``u_{L+1}`` for odd ``n = 2L+1``, ``b_L`` for even ``n = 2L``."""
    if n % 2:
        return 0.25 * (sigma1 - sigma0) ** 2
    return sigma0 - sigma1


def _mirror(b_low: np.ndarray, u_low: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The palindromic ``b_0..b_n``, ``u_1..u_n`` from their first
    ``ceil((n+1)/2)`` and ``ceil(n/2)`` entries."""
    def fold(low: np.ndarray, size: int) -> np.ndarray:
        return np.concatenate((low, low[:size - low.size][::-1]))

    return fold(b_low, n + 1), fold(u_low, n)


def _midpoint_arrays(w0: np.ndarray, w1: np.ndarray, sigma0: float, sigma1: float,
                     n: int, faults: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The two middle orthogonal polynomials from the sublattice data.

    ``w0``/``w1`` are the exactly monic ascending coefficients of
    ``omega0``/``omega1`` (``n//2 + 2`` and ``(n+1)//2 + 1`` entries).
    For odd ``n = 2L+1``::

        P_{L+1} = (omega0 + omega1) / 2
        P_L     = (omega0 - omega1) / (sigma1 - sigma0)

    For even ``n = 2L``::

        P_{L+1} = (omega0 + (x + sigma1 - sigma0) * omega1) / 2
        P_L     = omega1

    The even-``n`` sign is the one that keeps ``P_{L+1}`` monic of full
    degree; flipping it cancels the two leading terms.  ``P_L`` is
    rescaled from its own leading entry, so both come back exactly monic.
    """
    if n % 2:
        hi = 0.5 * (w0 + w1)
        diff = (w0 - w1)[:-1]  # the leading 1.0s cancel exactly
        if not _lead_survives(diff):
            faults.append("midpoint difference polynomial lost its leading term")
        lo = diff / diff[-1]
        lo[-1] = 1.0
    else:
        hi = 0.5 * (w0 + np.convolve([sigma1 - sigma0, 1.0], w1))
        lo = w1
    if not _lead_survives(hi):
        faults.append("midpoint polynomials lost a degree; spectrum too degenerate")
    return hi, lo


# ----------------------------------------------------------------------
# breakdown guards
# ----------------------------------------------------------------------
#
# A guard that fires appends its message to the ``faults`` list it is
# given and lets the computation run on: every algorithm performs its
# full operation sequence, and the first fault is raised afterwards.


# Log of the smallest positive normal double: a Lanczos start component
# below it would be subnormal, with too few significant bits to carry.
_LOG_TINY = float(np.log(np.finfo(float).tiny))


def _lead_survives(c: np.ndarray) -> bool:
    """Whether the leading coefficient is positive and above the
    ``Polynomial`` trim threshold ``TRIM_REL * max|c|``."""
    return bool(c[-1] > TRIM_REL * np.max(np.abs(c)))


# ----------------------------------------------------------------------
# Euclidean descent
# ----------------------------------------------------------------------


def _chain_arrays(hi: np.ndarray, lo: np.ndarray, faults: list[str]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Full Euclidean descent on raw ascending coefficient arrays.

    ``hi``/``lo`` are *exactly* monic of consecutive degrees ``m+1, m``
    (their top entries are the float 1.0, which the constructions in
    this module guarantee).  Then ``x*lo - hi`` has degree <= m with no
    cancellation checks needed, and each step costs a handful of vector
    operations -- this is the hot path behind ``le`` and ``mf``.
    Returns ``b_0..b_m`` and ``u_1..u_m``.

    Its scalars are Python floats (``ndarray.item``), so the degree's
    tests run without NumPy scalars, and the two updates that can write
    into an array already made, ``lo - hi`` and the division by ``u_k``,
    take ``out=``.
    """
    m = lo.size - 1
    b = np.empty(m + 1)
    u = np.empty(m)
    for k in range(m, 0, -1):
        t = np.empty(k + 1)
        t[0] = -hi[0]
        np.subtract(lo[:-1], hi[1:-1], out=t[1:])
        bk = t.item(k)
        rem = t[:-1] - bk * lo[:-1]
        uk = rem.item(k - 1)
        scale = np.abs(rem).max(initial=0.0).item()
        if not math.isfinite(uk) or uk <= 0.0 or uk <= TRIM_REL * scale:
            faults.append("descent produced a degenerate weight u at degree "
                          f"{k}; spectrum is not realizable at working precision")
        b[k] = bk
        u[k - 1] = uk
        hi = lo
        lo = np.divide(rem, uk, out=rem)
        lo[k - 1] = 1.0
    b[0] = -hi[0]
    return b, u


# ----------------------------------------------------------------------
# the Stieltjes procedure in its Lanczos form
# ----------------------------------------------------------------------


def _lanczos(x: np.ndarray, logr: np.ndarray, nb: int, nu: int, faults: list[str]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of the discrete measure with log weights ``logr``.

    The one kernel behind ``gs`` (the full lattice) and ``hl`` (one
    sublattice).  Runs Lanczos on ``diag(x)`` from the unit start vector
    proportional to ``sqrt(w)``: the Stieltjes procedure in the
    discrete-measure form of Gragg & Harrod (Numer. Math. 44, 1984), with
    ``b_n = <x chi_n, chi_n>`` and ``u_{n+1}`` the squared norm of the
    next residual.  The Lanczos vectors are ``sqrt(w) chi_n(x)``: rows
    of an orthogonal matrix, so they stay representable where ``w``
    alone underflows.  The start vector is formed from the logs, and a
    component below the normal range is a breakdown; a vanishing norm
    turns every later coefficient NaN, which ``_reconstruct``'s check
    reports.  Produces ``b_0..b_{nb-1}`` and ``u_1..u_nu``; ``nu`` must
    be ``nb`` or ``nb - 1``.

    Each degree makes eight rounded operations in a fixed order, the
    ones these bits need: ``np.multiply`` twice, ``np.subtract``,
    ``r.dot(v)``, ``np.multiply``, ``np.subtract``, ``r.dot(r)`` and
    ``np.divide``, all into three vector buffers, plus ``math.sqrt``.
    The scalars ``b_k``, ``u_k`` and ``sqrt(u_k)`` live in three 0-d
    arrays made by each call, which the dots fill through ``out``: a
    Python float or NumPy scalar operand is converted to an array on
    every ufunc call, a 0-d array is not.  Nothing is shared between
    calls, so the kernel is reentrant.
    """
    half = 0.5 * (logr - np.max(logr))
    lost = int(np.count_nonzero(half < _LOG_TINY))
    if lost:
        faults.append(f"Lanczos start vector underflows: {lost} of {x.size} "
                      "components lie below the normal range")
    v = np.exp(half)
    v /= np.sqrt(v @ v)
    v_prev = np.zeros_like(x)
    r = np.empty_like(x)
    b = np.empty(nb)
    u = np.empty(nu)
    bk, uk, a = np.empty(()), np.empty(()), np.zeros(())
    mul, sub, div, sqrt = np.multiply, np.subtract, np.divide, math.sqrt
    for k in range(nb):
        mul(x, v, r)
        mul(v_prev, a, v_prev)
        sub(r, v_prev, r)
        b[k] = r.dot(v, out=bk)
        if k == nu:
            break
        mul(v, bk, v_prev)
        sub(r, v_prev, r)
        u[k] = r.dot(r, out=uk)
        a[()] = sqrt(uk)
        div(r, a, r)
        v_prev, v, r = v, r, v_prev
    return b, u


# ----------------------------------------------------------------------
# algorithm cores (normalized coordinates)
# ----------------------------------------------------------------------


def _gs_core(xh: np.ndarray, faults: list[str]) -> tuple[np.ndarray, np.ndarray]:
    n = xh.size - 1
    return _lanczos(xh, _closed_form_logr(xh), n + 1, n, faults)


def _le_core(xh: np.ndarray, faults: list[str]) -> tuple[np.ndarray, np.ndarray]:
    n = xh.size - 1
    p_char = _roots_coeffs(xh)
    if not _lead_survives(p_char):
        faults.append("characteristic polynomial lost its degree; "
                      "coefficient range exceeds working precision")
    chi_top = _interp_coeffs(xh, _mirror_signs(n))
    if not _lead_survives(chi_top):
        faults.append("interpolated top polynomial is degenerate; "
                      "spectrum is not realizable at working precision")
    lo = chi_top / chi_top[-1]
    lo[-1] = 1.0
    return _chain_arrays(p_char, lo, faults)


def _mf_core(xh: np.ndarray, faults: list[str]) -> tuple[np.ndarray, np.ndarray]:
    n = xh.size - 1
    ev, od, sigma0, sigma1 = _sublattices(xh)
    omega0, omega1 = _roots_coeffs(ev), _roots_coeffs(od)
    if not (_lead_survives(omega0) and _lead_survives(omega1)):
        faults.append("sublattice polynomial lost its degree; "
                      "coefficient range exceeds working precision")
    hi, lo = _midpoint_arrays(omega0, omega1, sigma0, sigma1, n, faults)
    b_low, u_low = _chain_arrays(hi, lo, faults)
    coeff = _closing(sigma0, sigma1, n)
    if n % 2:
        u_low = np.append(u_low, coeff)
    else:
        b_low[n // 2] = coeff
    return _mirror(b_low, u_low, n)


def _hl_core(xh: np.ndarray, faults: list[str]) -> tuple[np.ndarray, np.ndarray]:
    n = xh.size - 1
    ev, od, sigma0, sigma1 = _sublattices(xh)
    coeff = _closing(sigma0, sigma1, n)
    # the even sublattice for odd n, the odd one for even n
    first = 1 - n % 2
    logr = _closed_form_logr(xh, first, 2)
    # a contiguous copy of the sublattice: the kernel's first multiply
    # each degree reads it faster than the stride-2 view
    b_low, u_low = _lanczos(xh[first::2].copy(), logr, n // 2, (n - 1) // 2, faults)
    if n % 2:
        b_mid = 0.5 * (sigma0 + sigma1) - float(np.sum(b_low))
        u_mid = coeff
    else:
        b_mid = coeff
        # u_L is pinned by the midpoint polynomial identity
        # (x - b_L) * omega1 - P_{L+1} = u_L * P_{L-1}: matching the
        # coefficient of x^(L-1) reduces it to sublattice power sums
        q0, q1 = float(np.sum(ev * ev)), float(np.sum(od * od))
        u_mid = 0.25 * (q0 - q1 - b_mid ** 2)
    return _mirror(np.append(b_low, b_mid), np.append(u_low, u_mid), n)


def _reconstruct(core, spectrum) -> MonicJacobi:
    """Run ``core`` on the spectrum mapped onto [-1, 1] and map back.

    The core runs its full operation sequence whatever its guards find.
    The first fault, the core's before the one range check on the
    mapped-back coefficients, is raised as ``NumericalError``.
    """
    spec = Spectrum.coerce(spectrum)
    if spec.n == 0:
        return MonicJacobi(spec.values, ())
    x = spec.values
    faults: list[str] = []
    with np.errstate(all="ignore"):
        mu = 0.5 * (x[0] + x[-1])
        rho = 0.5 * (x[-1] - x[0])
        b, u = core((x - mu) / rho, faults)
        b, u = rho * b + mu, (rho * rho) * u
    bad = _first_bad_degree(b, u)
    if bad is not None:
        faults.append(f"recurrence coefficients at degree {bad} do not form a matrix "
                      "at working precision (need finite b_k and 0 < u_k < inf)")
    if faults:
        raise NumericalError(faults[0])
    return MonicJacobi(b, u)


# ----------------------------------------------------------------------
# the four reconstruction algorithms
# ----------------------------------------------------------------------


def reconstruct_gram_schmidt_full(spectrum) -> MonicJacobi:
    """Reconstruct via the Stieltjes procedure over the full weight table.

    Orthogonalizes the polynomial ladder against the discrete inner
    product ``<f, g> = sum_s w_s f(x_s) g(x_s)`` of the persymmetric node
    weights, reading off all ``N+1`` diagonal and ``N`` off-diagonal
    coefficients directly.  This runs ``hl``'s Lanczos kernel on the full
    lattice, from the square roots of the closed-form weights formed in
    logs.  There its vectors lose orthogonality, so the result drifts
    from about a hundred points on, where ``hl`` stays exact.
    """
    return _reconstruct(_gs_core, spectrum)


def reconstruct_lagrange_euclid(spectrum) -> MonicJacobi:
    """Reconstruct from the top of the polynomial ladder downward.

    ``P_{N+1}`` is built from its roots (the spectrum); the orthonormal
    ``chi_N`` is the Lagrange interpolant of the alternating values
    ``(-1)^{N+s}`` at the nodes.  The full Euclidean descent then yields
    every coefficient.
    """
    return _reconstruct(_le_core, spectrum)


def reconstruct_mirror_fold(spectrum) -> MonicJacobi:
    """Reconstruct the lower half from midpoint data, then mirror.

    The midpoint polynomials ``P_{L+1}, P_L`` come from the sublattice
    characteristic polynomials alone; the Euclidean descent recovers the
    lower-half coefficients, and persymmetry supplies the upper half.
    Roughly a quarter of the Lagrange-Euclid work, since every
    polynomial involved has half the degree.
    """
    return _reconstruct(_mf_core, spectrum)


def reconstruct_half_lattice(spectrum) -> MonicJacobi:
    """Reconstruct from one spectral sublattice plus midpoint closure.

    Runs Lanczos on the even (odd ``N``) or odd (even ``N``) sublattice,
    from the square roots of its closed-form weights formed in logs, up
    to degree ``L-1`` -- the range on which sublattice and full-lattice
    moments provably agree -- then closes
    the middle coefficients: for odd ``N``, ``u_{L+1}`` from the root
    sums and ``b_L`` from the trace; for even ``N``, ``b_L`` from the
    root sums and ``u_L`` by matching the midpoint polynomial
    ``P_{L+1}``.  Mirror symmetry fills in the rest.
    """
    return _reconstruct(_hl_core, spectrum)


#: Registry of the reconstruction algorithms by their short ids.
ALGORITHMS = {
    "gs": reconstruct_gram_schmidt_full,
    "le": reconstruct_lagrange_euclid,
    "mf": reconstruct_mirror_fold,
    "hl": reconstruct_half_lattice,
}
