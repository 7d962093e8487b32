"""Dense univariate polynomial arithmetic over the reals.

Coefficients are stored low-to-high: ``coeffs[i]`` multiplies ``x**i``.
The zero polynomial is the empty coefficient sequence and has degree
``-inf`` by convention.  Construction normalizes the representation by
trimming trailing coefficients smaller than ``TRIM_REL * max(|coeff|)``,
so that subtractions and long divisions cannot leave spurious near-zero
leading terms behind.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

# Relative threshold for dropping trailing (highest-degree) coefficients.
TRIM_REL = 1e-13


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients that are negligible relative to the max."""
    if c.size == 0:
        return c
    top = np.max(np.abs(c))
    if top == 0.0:
        return c[:0]
    keep = np.nonzero(np.abs(c) > TRIM_REL * top)[0]
    return c[: keep[-1] + 1]


class Polynomial:
    """Immutable dense real polynomial.

    Parameters
    ----------
    coeffs : sequence of float
        Coefficients low-to-high.  Trailing entries below the relative
        trim threshold are removed on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float] = ()):
        c = np.array(tuple(coeffs) if not isinstance(coeffs, (np.ndarray, list, tuple)) else coeffs,
                     dtype=float)
        if c.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        if c.size and not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = _trim(np.ascontiguousarray(c))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return self.coeffs.size - 1 if self.coeffs.size else float("-inf")

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def lead(self) -> float:
        """Leading coefficient (raises on the zero polynomial)."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return float(self.coeffs[-1])

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts scalars or numpy arrays."""
        if self.is_zero:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        acc = np.full_like(np.asarray(x, dtype=float), self.coeffs[-1]) if np.ndim(x) \
            else float(self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def monic(self) -> "Polynomial":
        """Rescale so the leading coefficient is exactly one."""
        lead = self.lead
        out = self.coeffs / lead
        out[-1] = 1.0
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _roots_coeffs(roots) -> np.ndarray:
    """Untrimmed coefficients of the monic polynomial with the given roots.

    The top entry is exactly 1.0 whatever the size of the others.
    """
    c = np.array([1.0])
    for r in np.asarray(roots, dtype=float).ravel():
        c = np.convolve(c, [-r, 1.0])
    return c


def poly_from_roots(roots: Sequence[float]) -> Polynomial:
    """Monic polynomial with the given roots (empty sequence gives 1)."""
    return Polynomial(_roots_coeffs(roots))


def poly_derivative(p: Polynomial) -> Polynomial:
    """First derivative."""
    if p.coeffs.size <= 1:
        return Polynomial()
    return Polynomial(p.coeffs[1:] * np.arange(1, p.coeffs.size))


def poly_divrem(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Long division: return ``(q, r)`` with ``num = q*den + r``, deg r < deg den."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dd = den.coeffs.size - 1
    if num.coeffs.size - 1 < dd:
        return Polynomial(), num
    rem = num.coeffs.copy()
    lead = den.coeffs[-1]
    q = np.zeros(rem.size - dd)
    for k in range(q.size - 1, -1, -1):
        f = rem[k + dd] / lead
        q[k] = f
        if f != 0.0:
            rem[k : k + dd] -= f * den.coeffs[:-1]
        rem[k + dd] = 0.0
    return Polynomial(q), Polynomial(rem[:dd])


def lagrange_interpolate(points: Iterable[tuple[float, float]]) -> Polynomial:
    """Interpolating polynomial through ``(x, y)`` pairs.

    Coefficients are extracted through the Newton form: a divided-
    difference table followed by Horner-style expansion onto the
    monomial basis.  Duplicate abscissae are rejected.
    """
    pts = list(points)
    if not pts:
        raise ValueError("at least one interpolation point is required")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("interpolation data must be finite")
    if np.unique(xs).size != xs.size:
        raise ValueError("duplicate abscissae in interpolation data")
    return Polynomial(_interp_coeffs(xs, ys))


def _interp_coeffs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Untrimmed monomial coefficients of the interpolant through ``(xs, ys)``.

    ``xs`` must be distinct; the result has exactly ``xs.size`` entries.
    """
    n = xs.size
    # Divided-difference coefficients f[x_0..x_k], built column by column.
    dd = np.array(ys, dtype=float)
    for j in range(1, n):
        dd[j:] = (dd[j:] - dd[j - 1 : -1]) / (xs[j:] - xs[: n - j])
    # Expand the Newton form onto the monomial basis.
    c = np.array([dd[-1]])
    for k in range(n - 2, -1, -1):
        c = np.convolve(c, [-xs[k], 1.0])
        c[0] += dd[k]
    return c
