"""Jacobi (symmetric tridiagonal) matrices and the forward spectral problem.

A matrix of size ``N+1`` is held either in symmetric form -- diagonal
``b_0..b_N`` and off-diagonal ``a_1..a_N`` -- or in the monic recurrence
form with ``u_n = a_n**2 > 0``.  The associated monic polynomials obey

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x),   P_0 = 1,

``P_{N+1}`` is the characteristic polynomial, and the norms are
``h_n = u_1 ... u_n``.  A matrix is *persymmetric* (mirror-symmetric)
when it equals its reflection through the anti-diagonal:
``a_{N+1-i} = a_i`` and ``b_{N-i} = b_i``.

Eigenvalues are computed without forming a dense matrix: bisection on
Sturm counts of the recurrence, followed by a short Newton polish.  The
bisection runs as a multisection sweep: one pass of the recurrence
counts at the midpoints of the next several levels of every bracket's
bisection tree, and a walk down the tree with those counts narrows the
brackets exactly as that many single bisection steps would.  Node
weights come from the classical formulas

    w_s = h_N / (P_N(x_s) P'_{N+1}(x_s))                 (general)
    w_s proportional to (-1)^{N+s} / P'_{N+1}(x_s)       (persymmetric)

with the persymmetric variant normalized to unit total mass; the scale
factor it implies is returned as ``h_N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .polynomials import Polynomial

# Bisection brackets are narrowed to this absolute width before Newton.
_BISECT_ABS = 1e-13
# Most Sturm-count points in one multisection sweep.  Per-call overhead
# dominates a sweep at small N, so a wider sweep pays until the arithmetic
# catches up; from 171 points on each sweep is a single bisection step.
_SWEEP_WIDTH = 512
# Relative gap below which two spectral points count as duplicates.
_DUP_REL = 1e-12


def _asarray1d(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, ndmin=1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


class Spectrum:
    """A strictly increasing, finite sequence of eigenvalues."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = _asarray1d(values, "spectrum")
        if arr.size == 0:
            raise ValueError("a spectrum must contain at least one point")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("spectrum must be strictly increasing")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        """Sort raw values and reject (near-)duplicates.

        Two points closer than ``1e-12 * max|x|`` are treated as one and
        rejected, since no Jacobi matrix with positive couplings can
        carry a repeated eigenvalue.
        """
        arr = np.sort(_asarray1d(values, "spectrum"))
        if arr.size == 0:
            raise ValueError("a spectrum must contain at least one point")
        if arr.size > 1:
            tol = _DUP_REL * float(np.max(np.abs(arr)))
            if np.any(np.diff(arr) <= tol):
                raise ValueError("duplicate spectral points")
        return cls(arr)

    @classmethod
    def coerce(cls, obj) -> "Spectrum":
        return obj if isinstance(obj, Spectrum) else cls.from_values(obj)

    @property
    def n(self) -> int:
        """Matrix index N (one less than the number of points)."""
        return self.values.size - 1

    @property
    def radius(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"Spectrum({list(self.values)!r})"


class MonicJacobi:
    """Monic recurrence data: diagonal ``b_0..b_N``, weights ``u_1..u_N > 0``."""

    __slots__ = ("b", "u")

    def __init__(self, b, u=()):
        bb = _asarray1d(b, "b")
        uu = _asarray1d(u, "u")
        if bb.size == 0:
            raise ValueError("b must contain at least one entry")
        if uu.size != bb.size - 1:
            raise ValueError("u must contain exactly one entry fewer than b")
        if uu.size and np.any(uu <= 0):
            raise NumericalError("recurrence weights u_n must be positive")
        bb, uu = bb.copy(), uu.copy()
        bb.flags.writeable = False
        uu.flags.writeable = False
        self.b, self.u = bb, uu

    @property
    def n(self) -> int:
        return self.b.size - 1

    def norms(self) -> np.ndarray:
        """The sequence ``h_0 = 1, h_n = u_1 ... u_n``."""
        return np.concatenate(([1.0], np.cumprod(self.u)))

    def __repr__(self) -> str:
        return f"MonicJacobi(b={list(self.b)!r}, u={list(self.u)!r})"


class SymmetricJacobi:
    """Symmetric tridiagonal matrix: diagonal ``b``, off-diagonal ``a``.

    Couplings ``a_n`` may carry either sign (isospectral deformations
    produce negative and, on a measure-zero angle set, zero couplings);
    conversion to monic form requires them all nonzero.
    """

    __slots__ = ("b", "a")

    def __init__(self, b, a=()):
        bb = _asarray1d(b, "b")
        aa = _asarray1d(a, "a")
        if bb.size == 0:
            raise ValueError("b must contain at least one entry")
        if aa.size != bb.size - 1:
            raise ValueError("a must contain exactly one entry fewer than b")
        bb, aa = bb.copy(), aa.copy()
        bb.flags.writeable = False
        aa.flags.writeable = False
        self.b, self.a = bb, aa

    @classmethod
    def from_monic(cls, K: MonicJacobi) -> "SymmetricJacobi":
        """Canonical symmetric form with ``a_n = +sqrt(u_n)``."""
        return cls(K.b, np.sqrt(K.u))

    def to_monic(self) -> MonicJacobi:
        if self.a.size and np.any(self.a == 0):
            raise NumericalError("matrix has a zero coupling; monic form undefined")
        return MonicJacobi(self.b, self.a * self.a)

    @property
    def n(self) -> int:
        return self.b.size - 1

    def dense(self) -> np.ndarray:
        m = np.diag(self.b)
        if self.a.size:
            idx = np.arange(self.a.size)
            m[idx, idx + 1] = self.a
            m[idx + 1, idx] = self.a
        return m

    def __repr__(self) -> str:
        return f"SymmetricJacobi(b={list(self.b)!r}, a={list(self.a)!r})"


class WeightTable:
    """Discrete orthogonality measure: points plus nonnegative unit-mass weights."""

    __slots__ = ("points", "w")

    def __init__(self, points, w):
        pts = Spectrum.coerce(points)
        ww = _asarray1d(w, "weights")
        if ww.size != len(pts):
            raise ValueError("weights and points must have equal length")
        if np.any(ww < -1e-12):
            raise ValueError("weights must be nonnegative")
        ww = np.maximum(ww, 0.0)
        if abs(float(np.sum(ww)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        ww.flags.writeable = False
        self.points = pts
        self.w = ww

    def __len__(self) -> int:
        return self.w.size

    def __repr__(self) -> str:
        return f"WeightTable(points={list(self.points.values)!r}, w={list(self.w)!r})"


@dataclass(frozen=True)
class OrthoPolySystem:
    """Monic orthogonal polynomials ``P_0..P_{N+1}`` with norms ``h_0..h_N``."""

    polys: tuple[Polynomial, ...]
    h: np.ndarray

    @property
    def n(self) -> int:
        return len(self.polys) - 2

    def orthonormal(self, k: int) -> Polynomial:
        """The orthonormal polynomial ``chi_k = P_k / sqrt(h_k)``."""
        return self.polys[k] * (1.0 / np.sqrt(self.h[k]))


# ----------------------------------------------------------------------
# forward problem
# ----------------------------------------------------------------------


def recurrence_polynomials(K: MonicJacobi) -> OrthoPolySystem:
    """Run the three-term recurrence in coefficient space.

    Returns ``P_0 .. P_{N+1}`` (the last being the characteristic
    polynomial of ``K``) together with the norms ``h_n``.
    """
    b, u = K.b, K.u
    polys = [Polynomial([1.0]), Polynomial([-b[0], 1.0])]
    for n in range(1, b.size):
        step = Polynomial([-b[n], 1.0])
        polys.append(step * polys[n] - u[n - 1] * polys[n - 1])
    return OrthoPolySystem(tuple(polys), K.norms())


def _sturm_count(b: np.ndarray, u: np.ndarray, xs: np.ndarray, pivmin: float) -> np.ndarray:
    """Number of eigenvalues strictly below each entry of ``xs``.

    Runs the Sturm chain of the recurrence in ratio (pivot) form
    ``d_i = (b_i - x) - u_i / d_{i-1}``; the sign changes of the monic
    chain ``P_0(x)..P_{N+1}(x)`` are exactly the negative pivots.  A pivot
    smaller than ``pivmin`` in magnitude is replaced by ``-pivmin``.

    At small N the cost is the number of NumPy calls per row, not the
    arithmetic, so each row works in place on preallocated buffers and
    only records its negative pivots; they are counted once at the end.
    """
    neg = np.empty((b.size, xs.size), dtype=bool)
    tiny = np.empty(xs.shape, dtype=bool)
    t = np.empty_like(xs)
    bl, ul = b.tolist(), u.tolist()
    d = np.subtract(bl[0], xs)
    for i in range(b.size):
        if i:
            np.subtract(bl[i], xs, out=t)
            np.divide(ul[i - 1], d, out=d)
            np.subtract(t, d, out=d)
        np.abs(d, out=t)
        np.less(t, pivmin, out=tiny)
        np.copyto(d, -pivmin, where=tiny)
        np.less(d, 0.0, out=neg[i])
    return np.count_nonzero(neg, axis=0)


def _char_eval(b: np.ndarray, u: np.ndarray, xs: np.ndarray):
    """Evaluate ``P_N``, ``P_{N+1}`` and ``P'_{N+1}`` at each point.

    All four recurrence carriers are rescaled jointly per point whenever
    their magnitude leaves a safe window, so only a common positive
    factor is lost; the accumulated log-scale is returned alongside.

    The magnitude ``max(|p|, |dp|)`` of each row is carried into the
    next, which needs the same maximum over its previous row.  Scaling by
    a positive factor commutes with ``abs`` and ``max`` under monotone
    rounding, so the carried value stays exact across a rescale.
    """
    xs = np.asarray(xs, dtype=float)
    p_prev = np.ones_like(xs)
    p = xs - b[0]
    dp_prev = np.zeros_like(xs)
    dp = np.ones_like(xs)
    logscale = np.zeros_like(xs)
    top_prev = np.maximum(np.abs(p), np.abs(dp))
    for bi, ui in zip(b[1:].tolist(), u.tolist()):
        t = xs - bi
        p_next = t * p - ui * p_prev
        dp_next = p + t * dp - ui * dp_prev
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        top = np.maximum(np.abs(p), np.abs(dp))
        m = np.maximum(top, top_prev)
        # fmax/fmin skip NaN, which the elementwise window test never flags
        if np.fmax.reduce(m) > 1e120 or np.fmin.reduce(m) < 1e-120:
            stretch = (m > 1e120) | ((m > 0) & (m < 1e-120))
            if np.any(stretch):
                s = np.where(stretch, 1.0 / m, 1.0)
                p_prev, p, dp_prev, dp = p_prev * s, p * s, dp_prev * s, dp * s
                top = top * s
                logscale = logscale - np.log(s)
        top_prev = top
    return p_prev, p, dp, logscale


def _multisect(b: np.ndarray, u: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               depth: int, pivmin: float) -> tuple[np.ndarray, np.ndarray]:
    """Take ``depth`` bisection steps on every bracket with one Sturm sweep.

    Bracket ``k`` holds eigenvalue ``k``.  The first ``depth`` levels of
    its bisection tree are laid out as a grid of ``2**depth + 1`` points,
    each midpoint rounded as ``0.5 * (left + right)`` of its own parent
    interval.  One sweep counts at every interior point, and the walk down
    the tree then picks the side a step-by-step bisection would have
    picked, so the returned brackets are the same to the last bit.
    """
    n1 = lo.size
    ks = np.arange(n1)
    span = 1 << depth
    grid = np.empty((n1, span + 1))
    grid[:, 0] = lo
    grid[:, span] = hi
    step = span
    while step > 1:
        half = step // 2
        grid[:, half::step] = 0.5 * (grid[:, :-1:step] + grid[:, step::step])
        step = half
    cnt = _sturm_count(b, u, grid[:, 1:-1].ravel(), pivmin).reshape(n1, span - 1)
    pos = np.zeros(n1, dtype=np.intp)
    half = span
    while half > 1:
        half //= 2
        pos += half * (cnt[ks, pos + half - 1] <= ks)
    return grid[ks, pos], grid[ks, pos + 1]


def eigenvalues(K: MonicJacobi) -> Spectrum:
    """All eigenvalues of ``K``, strictly increasing.

    Bisection on Sturm counts from the interval
    ``[min b - 2 sum|a|, max b + 2 sum|a|]`` down to absolute width
    1e-13, then at most five Newton steps on the characteristic
    polynomial, clamped to the certified bracket.  The bisection runs as
    a multisection: one Sturm sweep evaluates the next several levels of
    every bracket's bisection tree at once, as many as fit in
    ``_SWEEP_WIDTH`` points, and yields exactly the brackets that one
    midpoint per sweep would.  No dense matrix is formed.  Positive
    ``u_n`` guarantee the eigenvalues are simple, but two of them closer
    than the bracket width can round to the same double (Wilkinson's
    ``W_31^+`` is one such matrix); that raises ``NumericalError``
    ("eigenvalues failed to separate").
    """
    b, u = K.b, K.u
    n1 = b.size
    if n1 == 1:
        return Spectrum(b)
    reach = 2.0 * float(np.sum(np.sqrt(u)))
    lo0 = float(np.min(b)) - reach
    hi0 = float(np.max(b)) + reach
    pivmin = 1e-292 * max(1.0, float(np.max(u)))
    lo = np.full(n1, lo0)
    hi = np.full(n1, hi0)
    iters = int(np.ceil(np.log2(max((hi0 - lo0) / _BISECT_ABS, 2.0)))) + 1
    levels = min(iters, 200)
    # the deepest tree whose n1 * (2**depth - 1) midpoints fit in one sweep
    depth = max(1, (_SWEEP_WIDTH // n1 + 1).bit_length() - 1)
    for done in range(0, levels, depth):
        lo, hi = _multisect(b, u, lo, hi, min(depth, levels - done), pivmin)
    lam = 0.5 * (lo + hi)
    for _ in range(5):
        _, val, dval, _ = _char_eval(b, u, lam)
        safe = dval != 0.0
        step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
        new = np.clip(lam - step, lo, hi)
        moved = float(np.max(np.abs(new - lam)))
        lam = new
        if moved == 0.0:
            break
    try:
        return Spectrum(lam)
    except ValueError as exc:
        raise NumericalError(f"eigenvalues failed to separate: {exc}") from exc


def weights_general(K: MonicJacobi, spectrum) -> WeightTable:
    """Node weights ``w_s = h_N / (P_N(x_s) P'_{N+1}(x_s))``, renormalized.

    ``spectrum`` must be the eigenvalue set of ``K``.  Logarithmic
    bookkeeping keeps the quotient representable even when ``h_N`` or
    the polynomial values leave double range.
    """
    spec = Spectrum.coerce(spectrum)
    if len(spec) != K.b.size:
        raise ValueError("spectrum size does not match the matrix")
    pN, _, dpN1, logscale = _char_eval(K.b, K.u, spec.values)
    prod = pN * dpN1
    if np.any(prod <= 0) or not np.all(np.isfinite(prod)):
        raise NumericalError("weight formula produced a nonpositive node value; "
                             "spectrum likely does not belong to this matrix")
    logh = float(np.sum(np.log(K.u))) if K.u.size else 0.0
    logw = logh - (np.log(prod) + 2.0 * logscale)
    logw -= _logsumexp(logw)
    w = np.exp(logw)
    w /= np.sum(w)
    return WeightTable(spec, w)


def weights_persymmetric(spectrum) -> tuple[WeightTable, float]:
    """Weights of the persymmetric matrix with the given spectrum.

    Raw weights are ``r_s = (-1)^{N+s} / P'_{N+1}(x_s)`` with
    ``P_{N+1}(x) = prod (x - x_s)``; for a strictly increasing spectrum
    the sign prefactor cancels the sign of the derivative, so every
    ``r_s`` is positive.  The table is normalized to total mass one and
    the implied norm ``h_N = (sum r_s)**-2`` is returned with it.
    """
    spec = Spectrum.coerce(spectrum)
    w, lse = _closed_form_weights(spec.values)
    return WeightTable(spec, w), float(np.exp(-2.0 * lse))


def _closed_form_weights(x: np.ndarray, first: int = 0, step: int = 1
                         ) -> tuple[np.ndarray, float]:
    """Unit-mass closed-form weights on the rows ``first::step`` of ``x``.

    Row ``s`` has the raw weight ``|1 / P'_{N+1}(x_s)|``, that is
    ``1 / prod_{t != s} |x_s - x_t|`` over all of ``x``, formed in logs.
    Returns the raw weights divided by their sum over the chosen rows,
    and the log of that sum.
    """
    rows = np.arange(first, x.size, step)
    diff = x[rows, None] - x
    diff[np.arange(rows.size), rows] = 1.0
    logr = -np.sum(np.log(np.abs(diff)), axis=1)
    lse = _logsumexp(logr)
    w = np.exp(logr - lse)
    w /= np.sum(w)
    return w, lse


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + float(np.log(np.sum(np.exp(a - m))))


def is_persymmetric(J: SymmetricJacobi, tol: float = 1e-10) -> bool:
    """Whether ``J`` equals its anti-diagonal reflection within ``tol``."""
    if float(np.max(np.abs(J.b - J.b[::-1]), initial=0.0)) > tol:
        return False
    if J.a.size and float(np.max(np.abs(J.a - J.a[::-1]))) > tol:
        return False
    return True


def _mirror_signs(n: int) -> np.ndarray:
    """``(-1)^{N+s}`` for ``s = 0..N``: persymmetric ``phi_s(N) / phi_s(0)``."""
    return np.where((n + np.arange(n + 1)) % 2 == 0, 1.0, -1.0)


def mirror_residual(K: MonicJacobi, spectrum) -> float:
    """Deviation from the mirror relation of the orthonormal polynomials.

    For a persymmetric matrix the orthonormal values at the nodes obey
    ``chi_{N-n}(x_s) = (-1)^{N+s} chi_n(x_s)``; the returned residual is
    the maximum absolute violation over all ``n, s``.  Non-persymmetric
    input yields an O(1) value, which makes this usable as a negative
    control as well as a verification metric.
    """
    spec = Spectrum.coerce(spectrum)
    b, u = K.b, K.u
    if len(spec) != b.size:
        raise ValueError("spectrum size does not match the matrix")
    x = spec.values
    n1 = b.size
    vals = np.empty((n1, n1))
    vals[0] = 1.0
    if n1 > 1:
        vals[1] = x - b[0]
        for n in range(1, n1 - 1):
            vals[n + 1] = (x - b[n]) * vals[n] - u[n - 1] * vals[n - 1]
    chi = vals / np.sqrt(K.norms())[:, None]
    return float(np.max(np.abs(chi[::-1] - _mirror_signs(n1 - 1) * chi)))
