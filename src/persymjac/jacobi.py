"""Jacobi (symmetric tridiagonal) matrices and the forward spectral problem.

A matrix of size ``N+1`` is held either in symmetric form -- diagonal
``b_0..b_N`` and off-diagonal ``a_1..a_N`` -- or in the monic recurrence
form with ``u_n = a_n**2 > 0``.  The associated monic polynomials obey

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x),   P_0 = 1,

``P_{N+1}`` is the characteristic polynomial, and the norms are
``h_n = u_1 ... u_n``.  A matrix is *persymmetric* (mirror-symmetric)
when it equals its reflection through the anti-diagonal:
``a_{N+1-i} = a_i`` and ``b_{N-i} = b_i``.

Eigenvalues are defined by bisection on Sturm counts of the recurrence
alone, over a fixed grid of points finer than the doubles at the ends of
the row-wise Gershgorin interval; no other computation decides a bit.
A matrix exactly mirror-symmetric outside its centre (every persymmetric
matrix, and every isospectral deformation of one) is counted on its
folded rows: the upper half once, standing for itself and its mirror
image, and the centre as one tail row for each of the two mirror classes
(``_fold``), so each count costs about half the rows.  Eigenvalue ``k``
is the midpoint of the one grid cell across which the count passes
``k``.  The computed count rises with ``x``, so that cell is the same
whichever grid points were counted on the way to it: one step counts at
any sorted grid points in one sweep and moves every bracket into the
cell they show (``_narrow``).  A caller that already holds a guess at the
spectrum, as a round trip does, can pass it, and a ladder of grid points
around each guess is counted first; the multisection then splits the
cells left until each spans one grid step.  A solve of at most
``_DENSE_POINTS`` points called without a guess takes LAPACK's
eigenvalues of the dense matrix (``numpy.linalg.eigvalsh``) as its
guess, counted on a shorter ladder sized to their error, or runs
unguided where they cannot be had.  A cell that holds one
eigenvalue alone is aimed at by a safeguarded secant step instead: there
``det(J - x)`` changes sign once and has no pole, its log is the sum of
the logs of the pivots the count computes anyway (on folded rows the
shared rows twice and the tail rows once), and an unguided solve takes
those logs from its first sweep on.  The sweep after a cell is isolated
counts in it at the secant point of its ends, taken on the log less the
slope the other eigenvalues give it (Aberth's correction), at a few
rungs around that point, scaled to the cell, and at the cell's midpoint,
which at least halves it.  An unguided solve at 32 points takes about 6
sweeps and counts about 1,600 points, where the multisection alone takes
13 sweeps; guided by the dense estimate it takes about 2 sweeps and
770 points.  The eigenvalues are the same to the last bit whatever the
guess and whichever points the secant steps propose, so they do not
depend on the LAPACK build.  The Sturm chain sweeps its rows in
fixed-size blocks without its guard (the pivot clamp), then checks the
guard once per block; where it fires, the rows from the first pivot that
fails it run again with the clamp on every row, so the counts are those
of the row-by-row chain to the last bit.

The eigenvectors come from the same pivots, in one kernel (``_twisted``).
At a node ``x`` the downward pivots ``d+`` are the Sturm chain's, the
upward pivots ``d-`` are the chain's on the reversed rows, and
``gamma_i = d+_i + d-_i - (b_i - x)`` is the twist of the factorization
``J - x = N_r D_r N_r^T`` at row ``i`` (Parlett & Dhillon, *Linear
Algebra Appl.* 267, 1997).  On the rows that a matrix mirrors from its
top down (all of a persymmetric matrix, the upper half of a deformation
of one), the reversed chain does the downward chain's arithmetic, so
those pivots are computed once.  At the row ``r`` of the smallest
``|gamma_r|`` the vector ``z`` with ``z_r = 1`` and
``(J - x) z = gamma_r e_r`` is an eigenvector to within the residual
``|gamma_r| / |z|``, and its components follow outwards from ``r`` by
ratios of couplings and pivots: their logs and signs are partial sums,
so no component leaves double range.  The general node weight is
``w_s = z_0**2 / |z|**2``, and the mirror relation of a persymmetric
matrix, ``chi_{N-n}(x_s) = (-1)^{N+s} chi_n(x_s)``, is checked on the
unit vectors ``z / |z|``, whose components are
``sqrt(w_s) chi_n(x_s)`` up to one sign per node.
The persymmetric weights have the closed form

    w_s proportional to (-1)^{N+s} / P'_{N+1}(x_s)

normalized to unit total mass; the scale factor it implies is returned
as ``h_N``.

Every rounded operation here, and every transcendental function, is
NumPy's, so the bits of a result do not depend on which Python route
reaches them.  Only exact operations are taken on the cheaper route
where it exists: comparisons, powers of two, floor and ceil, copies,
and reductions called as ndarray methods, which run the same loops as
the NumPy functions.  ``math.log`` and ``np.log``, for one, differ in
the last bit on some doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .polynomials import Polynomial

# Most Sturm-count points in one multisection sweep.  A wider sweep takes
# more levels per pass of the recurrence but counts at more points per
# level.  Timed over the powers of two from 128 to 2048, 512 was fastest
# at 11, 32 and 64 points and no width won at every size up to 513; any
# width gives the same eigenvalues.  From 171 distinct cells on
# (512 // 171 < 3) each sweep is a single bisection step.
_SWEEP_WIDTH = 512
# Grid offsets counted around each guess a caller passes: a guess within
# 2**5 grid steps of its eigenvalue leaves a cell that one multisection
# sweep of a small matrix finishes, and one farther off still spares the
# levels above its rung.  Round trips land a few grid steps off, but a
# poor guess needs the outer rungs: 13 offsets, {0, +-2**4, +-2**5,
# +-2**6, +-2**20, +-2**25, +-2**50}, took ``le`` at 11 points from 0.31
# to 0.55 ms and ``mf`` at 65 points from 6 to 10 sweeps.
_LADDER = np.array([0] + [s << j for j in range(0, 51, 5) for s in (-1, 1)])
# Grid offsets counted around each value of the dense estimate
# (``_dense_estimate``).  Over 1,200 random matrices of 2 to 64 points
# (random, graded at 10**+-3, persymmetric and linear) the estimate lay at
# most 56 grid steps from its eigenvalue up to 32 points and 88 up to 64,
# inside the outer rungs, so every cell the ladder leaves is at most 2**6
# wide and one multisection sweep mostly finishes it.  A value farther
# off leaves a wider cell, and the solve then runs unguided: it costs the
# ladder's sweep.
_DENSE_LADDER = np.array([0] + [s << j for j in range(4, 8) for s in (-1, 1)])
# Most values in one block of the Sturm chain: a block of rows is swept
# before its guard is checked, once.
_BLOCK = 1 << 15
# Rungs around a secant point, as right shifts of its cell's width: the
# secant's error relative to the cell about squares from one sweep to the
# next, so the rungs halve its exponent, 2**-4 down to 2**-32.  Seven rungs
# a side, every 4 to 8 bits, saved about 4% of the sweeps at 32 points,
# but at 513 points counted 46% more points and took about 45% longer.
_RUNGS = np.array([4, 8, 16, 32])
# Least width, in grid steps, that a sweep may leave some cell for it to
# take the logs that aim secant steps in the next one: a cell the
# multisection splits into ``parts`` may stay ``width / parts`` wide, an
# aimed one half its width.  The cells a guided round trip's ladder leaves
# are narrower, and secant steps in them saved no sweep on the inputs
# tried, only added points.
_SECANT_WIDTH = 16
# Most points of a matrix whose unguided solve is guided by LAPACK's dense
# ``eigvalsh``.  On ``hl`` reconstructions of random-gap spectra, guided by
# it a solve took 0.27, 0.49 and 0.94 ms at 11, 32 and 64 points, where
# unguided it took 0.52, 0.79 and 1.19; at 129, 257 and 513 points it lost
# (3.1 vs 2.6, 8.6 vs 8.1, 33 vs 26 ms).  From 65 points up OpenBLAS
# threads ``eigvalsh`` on a 2-core machine, and a guided solve at 65
# points took 6.7 ms.
_DENSE_POINTS = 64
# Most pivots in each direction of one chunk of ``weights_general``'s nodes
# (1 MB).  At 2049 points, chunks of 15 nodes (``_BLOCK``) made the weights
# take longer than the eigensolve; 63 nodes take about a third of it.
_CHUNK = 1 << 17
# Where ``_narrow`` finds a bracket's two ends: at the last point counting
# at most ``k`` eigenvalues below it, and at the next.
_ENDS = np.array([[0], [1]])
# Relative gap below which two spectral points count as duplicates.
_DUP_REL = 1e-12


def _asarray1d(values, name: str) -> np.ndarray:
    # NumPy would read strings and booleans as numbers; a list of floats and
    # ints, as JSON arrays of numbers load, holds neither and skips the scan
    if not (type(values) is list and {type(v) for v in values} <= {float, int}):
        raw = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
        if raw.dtype.kind in "bSU" or raw.dtype.kind == "O" and any(
                isinstance(v, (str, bytes, bool, np.bool_)) for v in raw.flat):
            raise ValueError(f"{name} must contain only numbers, not strings or booleans")
    try:
        arr = np.array(values, dtype=float, ndmin=1)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must contain only numbers: {exc}") from exc
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


class Spectrum:
    """A strictly increasing, finite sequence of eigenvalues.

    ``values`` is read-only and never rebound.  ``_closed_form`` is
    ``weights_persymmetric``'s memo: ``None``, or its read-only weight
    array and ``h_N`` for these values.
    """

    __slots__ = ("values", "_closed_form")

    def __init__(self, values):
        arr = _asarray1d(values, "spectrum")
        if arr.size == 0:
            raise ValueError("a spectrum must contain at least one point")
        if not (arr[1:] > arr[:-1]).all():
            raise ValueError("spectrum must be strictly increasing")
        arr.flags.writeable = False
        self.values = arr
        self._closed_form = None

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        """Sort raw values and reject (near-)duplicates.

        Two points closer than ``1e-12 * max|x|`` are treated as one and
        rejected, since no Jacobi matrix with positive couplings can
        carry a repeated eigenvalue.
        """
        arr = np.sort(_asarray1d(values, "spectrum"))
        if arr.size > 1:
            tol = _DUP_REL * float(np.abs(arr).max())
            if (arr[1:] - arr[:-1] <= tol).any():
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
        return float(np.abs(self.values).max())

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
        if (uu <= 0).any():
            raise NumericalError("recurrence weights u_n must be positive")
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


def _first_bad_degree(b: np.ndarray, u: np.ndarray) -> int | None:
    """First degree ``k`` lacking finite ``b_k`` and ``0 < u_k < inf``, or
    ``None``.  A bad ``u_k`` turns all later ones NaN: ``k`` is the breakdown."""
    ok = np.isfinite(b)
    ok[1:] &= (u > 0.0) & (u < np.inf)
    k = int(np.argmin(ok))
    return None if ok[k] else k


class SymmetricJacobi:
    """Symmetric tridiagonal matrix: diagonal ``b``, off-diagonal ``a``.

    Couplings ``a_n`` may carry either sign (isospectral deformations
    produce negative and, on a measure-zero angle set, zero couplings);
    conversion to monic form requires each ``a_n**2`` positive and finite.
    """

    __slots__ = ("b", "a")

    def __init__(self, b, a=()):
        bb = _asarray1d(b, "b")
        aa = _asarray1d(a, "a")
        if bb.size == 0:
            raise ValueError("b must contain at least one entry")
        if aa.size != bb.size - 1:
            raise ValueError("a must contain exactly one entry fewer than b")
        bb.flags.writeable = False
        aa.flags.writeable = False
        self.b, self.a = bb, aa

    @classmethod
    def from_monic(cls, K: MonicJacobi) -> "SymmetricJacobi":
        """Canonical symmetric form with ``a_n = +sqrt(u_n)``."""
        return cls(K.b, np.sqrt(K.u))

    def to_monic(self) -> MonicJacobi:
        """Monic form ``u_n = a_n**2``; each square must be positive and finite."""
        with np.errstate(all="ignore"):
            u = self.a * self.a
        bad = _first_bad_degree(self.b, u)
        if bad is not None:
            raise NumericalError(f"coupling a_{bad} squared is zero or not finite")
        return MonicJacobi(self.b, u)

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
        if (ww < -1e-12).any():
            raise ValueError("weights must be nonnegative")
        ww = np.maximum(ww, 0.0)
        if abs(float(ww.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        ww.flags.writeable = False
        self.points = pts
        self.w = ww

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


class _Rows(NamedTuple):
    """The rows a Sturm count runs on: shared rows, then tail rows.

    The shared rows have diagonal ``b`` and couplings ``ul``.  Each tail
    row, diagonal ``tail[t]``, follows the last shared row through the
    coupling ``join`` (squared).  The tail rows count once each, and when
    there are any the shared rows count twice, standing for their mirror
    images too (``_fold``); a matrix as it stands is its rows with no tail,
    each counting once.  ``pivmin`` is the pivot guard of every row.
    """

    b: np.ndarray
    ul: list
    tail: np.ndarray
    join: float
    pivmin: float


def _fold(b: np.ndarray, u: np.ndarray) -> _Rows:
    """The rows ``eigenvalues`` counts on for the matrix ``(b, u)``.

    With 0-based rows, ``u_i`` coupling rows ``i`` and ``i+1``, and
    ``L = N // 2``, the centre of the matrix is row ``L`` for even ``N``
    and rows ``L, L+1`` for odd ``N``.  A matrix that is exactly
    mirror-symmetric outside its centre folds: ``b_i = b_{N-i}`` for
    ``i < L``, and ``u_i = u_{N-1-i}`` for ``i < L`` (odd ``N``) or
    ``i < L-1`` (even ``N``).  Rows ``0..L-1`` and their mirror images then
    have the same pivots, ending in ``d_{L-1}``, and the Schur complement
    of both in ``J - x`` is the centre less ``x`` and less its squared
    couplings to them over ``d_{L-1}``.  By Sylvester's law of inertia
    the count is twice the count of rows ``0..L-1`` plus the negative
    eigenvalues of that complement, which are the pivots of the tail rows:
    * odd ``N``: two tail rows ``mu-+`` through ``u_{L-1}`` each, the
      eigenvalues ``0.5 b_L + 0.5 b_{L+1} -+ hypot(0.5 (b_L - b_{L+1}),
      sqrt(u_L))`` of the 2x2 centre (at ``N = 1`` nothing is shared);
    * even ``N``: one tail row ``b_L`` through ``u_{L-1} + u_L``, so only
      when that sum is finite: near the top of the double range it
      overflows, and the tail pivot would be an infinity signed by ``d_{L-1}``.
    Each tail row ends one block of Cantoni & Butler's split (*Linear
    Algebra Appl.* 13, 1976), the spectra of the two blocks being the two
    mirror classes; on persymmetric input ``mu-+ = b_L -+ a_L`` and the
    even join is ``2 u_{L-1}``.  The isospectral deformations change only
    the centre, so their output folds too.  Any other matrix, and a single
    row, or one whose two centre couplings sum past the double range, is
    its rows as they stand.  Either way the guard is the whole
    matrix's ``pivmin = 1e-292 * max(1, max u)``.
    """
    n1 = b.size
    half = (n1 - 1) // 2
    paired = half - n1 % 2  # couplings outside the centre above it
    pivmin = 1e-292 * max(1.0, float(u.max(initial=0.0)))
    join = float(u[half - 1]) if half else 0.0
    if n1 % 2 and half:
        join += float(u[half])
    if n1 < 2 or not ((b[:half] == b[::-1][:half]).all()
            and (u[:paired] == u[::-1][:paired]).all() and join < np.inf):
        return _Rows(b, u.tolist(), np.empty(0), 0.0, pivmin)
    ul = u[:max(half - 1, 0)].tolist()
    if n1 % 2:
        return _Rows(b[:half], ul, b[half:half + 1], join, pivmin)
    mean = 0.5 * b[half] + 0.5 * b[half + 1]
    radius = np.hypot(0.5 * (b[half] - b[half + 1]), np.sqrt(u[half]))
    return _Rows(b[:half], ul, np.array([mean - radius, mean + radius]), join, pivmin)


def _sturm_count(rows: _Rows, xs: np.ndarray, scale=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Number of eigenvalues strictly below each entry of ``xs``, and given
    ``scale``, ``log|det((J - x) / scale)|`` there.

    Runs the Sturm chain of the recurrence in ratio (pivot) form
    ``d_i = (b_i - x) - u_i / d_{i-1}`` on ``rows``; the sign changes of the
    monic chain ``P_0(x)..P_{N+1}(x)`` are exactly the negative pivots.  A
    pivot smaller than ``pivmin = 1e-292 * max(1, max u)`` in magnitude is
    replaced by ``-pivmin``.  With tail rows, the shared rows' negative
    pivots count twice, and each tail row's pivot ``(t - x) - join / d``
    on the last shared pivot ``d`` once, as negative when below ``pivmin``
    (where the clamp would make it so).

    The computed count never decreases as ``x`` grows.  Every step of
    the pivot recurrence, the ``-pivmin`` clamp included, is monotone
    under round-to-nearest, and that makes the count of negative pivots
    monotone in ``x`` (Kahan 1966; Demmel, Dhillon & Ren, *ETNA* 3,
    1995).  A folded count is the sum of the counts of its two blocks,
    each the shared rows followed by one tail row, so it is monotone too.
    ``_narrow`` reads every bracket's cell off by count rank on the
    strength of it.

    At small N the cost is the number of NumPy calls per row, not the
    arithmetic, so the chain runs through the shared rows in blocks of at
    most ``_BLOCK`` values.  One call forms the block's ``b_i - x``, and
    ``_pivot_rows`` then costs a divide and a subtract per row.  The pivot
    guard is checked once for the whole block: when every
    ``|d_i| >= pivmin`` (NaN fails) the clamp would have changed nothing.
    Otherwise the block's rows from the first that fails it run again with
    the clamp on every row (``_pivots``), which is exactly the row-by-row
    chain.  The negative pivots of a block are counted at once.  The
    points themselves are taken in chunks of at most ``_BLOCK``, so that
    no block exceeds it.  ``_narrow`` calls it, under ``eigenvalues``'s
    ``np.errstate``.

    The determinant is the product of the (clamped) pivots, the shared
    rows' twice and the tail rows' once.  With ``scale`` a power of two
    about the matrix norm, each block's product of ``d_i / scale`` is
    taken in one call and logged once per point, which costs about a
    third of logging every pivot.  Where a partial product leaves the normal
    double range the value is inexact or not finite; it only aims a
    secant step, whose safeguard does not depend on it.  Without
    ``scale`` the second result is ``None``.
    """
    b, ul, pivmin = rows.b, rows.ul, rows.pivmin
    m = min(xs.size, _BLOCK)
    step = max(1, min(b.size, _BLOCK // m))
    cnt = np.zeros(xs.size, dtype=np.intp)
    logdet = None if scale is None else np.zeros(xs.size)
    for c in range(0, xs.size, m):
        x = xs[c:c + m]
        buf = np.empty((step, x.size))
        # the last shared pivot; with no shared rows (and join 0) it adds nothing
        entry = np.ones(x.size)
        for first in range(0, b.size, step):
            d = buf[:b.size - first]
            _pivots(b, ul, x, first, d, entry, pivmin)
            np.copyto(entry, d[-1])
            cnt[c:c + m] += (d < 0.0).sum(axis=0)
            if scale is not None:
                np.multiply(d, 1.0 / scale, out=d)
                logdet[c:c + m] += np.log(np.abs(np.multiply.reduce(d, axis=0)))
        if rows.tail.size:
            tail = (rows.tail[:, None] - x) - rows.join / entry
            cnt[c:c + m] = 2 * cnt[c:c + m] + (tail < pivmin).sum(axis=0)
            if scale is not None:
                # the clamp's magnitude where the count takes a tail pivot as negative
                tail = np.maximum(np.abs(tail), pivmin) / scale
                logdet[c:c + m] = 2.0 * logdet[c:c + m] + np.log(np.multiply.reduce(tail, axis=0))
    return cnt, logdet


def _pivots(b: np.ndarray, ul: list, x: np.ndarray, first: int, d: np.ndarray,
            prev: np.ndarray, pivmin: float) -> None:
    """Pivots of the Sturm chain's rows ``first..`` at the points ``x``, into ``d``.

    ``prev`` holds the pivots of the row before them (for row 0, any
    array of the points' shape).  The rows run unguarded.  When some pivot
    came out smaller than ``pivmin`` in magnitude (NaN fails the test
    too), the rows from the first such one run again from the pivots above
    it with the ``-pivmin`` clamp on every row; the rows above it met no
    clamp, so they stand.  Either way these are the pivots of the
    row-by-row chain, to the bit.
    """
    np.subtract(b[first:first + d.shape[0], None], x, out=d)
    _pivot_rows(first, d, ul, prev)
    if not np.abs(d).min() >= pivmin:
        # the rows above the first one the guard fails are the clamped chain's already
        r = int(np.argmin((np.abs(d) >= pivmin).all(axis=1)))
        np.subtract(b[first + r:first + d.shape[0], None], x, out=d[r:])
        _pivot_rows(first + r, d[r:], ul, d[r - 1] if r else prev, clamp=pivmin)


def _pivot_rows(first: int, d: np.ndarray, ul: list, prev: np.ndarray, clamp=None) -> None:
    """Pivots of the Sturm chain's rows ``first..``, in place.

    ``d`` holds ``b_i - x`` of those rows on entry and ``prev`` the pivot
    of the row before them.  Given ``clamp``, each row's pivots smaller
    than it in magnitude are replaced by ``-clamp`` before the next row.
    """
    quot = np.empty_like(prev)
    for i, row in enumerate(d, first):
        if i:
            np.divide(ul[i - 1], prev, out=quot)
            np.subtract(row, quot, out=row)
        if clamp is not None:
            np.copyto(row, -clamp, where=np.abs(row) < clamp)
        prev = row


def _narrow(rows: _Rows, q: float, pts: np.ndarray, cell: np.ndarray, val: np.ndarray,
            scale=None) -> None:
    """Count at the grid points ``pts`` and move every bracket into its cell, in place.

    Bracket ``k`` is the grid cell ``[cell[0, k], cell[1, k]]``: at most
    ``k`` eigenvalues count below ``cell[0, k] * q`` and more than ``k``
    below ``cell[1, k] * q``, and ``val[:, k]`` holds ``_sturm_count``'s
    ``log|det|`` at those two ends, NaN where it was not taken.  ``pts`` is
    non-decreasing and lies strictly inside the starting cell, whose ends
    are never counted; its counts rise with it, and one ``searchsorted``
    finds for every bracket the last point that counts at most ``k`` and
    the first that counts more.  The bracket moves to them where they lie
    inside it, and its values with them: the logs taken at ``scale``, or
    NaN without one.
    """
    cnt, logdet = _sturm_count(rows, pts * q, scale)
    at = cnt.searchsorted(np.arange(cell.shape[1]), side="right") + _ENDS
    # lo and hi never decrease in k: their first and last entries bound every bracket
    ends = np.concatenate((cell[0, :1], pts, cell[1, -1:]))[at]
    moved = ends > cell
    np.less(ends[1], cell[1], out=moved[1])
    np.copyto(cell, ends, where=moved)
    np.copyto(val, np.nan if logdet is None else np.concatenate(([np.nan], logdet, [np.nan]))[at],
              where=moved)


def _secants(lo: np.ndarray, width: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """The points counted in the aimed cells ``[lo, lo + width]``, each cell's row sorted.

    Each cell holds one eigenvalue, and ``diff`` is the deflated
    ``log|det|`` at its upper end less that at its lower end.  The secant
    point is ``lo + width / (1 + exp(diff))``, counted with the rungs
    ``max(1, width >> j)`` on either side of it for ``j`` in ``_RUNGS``
    and with the cell's midpoint ``lo + (width >> 1)``, all inside the
    cell.  The cells are disjoint and in order, so the result is sorted.
    """
    lo, width = lo[:, None], width[:, None]
    at = lo + (width / (1.0 + np.exp(diff[:, None]))).astype(np.int64)
    rung = np.maximum(width >> _RUNGS, 1)
    near = np.concatenate((at - rung, at, at + rung, lo + (width >> 1)), axis=1)
    np.maximum(near, lo + 1, out=near)
    np.minimum(near, lo + width - 1, out=near)
    near.sort(axis=1)
    return near.ravel()


def _pull(ends: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Aberth's ``S_k = sum_{j != k} 1 / (m_k - m_j)`` for each bracket ``k`` of ``ks``.

    ``m_j`` is the midpoint of bracket ``j``'s cell, in grid steps, and
    ``ends`` holds ``lo + hi`` of every bracket, twice that, so the
    differences are exact integers.  Bracket ``k``'s cell holds no other
    bracket, so ``j = k`` alone gives a zero difference, and its term is
    dropped.  ``S_k`` is the slope that the other eigenvalues give ``log|det(J - x)|``
    near ``m_k``, per grid step.  The rows are taken in chunks of at most
    ``_BLOCK`` values.
    """
    out = np.empty(ks.size)
    m = max(1, _BLOCK // ends.size)
    for c in range(0, ks.size, m):
        k = ks[c:c + m]
        inv = 2.0 / (ends[k, None] - ends)
        inv[np.arange(k.size), k] = 0.0
        out[c:c + m] = inv.sum(axis=1)
    return out


def _start(b: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """The bisection's starting interval ``[lo0, hi0]``.

    The interval is the row-wise Gershgorin one,
    ``[min(b_i - a_i - a_{i+1}), max(b_i + a_i + a_{i+1})]``, padded by
    ``2**-20`` of its width on each side.  Scaling ``K`` by a power of
    two scales both ends.
    """
    a = np.sqrt(u)
    reach = np.zeros(b.size)
    reach[1:] = a
    reach[:-1] += a
    lo0, hi0 = float((b - reach).min()), float((b + reach).max())
    pad = 2.0 ** -20 * (hi0 - lo0)
    return lo0 - pad, hi0 + pad


def _dense_estimate(b: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """LAPACK's eigenvalues of the matrix with diagonal ``b`` and couplings
    ``sqrt(u)``, or ``None`` where it raises ``LinAlgError`` or returns a
    value that is not finite.  Only the lower triangle, which ``eigvalsh``
    reads, is formed.
    """
    m = np.diag(b)
    np.fill_diagonal(m[1:], np.sqrt(u))
    try:
        x = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def eigenvalues(K: MonicJacobi, near=None) -> Spectrum:
    """All eigenvalues of ``K``, strictly increasing.

    Bisection on Sturm counts over the grid ``q Z``, where
    ``q = 2**(e - 55)`` and ``2**e`` is the least power of two above
    both ends of the padded row-wise Gershgorin interval ``[lo0, hi0]``
    (``_start``), so that ``q`` lies below the spacing of the doubles
    there.  Grid point ``i`` is ``float(i) * q``.  Each bracket is a cell
    ``[lo, hi]`` of grid indices, from the starting cell
    ``[floor(lo0 / q), ceil(hi0 / q)]`` down to one grid step:
    eigenvalue ``k`` is the midpoint ``0.5 * q * lo + 0.5 * q * hi``
    (halved before the sum, which then stays in range) for the last grid
    point ``lo`` that counts at most ``k`` eigenvalues below it, the
    starting cell's ends standing for counts of ``0`` and ``N + 1``.  The
    computed count rises with ``x``, so that cell is the same whichever
    points were counted to find it (``_narrow``).  The multisection splits
    each distinct cell left into as many power-of-two parts as fit in
    ``_SWEEP_WIDTH`` points a sweep.  A matrix exactly mirror-symmetric
    outside its centre (``_fold``: persymmetric matrices and their
    isospectral deformations, ``hl`` and ``mf`` reconstructions) is
    counted on its folded rows, its upper half counting twice and one
    tail row for each mirror class, at about half the cost of the whole
    chain; the count is the sum of the counts of the two blocks of the
    mirror split.  One entry off by an ulp outside the centre, and the
    whole chain is counted, as it is when the two centre couplings of an
    even ``N`` sum past the double range.  Scaling ``K`` by a power of
    two scales the result exactly, as long as every value stays in the
    normal double range and no pivot meets the clamp.  Positive ``u_n``
    guarantee the eigenvalues are simple, but two of them closer than the
    spacing of the doubles can round to the same double (Wilkinson's
    ``W_31^+`` is one such matrix, and most random persymmetric matrices
    from about 50 points up have such a pair, one eigenvalue of each
    mirror class); that raises
    ``NumericalError`` ("eigenvalues failed to separate"), and so does a
    starting interval wider than the double range.

    A cell that holds one eigenvalue alone is aimed at by a secant step,
    a safeguarded one after Brent (*Algorithms for Minimization without
    Derivatives*, 1973).  In such a cell ``det(J - x)`` changes sign once
    and has no pole, and its log is the sum of the logs of the pivots the
    count already computes (``_sturm_count``).  A sweep that may leave
    some cell open wider than ``_SECANT_WIDTH`` grid steps takes those
    logs at every point it counts, and a bracket carries them with its
    ends; an unguided solve takes them from its first sweep.  The next
    sweep aims at each cell of one bracket ``k`` with both values known
    that the multisection would leave open.  Across the cell the other
    eigenvalues bend ``log|det|`` by about ``S_k x``, with Aberth's
    ``S_k = sum_{j != k} 1 / (m_k - m_j)`` (*Math. Comp.* 27, 1973) over
    the midpoints ``m_j`` of the brackets' cells (``_pull``), so the
    secant is taken on ``log|det(J - x)| - S_k x``.  The sweep counts in
    the cell at the secant point, at the rungs ``_RUNGS`` around it and at
    the cell's midpoint, which at least halves the cell (``_secants``),
    in place of the multisection's points; the multisection's
    ``_SWEEP_WIDTH`` points a sweep go to the cells left, those of several
    eigenvalues or without both values.  Unguided, ``hl`` reconstructions
    of random-gap spectra at 11, 32, 129 and 513 points take 5, 6, 6 and 8
    sweeps, where the multisection alone takes 11, 13, 25 and 48; at 11,
    32 and 64 points the dense estimate below guides them in 2, 2 and 3.  A
    guided solve's ladder sweep takes no logs, and a round trip guided by
    the spectrum it was built from takes none after it either.  The
    proposals choose only which points are counted, so the eigenvalues
    are the same to the last bit.

    ``near``, if given, is a guess at the spectrum with one value per
    eigenvalue, such as the spectrum a reconstruction was built from.
    Each guess, on the grid and inside the starting cell, is counted
    with the fixed offsets ``_LADDER`` around it, all in one sweep,
    before the multisection: a guess within ``2**5`` grid steps of its
    eigenvalue leaves a cell at most that wide.  The result, error or
    not, is the same to the last bit for every guess, and a useless
    guess costs that one sweep.  Without ``near``, a matrix of at most
    ``_DENSE_POINTS`` points is guided by LAPACK's eigenvalues of its
    dense form (``_dense_estimate``), which land some tens of grid steps
    from the eigenvalues.  They are counted with the shorter ladder
    ``_DENSE_LADDER``, at most ``2**7`` steps out, which leaves every
    cell at most ``2**6`` wide.  Where it leaves a wider cell, some value
    lay beyond its rungs, next to an end counted without the logs that
    aim a secant step, and the solve runs unguided from the starting cell;
    so does it where LAPACK raises ``LinAlgError`` or returns a value
    that is not finite.  The ladder's points are counted once each, in
    order.  A starting cell one grid step wide or less has no point
    inside to count, and takes no ladder.
    """
    b, u = K.b, K.u
    n1 = b.size
    if near is not None:
        near = _asarray1d(near, "near")
        if near.size != n1:
            raise ValueError("near must hold one value per eigenvalue")
    if n1 == 1:
        return Spectrum(b)
    with np.errstate(all="ignore"):
        lo0, hi0 = _start(b, u)
        if not hi0 - lo0 < math.inf:
            raise NumericalError("eigenvalues failed to separate: "
                                 "their Gershgorin interval spreads beyond double range")
        dense = near is None and n1 <= _DENSE_POINTS
        if dense:
            near = _dense_estimate(b, u)
        rows = _fold(b, u)
        e = math.frexp(max(abs(lo0), abs(hi0)))[1]
        # 2**e overflows at e = 1024, where math.ldexp would raise
        q, scale = math.ldexp(1.0, e - 55), math.ldexp(1.0, e) if e < 1024 else math.inf
        cell = np.empty((2, n1), dtype=np.int64)
        cell[0], cell[1] = math.floor(lo0 / q), math.ceil(hi0 / q)
        val = np.empty((2, n1))
        val.fill(np.nan)
        # a starting cell one grid step wide or less has no point to count
        if near is not None and cell[1, 0] - cell[0, 0] > 1:
            start = cell[:, 0].copy()
            at = np.minimum(np.maximum(near / q, start[0]), start[1]).astype(np.int64)
            ladder = at[:, None] + (_DENSE_LADDER if dense else _LADDER)
            np.maximum(ladder, start[0] + 1, out=ladder)
            np.minimum(ladder, start[1] - 1, out=ladder)
            # sorted, the first of each run of equal points: NumPy 2.4 finds
            # unique integers through a hash table, over ten times the sort
            ladder = np.sort(ladder, axis=None)
            keep = np.ones(ladder.size, dtype=bool)
            np.not_equal(ladder[1:], ladder[:-1], out=keep[1:])
            _narrow(rows, q, ladder[keep], cell, val)
            if dense and (cell[1] - cell[0]).max() > _DENSE_LADDER.max() >> 1:
                # an eigenvalue beyond its estimate's outer rungs sits next to
                # an end without logs, where no secant step can aim: run
                # unguided, at the cost of the ladder's sweep
                cell[0], cell[1] = start
        lo, hi = cell
        edge = np.ones(n1 + 1, dtype=bool)
        while True:
            # a bracket opens a cell when its lo differs from the one before it
            np.not_equal(lo[1:], lo[:-1], out=edge[1:n1])
            width = hi - lo
            first = (edge[:n1] & (width > 1)).nonzero()[0]
            if not first.size:
                break
            width = width[first]
            # a cell of one bracket with both logs, which the multisection
            # would leave open, is aimed at; the multisection splits the rest
            fit = max(1, (_SWEEP_WIDTH // first.size + 1).bit_length() - 1)
            diff = val[1] - val[0]
            aim = edge[first + 1] & (width > 1 << fit) & np.isfinite(diff[first])
            aimed = aim.any()
            logs = False
            if aimed:
                rest = ~aim
                ka, first, wa, width = first[aim], first[rest], width[aim], width[rest]
                pts = _secants(lo[ka], wa, diff[ka] - _pull(lo + hi, ka) * wa)
                logs = (wa > 2 * _SECANT_WIDTH).any()
            if first.size:
                fit = max(1, (_SWEEP_WIDTH // first.size + 1).bit_length() - 1)
                parts = 1 << min(fit, (int(width.max()) - 1).bit_length())
                step = (width[:, None] * (np.arange(1, parts) / parts)).astype(np.int64)
                np.maximum(step, 1, out=step)
                np.minimum(step, width[:, None] - 1, out=step)
                step += lo[first, None]
                split = step.ravel()
                # two sorted runs, which a stable sort merges in one pass
                pts = np.sort(np.concatenate((split, pts)), kind="stable") if aimed else split
                logs = logs or (width > parts * _SECANT_WIDTH).any()
            _narrow(rows, q, pts, cell, val, scale if logs else None)
        lam = 0.5 * q * lo + 0.5 * q * hi
    try:
        return Spectrum(lam)
    except ValueError as exc:
        raise NumericalError(f"eigenvalues failed to separate: {exc}") from exc


def _twisted(K: MonicJacobi, x: np.ndarray, signs: bool = False):
    """The twisted eigenvector ``z`` of ``K`` at each node of ``x``, chunk by chunk.

    At each node a twisted factorization on the Sturm pivots (downward on
    the rows, upward on the reversed rows, each with ``_sturm_count``'s
    ``pivmin`` clamp) picks the twist ``r`` of the smallest ``|gamma_r|``,
    and ``z`` with ``z_r = 1`` solves ``(J - x) z = gamma_r e_r``.  Its
    components follow outwards from ``r`` by ``z_i / z_{i+1} = -a_{i+1} / d+_i``
    above the twist and ``z_i / z_{i-1} = -a_i / d-_i`` below it, with
    ``a_n = sqrt(u_n)``: ``log|z_i|`` is the partial sum of the logs of
    their magnitudes, so no component leaves double range, and the sign of
    ``z_i`` flips once for each positive pivot on the way.

    Row ``i`` of the reversed rows is the mirror image of row ``N - i``,
    with diagonal ``b_{N-i}`` and coupling ``u_{N-i}`` to the row before
    it.  While ``b_i = b_{N-i}`` and ``u_{i-1} = u_{N-i}`` for each row
    ``i`` from the top, the reversed chain does the downward chain's
    arithmetic at the same nodes with the same clamp, so its first
    ``shared`` pivots are copied from ``d+`` and ``_pivots`` runs on from
    the first row that differs, after ``d+_{shared-1}``.  That shares
    every row of a persymmetric matrix, and at 32 points the 15 rows above
    the centre of a deformation of one; the pivots are those of the whole
    reversed chain to the bit.  The rows above the twist take ``d+`` and
    the others ``d-``, so one selection of pivots gives the logs and signs
    of both sides.

    The nodes are taken in chunks of at most ``_CHUNK`` pivots in each
    direction; each chunk yields its offset ``c``, then ``log|z_i|`` and,
    given ``signs``, the signs of ``z_i`` (one column per node; else
    ``None``), ``log |z|`` and the residual ``|gamma_r| / |z|`` (one entry
    per node).  ``weights_general`` and ``mirror_residual`` both read it,
    under their own ``np.errstate``; only ``mirror_residual`` reads the
    signs, whose parity takes a comparison, two masks, an accumulated XOR
    and a select, about a sixteenth of a 32-node call.
    """
    b, u = K.b, K.u
    n1 = b.size
    if x.size != n1:
        raise ValueError("spectrum size does not match the matrix")
    ul, lu = u.tolist(), u[::-1].tolist()
    pivmin = 1e-292 * max([1.0, *ul])
    # the reversed chain's rows 0..shared-1 are the forward chain's
    mirrored = b == b[::-1]
    mirrored[1:] &= u == u[::-1]
    shared = n1 if mirrored.all() else int(mirrored.argmin())
    a = np.sqrt(u)[:, None]
    rows = np.arange(n1)[:, None]
    m = max(1, _CHUNK // n1)
    for c in range(0, n1, m):
        xc = x[c:c + m]
        down, up = np.empty((n1, xc.size)), np.empty((n1, xc.size))
        _pivots(b, ul, xc, 0, down, xc, pivmin)
        up[:shared] = down[:shared]
        if shared < n1:
            _pivots(b[::-1], lu, xc, shared, up[shared:], down[shared - 1] if shared else xc,
                    pivmin)
        up = up[::-1]
        gamma = down + up - (b[:, None] - xc)
        r = np.argmin(np.abs(gamma), axis=0)
        above, below = rows[:-1] < r, rows[1:] > r
        # log|z_i| with z_r = 1, and whether z_i < 0: the sum of
        # log|z_j / z_{j+-1}|, and the parity of the pivots d_j > 0,
        # outwards from the twist; the rows above it take d+, the others d-
        piv = np.where(above, down[:-1], up[1:])
        lg = np.log(a / np.abs(piv))
        lz = _outwards(np.add, np.where(above, lg, 0.0), np.where(below, lg, 0.0))
        top = lz.max(axis=0)
        lnorm = top + 0.5 * np.log(np.exp(2.0 * (lz - top)).sum(axis=0))
        res = np.abs(gamma[r, np.arange(xc.size)]) * np.exp(-lnorm)
        if signs:
            pos = piv > 0.0
            odd = _outwards(np.logical_xor, above & pos, below & pos)
            yield c, lz, np.where(odd, -1.0, 1.0), lnorm, res
        else:
            yield c, lz, None, lnorm, res


def _outwards(op: np.ufunc, above: np.ndarray, below: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``op`` over ``above``'s rows ``i..r-1`` and ``below``'s rows ``r..i-1``.

    ``above`` and ``below`` have one row fewer than the result and hold
    ``op``'s identity (zero or false) outside their own side of each
    column's twist ``r``, so the accumulation runs outwards from ``r``,
    where the result is the identity.
    """
    out = np.zeros((above.shape[0] + 1, above.shape[1]), above.dtype)
    out[:-1] = op.accumulate(above[::-1], axis=0)[::-1]
    op(out[1:], op.accumulate(below, axis=0), out=out[1:])
    return out


def _nodes(spectrum) -> Spectrum:
    """``spectrum`` itself, or an array of nodes sorted, which must then be
    strictly increasing.

    Unlike ``Spectrum.from_values`` this keeps nodes closer than
    ``_DUP_REL`` of the radius: a matrix can have such eigenvalues, and
    ``eigenvalues`` separates them.  Whether the nodes are eigenvalues of
    the matrix is for the node residuals to judge.
    """
    if isinstance(spectrum, Spectrum):
        return spectrum
    return Spectrum(np.sort(_asarray1d(spectrum, "spectrum")))


def weights_general(K: MonicJacobi, spectrum) -> WeightTable:
    """Node weights ``w_s = z_0**2 / |z|**2`` of the eigenvectors ``z``.

    ``spectrum`` must be the eigenvalue set of ``K``, to about the
    accuracy ``eigenvalues`` gives.  ``z`` is the twisted eigenvector at
    each node (``_twisted``).  A node whose residual ``|gamma_r| / |z|``
    reaches half its gap to a neighbouring node is not known to be an
    eigenvalue of ``K`` apart from that neighbour, and raises
    ``NumericalError`` naming it.  The half-gaps are the differences
    ``x[1:] - x[:-1]``, each taken into the node above and the node below
    it by an in-place minimum, the end nodes' outer gaps infinite, then
    halved.  The weights need no signs of ``z``, so ``_twisted`` forms
    none.  The table is renormalized to unit mass.  An array of nodes is
    sorted, and must be strictly increasing.
    """
    spec = _nodes(spectrum)
    x = spec.values
    gap = x[1:] - x[:-1]
    half_gap = np.empty(x.size)
    half_gap.fill(np.inf)
    np.minimum(half_gap[1:], gap, out=half_gap[1:])
    np.minimum(half_gap[:-1], gap, out=half_gap[:-1])
    half_gap *= 0.5
    logw = np.empty(x.size)
    with np.errstate(all="ignore"):
        for c, lz, _, lnorm, res in _twisted(K, x):
            bad = np.flatnonzero(~(res < half_gap[c:c + res.size]))
            if bad.size:
                s = c + int(bad[0])
                raise NumericalError(f"node x_{s} = {x[s]:.17g} has residual {res[s - c]:.3e}, at "
                                     "least half its gap: likely not an eigenvalue of this matrix")
            logw[c:c + res.size] = 2.0 * (lz[0] - lnorm)
    w, _ = _unit_mass(logw)
    return WeightTable(spec, w)


def weights_persymmetric(spectrum) -> tuple[WeightTable, float]:
    """Weights of the persymmetric matrix with the given spectrum.

    Raw weights are ``r_s = (-1)^{N+s} / P'_{N+1}(x_s)`` with
    ``P_{N+1}(x) = prod (x - x_s)``; for a strictly increasing spectrum
    the sign prefactor cancels the sign of the derivative, so every
    ``r_s`` is positive.  The table is normalized to total mass one and
    the implied norm ``h_N = (sum r_s)**-2`` (``inf`` past double range)
    is returned with it.

    The weights and ``h_N`` are computed once per ``Spectrum`` object and
    kept on it (``Spectrum._closed_form``): a second call on the same
    spectrum, as ``verify`` makes for its moments and its sublattice
    weights, builds its table from the kept read-only array.  The memo
    holds the array, not the ``WeightTable``: the table refers to the
    spectrum, so a spectrum holding its table would be a reference
    cycle, and every such spectrum would wait for the cyclic garbage
    collector.
    """
    spec = Spectrum.coerce(spectrum)
    if spec._closed_form is None:
        w, lse = _unit_mass(_closed_form_logr(spec.values))
        with np.errstate(over="ignore"):
            h = float(np.exp(-2.0 * lse))
        table = WeightTable(spec, w)
        spec._closed_form = table.w, h
        return table, h
    w, h = spec._closed_form
    return WeightTable(spec, w), h


def _closed_form_logr(x: np.ndarray, first: int = 0, step: int = 1) -> np.ndarray:
    """Log raw closed-form weights on the rows ``first::step`` of ``x``.

    Row ``s`` has the raw weight ``|1 / P'_{N+1}(x_s)|``, that is
    ``1 / prod_{t != s} |x_t - x_s|`` over all of ``x``; its log is
    ``-sum_{t != s} log|x_t - x_s|``.  The rows x (N+1) table of
    differences is ``np.copyto`` of ``x`` into every row, then each
    row's own point subtracted in place.  That takes a quarter to a
    third less time than the broadcast ``x[rows, None] - x``, whose
    entries it negates exactly, so under ``abs`` the two are the same.
    The diagonal is set to one, and ``np.abs`` and ``np.log`` run in
    place on the table before its row sums.  A spectrum reaching
    ``2**1022`` in magnitude is differenced scaled by ``2**-k``, so that
    no difference overflows, and ``N k log 2`` is taken off every row.
    """
    k = max(0, math.frexp(np.abs(x).max())[1] - 1022)
    if k:
        x = np.ldexp(x, -k)
    rows = np.arange(first, x.size, step)
    diff = np.empty((rows.size, x.size))
    np.copyto(diff, x)
    diff -= x[rows, None]
    diff[np.arange(rows.size), rows] = 1.0
    logr = -np.sum(np.log(np.abs(diff, out=diff), out=diff), axis=1)
    return logr - (x.size - 1) * k * math.log(2.0) if k else logr


def _unit_mass(logw: np.ndarray) -> tuple[np.ndarray, float]:
    """The weights ``exp(logw)`` scaled to unit sum, and the log of their sum."""
    m = float(logw.max())
    lse = m + float(np.log(np.exp(logw - m).sum()))
    w = np.exp(logw - lse)
    w /= w.sum()
    return w, lse


def is_persymmetric(J: SymmetricJacobi, tol: float = 1e-10) -> bool:
    """Whether ``J`` equals its anti-diagonal reflection within ``tol``."""
    with np.errstate(over="ignore"):  # an overflowed difference is inf > tol
        return all(float(np.abs(v - v[::-1]).max(initial=0.0)) <= tol for v in (J.b, J.a))


def _mirror_signs(n: int) -> np.ndarray:
    """``(-1)^{N+s}`` for ``s = 0..N``: persymmetric ``phi_s(N) / phi_s(0)``."""
    return np.where((n + np.arange(n + 1)) % 2 == 0, 1.0, -1.0)


def mirror_residual(K: MonicJacobi, spectrum) -> float:
    """Deviation from the mirror relation of the unit eigenvectors.

    For a persymmetric matrix the orthonormal values at the eigenvalues
    obey ``chi_{N-n}(x_s) = (-1)^{N+s} chi_n(x_s)``, that is, its unit
    eigenvectors ``q_{n,s} = sqrt(w_s) chi_n(x_s)`` obey
    ``q_{N-n,s} = (-1)^{N+s} q_{n,s}``.  ``q`` is the twisted eigenvector
    at each node (``_twisted``) scaled to unit length, the same vector
    ``weights_general`` reads its weights off, here with the signs of its
    components, which the weights do not need.  The returned residual
    is ``max |q_{N-n,s} - (-1)^{N+s} q_{n,s}|`` over all ``n, s``, which
    is at most 2 and does not depend on the sign of each ``q``.  At a
    node that is not an eigenvalue of ``K`` (a reconstruction checked at
    the spectrum it was built from, or a spectrum of another matrix),
    ``q`` is still the unit vector with ``(J - x) q`` a multiple of
    ``e_r``: it lies close to the eigenvectors of the eigenvalues near the
    node, and is measured all the same.  Unlike ``weights_general`` this
    raises nothing on a large node residual ``|gamma_r| / |z|``, because
    it is a metric: non-persymmetric input yields an O(1) value, which
    makes it a negative control as well as a verification metric.  A
    residual that is not finite is returned as ``inf``.  An array of nodes
    is sorted, and must be strictly increasing.
    """
    spec = _nodes(spectrum)
    mirror = _mirror_signs(K.n)
    worst = 0.0
    with np.errstate(all="ignore"):
        for c, lz, sign, lnorm, _ in _twisted(K, spec.values, signs=True):
            q = sign * np.exp(lz - lnorm)
            worst = np.maximum(worst, np.abs(q[::-1] - mirror[c:c + q.shape[1]] * q).max())
    return float(worst) if np.isfinite(worst) else np.inf
