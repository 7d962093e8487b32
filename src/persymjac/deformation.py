"""Isospectral one-parameter deformations of persymmetric Jacobi matrices.

A persymmetric Jacobi matrix commutes with the exchange matrix, which
splits its eigenvectors into even and odd mirror classes.  Rotating the
two classes against each other by an angle ``theta`` produces a family
of matrices with the *same* spectrum that are still tridiagonal -- but
no longer persymmetric -- differing from the original only in a bounded
block around the center.

Two constructions of the deformed matrix are provided and must agree:

* :func:`deform_conjugate` conjugates the dense matrix by an explicit
  involution built from ``theta``;
* :func:`deform_closed_form` edits the central entries directly.

For every ``N`` the deformed measure and orthonormal polynomial family
have closed forms in the undeformed ones (:func:`deformed_weights`,
:func:`deformed_polynomials`), from the mirror sign ``(-1)^{N+s}`` of
a persymmetric eigenvector's last component against its first; at
``N = 0`` nothing deforms.  The polynomial family degenerates on the
singular set ``cos(2 theta) = 0``, where the deformed measure loses one
mirror class; we refuse angles within ``SINGULAR_TOL`` of it.  The
deformation takes ``sin(2 theta)``, so an angle is valid when ``2 theta``
is finite: ``|theta| < 2**1023``.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .jacobi import (OrthoPolySystem, SymmetricJacobi, WeightTable, _mirror_signs,
                     is_persymmetric)
from .polynomials import Polynomial

#: Angles with |cos 2*theta| below this are treated as singular for the
#: deformed polynomial family.
SINGULAR_TOL = 1e-10

#: The persymmetry bound (absolute) that both constructions require of
#: their input; :func:`deform_conjugate` also discards an off-band residue
#: up to this bound times ``max(1, max|J|)``.
DEFORM_TOL = 1e-8


def _check_angle(theta: float) -> None:
    """Raise ``ValueError`` unless ``2 theta`` is finite, that is
    ``|theta| < 2**1023``: past it ``2 theta`` overflows and its sine is NaN."""
    if not abs(theta) < 2.0 ** 1023:
        raise ValueError(f"deformation angle theta = {float(theta)!r} is out of range: "
                         "|theta| must be below 2**1023, so that 2 theta is finite")


def build_involution(n_points: int, theta: float) -> np.ndarray:
    """Symmetric involution mixing the mirror-even and mirror-odd classes.

    Diagonal entries ``sin(theta)`` on the first half and
    ``-sin(theta)`` on the second, ``cos(theta)`` on the anti-diagonal,
    and (for an odd number of points) an untouched ``1`` at the center.
    Satisfies ``V = V.T`` and ``V @ V = I`` for every ``theta``.
    """
    if n_points < 1:
        raise ValueError("involution requires at least one point")
    s, c = np.sin(theta), np.cos(theta)
    v = np.zeros((n_points, n_points))
    half = n_points // 2
    for i in range(half):
        v[i, i] = s
        v[n_points - 1 - i, n_points - 1 - i] = -s
        v[i, n_points - 1 - i] = c
        v[n_points - 1 - i, i] = c
    if n_points % 2:
        v[half, half] = 1.0
    return v


def deform_conjugate(jac: SymmetricJacobi, theta: float) -> SymmetricJacobi:
    """Deform by explicit conjugation: ``V J V`` with the involution ``V``.

    The input must be persymmetric (within ``DEFORM_TOL``); the
    conjugated matrix is then exactly tridiagonal in exact arithmetic,
    and we verify that the off-tridiagonal residue is at most
    ``DEFORM_TOL * max(1, max|J|)`` before discarding it.
    """
    if not is_persymmetric(jac, tol=DEFORM_TOL):
        raise ValueError("deformation requires a persymmetric matrix")
    dense = jac.dense()
    v = build_involution(jac.n + 1, theta)
    rotated = v @ dense @ v
    n1 = jac.n + 1
    scale = max(1.0, float(np.max(np.abs(dense))))
    stripped = rotated.copy()
    idx = np.arange(n1)
    stripped[idx, idx] = 0.0
    stripped[idx[:-1], idx[:-1] + 1] = 0.0
    stripped[idx[:-1] + 1, idx[:-1]] = 0.0
    if float(np.max(np.abs(stripped), initial=0.0)) > DEFORM_TOL * scale:
        raise NumericalError("conjugated matrix is not tridiagonal; "
                             "input violates persymmetry beyond rounding")
    off = 0.5 * (rotated[idx[:-1], idx[:-1] + 1] + rotated[idx[:-1] + 1, idx[:-1]])
    return SymmetricJacobi(np.diag(rotated).copy(), off)


def deform_closed_form(jac: SymmetricJacobi, theta: float) -> SymmetricJacobi:
    """Deform by editing the central entries in place.

    Only a bounded block around the center changes.  With ``N + 1``
    points and ``L`` the half size:

    * odd ``N``: the central off-diagonal entry is scaled by
      ``cos(2 theta)`` and the two central diagonal entries are shifted
      by ``+/- a * sin(2 theta)``;
    * even ``N``: the two off-diagonal entries flanking the center
      become ``a * (cos theta + sin theta)`` and
      ``a * (cos theta - sin theta)``; the diagonal is untouched.

    The input must be persymmetric within ``DEFORM_TOL``, and ``theta``
    a valid angle (``|theta| < 2**1023``).
    """
    _check_angle(theta)
    if not is_persymmetric(jac, tol=DEFORM_TOL):
        raise ValueError("deformation requires a persymmetric matrix")
    b = jac.b.copy()
    a = jac.a.copy()
    n = jac.n
    if n == 0:
        return SymmetricJacobi(b, a)
    if n % 2:
        mid = (n - 1) // 2
        a_c = a[mid]
        shift = a_c * np.sin(2.0 * theta)
        b[mid] += shift
        b[mid + 1] -= shift
        a[mid] = a_c * np.cos(2.0 * theta)
    else:
        mid = n // 2
        a_c = a[mid - 1]
        # persymmetry guarantees a[mid] == a[mid - 1] up to DEFORM_TOL
        a[mid - 1] = a_c * (np.cos(theta) + np.sin(theta))
        a[mid] = a_c * (np.cos(theta) - np.sin(theta))
    return SymmetricJacobi(b, a)


def deformed_weights(table: WeightTable, theta: float) -> WeightTable:
    """Weight table of the deformed matrix.

    The involution's first row is ``sin(theta) e_0 + cos(theta) e_N`` and
    a persymmetric eigenvector obeys ``phi_s(N) = (-1)^{N+s} phi_s(0)``,
    so each weight is tilted by its mirror sign:

        w'_s = w_s * (1 + (-1)^{N+s} sin(2 theta)).

    Total mass is conserved for every ``N >= 1`` because
    ``sum_s (-1)^{N+s} w_s = sum_s phi_s(0) phi_s(N) = 0``.  At ``N = 0``
    the involution is ``[1]`` and the table is returned unchanged.  A
    table whose two mirror classes carry unequal mass, as computed
    weights may, loses its unit mass under the tilt, which raises
    ``NumericalError``.  An angle with ``|theta| >= 2**1023`` raises
    ``ValueError``.
    """
    _check_angle(theta)
    n = len(table.w) - 1
    if n == 0:
        return table
    signs = _mirror_signs(n)
    tilt = np.sin(2.0 * theta)
    try:
        return WeightTable(table.points, table.w * (1.0 + signs * tilt))
    except ValueError as exc:  # the points are valid, so the mass failed
        raise NumericalError(
            f"deformed weights lose their unit mass: the two mirror classes of the "
            f"weights differ in mass by {float(np.sum(signs * table.w)):.3g}") from exc


def deformed_polynomials(system: OrthoPolySystem, theta: float) -> tuple[Polynomial, ...]:
    """Orthonormal family of the deformed measure.

    The lower half of the family is untouched; each upper-half member
    mixes with its mirror partner,

        q_n = (chi_n - sin(2 theta) * chi_{N-n}) / cos(2 theta),   n > N/2,

    and for even ``N`` the centre is ``chi_{N/2} / (cos theta + sin theta)``.
    At ``N = 0`` the family is ``(chi_0,)``.  On the singular set
    ``cos(2 theta) = 0``, which holds every zero of ``cos theta + sin theta``,
    the family truncates and ``NumericalError`` is raised.  An angle with
    ``|theta| >= 2**1023`` raises ``ValueError``.
    """
    _check_angle(theta)
    n = system.n
    if n == 0:
        return (system.orthonormal(0),)
    c2 = float(np.cos(2.0 * theta))
    if abs(c2) < SINGULAR_TOL:
        raise NumericalError("deformation angle is singular: cos(2 theta) vanishes "
                             "and the deformed family truncates")
    s2 = float(np.sin(2.0 * theta))
    chi = [system.orthonormal(k) for k in range(n + 1)]
    out = list(chi)
    if n % 2 == 0:
        out[n // 2] = (1.0 / float(np.cos(theta) + np.sin(theta))) * chi[n // 2]
    for k in range(n // 2 + 1, n + 1):
        out[k] = (1.0 / c2) * chi[k] - (s2 / c2) * chi[n - k]
    return tuple(out)
