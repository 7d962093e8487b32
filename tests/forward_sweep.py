"""The 1,500-matrix ``forward`` sweep: one SHA-256 over every result.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/forward_sweep.py

Each draw of ``numpy.random.default_rng(777)`` takes, in this order: the
number of points, by ``rng.choice`` over 2-69 and 100-257; ``b`` from
U(-1, 1); ``a`` from U(0.3, 1); every odd draw has ``b`` and ``a``
averaged with their reverse, so it is persymmetric; and the scale
``10**U(-100, 100)``.  The matrix is ``SymmetricJacobi(b * s, a * s)``
in monic form, and a draw is solved when ``eigenvalues`` and then
``weights_general`` raise no ``NumericalError``.  The hash covers, draw
by draw, the eigenvalue bytes of a solved draw or the error message of
one that is not.

A change that keeps every output bit of the forward solver keeps the
printed line.  It reads::

    944 of 1500 solved, sha256 ec7782710a9b5d64c406d944901498d68e2c34ef23859b054edc6d6da1542cfe

The 556 unsolved draws are persymmetric: 551 of them fail to separate
two eigenvalues, and ``weights_general`` rejects the other 5.  pytest
does not collect this file; the sweep takes about ten seconds.
"""

import hashlib

import numpy as np

from persymjac.errors import NumericalError
from persymjac.jacobi import SymmetricJacobi, eigenvalues, weights_general

DRAWS = 1500
SIZES = np.concatenate((np.arange(2, 70), np.arange(100, 258)))


def sweep() -> tuple[int, str]:
    """The number of solved draws and the hex SHA-256 of all results."""
    rng = np.random.default_rng(777)
    digest = hashlib.sha256()
    solved = 0
    for i in range(DRAWS):
        n1 = int(rng.choice(SIZES))
        b = rng.uniform(-1.0, 1.0, n1)
        a = rng.uniform(0.3, 1.0, n1 - 1)
        if i % 2:
            b, a = 0.5 * (b + b[::-1]), 0.5 * (a + a[::-1])
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        k = SymmetricJacobi(b * scale, a * scale).to_monic()
        try:
            x = eigenvalues(k)
            weights_general(k, x)
        except NumericalError as exc:
            digest.update(str(exc).encode())
        else:
            digest.update(x.values.tobytes())
            solved += 1
    return solved, digest.hexdigest()


if __name__ == "__main__":
    solved, sha = sweep()
    print(f"{solved} of {DRAWS} solved, sha256 {sha}")
