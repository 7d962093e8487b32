"""The ``deform --weights`` then ``forward`` sweep: one SHA-256 over every run.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/deform_bits.py

Each matrix is one of five families at every size of ``POINTS``, in
this order:

* ``lanczos``: ``reconstruct_half_lattice`` of a spectrum with gaps
  drawn from U(0.05, 3) by ``numpy.random.default_rng(points)``, the
  whole mapped onto [-1, 1]; persymmetric to the last bit;
* ``closed-form``: constant diagonal ``0.25`` and couplings
  ``sqrt(h * h * n * (N + 1 - n) / 4)`` with ``h = 2 / N``, whose
  spectrum is equally spaced; evaluated in this order they are
  palindromes only to an ulp;
* ``ulp-off``: the ``lanczos`` matrix with its first diagonal entry
  moved up by one ulp, a palindrome but for that ulp;
* ``non-persymmetric``: diagonal from U(-1, 1) and couplings from
  U(0.3, 1.2), drawn by ``numpy.random.default_rng(2000 + points)``,
  which ``deform`` refuses (exit 2) from two points on;
* ``near-persymmetric``: a palindrome, diagonal from U(-1, 1) and
  couplings from U(0.3, 1.2), drawn by
  ``numpy.random.default_rng(3000 + points)``, with ``1e-9`` added to
  its first diagonal entry: within ``deformation.DEFORM_TOL``, so
  ``deform`` takes it, but at some sizes from about 50 points on two of
  its eigenvalues fail to separate (exit 3).

Each matrix is written to a JSON file, and ``persymjac deform --weights``
runs on it in process (``cli.main``) at every angle of ``ANGLES``, its
output on standard output.  Where it exits 0, that output is written to
a file and ``persymjac forward`` runs on it.  The angles include
``pi / 4``, where one mirror class of the deformed weights vanishes,
and an angle just below it.  The hash covers, run by run, the exit
code, then the bytes written to standard error, then those written to
standard output.

A change that keeps every byte of ``deform``'s and ``forward``'s
outputs, verdicts and error messages keeps the printed line.  It
reads::

    deform 2070 runs, exits 0:1638 2:408 3:24; forward 1638 runs, exits 0:1638; sha256 c411de76bd88870f9df1db313d9c9b4652f9047ed630a4258ee0bc5aa0c20511

pytest does not collect this file; the sweep takes about seven seconds.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from collections import Counter

import numpy as np

from persymjac import cli
from persymjac.jacobi import SymmetricJacobi
from persymjac.reconstruction import reconstruct_half_lattice

POINTS = range(1, 70)
ANGLES = (0.0, 0.3, -1.1, math.pi / 4 - 1e-6, math.pi / 4, 2.5)


def _families(points: int) -> list[tuple[np.ndarray, np.ndarray]]:
    gaps = np.random.default_rng(points).uniform(0.05, 3.0, points - 1)
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    lanczos = SymmetricJacobi.from_monic(
        reconstruct_half_lattice(2.0 * x / x[-1] - 1.0 if points > 1 else x))
    n = np.arange(1, points)
    h = 2.0 / max(points - 1, 1)
    closed = (np.full(points, 0.25), np.sqrt(h * h * n * (points - n) / 4.0))
    off = lanczos.b.copy()
    off[0] = np.nextafter(off[0], np.inf)
    rng = np.random.default_rng(2000 + points)
    far = rng.uniform(-1.0, 1.0, points), rng.uniform(0.3, 1.2, points - 1)
    rng = np.random.default_rng(3000 + points)
    near = _palindrome(rng, points, -1.0, 1.0), _palindrome(rng, points - 1, 0.3, 1.2)
    near[0][0] += 1e-9
    return [(lanczos.b, lanczos.a), closed, (off, lanczos.a), far, near]


def _palindrome(rng, length: int, lo: float, hi: float) -> np.ndarray:
    half = rng.uniform(lo, hi, (length + 1) // 2)
    return np.concatenate((half, half[:length // 2][::-1]))


def _run(argv: list[str], digest) -> tuple[int, str]:
    """Run ``cli.main(argv)``, hash its exit code, standard error and
    standard output, and return the code and the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest.update(str(code).encode())
    digest.update(err.getvalue().encode())
    digest.update(out.getvalue().encode())
    return code, out.getvalue()


def sweep() -> tuple[Counter, Counter, str]:
    """The exit codes of ``deform`` and of ``forward`` counted, and the
    hex SHA-256 of all runs."""
    digest = hashlib.sha256()
    deforms, forwards = Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        matrix, deformed = os.path.join(tmp, "matrix.json"), os.path.join(tmp, "deformed.json")
        for points in POINTS:
            for b, a in _families(points):
                with open(matrix, "w", encoding="utf-8") as fh:
                    json.dump({"n": points - 1, "b": b.tolist(), "a": a.tolist()}, fh)
                for theta in ANGLES:
                    code, text = _run(["deform", matrix, f"--theta={theta!r}", "--weights"],
                                      digest)
                    deforms[code] += 1
                    if code:
                        continue
                    with open(deformed, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    forwards[_run(["forward", deformed], digest)[0]] += 1
    return deforms, forwards, digest.hexdigest()


def _counts(exits: Counter) -> str:
    return f"{sum(exits.values())} runs, exits " + " ".join(
        f"{code}:{exits[code]}" for code in sorted(exits))


if __name__ == "__main__":
    deforms, forwards, sha = sweep()
    print(f"deform {_counts(deforms)}; forward {_counts(forwards)}; sha256 {sha}")
