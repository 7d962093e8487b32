"""The ``verify`` sweep: one SHA-256 over every report and exit.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/verify_bits.py

Each spectrum is one of three families at every size of ``POINTS``,
times every factor of ``SCALES``, in this order:

* ``equally-spaced``: ``numpy.linspace(-1, 1, points)``;
* ``random-gap``: gaps drawn from U(0.05, 3) by
  ``numpy.random.default_rng(points)``, the whole mapped onto [-1, 1];
* ``random``: ``points`` values drawn from U(-1, 1) by
  ``numpy.random.default_rng(1000 + points)``, sorted.

The last factor makes every value subnormal, so that most of those
spectra hold duplicate points and exit with an input error.  The
spectrum is written to a JSON file as a list of floats, and
``persymjac verify`` runs on it in process (``cli.main``) with its
report on standard output.  The hash covers, run by run, the exit code,
then the bytes written to standard error, then those written to standard
output.

A change that keeps every byte of ``verify``'s reports, its verdicts and
its error messages keeps the printed line.  It reads::

    828 runs, exits 0:132 1:539 2:157, sha256 41152a9ba80c9b477b927d957e5d53e7c432e8f9d7ba93708d91dd4c2e1ce521

pytest does not collect this file; the sweep takes about three seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from collections import Counter

import numpy as np

from persymjac import cli

POINTS = range(1, 70)
SCALES = (2.0 ** -60, 1.0, 2.0 ** 60, 2.0 ** -1070)


def _families(points: int) -> list[np.ndarray]:
    gaps = np.random.default_rng(points).uniform(0.05, 3.0, points - 1)
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    random_gap = 2.0 * x / x[-1] - 1.0 if points > 1 else x
    return [np.linspace(-1.0, 1.0, points), random_gap,
            np.sort(np.random.default_rng(1000 + points).uniform(-1.0, 1.0, points))]


def sweep() -> tuple[Counter, str]:
    """The exit codes counted, and the hex SHA-256 of all runs."""
    digest = hashlib.sha256()
    exits = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum.json")
        for points in POINTS:
            for x in _families(points):
                for scale in SCALES:
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump([float(v) for v in x * scale], fh)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(["verify", path])
                    exits[code] += 1
                    digest.update(str(code).encode())
                    digest.update(err.getvalue().encode())
                    digest.update(out.getvalue().encode())
    return exits, digest.hexdigest()


if __name__ == "__main__":
    exits, sha = sweep()
    counts = " ".join(f"{code}:{exits[code]}" for code in sorted(exits))
    print(f"{sum(exits.values())} runs, exits {counts}, sha256 {sha}")
