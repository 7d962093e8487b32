"""The ``hl`` and ``gs`` reconstruction sweep: one SHA-256 over every result.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/hl_bits.py

Each spectrum is ``generate_spectrum`` of one of three families at
every size of ``POINTS``, in this order: ``symmetric-linear`` with step
``2 / N``, ``random-gap`` with seed ``N + 1`` (the number of points),
and ``quadratic`` with its defaults.  Each is reconstructed by
``reconstruct_half_lattice``, then by ``reconstruct_gram_schmidt_full``.
The hash covers, result by result, the bytes of ``b`` and then of ``u``,
or the message of a ``NumericalError``.

A change that keeps every output bit of the two Lanczos routes, the
closed-form log weights and the midpoint closure keeps the printed
line.  It reads::

    58 of 66 reconstructed, sha256 5cffdebe1545a644f80c0c49b191d415a20533035ddf0256e87b6f7b10a7de3b

The 8 failures are the ``random-gap`` and ``quadratic`` spectra at 2048
and 2049 points, on both routes: their Lanczos start vectors underflow,
and the message counts the lost components.  pytest does not collect
this file; the sweep takes about a second.
"""

import hashlib

from persymjac.benchmark import SpectrumFamily, generate_spectrum
from persymjac.errors import NumericalError
from persymjac.reconstruction import (reconstruct_gram_schmidt_full,
                                      reconstruct_half_lattice)

POINTS = (11, 12, 33, 128, 129, 512, 513, 1024, 1025, 2048, 2049)
KINDS = ("symmetric-linear", "random-gap", "quadratic")


def _params(kind: str, points: int) -> dict:
    if kind == "symmetric-linear":
        return {"step": 2 / (points - 1)}
    if kind == "random-gap":
        return {"seed": points}
    return {}


def sweep() -> tuple[int, int, str]:
    """The number of reconstructions, how many raised nothing, and the
    hex SHA-256 of all results."""
    digest = hashlib.sha256()
    done = total = 0
    for points in POINTS:
        for kind in KINDS:
            spec = generate_spectrum(SpectrumFamily(kind, points - 1, _params(kind, points)))
            for reconstruct in (reconstruct_half_lattice, reconstruct_gram_schmidt_full):
                total += 1
                try:
                    k = reconstruct(spec)
                except NumericalError as exc:
                    digest.update(str(exc).encode())
                else:
                    digest.update(k.b.tobytes())
                    digest.update(k.u.tobytes())
                    done += 1
    return done, total, digest.hexdigest()


if __name__ == "__main__":
    done, total, sha = sweep()
    print(f"{done} of {total} reconstructed, sha256 {sha}")
