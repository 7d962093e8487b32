"""Benchmark harness: timing and accuracy of the four reconstructions.

Generates deterministic spectrum families, times each reconstruction
algorithm over repeated runs, and reports accuracy as two numbers per
cell:

``entry_err``
    max entrywise deviation of the reconstructed ``(b, u)`` from a
    ground-truth matrix, when the family has one (the equally spaced
    families do -- see :func:`linear_ground_truth`); NaN otherwise.
``spectral_residual``
    max deviation of the eigenvalues of the reconstruction from the
    requested spectrum.

A solver breakdown inside a cell, in the reconstruction or in the
eigensolve that checks it, is recorded in-band as a failure entry (both
error fields infinite), never raised out of :func:`run_benchmark`.
The timed call is the strict call; guards never cut the sequence short
and the first breakdown is raised after it, so every timing measures
the *complete* operation sequence of the algorithm -- a run aborted at
its first degenerate coefficient would say nothing about how much work
the algorithm performs at that size.

Large-``N`` cells carry no accuracy guarantee: double precision limits
the fidelity of coefficient-space reconstructions well before the
algorithms themselves do.  Cells whose ``entry_err`` exceeds ``1e-4``
are flagged with a warning but kept in the report.

The random family uses an explicit splitmix64 generator (not the
platform RNG) so golden spectra reproduce bit-for-bit across machines
and language ports; the constants are pinned in ``docs/formats.md``.
"""

from __future__ import annotations

import json
import math
import numbers
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .jacobi import MonicJacobi, Spectrum, eigenvalues
from .reconstruction import ALGORITHMS

#: entry_err above this triggers an accuracy warning on the record.
ACCURACY_FLAG = 1e-4


# ----------------------------------------------------------------------
# deterministic random numbers
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic 64-bit generator (splitmix64).

    Chosen for portability: three multiplies and shifts, trivially
    reimplementable in any language, and the golden spectra in the test
    suite depend only on these constants.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1): the top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0 ** -53


# ----------------------------------------------------------------------
# spectrum families
# ----------------------------------------------------------------------

#: each family kind's parameters and their defaults; an int default
#: makes its parameter a whole number
_FAMILIES = {
    "uniform-linear": {"offset": 0.0, "step": 1.0},
    "symmetric-linear": {"step": 1.0},
    "quadratic": {"offset": 0.0, "step": 1.0},
    "random-gap": {"seed": 0, "min_gap": 0.05},
}


def _number(value, name: str, kind=float):
    """``kind(value)``; a value that is not a number (strings and booleans
    included), or for ``int`` not a whole number, is a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if kind is int and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ValueError(f"{name} must be a number, not {value!r}") from exc


@dataclass(frozen=True)
class SpectrumFamily:
    """A named recipe for a deterministic spectrum of size ``N + 1``.

    ``n`` is ``N``, a whole number of at least 1 (``3.0`` reads as 3).

    kinds and their parameters (all optional, with the defaults of
    ``_FAMILIES``; any other parameter is a ``ValueError``):

    * ``uniform-linear``: ``x_s = offset + s * step`` (offset 0, step 1)
    * ``symmetric-linear``: ``x_s = (s - N/2) * step`` (step 1)
    * ``quadratic``: ``x_s = offset + step * s**2`` (offset 0, step 1)
    * ``random-gap``: cumulative gaps ``min_gap + uniform[0,1)`` from a
      splitmix64 stream (seed 0, min_gap 0.05)
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown spectrum family {self.kind!r}")
        object.__setattr__(self, "n", _number(self.n, "N", int))
        if self.n < 1:
            raise ValueError("spectrum families require N >= 1")
        known = _FAMILIES[self.kind]
        for name in self.params:
            if name not in known:
                raise ValueError(f"unknown parameter {name!r} for family {self.kind!r}; "
                                 f"its parameters are {', '.join(known)}")
            self.param(name)

    def param(self, name: str) -> float:
        """The parameter's value, or its default for this kind."""
        default = _FAMILIES[self.kind][name]
        return _number(self.params.get(name, default), name, type(default))


def generate_spectrum(fam: SpectrumFamily) -> Spectrum:
    """Materialize the family: strictly increasing, deterministic."""
    s = np.arange(fam.n + 1, dtype=float)
    if fam.kind == "uniform-linear":
        x = fam.param("offset") + s * fam.param("step")
    elif fam.kind == "symmetric-linear":
        x = (s - 0.5 * fam.n) * fam.param("step")
    elif fam.kind == "quadratic":
        x = fam.param("offset") + fam.param("step") * s * s
    else:
        rng = SplitMix64(fam.param("seed"))
        min_gap = fam.param("min_gap")
        if min_gap <= 0:
            raise ValueError("random-gap families require a positive min_gap")
        gaps = np.array([min_gap + rng.next_float() for _ in range(fam.n)])
        x = np.concatenate(([0.0], np.cumsum(gaps)))
    return Spectrum.from_values(x)


def linear_ground_truth(fam: SpectrumFamily) -> MonicJacobi | None:
    """Closed-form matrix for the equally spaced families.

    An arithmetic spectrum ``x_s = x_0 + s h`` belongs to the matrix
    with constant diagonal (the spectrum's midpoint) and
    ``u_n = h^2 n (N + 1 - n) / 4`` -- the binomial-measure recurrence
    scaled to the grid.  Returns ``None`` for families with no closed
    form.
    """
    if fam.kind == "uniform-linear":
        h = fam.param("step")
        center = fam.param("offset") + 0.5 * fam.n * h
    elif fam.kind == "symmetric-linear":
        h = fam.param("step")
        center = 0.0
    else:
        return None
    n = np.arange(1, fam.n + 1, dtype=float)
    u = h * h * n * (fam.n + 1 - n) / 4.0
    return MonicJacobi(np.full(fam.n + 1, center), u)


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------


def roundtrip_error(spec: Spectrum, algorithm: str,
                    truth: MonicJacobi | None = None) -> tuple[float, float]:
    """Accuracy of one reconstruction: (entry error, spectral residual).

    ``entry_err`` is the max deviation of ``(b, u)`` from ``truth``
    entrywise, or NaN when no ground truth is supplied.
    ``spectral_residual`` is the max deviation of the eigenvalues of the
    reconstruction from ``spec``.  A breakdown, in the reconstruction or
    in its eigensolve, is a data point, not a panic: both fields come
    back infinite.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    spec = Spectrum.coerce(spec)
    try:
        rec = ALGORITHMS[algorithm](spec)
        back = eigenvalues(rec, near=spec.values)
    except NumericalError:
        return math.inf, math.inf
    if truth is None:
        entry = math.nan
    else:
        entry = max(float(np.max(np.abs(rec.b - truth.b))),
                    float(np.max(np.abs(rec.u - truth.u), initial=0.0)))
    residual = float(np.max(np.abs(back.values - spec.values)))
    return entry, residual


@dataclass(frozen=True)
class BenchRecord:
    """One report row: a (family, N, algorithm) cell."""

    family: str
    n: int
    algorithm: str
    median_ns: int
    entry_err: float
    spectral_residual: float
    reps: int


@dataclass(frozen=True)
class BenchConfig:
    families: tuple[SpectrumFamily, ...]
    algorithms: tuple[str, ...]
    reps: int = 20

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")
        for alg in self.algorithms:
            if not isinstance(alg, str) or alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")


def default_config(seed: int = 42) -> BenchConfig:
    """The stock benchmark: scaled grids at N = 64, 128, 256, all four
    algorithms, plus one small random-gap family exercising the RNG."""
    families = tuple(
        SpectrumFamily("symmetric-linear", n, {"step": 2.0 / n}) for n in (64, 128, 256)
    ) + (SpectrumFamily("random-gap", 12, {"seed": seed, "min_gap": 0.05}),)
    return BenchConfig(families=families, algorithms=("gs", "le", "mf", "hl"), reps=20)


def config_from_dict(doc: dict) -> BenchConfig:
    """Build a config from its JSON form (see ``docs/formats.md``)."""
    if not isinstance(doc, dict):
        raise ValueError("benchmark config must be a JSON object")
    entries = doc.get("families", [])
    algorithms = doc.get("algorithms", list(ALGORITHMS))
    if not isinstance(entries, list) or not isinstance(algorithms, list):
        raise ValueError("'families' and 'algorithms' must be arrays")
    fams = []
    for entry in entries:
        if not isinstance(entry, dict) or "kind" not in entry or "N" not in entry:
            raise ValueError("each family needs at least 'kind' and 'N'")
        params = {k: v for k, v in entry.items() if k not in ("kind", "N")}
        fams.append(SpectrumFamily(str(entry["kind"]), entry["N"], params))
    reps = _number(doc.get("reps", 20), "reps", int)
    return BenchConfig(families=tuple(fams), algorithms=tuple(algorithms), reps=reps)


def run_benchmark(config: BenchConfig) -> list[BenchRecord]:
    """One record per (family, algorithm) cell.

    Within a family the repetitions are interleaved: each round times
    every algorithm once, so all of the family's medians come from the
    same stretch of time and a change in machine speed cannot favour
    one algorithm over another.  The timed region is the strict public
    call.  Its guards never cut the operation sequence short -- the
    first breakdown is raised after it -- so a breakdown cannot censor
    the measurement and turn the timing comparison into a comparison of
    failure points.  Accuracy fields come from :func:`roundtrip_error`,
    which reports a breakdown as infinite errors.  Generation and
    accuracy measurement run outside the timed region.
    """
    records = []
    for fam in config.families:
        spec = generate_spectrum(fam)
        truth = linear_ground_truth(fam)
        times = [[] for _ in config.algorithms]
        for _ in range(config.reps):
            for alg, cell in zip(config.algorithms, times):
                t0 = time.perf_counter_ns()
                try:
                    ALGORITHMS[alg](spec)
                except NumericalError:
                    pass  # reported by roundtrip_error below
                cell.append(time.perf_counter_ns() - t0)
        for alg, cell in zip(config.algorithms, times):
            entry, residual = roundtrip_error(spec, alg, truth)
            if math.isfinite(entry) and entry > ACCURACY_FLAG:
                warnings.warn(
                    f"{fam.kind} N={fam.n} {alg}: entry error {entry:.3e} "
                    f"exceeds {ACCURACY_FLAG:.0e} (double precision limit)",
                    stacklevel=2)
            records.append(BenchRecord(fam.kind, fam.n, alg,
                                       int(statistics.median(cell)),
                                       entry, residual, config.reps))
    return records


# ----------------------------------------------------------------------
# report formats
# ----------------------------------------------------------------------

CSV_HEADER = "family,N,algorithm,median_ns,entry_err,spectral_residual,reps"


def _csv_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf"
    return repr(x)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.family},{r.n},{r.algorithm},{r.median_ns},"
                     f"{_csv_float(r.entry_err)},{_csv_float(r.spectral_residual)},{r.reps}")
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    """JSON array with the CSV field names; non-finite floats become null."""
    def clean(x: float):
        return x if math.isfinite(x) else None

    doc = [{"family": r.family, "N": r.n, "algorithm": r.algorithm,
            "median_ns": r.median_ns, "entry_err": clean(r.entry_err),
            "spectral_residual": clean(r.spectral_residual), "reps": r.reps}
           for r in records]
    return json.dumps(doc, indent=1) + "\n"
